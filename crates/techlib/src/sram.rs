//! The memory-compiler view: supported SRAM macros and the block-to-macro mapping rule.

use std::fmt;

/// One SRAM macro shape supported by the memory compiler, with its energy figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Word width in bits.
    pub width: u32,
    /// Number of words.
    pub depth: u32,
    /// Energy of one read access, in pJ.
    pub read_energy_pj: f64,
    /// Energy of one write access, in pJ.
    pub write_energy_pj: f64,
    /// Leakage power, in mW.
    pub leakage_mw: f64,
    /// Relative area in arbitrary units (used only to pick the best-fit macro).
    pub area: f64,
}

impl SramMacro {
    /// Capacity of the macro in bits.
    pub fn bits(&self) -> u64 {
        self.width as u64 * self.depth as u64
    }
}

impl fmt::Display for SramMacro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sram_{}x{}", self.width, self.depth)
    }
}

/// How one SRAM Block is built from supported SRAM Macros (the result of the VLSI-flow
/// mapping rule, Fig. 3(b) of the paper).
///
/// The block is tiled as a grid of identical macros: `rows` macros side-by-side cover the
/// block width and `cols` macros stacked on top of each other cover the block depth.
/// `cols` is the `N_col` of Eq. 9 — a block read activates exactly one horizontal row of
/// macros, so each macro sees `1 / cols` of the block's read (and write) traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMapping {
    /// The selected macro shape.
    pub macro_spec: SramMacro,
    /// Number of macros side-by-side covering the block width.
    pub rows: u32,
    /// Number of macros stacked to cover the block depth (`N_col` of Eq. 9).
    pub cols: u32,
}

impl BlockMapping {
    /// Total number of macro instances.
    pub fn macro_count(&self) -> u32 {
        self.rows * self.cols
    }

    /// Total capacity of the mapping in bits (≥ the block capacity).
    pub fn total_bits(&self) -> u64 {
        self.macro_spec.bits() * self.macro_count() as u64
    }

    /// Number of macros stacked in the depth direction (`N_col` of Eq. 9).
    pub fn n_col(&self) -> u32 {
        self.cols
    }
}

/// The memory compiler: a discrete catalogue of supported macros plus the deterministic
/// mapping rule used by the VLSI flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SramCompiler {
    macros: Vec<SramMacro>,
}

impl SramCompiler {
    /// Builds the default 40 nm-class macro catalogue.
    ///
    /// Widths and depths follow the usual power-of-two grid a single-port compiler
    /// offers; energies follow a `E ≈ a + b·width·sqrt(depth)` trend which captures the
    /// first-order physics (bitline energy grows with width, wordline/sensing with the
    /// square root of depth).
    pub fn default_40nm() -> Self {
        let widths = [8u32, 16, 32, 40, 64, 80, 128];
        let depths = [64u32, 128, 256, 512, 1024, 2048];
        let mut macros = Vec::with_capacity(widths.len() * depths.len());
        for &w in &widths {
            for &d in &depths {
                macros.push(Self::synth_macro(w, d));
            }
        }
        Self { macros }
    }

    fn synth_macro(width: u32, depth: u32) -> SramMacro {
        let w = width as f64;
        let d = depth as f64;
        let read_energy_pj = 0.7 + 0.008 * w * (d / 64.0).sqrt();
        let write_energy_pj = 1.12 * read_energy_pj + 0.15;
        let leakage_mw = 2.4e-6 * w * d;
        let area = w * d + 220.0 * (w + d.sqrt());
        SramMacro {
            width,
            depth,
            read_energy_pj,
            write_energy_pj,
            leakage_mw,
            area,
        }
    }

    /// Builds a compiler from an explicit macro list (useful for tests and studies).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or contains a macro with zero width or depth.
    pub fn from_macros(macros: Vec<SramMacro>) -> Self {
        assert!(!macros.is_empty(), "macro catalogue must not be empty");
        assert!(
            macros.iter().all(|m| m.width > 0 && m.depth > 0),
            "macros must have positive width and depth"
        );
        Self { macros }
    }

    /// The supported macro shapes.
    pub fn supported_macros(&self) -> &[SramMacro] {
        &self.macros
    }

    /// Maps one SRAM Block of shape `width × depth` (bits × words) onto supported macros.
    ///
    /// The rule is the usual automatic one of a VLSI flow: every supported macro is tried
    /// as the tile, the grid `ceil(width/mw) × ceil(depth/md)` is computed, and the
    /// candidate with the smallest total area is chosen (ties broken by fewer macro
    /// instances, then by the smaller macro).  The rule is deterministic and identical for
    /// every processor implemented with this flow, which is exactly the property the
    /// paper's macro-level mapping relies on.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn map_block(&self, width: u32, depth: u32) -> BlockMapping {
        assert!(width > 0 && depth > 0, "block shape must be positive");
        let mut best: Option<(f64, u32, BlockMapping)> = None;
        for &m in &self.macros {
            let rows = width.div_ceil(m.width);
            let cols = depth.div_ceil(m.depth);
            let count = rows * cols;
            let total_area = m.area * count as f64;
            let candidate = BlockMapping {
                macro_spec: m,
                rows,
                cols,
            };
            let better = match &best {
                None => true,
                Some((area, cnt, b)) => {
                    total_area < *area - 1e-9
                        || ((total_area - *area).abs() <= 1e-9
                            && (count < *cnt || (count == *cnt && m.bits() < b.macro_spec.bits())))
                }
            };
            if better {
                best = Some((total_area, count, candidate));
            }
        }
        best.expect("catalogue is non-empty").2
    }

    /// Leakage power of the whole catalogue entry grid for a mapped block, in mW.
    pub fn mapping_leakage_mw(&self, mapping: &BlockMapping) -> f64 {
        mapping.macro_spec.leakage_mw * mapping.macro_count() as f64
    }
}

impl Default for SramCompiler {
    fn default() -> Self {
        Self::default_40nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn catalogue_is_reasonably_sized() {
        let c = SramCompiler::default_40nm();
        assert_eq!(c.supported_macros().len(), 7 * 6);
    }

    #[test]
    fn energies_grow_with_size() {
        let c = SramCompiler::default_40nm();
        let small = c.map_block(8, 64).macro_spec;
        let large = c.map_block(128, 2048).macro_spec;
        assert!(large.read_energy_pj > small.read_energy_pj);
        assert!(large.write_energy_pj > large.read_energy_pj);
    }

    #[test]
    fn exact_fit_maps_to_single_macro() {
        let c = SramCompiler::default_40nm();
        let m = c.map_block(64, 512);
        assert_eq!(m.macro_count(), 1);
        assert_eq!(m.macro_spec.width, 64);
        assert_eq!(m.macro_spec.depth, 512);
    }

    #[test]
    fn paper_table_i_example_shape_is_coverable() {
        // Table I: the IFU metadata table of C15 uses blocks of width 40, depth 240.
        let c = SramCompiler::default_40nm();
        let m = c.map_block(40, 240);
        assert!(m.total_bits() >= 40 * 240);
        // Must stack at least one macro in depth; that stack count is N_col of Eq. 9.
        assert!(m.n_col() >= 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_rejected() {
        let _ = SramCompiler::default_40nm().map_block(0, 16);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_catalogue_rejected() {
        let _ = SramCompiler::from_macros(Vec::new());
    }

    #[test]
    fn mapping_is_deterministic() {
        let c = SramCompiler::default_40nm();
        assert_eq!(c.map_block(30, 320), c.map_block(30, 320));
    }

    proptest! {
        /// The mapping always covers the requested block capacity and never uses an
        /// absurdly larger one (bounded waste).
        #[test]
        fn mapping_covers_block(width in 1u32..200, depth in 1u32..4096) {
            let c = SramCompiler::default_40nm();
            let m = c.map_block(width, depth);
            prop_assert!(m.total_bits() >= width as u64 * depth as u64);
            prop_assert!(m.rows as u64 * m.macro_spec.width as u64 >= width as u64);
            prop_assert!(m.cols as u64 * m.macro_spec.depth as u64 >= depth as u64);
            // The chosen grid never over-provisions by more than the largest macro in
            // each dimension.
            prop_assert!((m.rows - 1) as u64 * m.macro_spec.width as u64 <= width as u64);
            prop_assert!((m.cols - 1) as u64 * m.macro_spec.depth as u64 <= depth as u64);
        }

        /// Leakage scales with the macro count.
        #[test]
        fn leakage_is_positive(width in 1u32..200, depth in 1u32..4096) {
            let c = SramCompiler::default_40nm();
            let m = c.map_block(width, depth);
            prop_assert!(c.mapping_leakage_mw(&m) > 0.0);
        }
    }
}
