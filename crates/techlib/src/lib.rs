//! Synthetic 40 nm-class technology library.
//!
//! The AutoPower paper evaluates on a TSMC 40 nm standard-cell library plus its memory
//! compiler.  Those artefacts are proprietary, so this crate provides a synthetic stand-in
//! with the same *interface* and the same *relative* behaviour:
//!
//! * [`CellParams`] — per-cell energies/powers of the standard-cell library that the
//!   power model looks up directly: register clock-pin power `p_reg`, the clock-gating
//!   cell latch-pin power `p_latch`, register internal switching energy, combinational
//!   dynamic/leakage power densities.
//! * [`SramCompiler`] — the memory-compiler view: a discrete catalogue of supported
//!   [`SramMacro`] shapes with read/write energies and leakage, and the VLSI-flow
//!   [`SramCompiler::map_block`] rule that decomposes an arbitrary SRAM Block shape into
//!   a grid of supported macros (this is the "macro-level mapping" input of Section II-B).
//! * [`TechLibrary`] — the bundle of both, created by [`TechLibrary::tsmc40_like`].
//!
//! All powers are in **milliwatts at the nominal 1 GHz clock**; all energies are in
//! **picojoules**, so `power_mw = energy_pj × accesses_per_cycle` at 1 GHz.
//!
//! # Example
//!
//! ```
//! use autopower_techlib::TechLibrary;
//!
//! let lib = TechLibrary::tsmc40_like();
//! // Clock-pin power per register, looked up from the library (Eq. 7 of the paper).
//! assert!(lib.cells().register_clock_pin_mw > 0.0);
//! // Map a 30x320-bit SRAM block onto supported macros.
//! let mapping = lib.sram().map_block(30, 320);
//! assert!(mapping.total_bits() >= 30 * 320);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
mod sram;

pub use cells::CellParams;
pub use sram::{BlockMapping, SramCompiler, SramMacro};

/// A bundle of standard-cell parameters and the memory compiler for one technology node.
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    /// Short name of the node (e.g. `"synthetic-40nm"`).
    pub node: String,
    /// Nominal clock frequency in GHz; all `*_mw` figures assume this frequency.
    pub clock_ghz: f64,
    cells: CellParams,
    sram: SramCompiler,
}

impl TechLibrary {
    /// Builds the default synthetic 40 nm-class library used throughout the reproduction.
    ///
    /// The absolute values are representative of a 40 nm node at 1 GHz and 0.9 V; only
    /// their relative magnitudes matter for the experiments (clock + SRAM dominance,
    /// SRAM access energy ≫ register toggle energy, etc.).
    pub fn tsmc40_like() -> Self {
        Self {
            node: "synthetic-40nm".to_owned(),
            clock_ghz: 1.0,
            cells: CellParams::default_40nm(),
            sram: SramCompiler::default_40nm(),
        }
    }

    /// Standard-cell parameters of the library.
    pub fn cells(&self) -> &CellParams {
        &self.cells
    }

    /// Memory-compiler view of the library.
    pub fn sram(&self) -> &SramCompiler {
        &self.sram
    }

    /// Creates a library with custom parts (useful for sensitivity studies and tests).
    ///
    /// # Panics
    ///
    /// Panics if `clock_ghz` is not strictly positive.
    pub fn with_parts(
        node: impl Into<String>,
        clock_ghz: f64,
        cells: CellParams,
        sram: SramCompiler,
    ) -> Self {
        assert!(clock_ghz > 0.0, "clock frequency must be positive");
        Self {
            node: node.into(),
            clock_ghz,
            cells,
            sram,
        }
    }
}

impl Default for TechLibrary {
    fn default() -> Self {
        Self::tsmc40_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_is_consistent() {
        let lib = TechLibrary::default();
        assert_eq!(lib.node, "synthetic-40nm");
        assert!(lib.clock_ghz > 0.0);
        assert!(lib.cells().register_clock_pin_mw > 0.0);
        assert!(!lib.sram().supported_macros().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_clock_rejected() {
        let lib = TechLibrary::tsmc40_like();
        let _ = TechLibrary::with_parts("x", 0.0, lib.cells().clone(), lib.sram().clone());
    }
}
