//! Hardware parameters (Table II of the paper).

use std::fmt;

/// One of the 14 architecture-level hardware parameters used in the paper (Table II).
///
/// The paper folds a few symmetric parameters into a single row (`LDQ/STQEntry`,
/// `Mem/FpIssueWidth`, `DCache/ICacheWay`); we keep the folded representation and expose
/// convenience accessors on [`HardwareParams`] for the individual views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HwParam {
    /// Number of instructions fetched per cycle.
    FetchWidth,
    /// Number of instructions decoded/renamed per cycle.
    DecodeWidth,
    /// Entries in the fetch buffer between the IFU and the decode stage.
    FetchBufferEntry,
    /// Re-order buffer entries.
    RobEntry,
    /// Integer physical register file size.
    IntPhyRegister,
    /// Floating-point physical register file size.
    FpPhyRegister,
    /// Load-queue / store-queue entries (symmetric in the evaluated configurations).
    LdqStqEntry,
    /// Maximum number of in-flight branches.
    BranchCount,
    /// Memory / floating-point issue width (symmetric in the evaluated configurations).
    MemFpIssueWidth,
    /// Integer issue width.
    IntIssueWidth,
    /// Data-cache / instruction-cache associativity (symmetric in the evaluated configurations).
    CacheWay,
    /// Data TLB entries.
    DtlbEntry,
    /// Miss status holding register entries of the data cache.
    MshrEntry,
    /// Bytes fetched from the instruction cache per access.
    ICacheFetchBytes,
}

impl HwParam {
    /// All hardware parameters in the row order of Table II.
    pub const ALL: [HwParam; 14] = [
        HwParam::FetchWidth,
        HwParam::DecodeWidth,
        HwParam::FetchBufferEntry,
        HwParam::RobEntry,
        HwParam::IntPhyRegister,
        HwParam::FpPhyRegister,
        HwParam::LdqStqEntry,
        HwParam::BranchCount,
        HwParam::MemFpIssueWidth,
        HwParam::IntIssueWidth,
        HwParam::CacheWay,
        HwParam::DtlbEntry,
        HwParam::MshrEntry,
        HwParam::ICacheFetchBytes,
    ];

    /// Short, stable name used in feature vectors and printed tables.
    pub fn name(self) -> &'static str {
        match self {
            HwParam::FetchWidth => "FetchWidth",
            HwParam::DecodeWidth => "DecodeWidth",
            HwParam::FetchBufferEntry => "FetchBufferEntry",
            HwParam::RobEntry => "RobEntry",
            HwParam::IntPhyRegister => "IntPhyRegister",
            HwParam::FpPhyRegister => "FpPhyRegister",
            HwParam::LdqStqEntry => "LdqStqEntry",
            HwParam::BranchCount => "BranchCount",
            HwParam::MemFpIssueWidth => "MemFpIssueWidth",
            HwParam::IntIssueWidth => "IntIssueWidth",
            HwParam::CacheWay => "CacheWay",
            HwParam::DtlbEntry => "DtlbEntry",
            HwParam::MshrEntry => "MshrEntry",
            HwParam::ICacheFetchBytes => "ICacheFetchBytes",
        }
    }

    /// Stable index of the parameter in [`HwParam::ALL`].
    pub fn index(self) -> usize {
        HwParam::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every parameter is listed in ALL")
    }
}

impl fmt::Display for HwParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete assignment of all 14 hardware parameters (one column of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HardwareParams {
    values: [u32; 14],
}

impl HardwareParams {
    /// Creates a parameter set from values given in the row order of Table II.
    ///
    /// # Panics
    ///
    /// Panics if any value is zero — all parameters of the evaluated design space are
    /// strictly positive.
    pub fn new(values: [u32; 14]) -> Self {
        assert!(
            values.iter().all(|&v| v > 0),
            "hardware parameters must be strictly positive"
        );
        Self { values }
    }

    /// Builds a parameter set from `(parameter, value)` pairs.
    ///
    /// Missing parameters default to the smallest configuration (C1) values, which makes
    /// the builder convenient for "what-if" exploration around a small baseline.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (HwParam, u32)>,
    {
        let mut base = crate::configs::boom_configs()[0].params;
        for (p, v) in pairs {
            base.set(p, v);
        }
        base
    }

    /// Value of a single hardware parameter.
    pub fn value(&self, param: HwParam) -> u32 {
        self.values[param.index()]
    }

    /// Sets a single hardware parameter.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero.
    pub fn set(&mut self, param: HwParam, value: u32) {
        assert!(value > 0, "hardware parameters must be strictly positive");
        self.values[param.index()] = value;
    }

    /// All values in the row order of Table II.
    pub fn values(&self) -> &[u32; 14] {
        &self.values
    }

    /// Iterates over `(parameter, value)` pairs in Table II order.
    pub fn iter(&self) -> impl Iterator<Item = (HwParam, u32)> + '_ {
        HwParam::ALL.iter().map(move |&p| (p, self.value(p)))
    }

    /// Load-queue entries (alias of the folded `LDQ/STQEntry` row).
    pub fn ldq_entries(&self) -> u32 {
        self.value(HwParam::LdqStqEntry)
    }

    /// Store-queue entries (alias of the folded `LDQ/STQEntry` row).
    pub fn stq_entries(&self) -> u32 {
        self.value(HwParam::LdqStqEntry)
    }

    /// Memory issue width (alias of the folded `Mem/FpIssueWidth` row).
    pub fn mem_issue_width(&self) -> u32 {
        self.value(HwParam::MemFpIssueWidth)
    }

    /// Floating-point issue width (alias of the folded `Mem/FpIssueWidth` row).
    pub fn fp_issue_width(&self) -> u32 {
        self.value(HwParam::MemFpIssueWidth)
    }

    /// Instruction-cache associativity (alias of the folded `DCache/ICacheWay` row).
    pub fn icache_ways(&self) -> u32 {
        self.value(HwParam::CacheWay)
    }

    /// Data-cache associativity (alias of the folded `DCache/ICacheWay` row).
    pub fn dcache_ways(&self) -> u32 {
        self.value(HwParam::CacheWay)
    }

    /// Instruction TLB entries.
    ///
    /// Table II does not list a dedicated ITLB row; as in the BOOM configurations of the
    /// paper's artifact the ITLB tracks the DTLB sizing, so the DTLB entry count is used.
    pub fn itlb_entries(&self) -> u32 {
        self.value(HwParam::DtlbEntry)
    }

    /// A scalar proxy for the overall scale of the configuration, used by the synthetic
    /// substrates for "everything else" (wiring, glue logic) that grows with the core.
    ///
    /// It is the geometric-mean-like product of the width-class parameters; it is *not*
    /// used by the AutoPower model itself (which only sees the raw parameters).
    pub fn scale_index(&self) -> f64 {
        let d = self.value(HwParam::DecodeWidth) as f64;
        let f = self.value(HwParam::FetchWidth) as f64;
        let r = self.value(HwParam::RobEntry) as f64;
        let i = self.value(HwParam::IntIssueWidth) as f64;
        (d * f * i).powf(1.0 / 3.0) * (r / 16.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_indices_are_stable_and_unique() {
        for (i, p) in HwParam::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut names: Vec<_> = HwParam::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut p = HardwareParams::new([4, 1, 5, 16, 36, 36, 4, 6, 1, 1, 2, 8, 2, 2]);
        p.set(HwParam::RobEntry, 96);
        assert_eq!(p.value(HwParam::RobEntry), 96);
        assert_eq!(p.value(HwParam::FetchWidth), 4);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_parameter_rejected() {
        let _ = HardwareParams::new([0, 1, 5, 16, 36, 36, 4, 6, 1, 1, 2, 8, 2, 2]);
    }

    #[test]
    fn folded_aliases_agree() {
        let p = HardwareParams::new([8, 5, 40, 140, 140, 140, 36, 20, 2, 5, 8, 32, 8, 4]);
        assert_eq!(p.ldq_entries(), p.stq_entries());
        assert_eq!(p.mem_issue_width(), p.fp_issue_width());
        assert_eq!(p.icache_ways(), p.dcache_ways());
        assert_eq!(p.itlb_entries(), p.value(HwParam::DtlbEntry));
    }

    #[test]
    fn from_pairs_overrides_baseline() {
        let p = HardwareParams::from_pairs([(HwParam::DecodeWidth, 3), (HwParam::RobEntry, 96)]);
        assert_eq!(p.value(HwParam::DecodeWidth), 3);
        assert_eq!(p.value(HwParam::RobEntry), 96);
        // Untouched parameters come from C1.
        assert_eq!(p.value(HwParam::FetchWidth), 4);
    }

    #[test]
    fn scale_index_monotone_in_decode_width() {
        let small = HardwareParams::from_pairs([(HwParam::DecodeWidth, 1)]);
        let large = HardwareParams::from_pairs([(HwParam::DecodeWidth, 5)]);
        assert!(large.scale_index() > small.scale_index());
    }
}
