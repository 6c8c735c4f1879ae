//! The 22 design components of Table III and their hardware-parameter sensitivity lists.

use crate::params::HwParam;
use std::fmt;

/// One of the 22 components the paper decomposes the BOOM core into (Table III).
///
/// Each component carries the list of architecture-level hardware parameters it is
/// sensitive to ([`Component::hw_params`]); this is the `H` feature set of its
/// per-component sub-models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// TAGE predictor tables of the branch predictor.
    BpTage,
    /// Branch target buffer of the branch predictor.
    BpBtb,
    /// Remaining branch-predictor logic (RAS, meta, checkpointing).
    BpOthers,
    /// Instruction-cache tag array.
    ICacheTagArray,
    /// Instruction-cache data array.
    ICacheDataArray,
    /// Remaining instruction-cache logic (replay, fill, arbitration).
    ICacheOthers,
    /// Rename unit.
    Rnu,
    /// Re-order buffer.
    Rob,
    /// Integer + floating-point physical register files.
    Regfile,
    /// Data-cache tag array.
    DCacheTagArray,
    /// Data-cache data array.
    DCacheDataArray,
    /// Remaining data-cache logic (wb buffer, prober, arbitration).
    DCacheOthers,
    /// Floating-point issue unit.
    FpIsu,
    /// Integer issue unit.
    IntIsu,
    /// Memory issue unit.
    MemIsu,
    /// Instruction TLB.
    ITlb,
    /// Data TLB.
    DTlb,
    /// Functional-unit pool (ALUs, FPUs, AGUs).
    FuPool,
    /// Everything not covered by the other components (buses, CSRs, glue logic).
    OtherLogic,
    /// Data-cache miss status holding registers.
    DCacheMshr,
    /// Load/store unit (load queue, store queue, forwarding).
    Lsu,
    /// Instruction fetch unit (fetch buffer, fetch target queue).
    Ifu,
}

impl Component {
    /// All 22 components in a stable order.
    pub const ALL: [Component; 22] = [
        Component::BpTage,
        Component::BpBtb,
        Component::BpOthers,
        Component::ICacheTagArray,
        Component::ICacheDataArray,
        Component::ICacheOthers,
        Component::Rnu,
        Component::Rob,
        Component::Regfile,
        Component::DCacheTagArray,
        Component::DCacheDataArray,
        Component::DCacheOthers,
        Component::FpIsu,
        Component::IntIsu,
        Component::MemIsu,
        Component::ITlb,
        Component::DTlb,
        Component::FuPool,
        Component::OtherLogic,
        Component::DCacheMshr,
        Component::Lsu,
        Component::Ifu,
    ];

    /// Short, stable name used in printed tables and feature names.
    pub fn name(self) -> &'static str {
        match self {
            Component::BpTage => "BP-TAGE",
            Component::BpBtb => "BP-BTB",
            Component::BpOthers => "BP-Others",
            Component::ICacheTagArray => "ICacheTagArray",
            Component::ICacheDataArray => "ICacheDataArray",
            Component::ICacheOthers => "ICacheOthers",
            Component::Rnu => "RNU",
            Component::Rob => "ROB",
            Component::Regfile => "Regfile",
            Component::DCacheTagArray => "DCacheTagArray",
            Component::DCacheDataArray => "DCacheDataArray",
            Component::DCacheOthers => "DCacheOthers",
            Component::FpIsu => "FP-ISU",
            Component::IntIsu => "Int-ISU",
            Component::MemIsu => "Mem-ISU",
            Component::ITlb => "I-TLB",
            Component::DTlb => "D-TLB",
            Component::FuPool => "FU-Pool",
            Component::OtherLogic => "OtherLogic",
            Component::DCacheMshr => "DCacheMSHR",
            Component::Lsu => "LSU",
            Component::Ifu => "IFU",
        }
    }

    /// Stable index of the component in [`Component::ALL`].
    pub fn index(self) -> usize {
        Component::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every component is listed in ALL")
    }

    /// The hardware parameters this component is sensitive to (Table III).
    ///
    /// These are the `H` features of all per-component sub-models; the netlist substrate
    /// also uses them as the drivers of the component's synthesized structure.
    pub fn hw_params(self) -> &'static [HwParam] {
        use HwParam::*;
        match self {
            Component::BpTage | Component::BpBtb | Component::BpOthers => {
                &[FetchWidth, BranchCount]
            }
            Component::ICacheTagArray | Component::ICacheDataArray | Component::ICacheOthers => {
                &[CacheWay, ICacheFetchBytes]
            }
            Component::Rnu => &[DecodeWidth],
            Component::Rob => &[DecodeWidth, RobEntry],
            Component::Regfile => &[DecodeWidth, IntPhyRegister, FpPhyRegister],
            Component::DCacheTagArray | Component::DCacheOthers => {
                &[CacheWay, MemFpIssueWidth, DtlbEntry]
            }
            Component::DCacheDataArray => &[CacheWay, MemFpIssueWidth],
            Component::FpIsu => &[DecodeWidth, MemFpIssueWidth],
            Component::IntIsu => &[DecodeWidth, IntIssueWidth],
            Component::MemIsu => &[DecodeWidth, MemFpIssueWidth],
            Component::ITlb => &[DtlbEntry],
            Component::DTlb => &[DtlbEntry],
            Component::FuPool => &[MemFpIssueWidth, IntIssueWidth],
            Component::OtherLogic => &HwParam::ALL,
            Component::DCacheMshr => &[MshrEntry],
            Component::Lsu => &[LdqStqEntry, MemFpIssueWidth],
            Component::Ifu => &[FetchWidth, DecodeWidth, FetchBufferEntry],
        }
    }

    /// Whether the component contains at least one SRAM Position.
    pub fn has_sram(self) -> bool {
        !crate::sram::sram_positions_for(self).is_empty()
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_components_with_unique_names() {
        assert_eq!(Component::ALL.len(), 22);
        let mut names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 22);
    }

    #[test]
    fn indices_are_stable() {
        for (i, c) in Component::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn every_component_has_at_least_one_hw_param() {
        for c in Component::ALL {
            assert!(!c.hw_params().is_empty(), "{c} has no hardware parameters");
        }
    }

    #[test]
    fn table_iii_spot_checks() {
        assert_eq!(
            Component::Ifu.hw_params(),
            &[
                HwParam::FetchWidth,
                HwParam::DecodeWidth,
                HwParam::FetchBufferEntry
            ]
        );
        assert_eq!(
            Component::Regfile.hw_params(),
            &[
                HwParam::DecodeWidth,
                HwParam::IntPhyRegister,
                HwParam::FpPhyRegister
            ]
        );
        assert_eq!(Component::DCacheMshr.hw_params(), &[HwParam::MshrEntry]);
        assert_eq!(Component::OtherLogic.hw_params().len(), 14);
    }

    #[test]
    fn sram_bearing_components_marked() {
        assert!(Component::ICacheDataArray.has_sram());
        assert!(Component::Ifu.has_sram());
        assert!(!Component::FuPool.has_sram());
        assert!(!Component::OtherLogic.has_sram());
    }
}
