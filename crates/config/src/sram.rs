//! The SRAM Position catalogue.
//!
//! The SRAM hierarchy of the paper is `Component → SRAM Position → SRAM Block → SRAM
//! Macro`.  The *positions* (e.g. the `ghist` and `meta` structures of the fetch target
//! queue) are architecture-level facts: they exist for every configuration and their
//! identity is visible to the power model.  Their *blocks* (width/depth/count) are an RTL
//! fact produced by the synthesis substrate, and their *macros* a VLSI fact produced by
//! the technology library's mapping rule.

use crate::component::Component;
use std::fmt;

/// Identifier of an SRAM Position: the owning component plus a stable short name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SramPositionId {
    /// Component the position belongs to.
    pub component: Component,
    /// Short name of the position inside its component (e.g. `"ghist"`).
    pub name: &'static str,
}

impl fmt::Display for SramPositionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.component, self.name)
    }
}

/// An SRAM Position: an architecture-visible SRAM-backed structure inside a component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SramPosition {
    /// Identity of the position.
    pub id: SramPositionId,
    /// Number of write-mask sectors of the blocks implementing this position.
    ///
    /// A write that asserts only `k` of the `mask_sectors` sectors is counted as
    /// `k / mask_sectors` of "one write" when collecting block-level write frequencies
    /// (Section II-B of the paper).
    pub mask_sectors: u32,
    /// Human-readable description of the micro-architectural structure.
    pub description: &'static str,
}

impl SramPosition {
    const fn new(
        component: Component,
        name: &'static str,
        mask_sectors: u32,
        description: &'static str,
    ) -> Self {
        Self {
            id: SramPositionId { component, name },
            mask_sectors,
            description,
        }
    }
}

/// The full SRAM Position catalogue of the modelled BOOM core.
const CATALOGUE: &[SramPosition] = &[
    SramPosition::new(
        Component::BpTage,
        "tage_table",
        1,
        "tagged geometric-history predictor tables",
    ),
    SramPosition::new(
        Component::BpTage,
        "tage_meta",
        1,
        "usefulness / provider metadata of the TAGE tables",
    ),
    SramPosition::new(
        Component::BpBtb,
        "btb_data",
        2,
        "branch target buffer targets",
    ),
    SramPosition::new(Component::BpBtb, "btb_tag", 1, "branch target buffer tags"),
    SramPosition::new(
        Component::ICacheTagArray,
        "itag",
        1,
        "instruction-cache tag array",
    ),
    SramPosition::new(
        Component::ICacheDataArray,
        "idata",
        2,
        "instruction-cache data array",
    ),
    SramPosition::new(Component::DCacheTagArray, "dtag", 1, "data-cache tag array"),
    SramPosition::new(
        Component::DCacheDataArray,
        "ddata",
        4,
        "data-cache data array",
    ),
    SramPosition::new(
        Component::Rob,
        "rob_meta",
        1,
        "re-order buffer payload table",
    ),
    SramPosition::new(
        Component::Regfile,
        "int_rf",
        1,
        "integer physical register file banks",
    ),
    SramPosition::new(
        Component::Regfile,
        "fp_rf",
        1,
        "floating-point physical register file banks",
    ),
    SramPosition::new(
        Component::ITlb,
        "itlb_array",
        1,
        "instruction TLB entry array",
    ),
    SramPosition::new(Component::DTlb, "dtlb_array", 1, "data TLB entry array"),
    SramPosition::new(
        Component::DCacheMshr,
        "mshr_table",
        1,
        "miss status holding register payload table",
    ),
    SramPosition::new(Component::Lsu, "ldq_data", 2, "load queue payload"),
    SramPosition::new(
        Component::Lsu,
        "stq_data",
        2,
        "store queue data and address",
    ),
    SramPosition::new(
        Component::Ifu,
        "ftq_ghist",
        1,
        "fetch target queue global-history snapshots",
    ),
    SramPosition::new(
        Component::Ifu,
        "ftq_meta",
        1,
        "fetch target queue branch-prediction metadata",
    ),
    SramPosition::new(
        Component::Ifu,
        "fetch_buffer",
        2,
        "fetch buffer between the IFU and decode",
    ),
];

/// Returns the full SRAM Position catalogue (19 positions over 13 components).
///
/// # Example
///
/// ```
/// use autopower_config::{sram_positions, Component};
/// let idata: Vec<_> = sram_positions()
///     .iter()
///     .filter(|p| p.id.component == Component::ICacheDataArray)
///     .collect();
/// assert_eq!(idata.len(), 1);
/// ```
pub fn sram_positions() -> &'static [SramPosition] {
    CATALOGUE
}

/// Returns the SRAM Positions belonging to a single component (possibly empty).
pub fn sram_positions_for(component: Component) -> Vec<SramPosition> {
    CATALOGUE
        .iter()
        .copied()
        .filter(|p| p.id.component == component)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_nineteen_unique_positions() {
        assert_eq!(CATALOGUE.len(), 19);
        let mut ids: Vec<_> = CATALOGUE.iter().map(|p| p.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 19);
    }

    #[test]
    fn mask_sectors_are_positive() {
        for p in CATALOGUE {
            assert!(p.mask_sectors >= 1, "{} has zero mask sectors", p.id);
        }
    }

    #[test]
    fn ifu_has_the_paper_positions() {
        let names: Vec<_> = sram_positions_for(Component::Ifu)
            .iter()
            .map(|p| p.id.name)
            .collect();
        assert!(names.contains(&"ftq_ghist"));
        assert!(names.contains(&"ftq_meta"));
        assert!(names.contains(&"fetch_buffer"));
    }

    #[test]
    fn positions_only_on_sram_components() {
        for p in CATALOGUE {
            assert!(p.id.component.has_sram());
        }
        assert!(sram_positions_for(Component::FuPool).is_empty());
    }

    #[test]
    fn display_is_component_dot_name() {
        let p = sram_positions_for(Component::DCacheDataArray)[0];
        assert_eq!(p.id.to_string(), "DCacheDataArray.ddata");
    }
}
