//! The 15 BOOM CPU configurations of Table II.

use crate::params::{HardwareParams, HwParam};
use std::fmt;

/// Number of seeded BOOM configurations (the columns of Table II).
pub const SEED_CONFIG_COUNT: u32 = 15;

/// Identifier of a CPU configuration.
///
/// The 15 seeded BOOM configurations of Table II are `C1` … `C15`
/// ([`ConfigId::new`]); configurations emitted by the design-space generator
/// ([`crate::DesignSpace`]) are `G1`, `G2`, … ([`ConfigId::generated`]) and live
/// in a disjoint identifier range, so a generated configuration can never be
/// mistaken for a seed.  Every deterministic seed in the workspace (synthesis
/// noise, simulator distortion) is derived from [`ConfigId::index`], which is
/// unique across both ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigId(u32);

impl ConfigId {
    /// Creates a seeded-configuration identifier (`C1` … `C15`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= index <= 15`.
    pub fn new(index: u8) -> Self {
        assert!(
            (1..=SEED_CONFIG_COUNT as u8).contains(&index),
            "config index must be in 1..=15"
        );
        Self(u32::from(index))
    }

    /// Creates the identifier of the `n`-th generated (non-seed) configuration,
    /// 1-based: `generated(1)` is `G1`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the identifier would overflow.
    pub fn generated(n: u32) -> Self {
        assert!(n > 0, "generated config numbering is 1-based");
        Self(
            SEED_CONFIG_COUNT
                .checked_add(n)
                .expect("generated config index overflow"),
        )
    }

    /// 1-based index of the configuration, unique across seeds and generated
    /// configurations (seeds occupy `1..=15`, `Gn` maps to `15 + n`).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Whether this identifies one of the 15 seeded Table II configurations.
    pub fn is_seed(self) -> bool {
        self.0 <= SEED_CONFIG_COUNT
    }

    /// The `n` of `Gn` for generated configurations, `None` for seeds.
    pub fn generated_index(self) -> Option<u32> {
        (!self.is_seed()).then(|| self.0 - SEED_CONFIG_COUNT)
    }

    /// All 15 seeded identifiers in order.
    pub fn all() -> impl Iterator<Item = ConfigId> {
        (1..=SEED_CONFIG_COUNT).map(ConfigId)
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.generated_index() {
            Some(n) => write!(f, "G{n}"),
            None => write!(f, "C{}", self.0),
        }
    }
}

/// A named CPU configuration: an identifier plus its full hardware-parameter assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuConfig {
    /// Identifier (`C1` … `C15` for the paper's design space).
    pub id: ConfigId,
    /// Hardware parameter values (one column of Table II).
    pub params: HardwareParams,
}

impl CpuConfig {
    /// Creates a configuration from an identifier and parameters.
    pub fn new(id: ConfigId, params: HardwareParams) -> Self {
        Self { id, params }
    }

    /// Convenience accessor mirroring [`HardwareParams::value`].
    pub fn value(&self, param: HwParam) -> u32 {
        self.params.value(param)
    }
}

impl fmt::Display for CpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Table II, transposed: one row per configuration, columns in [`HwParam::ALL`] order.
const TABLE_II: [[u32; 14]; 15] = [
    // Fetch Dec FBuf Rob IntPR FpPR LdqStq Br MemFp Int Way Dtlb Mshr IFB
    [4, 1, 5, 16, 36, 36, 4, 6, 1, 1, 2, 8, 2, 2], // C1
    [4, 1, 8, 32, 53, 48, 8, 8, 1, 1, 4, 8, 2, 2], // C2
    [4, 1, 16, 48, 68, 56, 16, 10, 1, 1, 8, 16, 4, 2], // C3
    [4, 2, 8, 64, 64, 56, 12, 10, 1, 1, 4, 8, 2, 2], // C4
    [4, 2, 16, 64, 80, 64, 16, 12, 1, 2, 4, 8, 2, 2], // C5
    [8, 2, 24, 80, 88, 72, 20, 14, 1, 2, 8, 16, 4, 4], // C6
    [8, 3, 18, 81, 88, 88, 16, 14, 1, 2, 8, 16, 4, 4], // C7
    [8, 3, 24, 96, 110, 96, 24, 16, 1, 3, 8, 16, 4, 4], // C8
    [8, 3, 30, 114, 112, 112, 32, 16, 2, 3, 8, 32, 4, 4], // C9
    [8, 4, 24, 112, 108, 108, 24, 18, 1, 4, 8, 32, 4, 4], // C10
    [8, 4, 32, 128, 128, 128, 32, 20, 2, 4, 8, 32, 4, 4], // C11
    [8, 4, 40, 136, 136, 136, 36, 20, 2, 4, 8, 32, 8, 4], // C12
    [8, 5, 30, 125, 108, 108, 24, 18, 2, 5, 8, 32, 8, 4], // C13
    [8, 5, 35, 130, 128, 128, 32, 20, 2, 5, 8, 32, 8, 4], // C14
    [8, 5, 40, 140, 140, 140, 36, 20, 2, 5, 8, 32, 8, 4], // C15
];

/// Returns the 15 BOOM configurations of Table II, ordered `C1` … `C15`.
///
/// # Example
///
/// ```
/// use autopower_config::{boom_configs, HwParam};
/// let cfgs = boom_configs();
/// assert_eq!(cfgs[14].value(HwParam::DecodeWidth), 5);
/// ```
pub fn boom_configs() -> Vec<CpuConfig> {
    TABLE_II
        .iter()
        .enumerate()
        .map(|(i, row)| CpuConfig::new(ConfigId::new(i as u8 + 1), HardwareParams::new(*row)))
        .collect()
}

/// Looks up a seeded configuration by identifier.
///
/// # Panics
///
/// Panics if `id` identifies a generated configuration — those carry their
/// parameters themselves (see [`crate::DesignSpace`]) and have no table entry.
pub fn config_by_id(id: ConfigId) -> CpuConfig {
    assert!(
        id.is_seed(),
        "{id} is not one of the 15 seeded configurations"
    );
    boom_configs()[(id.index() - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_configs_in_order() {
        let cfgs = boom_configs();
        assert_eq!(cfgs.len(), 15);
        for (i, c) in cfgs.iter().enumerate() {
            assert_eq!(c.id.index() as usize, i + 1);
        }
    }

    #[test]
    fn spot_check_against_table_ii() {
        let cfgs = boom_configs();
        // C1 column.
        assert_eq!(cfgs[0].value(HwParam::FetchWidth), 4);
        assert_eq!(cfgs[0].value(HwParam::RobEntry), 16);
        assert_eq!(cfgs[0].value(HwParam::BranchCount), 6);
        // C8 column.
        assert_eq!(cfgs[7].value(HwParam::DecodeWidth), 3);
        assert_eq!(cfgs[7].value(HwParam::IntPhyRegister), 110);
        assert_eq!(cfgs[7].value(HwParam::IntIssueWidth), 3);
        // C15 column.
        assert_eq!(cfgs[14].value(HwParam::FetchBufferEntry), 40);
        assert_eq!(cfgs[14].value(HwParam::RobEntry), 140);
        assert_eq!(cfgs[14].value(HwParam::MshrEntry), 8);
        assert_eq!(cfgs[14].value(HwParam::ICacheFetchBytes), 4);
    }

    #[test]
    fn parameters_are_non_decreasing_overall_scale() {
        // The design space is roughly ordered from small to large; the scale index of the
        // largest configuration must exceed that of the smallest.
        let cfgs = boom_configs();
        assert!(cfgs[14].params.scale_index() > cfgs[0].params.scale_index());
    }

    #[test]
    fn config_by_id_roundtrip() {
        for id in ConfigId::all() {
            assert_eq!(config_by_id(id).id, id);
        }
    }

    #[test]
    #[should_panic(expected = "1..=15")]
    fn config_id_out_of_range() {
        let _ = ConfigId::new(16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ConfigId::new(3).to_string(), "C3");
        assert_eq!(config_by_id(ConfigId::new(12)).to_string(), "C12");
        assert_eq!(ConfigId::generated(7).to_string(), "G7");
    }

    #[test]
    fn generated_ids_are_disjoint_from_seeds() {
        let g1 = ConfigId::generated(1);
        assert!(!g1.is_seed());
        assert_eq!(g1.generated_index(), Some(1));
        assert_eq!(g1.index(), SEED_CONFIG_COUNT + 1);
        for seed in ConfigId::all() {
            assert!(seed.is_seed());
            assert_eq!(seed.generated_index(), None);
            assert_ne!(seed, g1);
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn generated_zero_rejected() {
        let _ = ConfigId::generated(0);
    }

    #[test]
    #[should_panic(expected = "not one of the 15 seeded")]
    fn config_by_id_rejects_generated_ids() {
        let _ = config_by_id(ConfigId::generated(3));
    }
}
