//! Synthetic synthesis substrate ("Chipyard + Design Compiler" substitute).
//!
//! The paper collects its structural ground truth — per-component register counts,
//! clock-gating information and SRAM block shapes — from synthesized netlists of the
//! BOOM RTL.  This crate replaces that flow with a deterministic synthesis *model*:
//! [`synthesize`] maps a [`CpuConfig`] and a [`TechLibrary`] to a [`Netlist`] whose
//! per-component summaries follow the same structural trends the paper observes:
//!
//! * register counts grow (mostly linearly) with the component's hardware parameters of
//!   Table III, with a small amount of configuration-specific "synthesis noise";
//! * a large, component-dependent fraction of registers is clock gated;
//! * each SRAM Position is implemented by SRAM Blocks whose width/depth/count follow the
//!   capacity- and throughput-scaling patterns of Section II-B (the IFU `ftq_meta`
//!   position reproduces Table I exactly);
//! * combinational area grows super-linearly for width-sensitive structures (rename,
//!   issue select), which is what makes combinational power the hardest group to model.
//!
//! Nothing in this crate is visible to the AutoPower model at prediction time; the model
//! only ever reads netlists of the *training* configurations, exactly as the paper does.
//!
//! # Example
//!
//! ```
//! use autopower_config::{boom_configs, Component};
//! use autopower_netlist::synthesize;
//! use autopower_techlib::TechLibrary;
//!
//! let lib = TechLibrary::tsmc40_like();
//! let netlist = synthesize(&boom_configs()[0], &lib);
//! let rob = netlist.component(Component::Rob);
//! assert!(rob.registers > 0);
//! assert!(rob.gated_registers <= rob.registers);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod registers;
mod sramblocks;

use autopower_config::{Component, CpuConfig, SramPositionId};
use autopower_techlib::TechLibrary;

pub use sramblocks::SramBlock;

/// Synthesis summary of a single component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentNetlist {
    /// The component this summary describes.
    pub component: Component,
    /// Total number of registers (flip-flops) in the component.
    pub registers: u64,
    /// Number of registers whose clock is gated (`R · g` of Eq. 3).
    pub gated_registers: u64,
    /// Number of integrated clock-gating cells inserted by synthesis.
    pub gating_cells: u64,
    /// Combinational area in gate equivalents.
    pub comb_gates: f64,
    /// SRAM blocks implementing the component's SRAM Positions.
    pub sram_blocks: Vec<SramBlock>,
}

impl ComponentNetlist {
    /// The gating rate `g`: fraction of registers whose clock is gated.
    pub fn gating_rate(&self) -> f64 {
        if self.registers == 0 {
            0.0
        } else {
            self.gated_registers as f64 / self.registers as f64
        }
    }

    /// Total SRAM capacity of the component in bits.
    pub fn sram_bits(&self) -> u64 {
        self.sram_blocks.iter().map(|b| b.bits()).sum()
    }

    /// Looks up the blocks of a specific SRAM Position.
    pub fn blocks_of(&self, position: SramPositionId) -> Option<&SramBlock> {
        self.sram_blocks.iter().find(|b| b.position == position)
    }
}

/// Synthesis summary of the whole core for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// The configuration that was synthesized.
    pub config: CpuConfig,
    /// Per-component summaries, in [`Component::ALL`] order.
    pub components: Vec<ComponentNetlist>,
}

impl Netlist {
    /// The summary of one component.
    ///
    /// # Panics
    ///
    /// Never panics for netlists produced by [`synthesize`], which always contain all 22
    /// components.
    pub fn component(&self, component: Component) -> &ComponentNetlist {
        &self.components[component.index()]
    }

    /// Total register count of the core.
    pub fn total_registers(&self) -> u64 {
        self.components.iter().map(|c| c.registers).sum()
    }

    /// Total gated-register count of the core.
    pub fn total_gated_registers(&self) -> u64 {
        self.components.iter().map(|c| c.gated_registers).sum()
    }

    /// Total combinational area of the core in gate equivalents.
    pub fn total_comb_gates(&self) -> f64 {
        self.components.iter().map(|c| c.comb_gates).sum()
    }

    /// Total SRAM capacity of the core in bits.
    pub fn total_sram_bits(&self) -> u64 {
        self.components.iter().map(|c| c.sram_bits()).sum()
    }
}

/// Synthesizes one configuration into a netlist summary.
///
/// The result is deterministic in `(config, library)`; re-running synthesis for the same
/// configuration always yields the same netlist, like re-running a frozen VLSI flow.
pub fn synthesize(config: &CpuConfig, library: &TechLibrary) -> Netlist {
    let components = Component::ALL
        .iter()
        .map(|&component| {
            let (registers, gated_registers, gating_cells) =
                registers::register_structure(component, config, library);
            let comb_gates = comb::comb_gates(component, config);
            let sram_blocks = sramblocks::blocks_for_component(component, config);
            ComponentNetlist {
                component,
                registers,
                gated_registers,
                gating_cells,
                comb_gates,
                sram_blocks,
            }
        })
        .collect();
    Netlist {
        config: *config,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::{boom_configs, HwParam};
    use proptest::prelude::*;

    fn lib() -> TechLibrary {
        TechLibrary::tsmc40_like()
    }

    #[test]
    fn synthesis_is_deterministic() {
        let cfgs = boom_configs();
        let a = synthesize(&cfgs[4], &lib());
        let b = synthesize(&cfgs[4], &lib());
        assert_eq!(a, b);
    }

    #[test]
    fn all_components_present_in_order() {
        let n = synthesize(&boom_configs()[0], &lib());
        assert_eq!(n.components.len(), 22);
        for (i, c) in n.components.iter().enumerate() {
            assert_eq!(c.component.index(), i);
        }
    }

    #[test]
    fn larger_configs_have_more_of_everything() {
        let cfgs = boom_configs();
        let small = synthesize(&cfgs[0], &lib());
        let large = synthesize(&cfgs[14], &lib());
        assert!(large.total_registers() > small.total_registers());
        assert!(large.total_comb_gates() > small.total_comb_gates());
        assert!(large.total_sram_bits() > small.total_sram_bits());
    }

    #[test]
    fn gated_registers_never_exceed_registers() {
        for cfg in boom_configs() {
            let n = synthesize(&cfg, &lib());
            for c in &n.components {
                assert!(c.gated_registers <= c.registers, "{}", c.component);
                assert!(
                    c.gating_rate() >= 0.4,
                    "{} gating {}",
                    c.component,
                    c.gating_rate()
                );
                assert!(c.gating_rate() <= 0.98);
            }
        }
    }

    #[test]
    fn register_counts_grow_with_their_table_iii_parameters() {
        // Scaling only RobEntry must grow the ROB, not the ICache.
        let base = boom_configs()[7];
        let mut bigger = base;
        bigger
            .params
            .set(HwParam::RobEntry, base.params.value(HwParam::RobEntry) * 2);
        let n0 = synthesize(&base, &lib());
        let n1 = synthesize(&bigger, &lib());
        assert!(n1.component(Component::Rob).registers > n0.component(Component::Rob).registers);
        assert_eq!(
            n1.component(Component::ICacheDataArray).registers,
            n0.component(Component::ICacheDataArray).registers
        );
    }

    proptest! {
        /// Gating cell counts are consistent with the library fan-out (never more cells
        /// than gated registers, never fewer than gated/64).
        #[test]
        fn gating_cells_bounded(idx in 0usize..15) {
            let cfg = boom_configs()[idx];
            let n = synthesize(&cfg, &lib());
            for c in &n.components {
                prop_assert!(c.gating_cells <= c.gated_registers.max(1));
                if c.gated_registers > 64 {
                    prop_assert!(c.gating_cells >= c.gated_registers / 64);
                }
            }
        }
    }
}
