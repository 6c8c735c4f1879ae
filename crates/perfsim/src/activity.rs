//! Derivation of *true* micro-architectural activity from the pipeline counters.
//!
//! The golden power flow (the PrimePower substitute) consumes this activity; the
//! architecture-level models never see it directly — they only see the (possibly
//! distorted) [`EventParams`](crate::EventParams) and, for training configurations, the
//! labels extracted from golden reports.

use crate::events::EventCounters;
use autopower_config::{sram_positions, Component, CpuConfig, HwParam, SramPositionId};

/// True activity of one component over a window of cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentActivity {
    /// Fraction of cycles in which the clocks of the component's *gated* registers are
    /// enabled (the true `α` of Eq. 3).
    pub clock_active_rate: f64,
    /// Average fraction of the component's registers whose data input toggles per cycle.
    pub reg_toggle_rate: f64,
    /// Switching-activity factor of the component's combinational logic (0–1).
    pub comb_activity: f64,
}

/// True SRAM activity of one SRAM Position over a window of cycles.
///
/// Rates are *position-level* totals (summed over all banks); per-block frequencies are
/// obtained by dividing by the block count of the position's netlist entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionActivity {
    /// The SRAM Position.
    pub position: SramPositionId,
    /// Read accesses per cycle (position-level).
    pub reads_per_cycle: f64,
    /// Write accesses per cycle (position-level), already in "one write = all mask
    /// sectors valid" units.
    pub writes_per_cycle: f64,
}

/// True activity of the whole core over a window of cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySnapshot {
    /// Per-component activity, indexed by [`Component::ALL`] order.
    pub components: Vec<ComponentActivity>,
    /// Per-SRAM-Position activity, in catalogue order.
    pub positions: Vec<PositionActivity>,
}

impl ActivitySnapshot {
    /// Activity of one component.
    pub fn component(&self, component: Component) -> ComponentActivity {
        self.components[component.index()]
    }

    /// Activity of one SRAM Position, if it exists in the catalogue.
    pub fn position(&self, position: SramPositionId) -> Option<PositionActivity> {
        self.positions
            .iter()
            .copied()
            .find(|p| p.position == position)
    }
}

/// Per-interval record: the interval's raw counters plus its derived true activity.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Cycle at which the interval starts.
    pub start_cycle: u64,
    /// Raw counters accumulated during the interval.
    pub counters: EventCounters,
    /// True activity during the interval.
    pub activity: ActivitySnapshot,
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.02, 0.98)
}

/// Derives the true activity of a window from its counters.
pub fn derive_activity(delta: &EventCounters, config: &CpuConfig) -> ActivitySnapshot {
    use HwParam::*;
    let cyc = delta.cycles.max(1) as f64;
    let v = |p: HwParam| config.params.value(p) as f64;
    let per_cyc = |x: u64| x as f64 / cyc;

    let fetch_util = per_cyc(delta.fetch_groups);
    let fetch_instr_util = per_cyc(delta.fetched) / v(FetchWidth);
    let decode_util = per_cyc(delta.decoded) / v(DecodeWidth);
    let dispatch_util = per_cyc(delta.dispatched) / v(DecodeWidth);
    let commit_util = per_cyc(delta.committed) / v(DecodeWidth);
    let int_util = per_cyc(delta.int_issued) / v(IntIssueWidth);
    let fp_util = per_cyc(delta.fp_issued) / config.params.fp_issue_width() as f64;
    let mem_util = per_cyc(delta.mem_issued) / config.params.mem_issue_width() as f64;
    let dcache_util =
        per_cyc(delta.dcache_reads + delta.dcache_writes) / config.params.mem_issue_width() as f64;
    let rob_occ = per_cyc(delta.rob_occupancy_sum) / v(RobEntry);
    let lsq_occ = per_cyc(delta.lsq_occupancy_sum) / (2.0 * v(LdqStqEntry));
    let fb_occ = per_cyc(delta.fetch_buffer_occupancy_sum) / v(FetchBufferEntry);
    let dmiss_rate = per_cyc(delta.dcache_misses);

    let components: Vec<ComponentActivity> = Component::ALL
        .iter()
        .map(|&c| {
            let alpha = match c {
                Component::BpTage | Component::BpBtb | Component::BpOthers => {
                    0.10 + 0.80 * fetch_util
                }
                Component::ICacheTagArray
                | Component::ICacheDataArray
                | Component::ICacheOthers => 0.08 + 0.85 * fetch_util,
                Component::Rnu => 0.06 + 0.85 * decode_util,
                Component::Rob => 0.08 + 0.50 * dispatch_util + 0.35 * rob_occ,
                Component::Regfile => 0.06 + 0.45 * int_util + 0.25 * fp_util + 0.20 * mem_util,
                Component::DCacheTagArray
                | Component::DCacheDataArray
                | Component::DCacheOthers => 0.07 + 0.80 * dcache_util,
                Component::FpIsu => 0.08 + 0.80 * fp_util,
                Component::IntIsu => 0.08 + 0.80 * int_util,
                Component::MemIsu => 0.08 + 0.80 * mem_util,
                Component::ITlb => 0.06 + 0.70 * fetch_util,
                Component::DTlb => 0.06 + 0.70 * mem_util,
                Component::FuPool => 0.05 + 0.40 * int_util + 0.30 * fp_util + 0.25 * mem_util,
                Component::OtherLogic => 0.15 + 0.50 * commit_util,
                Component::DCacheMshr => 0.04 + (20.0 * dmiss_rate).min(0.8),
                Component::Lsu => 0.07 + 0.60 * mem_util + 0.30 * lsq_occ,
                Component::Ifu => 0.08 + 0.60 * fetch_instr_util + 0.30 * fb_occ,
            };
            let alpha = clamp01(alpha);
            ComponentActivity {
                clock_active_rate: alpha,
                reg_toggle_rate: clamp01(0.30 * alpha + 0.02),
                comb_activity: clamp01(0.25 * alpha + 0.03),
            }
        })
        .collect();

    let positions: Vec<PositionActivity> = sram_positions()
        .iter()
        .map(|p| {
            let (reads, writes) = match (p.id.component, p.id.name) {
                (Component::BpTage, "tage_table") => {
                    (per_cyc(delta.fetch_groups), per_cyc(delta.branches))
                }
                (Component::BpTage, "tage_meta") => (
                    per_cyc(delta.fetch_groups),
                    per_cyc(delta.branch_mispredicts) + 0.1 * per_cyc(delta.branches),
                ),
                (Component::BpBtb, "btb_data") => (
                    per_cyc(delta.fetch_groups),
                    per_cyc(delta.branch_mispredicts),
                ),
                (Component::BpBtb, "btb_tag") => (
                    per_cyc(delta.fetch_groups),
                    per_cyc(delta.branch_mispredicts),
                ),
                (Component::ICacheTagArray, "itag") => {
                    (per_cyc(delta.icache_accesses), per_cyc(delta.icache_misses))
                }
                (Component::ICacheDataArray, "idata") => {
                    (per_cyc(delta.icache_accesses), per_cyc(delta.icache_misses))
                }
                (Component::DCacheTagArray, "dtag") => (
                    per_cyc(delta.dcache_reads + delta.dcache_writes),
                    per_cyc(delta.dcache_misses),
                ),
                (Component::DCacheDataArray, "ddata") => (
                    per_cyc(delta.dcache_reads) + per_cyc(delta.dcache_misses),
                    per_cyc(delta.dcache_writes) + per_cyc(delta.dcache_misses),
                ),
                (Component::Rob, "rob_meta") => {
                    (per_cyc(delta.committed), per_cyc(delta.dispatched))
                }
                (Component::Regfile, "int_rf") => (
                    2.0 * per_cyc(delta.int_issued) + per_cyc(delta.mem_issued),
                    0.9 * per_cyc(delta.int_issued) + 0.5 * per_cyc(delta.mem_issued),
                ),
                (Component::Regfile, "fp_rf") => {
                    (2.0 * per_cyc(delta.fp_issued), per_cyc(delta.fp_issued))
                }
                (Component::ITlb, "itlb_array") => {
                    (per_cyc(delta.itlb_accesses), per_cyc(delta.itlb_misses))
                }
                (Component::DTlb, "dtlb_array") => {
                    (per_cyc(delta.dtlb_accesses), per_cyc(delta.dtlb_misses))
                }
                (Component::DCacheMshr, "mshr_table") => (
                    per_cyc(delta.dcache_misses),
                    per_cyc(delta.mshr_allocations),
                ),
                (Component::Lsu, "ldq_data") => (
                    0.5 * per_cyc(delta.mem_issued),
                    0.6 * per_cyc(delta.mem_issued),
                ),
                (Component::Lsu, "stq_data") => (
                    0.45 * per_cyc(delta.mem_issued),
                    0.4 * per_cyc(delta.mem_issued),
                ),
                (Component::Ifu, "ftq_ghist") => (
                    per_cyc(delta.branch_mispredicts) + 0.1 * per_cyc(delta.fetch_groups),
                    per_cyc(delta.fetch_groups),
                ),
                (Component::Ifu, "ftq_meta") => {
                    (per_cyc(delta.branches), per_cyc(delta.fetch_groups))
                }
                (Component::Ifu, "fetch_buffer") => {
                    (per_cyc(delta.decoded), per_cyc(delta.fetched))
                }
                _ => unreachable!("no activity rule for SRAM position {}", p.id),
            };
            PositionActivity {
                position: p.id,
                reads_per_cycle: reads.max(0.0),
                writes_per_cycle: writes.max(0.0),
            }
        })
        .collect();

    ActivitySnapshot {
        components,
        positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::boom_configs;

    fn busy_counters(cycles: u64) -> EventCounters {
        EventCounters {
            cycles,
            committed: cycles,
            fetched: 2 * cycles,
            fetch_groups: cycles / 2,
            decoded: cycles,
            dispatched: cycles,
            int_issued: cycles / 2,
            fp_issued: cycles / 8,
            mem_issued: cycles / 3,
            branches: cycles / 6,
            branch_mispredicts: cycles / 80,
            icache_accesses: cycles / 2,
            icache_misses: cycles / 100,
            dcache_reads: cycles / 4,
            dcache_writes: cycles / 8,
            dcache_misses: cycles / 60,
            itlb_accesses: cycles / 2,
            itlb_misses: cycles / 500,
            dtlb_accesses: cycles / 3,
            dtlb_misses: cycles / 300,
            mshr_allocations: cycles / 60,
            rob_occupancy_sum: 30 * cycles,
            fetch_buffer_occupancy_sum: 4 * cycles,
            lsq_occupancy_sum: 6 * cycles,
            frontend_stall_cycles: cycles / 10,
            backend_stall_cycles: cycles / 8,
        }
    }

    #[test]
    fn activity_in_unit_range() {
        let cfg = boom_configs()[7];
        let a = derive_activity(&busy_counters(10_000), &cfg);
        assert_eq!(a.components.len(), 22);
        assert_eq!(a.positions.len(), sram_positions().len());
        for c in &a.components {
            assert!((0.0..=1.0).contains(&c.clock_active_rate));
            assert!((0.0..=1.0).contains(&c.reg_toggle_rate));
            assert!((0.0..=1.0).contains(&c.comb_activity));
        }
        for p in &a.positions {
            assert!(p.reads_per_cycle >= 0.0 && p.reads_per_cycle.is_finite());
            assert!(p.writes_per_cycle >= 0.0 && p.writes_per_cycle.is_finite());
        }
    }

    #[test]
    fn idle_machine_has_low_activity() {
        let cfg = boom_configs()[7];
        let idle = EventCounters {
            cycles: 10_000,
            ..EventCounters::default()
        };
        let busy = derive_activity(&busy_counters(10_000), &cfg);
        let quiet = derive_activity(&idle, &cfg);
        for c in Component::ALL {
            assert!(
                quiet.component(c).clock_active_rate <= busy.component(c).clock_active_rate,
                "{c}"
            );
        }
    }

    #[test]
    fn memory_heavy_window_raises_dcache_activity() {
        let cfg = boom_configs()[7];
        let mut mem_heavy = busy_counters(10_000);
        mem_heavy.dcache_reads *= 3;
        mem_heavy.mem_issued *= 2;
        let base = derive_activity(&busy_counters(10_000), &cfg);
        let heavy = derive_activity(&mem_heavy, &cfg);
        assert!(
            heavy
                .component(Component::DCacheDataArray)
                .clock_active_rate
                > base.component(Component::DCacheDataArray).clock_active_rate
        );
        let pos = autopower_config::sram_positions_for(Component::DCacheDataArray)[0].id;
        assert!(
            heavy.position(pos).unwrap().reads_per_cycle
                > base.position(pos).unwrap().reads_per_cycle
        );
    }

    #[test]
    fn zero_cycles_does_not_divide_by_zero() {
        let cfg = boom_configs()[0];
        let a = derive_activity(&EventCounters::default(), &cfg);
        assert!(a.components.iter().all(|c| c.clock_active_rate.is_finite()));
    }
}
