//! Cycle-level out-of-order CPU performance simulator ("gem5 substitute").
//!
//! [`simulate`] executes a synthetic instruction stream for one `(configuration,
//! workload)` pair and returns a [`SimResult`] containing:
//!
//! * the raw, true [`EventCounters`] of the run,
//! * the architecture-level [`EventParams`] — the `E` features of the power models,
//!   optionally distorted to emulate performance-simulator inaccuracy,
//! * the true [`ActivitySnapshot`] consumed by the golden power flow,
//! * per-interval records (default 50 cycles, matching Table IV of the paper) used for
//!   time-based power-trace experiments.
//!
//! # Example
//!
//! ```
//! use autopower_config::{boom_configs, Workload};
//! use autopower_perfsim::{simulate, SimConfig};
//!
//! let cfg = boom_configs()[7];
//! let sim = SimConfig { max_instructions: 3_000, ..SimConfig::default() };
//! let result = simulate(&cfg, Workload::Dhrystone, &sim);
//! assert!(result.ipc() > 0.0);
//! assert!(!result.intervals.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod branch;
mod cache;
mod events;
mod machine;
mod memo;
mod pipeline;
mod ring;
mod tlb;

pub use activity::{
    derive_activity, ActivitySnapshot, ComponentActivity, IntervalRecord, PositionActivity,
};
pub use branch::BranchPredictor;
pub use cache::{AccessOutcome, Cache};
pub use events::{EventCounters, EventParams};
pub use memo::{SimCache, SimCacheStats, SimKey};
pub use pipeline::Pipeline;
pub use ring::Ring;
pub use tlb::Tlb;

use autopower_config::{CpuConfig, Workload};
use autopower_workloads::StreamGenerator;
use machine::{compact, Machine, RInstr};

/// Knobs of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of instructions to commit before stopping.
    pub max_instructions: u64,
    /// Length of one activity interval in cycles (the paper's power-trace step is 50).
    pub interval_cycles: u32,
    /// Relative magnitude of the simulator-inaccuracy distortion applied to the reported
    /// event parameters (0.0 = perfect simulator).
    pub event_distortion: f64,
    /// Seed of the synthetic instruction stream.
    pub stream_seed: u64,
}

impl SimConfig {
    /// Configuration used by the paper-scale experiments (50 k instructions per run).
    pub fn paper() -> Self {
        Self {
            max_instructions: 50_000,
            interval_cycles: 50,
            event_distortion: 0.08,
            stream_seed: 2024,
        }
    }

    /// A small, fast configuration for unit and integration tests.
    pub fn fast() -> Self {
        Self {
            max_instructions: 6_000,
            ..Self::paper()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of simulating one `(configuration, workload)` pair.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The simulated configuration.
    pub config: CpuConfig,
    /// The executed workload.
    pub workload: Workload,
    /// The simulation knobs used.
    pub sim_config: SimConfig,
    /// True counters of the whole run.
    pub counters: EventCounters,
    /// Architecture-level event parameters of the whole run (possibly distorted).
    pub events: EventParams,
    /// True activity of the whole run (golden-flow input).
    pub activity: ActivitySnapshot,
    /// Per-interval records in execution order.
    pub intervals: Vec<IntervalRecord>,
}

impl SimResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.counters.ipc()
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.counters.cycles
    }

    /// Event parameters of one interval, derived with this run's distortion setting.
    pub fn interval_events(&self, interval: &IntervalRecord) -> EventParams {
        EventParams::from_counters(
            &interval.counters,
            self.config.id,
            self.workload,
            self.sim_config.event_distortion,
        )
    }
}

/// Maximum number of instruction streams a [`SimScratch`] keeps materialized.
///
/// A sweep touches one stream per `(workload, seed)` pair; the paper flow uses
/// at most the 10 benchmark workloads with one seed, so eight entries cover
/// the realistic working set while bounding memory for adversarial callers.
const MAX_REPLAY_STREAMS: usize = 8;

/// One materialized instruction stream: the compact instructions produced by a
/// [`StreamGenerator`] so far, extendable on demand.
#[derive(Debug)]
struct ReplayEntry {
    workload: Workload,
    seed: u64,
    generator: StreamGenerator,
    instrs: Vec<RInstr>,
}

/// Replays a materialized stream from the start, generating further
/// instructions only past the high-water mark of previous runs.
struct ReplayCursor<'a> {
    entry: &'a mut ReplayEntry,
    pos: usize,
}

impl Iterator for ReplayCursor<'_> {
    type Item = RInstr;

    #[inline]
    fn next(&mut self) -> Option<RInstr> {
        if self.pos == self.entry.instrs.len() {
            let instr = self.entry.generator.next()?;
            self.entry.instrs.push(compact(&instr));
        }
        let instr = self.entry.instrs[self.pos];
        self.pos += 1;
        Some(instr)
    }
}

/// Reusable state for allocation-free simulation.
///
/// A scratch owns the pipeline machine (caches, TLBs, predictor, queues — all
/// reset-and-reused between runs) and the materialized instruction streams, so
/// repeated [`simulate_with`] / [`simulate_counters_with`] calls touch the
/// allocator only to grow past previous high-water marks. Sweep workers hold
/// one scratch each; results are bit-identical to the allocating [`simulate`].
#[derive(Debug, Default)]
pub struct SimScratch {
    machine: Option<Machine>,
    replays: Vec<ReplayEntry>,
}

impl SimScratch {
    /// Creates an empty scratch; structures are sized lazily by the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the machine for `config` and positions a cursor at the start of
    /// the `(workload, seed)` stream, materializing it on first use.
    fn prepare(
        &mut self,
        config: &CpuConfig,
        workload: Workload,
        seed: u64,
    ) -> (&mut Machine, ReplayCursor<'_>) {
        match &mut self.machine {
            Some(machine) => machine.reset(config),
            None => self.machine = Some(Machine::new(config)),
        }
        let idx = match self
            .replays
            .iter()
            .position(|e| e.workload == workload && e.seed == seed)
        {
            Some(idx) => idx,
            None => {
                if self.replays.len() == MAX_REPLAY_STREAMS {
                    // Evict the oldest stream; correctness never depends on
                    // what is cached, only speed does.
                    self.replays.remove(0);
                }
                self.replays.push(ReplayEntry {
                    workload,
                    seed,
                    generator: StreamGenerator::new(workload, seed),
                    instrs: Vec::new(),
                });
                self.replays.len() - 1
            }
        };
        let machine = self.machine.as_mut().expect("initialized above");
        let cursor = ReplayCursor {
            entry: &mut self.replays[idx],
            pos: 0,
        };
        (machine, cursor)
    }
}

/// Simulates `workload` on `config`.
///
/// The run is fully deterministic in `(config, workload, sim)`.
///
/// Convenience wrapper over [`simulate_with`] with a throwaway [`SimScratch`];
/// hot paths (sweeps, corpus generation) should hold a scratch per worker and
/// call [`simulate_with`] directly.
pub fn simulate(config: &CpuConfig, workload: Workload, sim: &SimConfig) -> SimResult {
    simulate_with(config, workload, sim, &mut SimScratch::new())
}

/// Simulates `workload` on `config`, reusing the allocations in `scratch`.
///
/// Bit-identical to [`simulate`] — the scratch recycles buffers, never state:
/// every structure is reset to its construction values and the replayed
/// instruction stream is the deterministic generator output.
pub fn simulate_with(
    config: &CpuConfig,
    workload: Workload,
    sim: &SimConfig,
    scratch: &mut SimScratch,
) -> SimResult {
    let (machine, mut stream) = scratch.prepare(config, workload, sim.stream_seed);

    let mut intervals = Vec::new();
    let mut last_counters = EventCounters::default();
    let mut last_cycle = 0u64;
    let cycle_cap = sim.max_instructions * 40 + 10_000;

    while machine.counters().committed < sim.max_instructions && machine.cycle() < cycle_cap {
        machine.step(&mut stream);
        if machine.cycle() - last_cycle >= sim.interval_cycles as u64 {
            let delta = machine.counters().delta_since(&last_counters);
            intervals.push(IntervalRecord {
                start_cycle: last_cycle,
                activity: derive_activity(&delta, config),
                counters: delta,
            });
            last_counters = *machine.counters();
            last_cycle = machine.cycle();
        }
    }
    // Flush the final partial interval, if any.
    if machine.cycle() > last_cycle {
        let delta = machine.counters().delta_since(&last_counters);
        intervals.push(IntervalRecord {
            start_cycle: last_cycle,
            activity: derive_activity(&delta, config),
            counters: delta,
        });
    }

    let counters = *machine.counters();
    let events = EventParams::from_counters(&counters, config.id, workload, sim.event_distortion);
    let activity = derive_activity(&counters, config);

    SimResult {
        config: *config,
        workload,
        sim_config: *sim,
        counters,
        events,
        activity,
        intervals,
    }
}

/// Runs the simulation of [`simulate_with`] and returns only the whole-run
/// [`EventCounters`], skipping interval recording and event derivation.
///
/// Interval recording is pure observation — it only reads counter deltas at
/// interval boundaries, never feeding back into the machine — so the counters
/// returned here are bit-identical to `simulate_with(..).counters`. This is
/// the sweep hot path: the engine memoizes these counters in a [`SimCache`]
/// and derives per-configuration [`EventParams`] downstream.
pub fn simulate_counters_with(
    config: &CpuConfig,
    workload: Workload,
    sim: &SimConfig,
    scratch: &mut SimScratch,
) -> EventCounters {
    let (machine, mut stream) = scratch.prepare(config, workload, sim.stream_seed);
    machine.run(&mut stream, sim.max_instructions);
    *machine.counters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::boom_configs;

    #[test]
    fn simulate_produces_consistent_result() {
        let cfg = boom_configs()[7];
        let r = simulate(&cfg, Workload::Median, &SimConfig::fast());
        assert!(r.counters.committed >= SimConfig::fast().max_instructions);
        assert!(!r.intervals.is_empty());
        // Interval counters sum back to the whole-run counters.
        let total_cycles: u64 = r.intervals.iter().map(|i| i.counters.cycles).sum();
        assert_eq!(total_cycles, r.counters.cycles);
        let total_committed: u64 = r.intervals.iter().map(|i| i.counters.committed).sum();
        assert_eq!(total_committed, r.counters.committed);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = boom_configs()[2];
        let a = simulate(&cfg, Workload::Rsort, &SimConfig::fast());
        let b = simulate(&cfg, Workload::Rsort, &SimConfig::fast());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.events, b.events);
        assert_eq!(a.intervals.len(), b.intervals.len());
    }

    #[test]
    fn interval_length_matches_config() {
        let cfg = boom_configs()[5];
        let sim = SimConfig {
            interval_cycles: 50,
            ..SimConfig::fast()
        };
        let r = simulate(&cfg, Workload::Gemm, &sim);
        // All but the last interval are exactly 50 cycles.
        for i in &r.intervals[..r.intervals.len() - 1] {
            assert_eq!(i.counters.cycles, 50);
        }
    }

    #[test]
    fn distortion_changes_reported_events_only() {
        let cfg = boom_configs()[9];
        let exact = simulate(
            &cfg,
            Workload::Spmv,
            &SimConfig {
                event_distortion: 0.0,
                ..SimConfig::fast()
            },
        );
        let noisy = simulate(
            &cfg,
            Workload::Spmv,
            &SimConfig {
                event_distortion: 0.15,
                ..SimConfig::fast()
            },
        );
        // True counters and activity are identical; only the reported events differ.
        assert_eq!(exact.counters, noisy.counters);
        assert_eq!(exact.activity, noisy.activity);
        assert_ne!(exact.events, noisy.events);
    }

    #[test]
    fn reused_scratch_matches_fresh_simulation() {
        let cfgs = boom_configs();
        let sim = SimConfig {
            max_instructions: 2_000,
            ..SimConfig::fast()
        };
        let mut scratch = SimScratch::new();
        // Interleave configurations and workloads so every run inherits a
        // dirty machine and a warm replay stream from a different run.
        for (i, w) in [
            (7, Workload::Dhrystone),
            (0, Workload::Qsort),
            (14, Workload::Dhrystone),
            (7, Workload::Qsort),
            (7, Workload::Dhrystone),
        ] {
            let reused = simulate_with(&cfgs[i], w, &sim, &mut scratch);
            let fresh = simulate(&cfgs[i], w, &sim);
            assert_eq!(reused.counters, fresh.counters, "config {i} {w:?}");
            assert_eq!(reused.events, fresh.events);
            assert_eq!(reused.activity, fresh.activity);
            assert_eq!(reused.intervals, fresh.intervals);
        }
    }

    #[test]
    fn counters_only_run_matches_full_simulation() {
        let cfg = boom_configs()[9];
        let sim = SimConfig::fast();
        let mut scratch = SimScratch::new();
        let counters = simulate_counters_with(&cfg, Workload::Towers, &sim, &mut scratch);
        let full = simulate(&cfg, Workload::Towers, &sim);
        assert_eq!(counters, full.counters);
    }

    #[test]
    fn replay_streams_are_evicted_beyond_the_cap() {
        let cfg = boom_configs()[3];
        let sim = SimConfig {
            max_instructions: 500,
            ..SimConfig::fast()
        };
        let mut scratch = SimScratch::new();
        // More (workload, seed) pairs than MAX_REPLAY_STREAMS; each run must
        // still match a fresh simulation after the eviction churn.
        for seed in 0..(2 * MAX_REPLAY_STREAMS as u64 + 1) {
            let s = SimConfig {
                stream_seed: seed,
                ..sim
            };
            let reused = simulate_with(&cfg, Workload::Median, &s, &mut scratch);
            let fresh = simulate(&cfg, Workload::Median, &s);
            assert_eq!(reused.counters, fresh.counters, "seed {seed}");
        }
        assert!(scratch.replays.len() <= MAX_REPLAY_STREAMS);
    }

    #[test]
    fn workloads_produce_different_behaviour() {
        let cfg = boom_configs()[7];
        let a = simulate(&cfg, Workload::Vvadd, &SimConfig::fast());
        let b = simulate(&cfg, Workload::Qsort, &SimConfig::fast());
        assert_ne!(a.counters, b.counters);
        assert!(a.events.value("branch_rate") < b.events.value("branch_rate"));
    }
}
