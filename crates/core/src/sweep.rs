//! Batch inference over generated configurations: the design-space sweep path.
//!
//! Corpus generation ([`Corpus`](crate::Corpus)) runs the *full* substrate flow
//! — synthesis, performance simulation and golden power — because training and
//! evaluation need ground truth.  Scoring an unseen configuration needs none of
//! that: a trained model predicts power from the hardware parameters `H` and
//! the event parameters `E` alone, and `E` comes from a fast performance
//! simulation.  That asymmetry is the paper's whole point, and [`SweepEngine`]
//! exploits it to score thousands of configurations that were never
//! synthesized and never power-simulated — under any [`PowerModel`]
//! implementation, not just [`AutoPower`](crate::AutoPower).
//!
//! The engine shards the `configs × workloads` cross product into bounded
//! chunks and runs each chunk through the same `parallel_map` substrate the
//! corpus pipeline uses.  Each job simulates one pair, predicts its power, and
//! keeps only a compact [`SweepPoint`] — the heavyweight simulation state dies
//! with the job, so memory stays flat no matter how many configurations are
//! swept.  Results are collected in input order, making the sweep bit-identical
//! for every worker-thread count.
//!
//! Two optimizations make sweep-side simulation run at prediction-like cost,
//! both provably exact:
//!
//! * **Allocation-free hot loop** — every worker owns one
//!   [`SimScratch`] (reused pipeline machine +
//!   materialized instruction streams), one [`FeatureScratch`] and one reusable
//!   [`EventParams`], and runs the counters-only
//!   [`simulate_counters_with`] path: interval recording is pure observation,
//!   so skipping it cannot change the whole-run counters.
//! * **Exact memoization** — the engine keys each simulation by
//!   [`SimKey`], the projection of the configuration
//!   onto the parameters the simulator actually reads.  Configurations that
//!   differ only along simulation-invisible (power-only) axes share one
//!   simulation; predictions still differ because the hardware features `H`
//!   and the per-configuration event distortion are applied downstream of the
//!   cached counters.  [`SweepSpec::use_sim_cache`] disables the cache for
//!   audits; output is bit-identical either way.
//!
//! Points carry typed [`Prediction`]s: a total-only model contributes totals
//! and nothing else, a group-resolving model contributes per-group structure,
//! and [`summarize`] folds whatever structure is actually there —
//! [`ConfigSummary::mean_groups`] is `Some` exactly when the model resolved
//! groups.

use crate::error::AutoPowerError;
use crate::features::FeatureScratch;
use crate::pipeline::parallel_map_with;
use crate::power_model::{PowerModel, PredictInput};
use crate::prediction::Prediction;
use crate::surrogate::{audit_selected, ActivitySurrogate, AuditAccumulator, AuditReport};
use autopower_config::{CpuConfig, Workload};
use autopower_ml::Matrix;
use autopower_perfsim::{
    simulate_counters_with, EventCounters, EventParams, SimCache, SimCacheStats, SimConfig, SimKey,
    SimScratch,
};
use autopower_powersim::PowerGroups;
use std::sync::Mutex;

/// Knobs of a design-space sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// Performance-simulation settings used to obtain each point's event
    /// parameters.
    pub sim: SimConfig,
    /// Worker threads per shard: `0` (the default) uses one worker per
    /// available core, `1` runs serially.  The predictions are bit-identical
    /// for every value.
    pub threads: usize,
    /// Configurations per shard; bounds peak memory and work-queue length.
    pub chunk_configs: usize,
    /// Whether to memoize simulation results across the sweep.  Two
    /// configurations differing only along simulation-invisible axes then
    /// share one simulation — an exact deduplication, bit-identical output
    /// either way.  On by default; disable for audits.
    pub use_sim_cache: bool,
}

impl SweepSpec {
    /// Paper-scale simulation settings.
    pub fn paper() -> Self {
        Self {
            sim: SimConfig::paper(),
            threads: 0,
            chunk_configs: 64,
            use_sim_cache: true,
        }
    }

    /// Small, fast settings for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            sim: SimConfig::fast(),
            ..Self::paper()
        }
    }

    /// Same settings with an explicit worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Same settings with the simulation cache switched on or off.
    pub fn sim_cache(mut self, enabled: bool) -> Self {
        self.use_sim_cache = enabled;
        self
    }

    /// The worker count a sweep will actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// One scored `(configuration, workload)` point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The scored configuration.
    pub config: CpuConfig,
    /// The simulated workload.
    pub workload: Workload,
    /// The typed power prediction (total + whatever structure the model
    /// resolves).
    pub power: Prediction,
    /// Simulated instructions per cycle.
    pub ipc: f64,
}

/// Per-configuration aggregate over all swept workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfigSummary {
    /// The scored configuration.
    pub config: CpuConfig,
    /// Mean predicted total power across the workloads, in mW.
    pub mean_total: f64,
    /// Mean predicted per-group power across the workloads, in mW — `Some`
    /// exactly when the model resolved groups for every point.
    pub mean_groups: Option<PowerGroups>,
    /// Mean simulated IPC across the workloads.
    pub mean_ipc: f64,
    /// Mean energy per instruction in pJ (power / IPC at a nominal 1 GHz).
    pub energy_per_instruction: f64,
}

/// Per-worker reusable state of a sweep: simulation scratch, feature-row
/// scratch, one event-parameter set absorbing every derivation, and the
/// surrogate backend's raw-rate and shadow-event buffers.
struct SweepScratch {
    sim: SimScratch,
    features: FeatureScratch,
    events: EventParams,
    /// Shadow event parameters derived from the surrogate prediction on
    /// audited points, so error accounting never disturbs the exact events
    /// the emitted point is scored from.
    surrogate_events: EventParams,
}

impl SweepScratch {
    fn new() -> Self {
        Self {
            sim: SimScratch::new(),
            features: FeatureScratch::new(),
            events: EventParams::empty(),
            surrogate_events: EventParams::empty(),
        }
    }
}

/// Audit bookkeeping of one chunk point: everything needed to fold the
/// surrogate's shadow prediction into the error bound after the batched
/// power prediction lands.
struct ChunkAudit {
    /// Flat point index within the chunk (`config_index * workloads +
    /// workload_index`).
    index: usize,
    /// Raw event rates of the exact simulation.
    exact_raw: Vec<f64>,
    /// Raw event rates the surrogate predicted.
    surrogate_raw: Vec<f64>,
    /// Event parameters derived from the surrogate prediction, scored through
    /// the model as the shadow entry of the batch.
    shadow_events: EventParams,
}

/// Per-worker reusable state of the chunk-batched scoring path: the per-point
/// scratch plus chunk-wide buffers holding every point's events, IPC and
/// prediction so the power model can score the whole chunk forest-major.
struct ChunkScratch {
    point: SweepScratch,
    /// Per-point event parameters (exact or surrogate-derived), point-major.
    events: Vec<EventParams>,
    /// Per-point simulated (or surrogate-predicted) IPC.
    ipcs: Vec<f64>,
    /// Audited points of the chunk.
    audits: Vec<ChunkAudit>,
    /// Batched prediction output: one slot per point, then one shadow slot
    /// per audited point.
    predictions: Vec<Prediction>,
    /// Surrogate-predicted raw event rates of every point, row-major
    /// (`raw_all[idx * events + e]`, `idx` in chunk point order).
    raw_all: Vec<f64>,
    /// Per-workload batched-prediction staging (configuration-major rows).
    raw_batch: Vec<f64>,
    /// Per-ensemble output scratch of the batched surrogate prediction.
    forest_out: Vec<f64>,
}

impl ChunkScratch {
    fn new() -> Self {
        Self {
            point: SweepScratch::new(),
            events: Vec::new(),
            ipcs: Vec::new(),
            audits: Vec::new(),
            predictions: Vec::new(),
            raw_all: Vec::new(),
            raw_batch: Vec::new(),
            forest_out: Vec::new(),
        }
    }
}

/// Reusable worker state of [`SweepEngine::run_with`]: the per-chunk scoring
/// scratch (pipeline machine, replay streams, [`FeatureScratch`], batch
/// buffers), opaque so its layout can evolve with the engine.
///
/// A long-running caller — the serving layer's worker pool — holds one per
/// worker thread and reuses it across every batch it scores, so the
/// heavyweight allocations are materialized once per worker instead of once
/// per request.  Reuse is correctness-neutral: scoring with a fresh scratch
/// and with an arbitrarily reused one is bit-identical (pinned by the
/// `design_sweep` integration tests).
#[derive(Default)]
pub struct EngineScratch(ChunkScratch);

impl EngineScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self(ChunkScratch::new())
    }
}

impl std::fmt::Debug for EngineScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineScratch").finish_non_exhaustive()
    }
}

impl Default for ChunkScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// How a sweep obtains each point's event parameters.
#[derive(Debug, Clone, Copy)]
pub enum SimBackend<'a> {
    /// Simulate every `(configuration, workload)` pair exactly (the default).
    Exact,
    /// Predict event rates with a trained [`ActivitySurrogate`], simulating
    /// only a deterministic audit fraction of configurations exactly.
    ///
    /// Audited configurations are emitted from the exact path — bit-identical
    /// to an [`SimBackend::Exact`] sweep — and additionally scored through
    /// the surrogate to accumulate the per-event and end-to-end power error
    /// bound reported by [`SweepEngine::audit_report`].
    Surrogate {
        /// The trained surrogate; must cover every swept workload and match
        /// the sweep's simulation knobs.
        surrogate: &'a ActivitySurrogate,
        /// Fraction of configurations audited against the exact simulator
        /// (`audit_selected`), in `(0, 1]`.
        audit_rate: f64,
    },
}

/// Whole-run counters for one pair, answered from `cache` when enabled.
fn simulated_counters(
    cache: Option<&SimCache>,
    config: &CpuConfig,
    workload: Workload,
    sim: &SimConfig,
    scratch: &mut SimScratch,
) -> EventCounters {
    match cache {
        Some(cache) => cache.counters_for(SimKey::new(config, workload, sim), || {
            simulate_counters_with(config, workload, sim, scratch)
        }),
        None => simulate_counters_with(config, workload, sim, scratch),
    }
}

/// Sweeps a set of configurations through a trained model.
///
/// Model-agnostic: the engine holds a [`&dyn PowerModel`](PowerModel), so any
/// registry model ([`ModelKind`](crate::ModelKind)) — AutoPower or a baseline —
/// drives the same batch-inference path.  The engine owns the [`SimCache`]
/// that deduplicates simulations across everything it runs; its
/// [`SweepEngine::cache_stats`] feed the sweep report.
#[derive(Debug)]
pub struct SweepEngine<'a> {
    model: &'a dyn PowerModel,
    spec: SweepSpec,
    cache: SimCache,
    backend: SimBackend<'a>,
    /// Audit-error accumulation of the surrogate backend.  Integer
    /// (fixed-point) sums make the fold order-independent, so the report is
    /// bit-identical for every thread count despite the shared lock.
    audit: Mutex<AuditAccumulator>,
}

impl<'a> SweepEngine<'a> {
    /// Creates an engine around any trained [`PowerModel`], simulating every
    /// point exactly ([`SimBackend::Exact`]).
    pub fn new(model: &'a dyn PowerModel, spec: SweepSpec) -> Self {
        Self {
            model,
            spec,
            cache: SimCache::new(),
            backend: SimBackend::Exact,
            audit: Mutex::new(AuditAccumulator::new(EventParams::names().len())),
        }
    }

    /// Replaces the engine's simulation backend.
    ///
    /// # Errors
    ///
    /// Returns [`AutoPowerError::Surrogate`] when a surrogate backend's audit
    /// rate is not in `(0, 1]` (a sweep that can never audit has no error
    /// bound and is refused up front) or the surrogate was trained for
    /// different simulation knobs than this engine sweeps with.
    pub fn with_backend(mut self, backend: SimBackend<'a>) -> Result<Self, AutoPowerError> {
        if let SimBackend::Surrogate {
            surrogate,
            audit_rate,
        } = backend
        {
            if !audit_rate.is_finite() || audit_rate <= 0.0 || audit_rate > 1.0 {
                return Err(AutoPowerError::Surrogate(format!(
                    "audit rate must be in (0, 1], got {audit_rate}"
                )));
            }
            surrogate.compatible_with(&self.spec.sim)?;
        }
        self.backend = backend;
        Ok(self)
    }

    /// The sweep settings.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// The simulation backend.
    pub fn backend(&self) -> &SimBackend<'a> {
        &self.backend
    }

    /// Hit/miss statistics of the simulation cache across every sweep this
    /// engine has run (all zero when the cache is disabled or unused).
    pub fn cache_stats(&self) -> SimCacheStats {
        self.cache.stats()
    }

    /// The audit error table accumulated so far — `Some` exactly when the
    /// engine runs a surrogate backend (even before anything was audited, so
    /// callers can distinguish "exact sweep" from "surrogate sweep that
    /// audited nothing" and refuse to report the latter as error-bounded).
    pub fn audit_report(&self) -> Option<AuditReport> {
        match self.backend {
            SimBackend::Exact => None,
            SimBackend::Surrogate { .. } => Some(self.audit.lock().unwrap().report()),
        }
    }

    /// Snapshot of the raw audit accumulator (for checkpointing), `Some`
    /// exactly when the engine runs a surrogate backend.
    pub fn audit_state(&self) -> Option<AuditAccumulator> {
        match self.backend {
            SimBackend::Exact => None,
            SimBackend::Surrogate { .. } => Some(self.audit.lock().unwrap().clone()),
        }
    }

    /// Restores an audit accumulator captured by [`SweepEngine::audit_state`]
    /// (when resuming a checkpointed surrogate sweep).
    pub fn restore_audit_state(&self, state: AuditAccumulator) {
        *self.audit.lock().unwrap() = state;
    }

    /// Scores one contiguous run of configurations as a single batch,
    /// emitting its [`SweepPoint`]s through `sink` in configuration-major
    /// input order.
    ///
    /// Three phases: (1) obtain every point's event parameters — exact
    /// simulation, or surrogate prediction with the deterministic audit
    /// fraction simulated exactly; (2) predict power for the whole chunk in
    /// one [`PowerModel::predict_batch_with`] call (audited points append a
    /// shadow entry scored from the surrogate's events), which scores
    /// forest-major and is pinned bit-identical to the per-point path; (3)
    /// fold the audited points into the error bound and emit.  Output is
    /// bit-identical to scoring each point on its own — the batch only
    /// reorders *when* sub-models run, never what they compute.
    fn score_chunk(
        &self,
        cache: Option<&SimCache>,
        configs: &[CpuConfig],
        workloads: &[Workload],
        scratch: &mut ChunkScratch,
        mut sink: impl FnMut(SweepPoint),
    ) {
        let per_config = workloads.len();
        let n = configs.len() * per_config;
        let ChunkScratch {
            point,
            events,
            ipcs,
            audits,
            predictions,
            raw_all,
            raw_batch,
            forest_out,
        } = scratch;
        events.resize(n, EventParams::empty());
        ipcs.clear();
        ipcs.resize(n, 0.0);
        audits.clear();
        let event_count = EventParams::names().len();

        // Phase 0 (surrogate backend only): batched raw-rate inference.
        // One feature matrix per workload over the whole chunk, scored
        // forest-major by `predict_raw_batch_into` — bit-identical to the
        // per-point `predict_raw_into`, but each per-event ensemble walks the
        // entire chunk while its nodes are cache-hot.
        if let SimBackend::Surrogate { surrogate, .. } = self.backend {
            raw_all.clear();
            raw_all.resize(n * event_count, 0.0);
            for (w, &workload) in workloads.iter().enumerate() {
                let mut flat = Vec::with_capacity(configs.len() * SimKey::FEATURE_COUNT);
                for config in configs {
                    flat.extend_from_slice(
                        &SimKey::new(config, workload, &self.spec.sim).features(),
                    );
                }
                let x = Matrix::from_flat(configs.len(), SimKey::FEATURE_COUNT, flat);
                raw_batch.clear();
                raw_batch.resize(configs.len() * event_count, 0.0);
                surrogate.predict_raw_batch_into(workload, &x, forest_out, raw_batch);
                for c in 0..configs.len() {
                    let idx = c * per_config + w;
                    raw_all[idx * event_count..(idx + 1) * event_count]
                        .copy_from_slice(&raw_batch[c * event_count..(c + 1) * event_count]);
                }
            }
        }

        // Phase 1: event parameters and IPC per point.
        let mut idx = 0;
        for config in configs {
            for &workload in workloads {
                match self.backend {
                    SimBackend::Exact => {
                        let counters = simulated_counters(
                            cache,
                            config,
                            workload,
                            &self.spec.sim,
                            &mut point.sim,
                        );
                        EventParams::from_counters_into(
                            &counters,
                            config.id,
                            workload,
                            self.spec.sim.event_distortion,
                            &mut events[idx],
                        );
                        ipcs[idx] = counters.ipc();
                    }
                    SimBackend::Surrogate { audit_rate, .. } => {
                        let raw = &raw_all[idx * event_count..(idx + 1) * event_count];
                        if audit_selected(config.id, audit_rate) {
                            // Audited point: emitted from the exact path
                            // (bit-identical to an Exact sweep — same
                            // counters, same distortion, same prediction);
                            // the surrogate's shadow events ride the batch as
                            // an extra entry for the error bound.
                            let counters = simulated_counters(
                                cache,
                                config,
                                workload,
                                &self.spec.sim,
                                &mut point.sim,
                            );
                            EventParams::from_counters_into(
                                &counters,
                                config.id,
                                workload,
                                self.spec.sim.event_distortion,
                                &mut events[idx],
                            );
                            ipcs[idx] = counters.ipc();
                            EventParams::from_raw_rates_into(
                                raw,
                                config.id,
                                workload,
                                self.spec.sim.event_distortion,
                                &mut point.surrogate_events,
                            );
                            audits.push(ChunkAudit {
                                index: idx,
                                exact_raw: EventParams::raw_rates(&counters).to_vec(),
                                surrogate_raw: raw.to_vec(),
                                shadow_events: point.surrogate_events.clone(),
                            });
                        } else {
                            EventParams::from_raw_rates_into(
                                raw,
                                config.id,
                                workload,
                                self.spec.sim.event_distortion,
                                &mut events[idx],
                            );
                            // The surrogate's IPC is its first raw rate (the
                            // exact path's `counters.ipc()` equals
                            // `raw_rates()[0]`).
                            ipcs[idx] = raw[0];
                        }
                    }
                }
                idx += 1;
            }
        }

        // Phase 2: one batched power prediction over every point plus the
        // audited points' shadow entries.
        let mut inputs = Vec::with_capacity(n + audits.len());
        for (idx, e) in events[..n].iter().enumerate() {
            inputs.push(PredictInput {
                config: &configs[idx / per_config],
                events: e,
                workload: workloads[idx % per_config],
            });
        }
        for audit in audits.iter() {
            inputs.push(PredictInput {
                config: &configs[audit.index / per_config],
                events: &audit.shadow_events,
                workload: workloads[audit.index % per_config],
            });
        }
        self.model
            .predict_batch_with(&inputs, &mut point.features, predictions);
        drop(inputs);

        // Phase 3: error-bound accounting, then emission in input order.
        // The audit accumulator is an order-independent integer fold, so
        // recording chunk-grouped instead of point-interleaved cannot change
        // the report.
        let shadows = predictions.split_off(n);
        for (audit, shadow) in audits.iter().zip(&shadows) {
            self.audit.lock().unwrap().record(
                &audit.exact_raw,
                &audit.surrogate_raw,
                predictions[audit.index].total(),
                shadow.total(),
            );
        }
        for (idx, power) in predictions.drain(..).enumerate() {
            sink(SweepPoint {
                config: configs[idx / per_config],
                workload: workloads[idx % per_config],
                power,
                ipc: ipcs[idx],
            });
        }
    }

    /// Streams every `(configuration, workload)` pair through `sink`,
    /// configuration-major, in deterministic input order — without retaining
    /// any point itself.
    ///
    /// This is the primitive under both the materializing [`SweepEngine::run`]
    /// (whose sink is `Vec::push`) and the bounded-memory streaming sweep
    /// ([`SweepEngine::stream`](crate::stream)): the scoring work, the worker
    /// scratch reuse and the emission order are byte-for-byte the same, so the
    /// two paths cannot drift apart.  Parallel scoring still shards `configs`
    /// into [`SweepSpec::chunk_configs`]-sized chunks; only one chunk of
    /// points is ever in flight.
    pub fn for_each_point(
        &self,
        configs: &[CpuConfig],
        workloads: &[Workload],
        mut sink: impl FnMut(SweepPoint),
    ) {
        let threads = self.spec.effective_threads();
        let per_config = workloads.len();
        let cache = self.spec.use_sim_cache.then_some(&self.cache);
        let chunk = self.spec.chunk_configs.max(1);
        if threads <= 1 {
            // Serial fast path: one scratch for the whole sweep, so replay
            // streams, pipeline state and batch buffers are materialized once
            // instead of once per shard.  Scoring order — and therefore
            // output — is identical to the sharded path.
            let mut scratch = ChunkScratch::new();
            for shard in configs.chunks(chunk) {
                self.score_chunk(cache, shard, workloads, &mut scratch, &mut sink);
            }
            return;
        }
        for shard in configs.chunks(chunk) {
            // Each worker owns one ChunkScratch for its whole lifetime and
            // claims contiguous runs of configurations, scoring each run as
            // one forest-major batch.  Results are collected in input order,
            // so the emission — like the scoring itself — is bit-identical
            // to the serial path.
            let run = shard.len().div_ceil(threads).max(1);
            let runs: Vec<&[CpuConfig]> = shard.chunks(run).collect();
            for points in parallel_map_with(threads, runs.len(), ChunkScratch::new, |scratch, k| {
                let mut out = Vec::with_capacity(runs[k].len() * per_config);
                self.score_chunk(cache, runs[k], workloads, scratch, |p| out.push(p));
                out
            }) {
                for point in points {
                    sink(point);
                }
            }
        }
    }

    /// Scores every `(configuration, workload)` pair, configuration-major, in
    /// deterministic input order.
    ///
    /// Thin materializing wrapper over [`SweepEngine::for_each_point`].
    pub fn run(&self, configs: &[CpuConfig], workloads: &[Workload]) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(configs.len() * workloads.len());
        self.for_each_point(configs, workloads, |p| points.push(p));
        points
    }

    /// [`SweepEngine::run`] scoring serially into `out` (cleared first)
    /// through a caller-owned [`EngineScratch`], so a resident process can
    /// reuse one scratch across many engine runs.
    ///
    /// Ignores [`SweepSpec::threads`] — the caller owns the parallelism (one
    /// scratch per worker thread, as the serving layer does).  Output is
    /// bit-identical to [`SweepEngine::run`] at any thread count and to a
    /// fresh-scratch run: reuse only skips re-allocating buffers that are
    /// fully overwritten per chunk.
    pub fn run_with(
        &self,
        configs: &[CpuConfig],
        workloads: &[Workload],
        scratch: &mut EngineScratch,
        out: &mut Vec<SweepPoint>,
    ) {
        out.clear();
        out.reserve(configs.len() * workloads.len());
        let cache = self.spec.use_sim_cache.then_some(&self.cache);
        for shard in configs.chunks(self.spec.chunk_configs.max(1)) {
            self.score_chunk(cache, shard, workloads, &mut scratch.0, |p| out.push(p));
        }
    }
}

/// Scores every `(configuration, workload)` pair under several models while
/// running the performance simulation of each pair only **once**.
///
/// The simulation depends only on the configuration and workload, never on the
/// model, so sweeping `m` models costs one simulation pass plus `m` cheap
/// prediction passes instead of `m` full sweeps.  Returns one point list per
/// model, each bit-identical to what `SweepEngine::new(model, spec).run(...)`
/// would produce on its own, plus the statistics of the shared simulation
/// cache (for comparison reports).
pub fn sweep_multi(
    models: &[&dyn PowerModel],
    spec: &SweepSpec,
    configs: &[CpuConfig],
    workloads: &[Workload],
) -> (Vec<Vec<SweepPoint>>, SimCacheStats) {
    let threads = spec.effective_threads();
    let per_config = workloads.len();
    let chunk = spec.chunk_configs.max(1);
    let cache = SimCache::new();
    let cache_ref = spec.use_sim_cache.then_some(&cache);
    let mut results: Vec<Vec<SweepPoint>> = models
        .iter()
        .map(|_| Vec::with_capacity(configs.len() * per_config))
        .collect();
    if threads <= 1 {
        // Serial fast path mirroring SweepEngine::run: one scratch for the
        // whole sweep, identical scoring order.
        let mut scratch = SweepScratch::new();
        for config in configs {
            for &workload in workloads {
                let counters =
                    simulated_counters(cache_ref, config, workload, &spec.sim, &mut scratch.sim);
                EventParams::from_counters_into(
                    &counters,
                    config.id,
                    workload,
                    spec.sim.event_distortion,
                    &mut scratch.events,
                );
                let ipc = counters.ipc();
                for (model, slot) in models.iter().zip(results.iter_mut()) {
                    slot.push(SweepPoint {
                        config: *config,
                        workload,
                        power: model.predict_with(
                            config,
                            &scratch.events,
                            workload,
                            &mut scratch.features,
                        ),
                        ipc,
                    });
                }
            }
        }
        let stats = cache.stats();
        return (results, stats);
    }
    for shard in configs.chunks(chunk) {
        let shard_points = parallel_map_with(
            threads,
            shard.len() * per_config,
            SweepScratch::new,
            |scratch, i| {
                let config = shard[i / per_config];
                let workload = workloads[i % per_config];
                let counters =
                    simulated_counters(cache_ref, &config, workload, &spec.sim, &mut scratch.sim);
                EventParams::from_counters_into(
                    &counters,
                    config.id,
                    workload,
                    spec.sim.event_distortion,
                    &mut scratch.events,
                );
                let ipc = counters.ipc();
                models
                    .iter()
                    .map(|model| SweepPoint {
                        config,
                        workload,
                        power: model.predict_with(
                            &config,
                            &scratch.events,
                            workload,
                            &mut scratch.features,
                        ),
                        ipc,
                    })
                    .collect::<Vec<_>>()
            },
        );
        for per_model in shard_points {
            for (slot, point) in results.iter_mut().zip(per_model) {
                slot.push(point);
            }
        }
    }
    let stats = cache.stats();
    (results, stats)
}

/// Sorts summaries by predicted energy per instruction, best (lowest) first.
///
/// The single ranking rule behind the sweep report's top-k table and the
/// model-comparison rank-divergence figures.
///
/// The sort is a total order (`f64::total_cmp` over sign-canonicalised keys),
/// so it never panics: every NaN efficiency ranks **last** — after every
/// finite value and `+∞` — instead of aborting the whole report.  Ties keep
/// input order (the sort is stable), so the ranking stays deterministic.
pub fn rank_by_efficiency(summaries: &[ConfigSummary]) -> Vec<&ConfigSummary> {
    let mut ranked: Vec<&ConfigSummary> = summaries.iter().collect();
    ranked.sort_by(|a, b| {
        efficiency_sort_key(a.energy_per_instruction)
            .total_cmp(&efficiency_sort_key(b.energy_per_instruction))
    });
    ranked
}

/// The canonicalised sort key behind [`rank_by_efficiency`] — shared with the
/// streaming top-k retainer so both rankings are one total order.
///
/// IEEE-754 totally orders negative-sign NaNs *below* -inf; canonicalise to
/// the positive quiet NaN so "NaN ranks last" holds regardless of the sign
/// bit the producing arithmetic happened to leave behind.
pub(crate) fn efficiency_sort_key(v: f64) -> f64 {
    if v.is_nan() {
        f64::from_bits(0x7ff8_0000_0000_0000)
    } else {
        v
    }
}

/// Folds configuration-major sweep points into per-configuration summaries.
///
/// The group mean is reported only when every point of a configuration
/// resolves groups; for total-only models the summary carries the mean total
/// and no group structure.
///
/// # Panics
///
/// Panics if `points` is not a whole number of `per_config`-sized groups.
pub fn summarize(points: &[SweepPoint], per_config: usize) -> Vec<ConfigSummary> {
    assert!(
        per_config > 0,
        "need at least one workload per configuration"
    );
    assert_eq!(
        points.len() % per_config,
        0,
        "points must cover every workload of every configuration"
    );
    points.chunks(per_config).map(config_summary).collect()
}

/// Folds the points of **one** configuration (all its workloads, in workload
/// order) into its [`ConfigSummary`].
///
/// This is the single fold behind both the materialized [`summarize`] and the
/// streaming [`SweepAggregator`](crate::SweepAggregator), so the two paths
/// produce bit-identical summaries by construction: same accumulation order,
/// same division points.
///
/// # Panics
///
/// Panics if `group` is empty.
pub fn config_summary(group: &[SweepPoint]) -> ConfigSummary {
    assert!(
        !group.is_empty(),
        "a configuration needs at least one point"
    );
    let n = group.len() as f64;
    let mut mean_ipc = 0.0;
    for p in group {
        mean_ipc += p.ipc;
    }
    mean_ipc /= n;

    // Group-resolving models: accumulate group-wise and derive the total from
    // the divided groups (the historical summation order, kept so totals stay
    // bit-identical).  Total-only models: average the totals directly.
    let mut mean_groups = Some(PowerGroups::default());
    for p in group {
        mean_groups = match (mean_groups, p.power.groups()) {
            (Some(mut sum), Some(g)) => {
                sum += g;
                Some(sum)
            }
            _ => None,
        };
    }
    let mean_groups = mean_groups.map(|mut g| {
        g.clock /= n;
        g.sram /= n;
        g.register /= n;
        g.combinational /= n;
        g
    });
    let mean_total = match mean_groups {
        Some(g) => g.total(),
        None => group.iter().map(|p| p.power.total()).sum::<f64>() / n,
    };
    ConfigSummary {
        config: group[0].config,
        mean_total,
        mean_groups,
        mean_ipc,
        energy_per_instruction: mean_total / mean_ipc.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Corpus, CorpusSpec};
    use crate::model::AutoPower;
    use crate::power_model::ModelKind;
    use autopower_config::{boom_configs, ConfigId, DesignSpace};

    fn trained_model() -> AutoPower {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        AutoPower::train(&corpus, &[ConfigId::new(1), ConfigId::new(15)]).unwrap()
    }

    #[test]
    fn batch_predictions_cover_every_pair_in_order() {
        let model = trained_model();
        let configs = DesignSpace::boom().sample(5, 11);
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let points =
            SweepEngine::new(&model, SweepSpec::fast().threads(1)).run(&configs, &workloads);
        assert_eq!(points.len(), 10);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.config, configs[i / 2]);
            assert_eq!(p.workload, workloads[i % 2]);
            assert!(p.power.total() > 0.0, "non-physical power at point {i}");
            assert!(p.power.groups().is_some(), "AutoPower resolves groups");
            assert!(p.ipc > 0.0);
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts_and_chunking() {
        let model = trained_model();
        let configs = DesignSpace::boom().sample(6, 3);
        let workloads = [Workload::Dhrystone, Workload::Vvadd];
        let serial = SweepEngine::new(
            &model,
            SweepSpec {
                chunk_configs: 1,
                ..SweepSpec::fast().threads(1)
            },
        )
        .run(&configs, &workloads);
        let parallel =
            SweepEngine::new(&model, SweepSpec::fast().threads(8)).run(&configs, &workloads);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn reused_engine_scratch_scoring_is_bit_identical() {
        let model = trained_model();
        let first = DesignSpace::boom().sample(4, 13);
        let second = DesignSpace::boom().sample(5, 99);
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let spec = SweepSpec::fast().threads(1);
        let engine = SweepEngine::new(&model, spec);
        let mut scratch = EngineScratch::new();
        let mut out = Vec::new();
        engine.run_with(&first, &workloads, &mut scratch, &mut out);
        assert_eq!(out, engine.run(&first, &workloads));
        // The same scratch carried into a different batch (and a different
        // shape) scores identically to a fresh engine with a fresh scratch.
        engine.run_with(&second, &workloads, &mut scratch, &mut out);
        assert_eq!(out, SweepEngine::new(&model, spec).run(&second, &workloads));
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_deduplicates_invisible_axes() {
        use autopower_config::HwParam;
        let model = trained_model();
        // Two configurations differing only in BranchCount within one
        // predictor bucket (10 and 16 both round to 4096 entries): the
        // simulation cannot tell them apart, the power model can.
        let space = DesignSpace::boom()
            .with_axis(HwParam::FetchWidth, vec![4])
            .with_axis(HwParam::DecodeWidth, vec![2])
            .with_axis(HwParam::RobEntry, vec![64])
            .with_axis(HwParam::IntIssueWidth, vec![2])
            .with_axis(HwParam::MemFpIssueWidth, vec![1])
            .with_axis(HwParam::CacheWay, vec![4])
            .with_axis(HwParam::DtlbEntry, vec![16])
            .with_axis(HwParam::BranchCount, vec![10, 16])
            .with_axis(HwParam::MshrEntry, vec![4]);
        let configs: Vec<_> = space.enumerate().collect();
        assert_eq!(configs.len(), 2);
        let workloads = [Workload::Dhrystone, Workload::Qsort];

        let cached_engine = SweepEngine::new(&model, SweepSpec::fast().threads(1));
        let cached = cached_engine.run(&configs, &workloads);
        let uncached_engine =
            SweepEngine::new(&model, SweepSpec::fast().threads(1).sim_cache(false));
        let uncached = uncached_engine.run(&configs, &workloads);
        assert_eq!(cached, uncached, "cache changed sweep output");

        // The second configuration's simulations were answered from the cache.
        let stats = cached_engine.cache_stats();
        assert_eq!(stats.misses, workloads.len() as u64);
        assert_eq!(stats.hits, workloads.len() as u64);
        assert_eq!(stats.hit_rate(), 0.5);
        let off = uncached_engine.cache_stats();
        assert_eq!((off.hits, off.misses), (0, 0));

        // Shared simulation, distinct predictions: IPC (a counter projection)
        // matches across the pair, power (H features + per-config distortion)
        // does not.
        assert_eq!(cached[0].ipc, cached[2].ipc);
        assert_ne!(cached[0].power, cached[2].power);
    }

    #[test]
    fn multi_model_sweep_matches_per_model_engines_bit_for_bit() {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let models: Vec<_> = ModelKind::ALL
            .into_iter()
            .map(|kind| kind.train(&corpus, &train).unwrap())
            .collect();
        let refs: Vec<&dyn PowerModel> = models.iter().map(|m| m.as_ref()).collect();
        let configs = DesignSpace::boom().sample(4, 9);
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let spec = SweepSpec::fast().threads(2);
        let (multi, stats) = sweep_multi(&refs, &spec, &configs, &workloads);
        assert_eq!(multi.len(), refs.len());
        for (model, points) in refs.iter().zip(&multi) {
            let solo = SweepEngine::new(*model, spec).run(&configs, &workloads);
            assert_eq!(&solo, points);
        }
        // One simulation per pair, shared by every model.
        assert_eq!(stats.lookups(), (configs.len() * workloads.len()) as u64);
    }

    #[test]
    fn efficiency_ranking_is_sorted_and_complete() {
        let model = trained_model();
        let configs = DesignSpace::boom().sample(5, 21);
        let workloads = [Workload::Dhrystone];
        let points =
            SweepEngine::new(&model, SweepSpec::fast().threads(1)).run(&configs, &workloads);
        let summaries = summarize(&points, workloads.len());
        let ranked = rank_by_efficiency(&summaries);
        assert_eq!(ranked.len(), summaries.len());
        for pair in ranked.windows(2) {
            assert!(pair[0].energy_per_instruction <= pair[1].energy_per_instruction);
        }
    }

    #[test]
    fn summaries_average_over_workloads() {
        let model = trained_model();
        let configs = DesignSpace::boom().sample(3, 5);
        let workloads = [Workload::Dhrystone, Workload::Qsort, Workload::Vvadd];
        let engine = SweepEngine::new(&model, SweepSpec::fast().threads(1));
        let points = engine.run(&configs, &workloads);
        let summaries = summarize(&points, workloads.len());
        assert_eq!(summaries.len(), 3);
        for (i, s) in summaries.iter().enumerate() {
            assert_eq!(s.config, configs[i]);
            let expected: f64 = points[i * 3..(i + 1) * 3]
                .iter()
                .map(|p| p.power.total())
                .sum::<f64>()
                / 3.0;
            assert!((s.mean_total - expected).abs() < 1e-9);
            assert!(s.mean_groups.is_some(), "AutoPower summaries carry groups");
            assert!(s.energy_per_instruction > 0.0);
        }
    }

    #[test]
    fn total_only_summaries_carry_no_group_structure() {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = ModelKind::McpatCalib.train(&corpus, &train).unwrap();
        let configs = DesignSpace::boom().sample(3, 41);
        let workloads = [Workload::Dhrystone, Workload::Vvadd];
        let engine = SweepEngine::new(model.as_ref(), SweepSpec::fast().threads(1));
        let points = engine.run(&configs, &workloads);
        let summaries = summarize(&points, workloads.len());
        for (i, s) in summaries.iter().enumerate() {
            assert!(s.mean_groups.is_none(), "total-only model resolved groups");
            let expected: f64 = points[i * 2..(i + 1) * 2]
                .iter()
                .map(|p| p.power.total())
                .sum::<f64>()
                / 2.0;
            assert_eq!(s.mean_total, expected);
            assert!(s.mean_total > 0.0);
        }
    }

    #[test]
    fn nan_efficiencies_rank_last_without_panicking() {
        let config = boom_configs()[0];
        let summary = |epi: f64| ConfigSummary {
            config,
            mean_total: 1.0,
            mean_groups: None,
            mean_ipc: 1.0,
            energy_per_instruction: epi,
        };
        // Both NaN sign bits, mixed with finite values and +inf.
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0001);
        let summaries = vec![
            summary(f64::NAN),
            summary(2.0),
            summary(negative_nan),
            summary(f64::INFINITY),
            summary(1.0),
        ];
        let ranked = rank_by_efficiency(&summaries);
        let order: Vec<f64> = ranked.iter().map(|s| s.energy_per_instruction).collect();
        assert_eq!(order[0], 1.0);
        assert_eq!(order[1], 2.0);
        assert_eq!(order[2], f64::INFINITY);
        // Every NaN ranks after every non-NaN, in stable input order.
        assert!(order[3].is_nan() && order[4].is_nan());
        assert_eq!(order[3].to_bits(), f64::NAN.to_bits());
        assert_eq!(order[4].to_bits(), negative_nan.to_bits());
    }

    #[test]
    #[should_panic(expected = "every workload")]
    fn ragged_summary_input_panics() {
        let model = trained_model();
        let configs = DesignSpace::boom().sample(1, 1);
        let points = SweepEngine::new(&model, SweepSpec::fast()).run(&configs, &[Workload::Vvadd]);
        let _ = summarize(&points, 2);
    }

    mod surrogate_backend {
        use super::*;
        use crate::surrogate::{surrogate_gbdt_params, SURROGATE_TRAIN_SEED};
        use proptest::prelude::*;
        use std::sync::OnceLock;

        const WORKLOADS: [Workload; 2] = [Workload::Dhrystone, Workload::Vvadd];

        /// One trained model + surrogate shared across every test in this
        /// module (training either per proptest case would dominate runtime).
        fn fixture() -> &'static (AutoPower, ActivitySurrogate) {
            static FIXTURE: OnceLock<(AutoPower, ActivitySurrogate)> = OnceLock::new();
            FIXTURE.get_or_init(|| {
                let model = trained_model();
                let surrogate = ActivitySurrogate::train(
                    &DesignSpace::boom(),
                    &WORKLOADS,
                    &SimConfig::fast(),
                    24,
                    SURROGATE_TRAIN_SEED,
                    &surrogate_gbdt_params(),
                )
                .unwrap();
                (model, surrogate)
            })
        }

        proptest! {
            /// A surrogate sweep auditing **every** configuration is
            /// bit-identical to an exact sweep over any sampled slice of the
            /// space — the audited path really is the exact path.
            #[test]
            fn full_audit_equals_exact_bit_for_bit(
                count in 1usize..6,
                sample_seed in 0u64..100_000,
            ) {
                let (model, surrogate) = fixture();
                let configs = DesignSpace::boom().sample(count, sample_seed);
                let spec = SweepSpec::fast().threads(1);
                let exact = SweepEngine::new(model, spec).run(&configs, &WORKLOADS);
                let engine = SweepEngine::new(model, spec)
                    .with_backend(SimBackend::Surrogate {
                        surrogate,
                        audit_rate: 1.0,
                    })
                    .unwrap();
                let audited = engine.run(&configs, &WORKLOADS);
                prop_assert_eq!(&audited, &exact);
                let report = engine.audit_report().expect("surrogate backend reports");
                prop_assert_eq!(report.audited_points, (count * WORKLOADS.len()) as u64);
                prop_assert_eq!(report.total_samples, (count * WORKLOADS.len()) as u64);
            }
        }

        #[test]
        fn partial_audit_emits_exact_points_for_audited_configs() {
            let (model, surrogate) = fixture();
            let configs = DesignSpace::boom().sample(40, 4242);
            let audit_rate = 0.3;
            let spec = SweepSpec::fast().threads(1);
            let exact = SweepEngine::new(model, spec).run(&configs, &WORKLOADS);
            let engine = SweepEngine::new(model, spec)
                .with_backend(SimBackend::Surrogate {
                    surrogate,
                    audit_rate,
                })
                .unwrap();
            let mixed = engine.run(&configs, &WORKLOADS);
            assert_eq!(mixed.len(), exact.len());

            let mut audited_configs = 0;
            for (i, config) in configs.iter().enumerate() {
                for (w, _) in WORKLOADS.iter().enumerate() {
                    let k = i * WORKLOADS.len() + w;
                    if audit_selected(config.id, audit_rate) {
                        assert_eq!(mixed[k], exact[k], "audited point {k} diverged");
                    } else {
                        // Surrogate points are physical and near the exact
                        // answer, but not the exact answer.
                        assert!(mixed[k].power.total() > 0.0);
                        assert!(mixed[k].ipc > 0.0);
                    }
                }
                audited_configs += usize::from(audit_selected(config.id, audit_rate));
            }
            assert!(
                audited_configs > 0 && audited_configs < configs.len(),
                "rate {audit_rate} audited {audited_configs} of {} — tune the test seed",
                configs.len()
            );
            let report = engine.audit_report().unwrap();
            assert_eq!(
                report.audited_points,
                (audited_configs * WORKLOADS.len()) as u64
            );
            // The error bound is meaningful: defined for IPC, and small for a
            // surrogate trained on this very space.
            let ipc = &report.per_event[0];
            assert_eq!(ipc.name, "ipc");
            assert_eq!(ipc.samples, report.audited_points);
            assert!(ipc.mape.unwrap() < 0.25, "ipc MAPE {:?}", ipc.mape);
            assert!(report.total_mape.unwrap() < 0.25);
        }

        #[test]
        fn surrogate_sweep_is_thread_count_invariant_including_the_audit_table() {
            let (model, surrogate) = fixture();
            let configs = DesignSpace::boom().sample(12, 77);
            let backend = |s| SimBackend::Surrogate {
                surrogate: s,
                audit_rate: 0.5,
            };
            let serial_engine = SweepEngine::new(
                model,
                SweepSpec {
                    chunk_configs: 2,
                    ..SweepSpec::fast().threads(1)
                },
            )
            .with_backend(backend(surrogate))
            .unwrap();
            let serial = serial_engine.run(&configs, &WORKLOADS);
            let parallel_engine = SweepEngine::new(model, SweepSpec::fast().threads(8))
                .with_backend(backend(surrogate))
                .unwrap();
            let parallel = parallel_engine.run(&configs, &WORKLOADS);
            assert_eq!(serial, parallel);
            // Fixed-point audit sums: the report is bit-identical too, not
            // merely statistically close.
            assert_eq!(serial_engine.audit_report(), parallel_engine.audit_report());
        }

        #[test]
        fn exact_backend_reports_no_audit() {
            let (model, _) = fixture();
            let engine = SweepEngine::new(model, SweepSpec::fast().threads(1));
            assert!(engine.audit_report().is_none());
            assert!(engine.audit_state().is_none());
        }

        #[test]
        fn invalid_backends_are_refused() {
            let (model, surrogate) = fixture();
            for bad_rate in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
                let err = SweepEngine::new(model, SweepSpec::fast())
                    .with_backend(SimBackend::Surrogate {
                        surrogate,
                        audit_rate: bad_rate,
                    })
                    .unwrap_err();
                assert!(
                    matches!(err, AutoPowerError::Surrogate(_)),
                    "rate {bad_rate} not refused"
                );
            }
            // A surrogate trained for different simulation knobs is refused.
            let mut spec = SweepSpec::fast();
            spec.sim.stream_seed += 1;
            assert!(SweepEngine::new(model, spec)
                .with_backend(SimBackend::Surrogate {
                    surrogate,
                    audit_rate: 0.5,
                })
                .is_err());
        }

        #[test]
        fn audit_state_roundtrips_through_restore() {
            let (model, surrogate) = fixture();
            let configs = DesignSpace::boom().sample(8, 909);
            let backend = SimBackend::Surrogate {
                surrogate,
                audit_rate: 1.0,
            };
            let spec = SweepSpec::fast().threads(1);
            // One-shot engine over both halves.
            let one_shot = SweepEngine::new(model, spec).with_backend(backend).unwrap();
            one_shot.run(&configs, &WORKLOADS);
            // Split across two engines, carrying the audit state over like a
            // checkpoint resume does.
            let first = SweepEngine::new(model, spec).with_backend(backend).unwrap();
            first.run(&configs[..4], &WORKLOADS);
            let carried = first.audit_state().unwrap();
            let second = SweepEngine::new(model, spec).with_backend(backend).unwrap();
            second.restore_audit_state(carried);
            second.run(&configs[4..], &WORKLOADS);
            assert_eq!(second.audit_report(), one_shot.audit_report());
        }
    }
}
