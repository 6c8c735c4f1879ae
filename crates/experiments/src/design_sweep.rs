//! Design-space sweep and Pareto-frontier experiments: scoring generated
//! (non-seed) configurations through the few-shot model — the tool the
//! paper's introduction promises an architect.
//!
//! A sweep trains a registry model on the usual two known configurations (or
//! loads a trained one), then streams configurations of
//! [`DesignSpace::boom`] through [`SweepEngine::stream`](autopower::SweepEngine)
//! into a bounded-memory [`SweepAggregator`]: either a fixed-seeded `--count
//! N` sample or the **full** enumerable space (`--full`), holding O(top-k +
//! sketches + one chunk) memory.  No synthesis and no golden power simulation
//! run for any generated configuration — only a fast performance simulation
//! (or a surrogate prediction) per `(configuration, workload)` pair.  The
//! sweep can checkpoint at every chunk boundary (`--checkpoint FILE`) and
//! resume (`--resume`) to a byte-identical report.
//!
//! Two reproducibility contracts shape the code:
//!
//! * **Bit-identity with the engine's materializing path.** A sampled sweep
//!   folds the exact points `SweepEngine::run` would produce (same scoring
//!   path), through the same per-configuration fold, so its top-k table is
//!   `rank_by_efficiency(...)[..k]` bit for bit and its (uncompacted) sketch
//!   quantiles are the nearest-rank quantiles of the summaries.
//! * **Resume-invariance of the report.** [`StreamSweepResult`]'s `Display`
//!   (and its [`StreamSweepResult::pareto_report`]) depend only on state a
//!   resumed run rebuilds exactly (the aggregator and the sweep inputs).
//!   Process-local observations — cache hit rates, peak retained points — go
//!   to [`StreamSweepResult::diagnostics`] (printed to stderr by the CLI),
//!   because a resumed process's cache never saw the chunks before the
//!   checkpoint and would report different numbers.

use crate::report::format_table;
use crate::surrogate_exp::{audit_section, refuse_unaudited};
use crate::Experiments;
use autopower::{
    encode_model, encode_surrogate, load_checkpoint_salvaged, save_checkpoint, ActivitySurrogate,
    AuditReport, AutoPowerError, CheckpointSalvage, ChunkCursor, ModelKind, ParetoConstraints,
    PowerModel, PowerSeries, SimBackend, StreamSpec, SweepAggregator, SweepCheckpoint, SweepEngine,
    SweepSpec,
};
use autopower_config::{ConfigId, CpuConfig, DesignSpace, HwParam, Workload};
use autopower_perfsim::{SimCacheStats, SimConfig};
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed of the design-space draw: fixed so the swept configurations (and hence
/// the printed summary) are reproducible across runs and thread counts.
pub(crate) const SAMPLE_SEED: u64 = 0xA070_90E5;

/// How many best configurations the ranked summary retains and prints.
const TOP_K: usize = 10;

/// Per-level capacity of the streaming quantile sketches: exact quantiles up
/// to 1024 configurations per series, bounded-error summaries beyond.
const SKETCH_LEVEL_CAPACITY: usize = 1024;

/// Which configurations a sweep scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamScope {
    /// The fixed-seeded `count`-configuration sample of the design space
    /// (`--count N`; the same draw the `compare` experiment scores).
    Sampled(usize),
    /// Every valid non-seed configuration of the design space, in enumeration
    /// order (`--full`).
    Full,
}

/// Surrogate backing of a sweep run: the trained per-event surrogate plus the
/// deterministic audit fraction (`--surrogate` / `--audit-rate`).
#[derive(Debug, Clone, Copy)]
pub struct SurrogateSpec<'a> {
    /// The trained surrogate the engine predicts raw event rates with.
    pub surrogate: &'a ActivitySurrogate,
    /// Fraction of swept configurations simulated exactly to bound the
    /// surrogate's error; must be in `(0, 1]`.
    pub audit_rate: f64,
}

/// Where a sweep's power model comes from.
#[derive(Debug, Clone, Copy)]
pub enum ModelSource<'a> {
    /// Train this registry model on the two known configurations.
    Train(ModelKind),
    /// Score with an already-trained model — the `--load-model` path, where
    /// the model was restored with [`autopower::load_model`].  Bit-identical
    /// to training the same kind on the same corpus; the report says the
    /// model was loaded, because the file records no training set.
    Loaded(&'a dyn PowerModel),
}

/// One design-space sweep: the model, the scope, the scoring backend, the
/// Pareto feasibility bounds and the checkpoint knobs.
///
/// [`SweepRequest::new`] is the classic run — exact simulation, unconstrained
/// frontier, no checkpoint; adjust the rest with struct-update syntax.
#[derive(Debug, Clone)]
pub struct SweepRequest<'a> {
    /// The model that scores the sweep.
    pub model: ModelSource<'a>,
    /// Which configurations are scored.
    pub scope: StreamScope,
    /// Score with a learned surrogate instead of exact simulation; `None`
    /// simulates every point exactly.
    pub surrogate: Option<SurrogateSpec<'a>>,
    /// Feasibility constraints applied before the Pareto frontier fold
    /// (`--max-power` / `--min-ipc`).
    pub constraints: ParetoConstraints,
    /// Write a checkpoint here after every completed chunk.
    pub checkpoint: Option<PathBuf>,
    /// Resume from the checkpoint instead of starting over (requires
    /// `checkpoint`).
    pub resume: bool,
    /// Stop (checkpointed) after this many chunks; `0` streams to the end.
    /// The deterministic stand-in for "the process was killed at a chunk
    /// boundary" used by tests and the CI resume smoke.
    pub max_chunks: u64,
}

impl<'a> SweepRequest<'a> {
    /// An exact, unconstrained, uncheckpointed sweep of `scope` under `model`.
    pub fn new(model: ModelSource<'a>, scope: StreamScope) -> Self {
        Self {
            model,
            scope,
            surrogate: None,
            constraints: ParetoConstraints::default(),
            checkpoint: None,
            resume: false,
            max_chunks: 0,
        }
    }
}

/// Result of a design-space sweep: the folded aggregate plus what is needed to
/// report it, either as the sweep summary (`Display`) or as the Pareto
/// frontier ([`StreamSweepResult::pareto_report`]).
#[derive(Debug, Clone)]
pub struct StreamSweepResult {
    /// The registry model that scored the sweep.
    pub model: ModelKind,
    /// The training set, `None` when the model was loaded pre-trained.
    pub train_configs: Option<Vec<ConfigId>>,
    /// The workloads every configuration was scored on.
    pub workloads: Vec<Workload>,
    /// What was swept.
    pub scope: StreamScope,
    /// Exact cardinality of the scope ([`DesignSpace::total`] for
    /// [`StreamScope::Full`]).
    pub scope_total: u64,
    /// Configurations folded so far (equals `scope_total` when `complete`).
    pub streamed: u64,
    /// Whether the scope was exhausted (`false` after a `max_chunks` stop).
    pub complete: bool,
    /// The checkpoint the sweep wrote to / resumed from, if any.
    pub checkpoint: Option<PathBuf>,
    /// The folded aggregate: top-k, sketches, Pareto frontier.
    pub aggregator: SweepAggregator,
    /// This-process cache statistics (`None` when the cache was disabled).
    /// **Not** resume-invariant — reported via
    /// [`StreamSweepResult::diagnostics`], never in `Display`.
    pub cache_stats: Option<SimCacheStats>,
    /// This-process peak number of points materialized at once (one chunk).
    pub peak_retained_points: usize,
    /// Audit error table of the surrogate backend, `None` for exact sweeps.
    /// Resume-invariant: the accumulator travels with the checkpoint.
    pub audit: Option<AuditReport>,
    /// Audited fraction of the surrogate run, `None` for exact sweeps.
    pub audit_rate: Option<f64>,
    /// What checkpoint salvage had to recover on resume (torn main file,
    /// newer `.tmp` sibling), `None` for a clean load.  **Not**
    /// resume-invariant — reported via [`StreamSweepResult::diagnostics`],
    /// never in `Display`.
    pub salvage: Option<CheckpointSalvage>,
}

/// Column headers of the configuration cells every ranked table starts with.
const CONFIG_COLUMNS: [&str; 6] = ["config", "fetch", "decode", "rob", "issue", "ways"];

/// The cells under [`CONFIG_COLUMNS`]: the id and the headline swept axes.
fn config_cells(config: &CpuConfig) -> Vec<String> {
    let mut cells = vec![config.id.to_string()];
    cells.extend(
        [
            HwParam::FetchWidth,
            HwParam::DecodeWidth,
            HwParam::RobEntry,
            HwParam::IntIssueWidth,
            HwParam::CacheWay,
        ]
        .map(|param| config.value(param).to_string()),
    );
    cells
}

/// A ranked table: [`CONFIG_COLUMNS`] followed by `metrics`.
fn config_table(metrics: &[&str], rows: &[Vec<String>]) -> String {
    format_table(&[&CONFIG_COLUMNS[..], metrics].concat(), rows)
}

impl StreamSweepResult {
    /// Writes the first report line — `title`, scope, workloads, model and
    /// provenance — and, for an interrupted sweep, the resume hint that ends
    /// its report.  Returns whether the sweep completed.
    fn write_header(&self, f: &mut fmt::Formatter<'_>, title: &str) -> Result<bool, fmt::Error> {
        let scope = match self.scope {
            StreamScope::Sampled(count) => format!("{count} sampled configurations"),
            StreamScope::Full => format!("full space ({} configurations)", self.scope_total),
        };
        let provenance = match &self.train_configs {
            Some(train) => format!(
                "trained on {}",
                train
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            None => "loaded pre-trained".to_owned(),
        };
        writeln!(
            f,
            "{title} — {scope} x {} workloads, {} {provenance}",
            self.workloads.len(),
            self.model.paper_name(),
        )?;
        if !self.complete {
            writeln!(
                f,
                "interrupted at a chunk boundary: {} of {} configurations folded; \
                 rerun with --resume to continue",
                self.streamed, self.scope_total
            )?;
        }
        Ok(self.complete)
    }

    /// Writes the surrogate audit section, if the sweep ran a surrogate.
    fn write_audit(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(report) = &self.audit {
            writeln!(f)?;
            write!(
                f,
                "{}",
                audit_section(
                    report,
                    self.audit_rate.unwrap_or(0.0),
                    self.workloads.len(),
                    self.streamed,
                )
            )?;
        }
        Ok(())
    }

    /// The power-vs-IPC-vs-area-proxy Pareto frontier of the sweep (the
    /// `pareto` verb's report), rendered from the same aggregate as the
    /// sweep summary.
    pub fn pareto_report(&self) -> impl fmt::Display + '_ {
        ParetoReport(self)
    }

    /// Process-local observations excluded from the (resume-invariant)
    /// report: cache behaviour and memory high-water marks.  The CLI prints
    /// this to stderr so one-shot and resumed stdout stay byte-identical.
    pub fn diagnostics(&self) -> String {
        let mut text = describe_cache(self.cache_stats);
        let _ = write!(
            text,
            "\npeak retained points: {} (materializing this scope would retain {}); \
             aggregator state: {} values",
            self.peak_retained_points,
            self.scope_total * self.workloads.len() as u64,
            self.aggregator.retained_state(),
        );
        if let Some(salvage) = &self.salvage {
            let _ = write!(text, "\ncheckpoint salvaged: {}", salvage.reason);
        }
        text
    }
}

impl fmt::Display for StreamSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.write_header(f, "Streaming design-space sweep")? {
            return Ok(());
        }
        writeln!(
            f,
            "bounded-memory aggregation: top-{} retention + per-group quantile sketches",
            self.aggregator.top_k()
        )?;
        writeln!(f)?;
        let exact = PowerSeries::ALL
            .iter()
            .all(|&s| self.aggregator.series(s).sketch().is_exact());
        writeln!(
            f,
            "predicted power across the space (mW, mean over workloads; {})",
            if exact {
                "exact quantiles"
            } else {
                "sketched quantiles, exact min/max"
            }
        )?;
        // Per-group rows exist exactly when the model resolves groups; a
        // total-only model's report has only the total row.
        let series: &[PowerSeries] = if self.aggregator.resolves_groups() {
            &PowerSeries::ALL
        } else {
            &[PowerSeries::Total]
        };
        let rows: Vec<Vec<String>> = series
            .iter()
            .map(|&s| {
                let sketch = self.aggregator.series(s);
                let cell = |v: Option<f64>| format!("{:.2}", v.expect("non-empty sweep"));
                vec![
                    s.label().to_owned(),
                    cell(sketch.min()),
                    cell(sketch.quantile(0.25)),
                    cell(sketch.quantile(0.5)),
                    cell(sketch.quantile(0.75)),
                    cell(sketch.max()),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            format_table(&["group", "min", "p25", "median", "p75", "max"], &rows)
        )?;
        let top = self.aggregator.top();
        writeln!(
            f,
            "top {} configurations by predicted energy per instruction",
            top.len()
        )?;
        let rows: Vec<Vec<String>> = top
            .iter()
            .map(|s| {
                let mut row = config_cells(&s.config);
                row.extend([
                    format!("{:.2}", s.mean_ipc),
                    format!("{:.2}", s.mean_total),
                    format!("{:.2}", s.energy_per_instruction),
                ]);
                row
            })
            .collect();
        write!(
            f,
            "{}",
            config_table(&["IPC", "power(mW)", "pJ/instr"], &rows)
        )?;
        self.write_audit(f)
    }
}

/// Display adaptor behind [`StreamSweepResult::pareto_report`].
struct ParetoReport<'a>(&'a StreamSweepResult);

impl fmt::Display for ParetoReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sweep = self.0;
        if !sweep.write_header(f, "Pareto frontier")? {
            return Ok(());
        }
        let frontier = sweep.aggregator.pareto().sorted_by_power();
        writeln!(
            f,
            "{} non-dominated configurations (minimize power and area proxy, maximize IPC)",
            frontier.len()
        )?;
        let constraints = sweep.aggregator.pareto_constraints();
        if constraints.is_constrained() {
            let mut bounds = Vec::new();
            if let Some(p) = constraints.max_power {
                bounds.push(format!("mean power <= {p} mW"));
            }
            if let Some(i) = constraints.min_ipc {
                bounds.push(format!("mean IPC >= {i}"));
            }
            writeln!(
                f,
                "feasibility: {} (applied before the frontier fold)",
                bounds.join(", ")
            )?;
        }
        writeln!(f)?;
        let rows: Vec<Vec<String>> = frontier
            .iter()
            .map(|e| {
                let s = &e.summary;
                let mut row = config_cells(&s.config);
                row.extend([
                    format!("{:.2}", s.mean_total),
                    format!("{:.2}", s.mean_ipc),
                    format!("{:.1}", e.area),
                    format!("{:.2}", s.energy_per_instruction),
                ]);
                row
            })
            .collect();
        write!(
            f,
            "{}",
            config_table(&["power(mW)", "IPC", "area(kFBE)", "pJ/instr"], &rows)
        )?;
        sweep.write_audit(f)
    }
}

/// One report line describing what the simulation cache did for a sweep.
///
/// Shared by the sweep diagnostics and the `compare` report so the wording
/// (and the "disabled" spelling the `--no-sim-cache` runs grep for) stays in
/// one place.
pub(crate) fn describe_cache(stats: Option<SimCacheStats>) -> String {
    match stats {
        Some(s) if s.hits > 0 => format!(
            "simulation cache: {} of {} simulations deduplicated ({:.1}% hit rate)",
            s.hits,
            s.lookups(),
            100.0 * s.hit_rate(),
        ),
        // An enabled cache that was never consulted (e.g. a resumed sweep
        // with nothing left to stream) has no hit rate to report — saying
        // "no duplicates among 0 simulations" would be misleading.
        Some(s) if s.lookups() == 0 => {
            "simulation cache: enabled, idle (no simulations ran)".to_owned()
        }
        Some(s) => format!(
            "simulation cache: no duplicates among {} simulations",
            s.misses
        ),
        None => "simulation cache: disabled".to_owned(),
    }
}

/// Everything the `compare` experiment needs besides trained models: the
/// training set, the fixed-seeded generated configurations a sampled sweep
/// scores and the sweep settings.
pub(crate) struct SweepInputs {
    pub train: Vec<ConfigId>,
    pub configs: Vec<CpuConfig>,
    pub workloads: Vec<Workload>,
    pub spec: SweepSpec,
}

/// 64-bit FNV-1a, the checkpoint fingerprint hash.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut hash = if seed == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of everything a checkpoint's aggregate depends on: the space
/// axes, the workloads, the trained model (its serialized text, so two
/// same-kind models with different weights collide with probability ~0), the
/// scope and the simulation settings.  Resume refuses a checkpoint whose
/// fingerprint does not match — folding the tail of a *different* sweep onto
/// a checkpointed head would silently corrupt the report.
fn sweep_fingerprint(
    space: &DesignSpace,
    workloads: &[Workload],
    model: &dyn PowerModel,
    scope: StreamScope,
    sim: &SimConfig,
) -> u64 {
    let mut canonical = String::new();
    for axis in space.axes() {
        let _ = write!(canonical, "axis {}:", axis.param.name());
        for v in &axis.values {
            let _ = write!(canonical, "{v},");
        }
        canonical.push(';');
    }
    for w in workloads {
        let _ = write!(canonical, "workload {w};");
    }
    match scope {
        StreamScope::Sampled(count) => {
            let _ = write!(canonical, "scope sampled:{count}:{SAMPLE_SEED:016x};");
        }
        StreamScope::Full => canonical.push_str("scope full;"),
    }
    let _ = write!(
        canonical,
        "sim {}:{}:{:016x}:{};",
        sim.max_instructions,
        sim.stream_seed,
        sim.event_distortion.to_bits(),
        sim.interval_cycles,
    );
    let hash = fnv1a(0, canonical.as_bytes());
    fnv1a(hash, &encode_model(model))
}

impl Experiments {
    /// The shared inputs of the `sweep` and `compare` experiments — one
    /// definition so `compare` provably scores exactly the space (and uses
    /// exactly the settings) a sampled sweep does.
    pub(crate) fn sweep_inputs(&self, count: usize) -> SweepInputs {
        SweepInputs {
            train: self.settings().train_two.clone(),
            configs: self.settings().sweep_space.sample(count, SAMPLE_SEED),
            workloads: self.settings().average_workloads.clone(),
            spec: self.sweep_spec(),
        }
    }

    /// The engine settings every sweeping experiment (`sweep`, `compare`,
    /// `pareto`) derives from the experiment settings.
    pub(crate) fn sweep_spec(&self) -> SweepSpec {
        SweepSpec {
            sim: self.settings().average_sim,
            threads: self.settings().threads,
            use_sim_cache: self.settings().sim_cache,
            chunk_configs: match self.settings().chunk_configs {
                0 => SweepSpec::paper().chunk_configs,
                n => n,
            },
        }
    }

    /// Runs one design-space sweep (the `sweep` and `pareto` CLI verbs):
    /// trains or takes the request's model, streams its scope through the
    /// bounded-memory aggregator, checkpointing and resuming as asked.
    ///
    /// Deterministic end to end: the design-space draw is fixed-seeded, and
    /// corpus generation and batch inference are bit-identical for every
    /// thread count, so the report never depends on `--threads`.
    ///
    /// # Errors
    ///
    /// Returns an error if training fails, checkpoint handling fails, the
    /// surrogate is incompatible with the sweep, or a *completed* surrogate
    /// sweep audited zero configurations (its error table would be empty).
    ///
    /// # Panics
    ///
    /// Panics if the scope is empty ([`StreamScope::Sampled`] with zero), or
    /// if `request.constraints` carry a non-finite or non-positive bound (the
    /// CLI validates them at parse time).
    pub fn sweep(&self, request: &SweepRequest<'_>) -> Result<StreamSweepResult, AutoPowerError> {
        let space = &self.settings().sweep_space;
        let workloads = self.settings().average_workloads.clone();
        let spec = self.sweep_spec();
        let scope = request.scope;
        let scope_total = match scope {
            StreamScope::Sampled(count) => {
                assert!(count > 0, "a sweep needs at least one configuration");
                count as u64
            }
            StreamScope::Full => space.total(),
        };
        assert!(scope_total > 0, "the design space is empty");
        // A loaded model sweeps without touching the training corpus, and its
        // report states it was loaded (the file records no training set).
        let trained;
        let (model, train_configs) = match request.model {
            ModelSource::Train(kind) => {
                trained = self.train_sweep_model(kind)?;
                (trained.as_ref(), Some(self.settings().train_two.clone()))
            }
            ModelSource::Loaded(model) => (model, None),
        };
        let mut fingerprint = sweep_fingerprint(space, &workloads, model, scope, &spec.sim);
        // Surrogate backing and constraints join the fingerprint: resuming a
        // checkpoint under a different surrogate, audit rate or feasibility
        // bound would silently mix two different sweeps.  Exact unconstrained
        // runs fold nothing extra.  (Checkpoints written before the binary
        // format 2 are refused by the codec's magic check before any
        // fingerprint comparison.)
        let mut extra = String::new();
        if let Some(p) = request.constraints.max_power {
            let _ = write!(extra, "max-power {:016x};", p.to_bits());
        }
        if let Some(i) = request.constraints.min_ipc {
            let _ = write!(extra, "min-ipc {:016x};", i.to_bits());
        }
        if let Some(s) = &request.surrogate {
            let _ = write!(extra, "audit-rate {:016x};", s.audit_rate.to_bits());
        }
        fingerprint = fnv1a(fingerprint, extra.as_bytes());
        if let Some(s) = &request.surrogate {
            fingerprint = fnv1a(fingerprint, &encode_surrogate(s.surrogate));
        }
        let stream_spec = StreamSpec {
            top_k: TOP_K,
            sketch_level_capacity: SKETCH_LEVEL_CAPACITY,
        };
        let (mut aggregator, start, saved_audit, salvage) = if request.resume {
            let path = request.checkpoint.as_ref().ok_or_else(|| {
                AutoPowerError::Checkpoint("--resume requires --checkpoint FILE".to_owned())
            })?;
            // Salvage mode: a main file torn by a crash falls back to a
            // complete fingerprint-matching `.tmp` sibling; what was
            // recovered is surfaced through `diagnostics()`.
            let (checkpoint, salvage) = load_checkpoint_salvaged(path, Some(fingerprint))?;
            if checkpoint.fingerprint != fingerprint {
                return Err(AutoPowerError::Checkpoint(format!(
                    "{} belongs to a different sweep (space, workloads, model, scope or \
                     simulation settings changed since it was written)",
                    path.display()
                )));
            }
            if checkpoint.aggregator.per_config() != workloads.len() {
                return Err(AutoPowerError::Checkpoint(format!(
                    "{} aggregates {} workload(s) per configuration, this sweep has {}",
                    path.display(),
                    checkpoint.aggregator.per_config(),
                    workloads.len()
                )));
            }
            (
                checkpoint.aggregator,
                checkpoint.cursor.offset,
                checkpoint.audit,
                salvage,
            )
        } else {
            (
                SweepAggregator::new(workloads.len(), &stream_spec)
                    .with_pareto_constraints(request.constraints),
                0,
                None,
                None,
            )
        };

        let mut engine = SweepEngine::new(model, spec);
        if let Some(s) = &request.surrogate {
            engine = engine.with_backend(SimBackend::Surrogate {
                surrogate: s.surrogate,
                audit_rate: s.audit_rate,
            })?;
        }
        let engine = engine;
        if let Some(audit) = saved_audit {
            engine.restore_audit_state(audit);
        }
        let checkpoint_path = request.checkpoint.clone();
        let max_chunks = request.max_chunks;
        let mut chunks_done = 0u64;
        let after_chunk = |aggregator: &SweepAggregator, folded: u64| {
            if let Some(path) = &checkpoint_path {
                save_checkpoint(
                    &SweepCheckpoint {
                        fingerprint,
                        cursor: ChunkCursor {
                            offset: start + folded,
                        },
                        aggregator: aggregator.clone(),
                        audit: engine.audit_state(),
                    },
                    path,
                )?;
            }
            chunks_done += 1;
            Ok(max_chunks == 0 || chunks_done < max_chunks)
        };
        let skip = usize::try_from(start)
            .map_err(|_| AutoPowerError::Checkpoint(format!("cursor offset {start} overflows")))?;
        let progress = match scope {
            StreamScope::Full => engine.stream(
                space.enumerate().skip(skip),
                &workloads,
                &mut aggregator,
                after_chunk,
            )?,
            StreamScope::Sampled(count) => engine.stream(
                space.sample(count, SAMPLE_SEED).into_iter().skip(skip),
                &workloads,
                &mut aggregator,
                after_chunk,
            )?,
        };
        debug_assert_eq!(
            aggregator.configs_folded(),
            start + progress.configs_streamed
        );
        let audit = engine.audit_report();
        if let (Some(report), Some(s)) = (&audit, &request.surrogate) {
            // An *interrupted* run may legitimately have audited nothing yet;
            // a completed one presenting an empty error table would be a
            // silently-unvalidated report.
            if progress.complete {
                refuse_unaudited(report, aggregator.configs_folded(), s.audit_rate)?;
            }
        }
        Ok(StreamSweepResult {
            model: model.kind(),
            train_configs,
            workloads,
            scope,
            scope_total,
            streamed: aggregator.configs_folded(),
            complete: progress.complete,
            checkpoint: request.checkpoint.clone(),
            cache_stats: spec.use_sim_cache.then(|| engine.cache_stats()),
            peak_retained_points: progress.peak_retained_points,
            audit,
            audit_rate: request.surrogate.as_ref().map(|s| s.audit_rate),
            salvage,
            aggregator,
        })
    }
}

/// A design space folded small enough that full-space streaming is test-cheap
/// (a few dozen valid configurations).
#[cfg(test)]
fn tiny_space() -> DesignSpace {
    DesignSpace::boom()
        .with_axis(HwParam::FetchWidth, vec![4])
        .with_axis(HwParam::DecodeWidth, vec![2])
        .with_axis(HwParam::RobEntry, vec![48, 64])
        .with_axis(HwParam::IntIssueWidth, vec![2])
        .with_axis(HwParam::MemFpIssueWidth, vec![1])
        .with_axis(HwParam::CacheWay, vec![2, 4])
        .with_axis(HwParam::DtlbEntry, vec![8])
        .with_axis(HwParam::BranchCount, vec![8, 12])
        .with_axis(HwParam::MshrEntry, vec![2, 4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate_exp::SurrogateOptions;
    use crate::ExperimentSettings;
    use autopower::{area_proxy, rank_by_efficiency, summarize};

    /// A trained, exact, unconstrained, uncheckpointed request.
    fn request(kind: ModelKind, scope: StreamScope) -> SweepRequest<'static> {
        SweepRequest::new(ModelSource::Train(kind), scope)
    }

    #[test]
    fn sampled_sweep_matches_the_engine_reference_bit_for_bit() {
        let exp = Experiments::fast();
        let streamed = exp
            .sweep(&request(ModelKind::AutoPower, StreamScope::Sampled(16)))
            .unwrap();
        assert!(streamed.complete);
        assert_eq!(streamed.streamed, 16);

        // Reference: the core engine's materializing path over the same
        // draw, summarized and ranked by the core's own fold and ranking.
        let inputs = exp.sweep_inputs(16);
        let model = exp.train_sweep_model(ModelKind::AutoPower).unwrap();
        let points =
            SweepEngine::new(model.as_ref(), inputs.spec).run(&inputs.configs, &inputs.workloads);
        let summaries = summarize(&points, inputs.workloads.len());
        assert_eq!(summaries.len(), 16);
        assert!(summaries.iter().all(|s| !s.config.id.is_seed()));

        // Same top-10, bit for bit.
        let mut expected = rank_by_efficiency(&summaries);
        expected.truncate(TOP_K);
        assert_eq!(streamed.aggregator.top(), expected);

        // Exact (uncompacted) quantiles equal the nearest-rank quantiles of
        // the summaries' mean totals.
        let mut totals: Vec<f64> = summaries.iter().map(|s| s.mean_total).collect();
        totals.sort_by(f64::total_cmp);
        let nearest_rank = |q: f64| totals[((totals.len() - 1) as f64 * q).round() as usize];
        let series = streamed.aggregator.series(PowerSeries::Total);
        assert!(series.sketch().is_exact());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let got = series.quantile(q).unwrap();
            assert_eq!(
                got.to_bits(),
                nearest_rank(q).to_bits(),
                "quantile {q} diverged"
            );
        }
        assert_eq!(series.min(), Some(nearest_rank(0.0)));
        assert_eq!(series.max(), Some(nearest_rank(1.0)));

        let text = streamed.to_string();
        assert!(text.contains("16 sampled configurations"));
        assert!(text.contains("trained on C1+C15"));
        assert!(text.contains("exact quantiles"));
        assert!(text.contains("median"));
        assert!(text.contains("pJ/instr"));
        // Process-local numbers stay out of the resume-invariant report.
        assert!(!text.contains("cache"));
        assert!(streamed.diagnostics().contains("simulation cache"));
        assert!(streamed.diagnostics().contains("peak retained points"));

        // The same model handed in pre-trained sweeps identically; only the
        // provenance differs.
        let loaded = exp
            .sweep(&SweepRequest::new(
                ModelSource::Loaded(model.as_ref()),
                StreamScope::Sampled(16),
            ))
            .unwrap();
        assert_eq!(loaded.aggregator, streamed.aggregator);
        assert!(loaded.train_configs.is_none());
        assert!(loaded.to_string().contains("loaded pre-trained"));
    }

    #[test]
    fn standalone_sweep_matches_sweep_after_full_corpus() {
        // A standalone sweep trains on the restricted (train-configs-only)
        // corpus; after another experiment populated the full average-power
        // corpus, training reuses it.  Both paths must produce the same model
        // and hence the same sweep.
        let sweep = |exp: &Experiments| {
            exp.sweep(&request(ModelKind::AutoPower, StreamScope::Sampled(6)))
                .unwrap()
        };
        let standalone = sweep(&Experiments::fast());
        let warmed = Experiments::fast();
        let _ = warmed.average_corpus();
        assert_eq!(sweep(&warmed).aggregator, standalone.aggregator);
    }

    #[test]
    #[should_panic(expected = "at least one configuration")]
    fn empty_sweep_is_rejected() {
        let _ = Experiments::fast().sweep(&request(ModelKind::AutoPower, StreamScope::Sampled(0)));
    }

    #[test]
    fn full_space_streaming_covers_total_exactly() {
        let space = tiny_space();
        let total = space.total();
        assert!(total > 0);
        let settings = ExperimentSettings::fast()
            .with_sweep_space(space)
            .with_chunk(4);
        let exp = Experiments::new(settings);
        let result = exp
            .sweep(&request(ModelKind::AutoPower, StreamScope::Full))
            .unwrap();
        assert!(result.complete);
        assert_eq!(result.scope_total, total);
        assert_eq!(result.streamed, total);
        assert_eq!(result.aggregator.configs_folded(), total);
        // One chunk's points at a time, never the whole space.
        assert_eq!(
            result.peak_retained_points,
            4 * exp.settings().average_workloads.len()
        );
        assert!(result.to_string().contains("full space"));
    }

    #[test]
    fn max_chunks_interrupts_and_resume_completes_byte_identically() {
        let dir = std::env::temp_dir().join(format!("autopower-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let settings = || {
            ExperimentSettings::fast()
                .with_sweep_space(tiny_space())
                .with_chunk(3)
                .with_threads(2)
        };
        let base = request(ModelKind::AutoPower, StreamScope::Full);

        // One-shot reference run, no checkpointing at all.
        let one_shot = Experiments::new(settings()).sweep(&base).unwrap();
        assert!(one_shot.complete);

        // "Killed" after two chunks, at a checkpointed boundary.
        let interrupted = Experiments::new(settings())
            .sweep(&SweepRequest {
                checkpoint: Some(path.clone()),
                max_chunks: 2,
                ..base.clone()
            })
            .unwrap();
        assert!(!interrupted.complete);
        assert_eq!(interrupted.streamed, 6);
        assert!(interrupted.to_string().contains("--resume"));

        // Resumed in a fresh harness (fresh corpus, fresh caches).
        let resumed = Experiments::new(settings())
            .sweep(&SweepRequest {
                checkpoint: Some(path.clone()),
                resume: true,
                ..base
            })
            .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.streamed, one_shot.streamed);
        assert_eq!(resumed.aggregator, one_shot.aggregator);
        assert_eq!(
            resumed.to_string(),
            one_shot.to_string(),
            "resumed report is not byte-identical to the one-shot run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_foreign_checkpoint() {
        let dir = std::env::temp_dir().join(format!("autopower-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("foreign.ckpt");
        let exp = Experiments::fast();
        let checkpointed = |kind, scope, resume| SweepRequest {
            checkpoint: Some(path.clone()),
            resume,
            ..request(kind, scope)
        };
        // Checkpoint a 6-config sampled sweep...
        exp.sweep(&checkpointed(
            ModelKind::AutoPower,
            StreamScope::Sampled(6),
            false,
        ))
        .unwrap();
        // ...then try to resume it as a different scope and a different model.
        for (scope, kind) in [
            (StreamScope::Sampled(8), ModelKind::AutoPower),
            (StreamScope::Sampled(6), ModelKind::McpatCalib),
        ] {
            let err = exp.sweep(&checkpointed(kind, scope, true)).unwrap_err();
            assert!(
                err.to_string().contains("different sweep"),
                "unexpected error: {err}"
            );
        }
        // Resume without a checkpoint path is rejected up front.
        let err = exp
            .sweep(&SweepRequest {
                resume: true,
                ..request(ModelKind::AutoPower, StreamScope::Sampled(6))
            })
            .unwrap_err();
        assert!(err.to_string().contains("--checkpoint"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn total_only_streaming_reports_only_the_total_row() {
        let exp = Experiments::fast();
        let result = exp
            .sweep(&request(ModelKind::McpatCalib, StreamScope::Sampled(6)))
            .unwrap();
        assert_eq!(result.model, ModelKind::McpatCalib);
        assert!(!result.aggregator.resolves_groups());
        assert!(result
            .aggregator
            .top()
            .iter()
            .all(|s| s.mean_groups.is_none()));
        let text = result.to_string();
        // The per-group quantile rows are suppressed for total-only models.
        assert!(!text.contains("clock"));
        assert!(text.contains("total"));
        assert!(text.contains("McPAT-Calib"));
    }

    #[test]
    fn pareto_frontier_is_non_dominated_and_sorted_by_power() {
        let settings = ExperimentSettings::fast().with_sweep_space(tiny_space());
        let exp = Experiments::new(settings);
        let result = exp
            .sweep(&request(ModelKind::AutoPower, StreamScope::Full))
            .unwrap();
        let frontier = result.aggregator.pareto().sorted_by_power();
        assert!(!frontier.is_empty());
        assert!(frontier.len() as u64 <= result.scope_total);
        for pair in frontier.windows(2) {
            assert!(pair[0].summary.mean_total <= pair[1].summary.mean_total);
        }
        for &a in &frontier {
            assert_eq!(a.area, area_proxy(&a.summary.config));
            for &b in &frontier {
                let dominates = a.summary.mean_total <= b.summary.mean_total
                    && a.summary.mean_ipc >= b.summary.mean_ipc
                    && a.area <= b.area;
                assert!(
                    std::ptr::eq(a, b) || !dominates,
                    "{} dominates {}",
                    a.summary.config.id,
                    b.summary.config.id
                );
            }
        }
        let text = result.pareto_report().to_string();
        assert!(text.contains("Pareto frontier"));
        assert!(text.contains(&format!("{} non-dominated", frontier.len())));
        assert!(text.contains("area(kFBE)"));
        assert!(text.contains("full space"));
    }

    #[test]
    fn surrogate_streaming_with_full_audit_matches_exact_bit_for_bit() {
        let exp = Experiments::fast();
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 10,
                ..SurrogateOptions::default()
            })
            .unwrap();
        let exact = exp
            .sweep(&request(ModelKind::AutoPower, StreamScope::Sampled(12)))
            .unwrap();
        let audited = exp
            .sweep(&SweepRequest {
                surrogate: Some(SurrogateSpec {
                    surrogate: &surrogate,
                    audit_rate: 1.0,
                }),
                ..request(ModelKind::AutoPower, StreamScope::Sampled(12))
            })
            .unwrap();
        // Audit rate 1.0 simulates every configuration exactly, so the folded
        // aggregate is bit-identical to the exact backend's.
        assert_eq!(audited.aggregator, exact.aggregator);
        let report = audited
            .audit
            .as_ref()
            .expect("surrogate runs carry an audit");
        assert_eq!(
            report.audited_points,
            12 * exp.settings().average_workloads.len() as u64
        );
        assert_eq!(audited.audit_rate, Some(1.0));
        let text = audited.to_string();
        assert!(text.contains("surrogate audit"), "got: {text}");
        assert!(text.contains("12 of 12 configurations"), "got: {text}");
        assert!(text.contains("predicted total power"));
        // Exact sweeps print no audit section at all.
        assert!(exact.audit.is_none());
        assert!(!exact.to_string().contains("surrogate audit"));
    }

    #[test]
    fn surrogate_checkpoint_resume_is_byte_identical_including_the_audit_table() {
        let dir = std::env::temp_dir().join(format!("autopower-surres-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("surrogate.ckpt");
        let settings = || {
            ExperimentSettings::fast()
                .with_sweep_space(tiny_space())
                .with_chunk(3)
                .with_threads(2)
        };
        // The surrogate is trained deterministically, so each harness can
        // train its own copy and the fingerprints still match.
        let train = |exp: &Experiments| {
            exp.sweep_surrogate(&SurrogateOptions {
                train_count: 8,
                ..SurrogateOptions::default()
            })
            .unwrap()
        };
        let surrogate_request = |surrogate| SweepRequest {
            surrogate: Some(SurrogateSpec {
                surrogate,
                audit_rate: 0.5,
            }),
            ..request(ModelKind::AutoPower, StreamScope::Full)
        };

        let one_shot_exp = Experiments::new(settings());
        let one_shot_surrogate = train(&one_shot_exp);
        let one_shot = one_shot_exp
            .sweep(&surrogate_request(&one_shot_surrogate))
            .unwrap();
        assert!(one_shot.complete);
        assert!(one_shot.audit.as_ref().unwrap().audited_points > 0);

        let interrupted_exp = Experiments::new(settings());
        let interrupted_surrogate = train(&interrupted_exp);
        let interrupted = interrupted_exp
            .sweep(&SweepRequest {
                checkpoint: Some(path.clone()),
                max_chunks: 2,
                ..surrogate_request(&interrupted_surrogate)
            })
            .unwrap();
        assert!(!interrupted.complete);

        let resumed_exp = Experiments::new(settings());
        let resumed_surrogate = train(&resumed_exp);
        let resumed = resumed_exp
            .sweep(&SweepRequest {
                checkpoint: Some(path.clone()),
                resume: true,
                ..surrogate_request(&resumed_surrogate)
            })
            .unwrap();
        assert!(resumed.complete);
        assert_eq!(resumed.aggregator, one_shot.aggregator);
        assert_eq!(resumed.audit, one_shot.audit);
        assert_eq!(
            resumed.to_string(),
            one_shot.to_string(),
            "resumed surrogate report (audit table included) is not byte-identical"
        );

        // An exact checkpoint cannot be resumed as a surrogate sweep (and
        // vice versa): the surrogate and audit rate join the fingerprint.
        let err = resumed_exp
            .sweep(&SweepRequest {
                checkpoint: Some(path.clone()),
                resume: true,
                ..request(ModelKind::AutoPower, StreamScope::Full)
            })
            .unwrap_err();
        assert!(err.to_string().contains("different sweep"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unaudited_surrogate_runs_are_refused_unless_interrupted() {
        let dir = std::env::temp_dir().join(format!("autopower-unaud-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unaudited.ckpt");
        // Two-configuration chunks, so `max_chunks: 1` genuinely interrupts
        // the six-configuration sweep below.
        let exp = Experiments::new(ExperimentSettings::fast().with_chunk(2));
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 8,
                ..SurrogateOptions::default()
            })
            .unwrap();
        // An audit rate this small deterministically selects none of the
        // sampled configurations.
        let unaudited = SweepRequest {
            surrogate: Some(SurrogateSpec {
                surrogate: &surrogate,
                audit_rate: 1e-9,
            }),
            ..request(ModelKind::AutoPower, StreamScope::Sampled(6))
        };
        let err = exp.sweep(&unaudited).unwrap_err();
        assert!(err.to_string().contains("audited zero"), "got: {err}");

        // Interrupted at a chunk boundary the same run is *not* refused (the
        // audit may simply not have reached an audited configuration yet) —
        // and with zero exact simulations the enabled cache reports itself
        // idle instead of a misleading 0.0% hit rate.
        let interrupted = exp
            .sweep(&SweepRequest {
                checkpoint: Some(path.clone()),
                max_chunks: 1,
                ..unaudited
            })
            .unwrap();
        assert!(!interrupted.complete);
        assert_eq!(interrupted.audit.as_ref().unwrap().audited_points, 0);
        let diagnostics = interrupted.diagnostics();
        assert!(diagnostics.contains("idle"), "got: {diagnostics}");
        assert!(!diagnostics.contains("0.0%"), "got: {diagnostics}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constrained_pareto_drops_infeasible_configurations_end_to_end() {
        let settings = ExperimentSettings::fast().with_sweep_space(tiny_space());
        let exp = Experiments::new(settings);
        let unconstrained = exp
            .sweep(&request(ModelKind::AutoPower, StreamScope::Full))
            .unwrap();
        assert!(!unconstrained
            .aggregator
            .pareto_constraints()
            .is_constrained());
        let open = unconstrained.aggregator.pareto().sorted_by_power();
        assert!(open.len() >= 2, "need a splittable frontier");
        // Bound the power between the frontier's extremes so the constraint
        // genuinely carves something away.
        let bound = open[open.len() / 2].summary.mean_total;
        let constrained = exp
            .sweep(&SweepRequest {
                constraints: ParetoConstraints {
                    max_power: Some(bound),
                    min_ipc: None,
                },
                ..request(ModelKind::AutoPower, StreamScope::Full)
            })
            .unwrap();
        let feasible = constrained.aggregator.pareto().sorted_by_power();
        assert!(feasible.len() < open.len());
        assert!(!feasible.is_empty());
        for entry in &feasible {
            assert!(entry.summary.mean_total <= bound);
            // For a max-power bound, pre-filtering coincides with filtering
            // the unconstrained frontier: every surviving entry is one of
            // the unconstrained frontier's entries.
            assert!(
                open.iter()
                    .any(|u| u.summary.config.id == entry.summary.config.id),
                "{} is not on the unconstrained frontier",
                entry.summary.config.id
            );
        }
        let text = constrained.pareto_report().to_string();
        assert!(text.contains("feasibility:"), "got: {text}");
        assert!(text.contains("applied before the frontier fold"));
        assert!(!unconstrained
            .pareto_report()
            .to_string()
            .contains("feasibility:"));
    }

    #[test]
    fn surrogate_pareto_reports_the_audit_table() {
        let settings = ExperimentSettings::fast().with_sweep_space(tiny_space());
        let exp = Experiments::new(settings);
        let surrogate = exp
            .sweep_surrogate(&SurrogateOptions {
                train_count: 8,
                ..SurrogateOptions::default()
            })
            .unwrap();
        let result = exp
            .sweep(&SweepRequest {
                surrogate: Some(SurrogateSpec {
                    surrogate: &surrogate,
                    audit_rate: 1.0,
                }),
                ..request(ModelKind::AutoPower, StreamScope::Full)
            })
            .unwrap();
        // Full audit: the frontier equals the exact run's.
        let exact = exp
            .sweep(&request(ModelKind::AutoPower, StreamScope::Full))
            .unwrap();
        assert_eq!(
            result.aggregator.pareto().sorted_by_power(),
            exact.aggregator.pareto().sorted_by_power()
        );
        assert!(result.audit.as_ref().unwrap().audited_points > 0);
        let text = result.pareto_report().to_string();
        assert!(text.contains("surrogate audit"), "got: {text}");
        assert!(text.contains("predicted total power"));
    }

    #[test]
    fn surrogate_error_bound_stays_within_the_committed_envelope() {
        // The acceptance space: 200 sampled configurations, default training
        // budget, default audit rate.  The thresholds are the committed error
        // envelope — if surrogate quality regresses past them, this fails.
        let exp = Experiments::fast();
        let surrogate = exp.sweep_surrogate(&SurrogateOptions::default()).unwrap();
        let result = exp
            .sweep(&SweepRequest {
                surrogate: Some(SurrogateSpec {
                    surrogate: &surrogate,
                    audit_rate: 0.25,
                }),
                ..request(ModelKind::AutoPower, StreamScope::Sampled(200))
            })
            .unwrap();
        let report = result.audit.expect("audited sweep");
        assert!(report.audited_points > 0);
        let ipc = &report.per_event[0];
        assert_eq!(ipc.name, "ipc");
        let ipc_mape = ipc.mape.expect("ipc error is defined");
        let total_mape = report.total_mape.expect("total error is defined");
        assert!(
            ipc_mape < 0.15,
            "surrogate ipc MAPE {ipc_mape:.4} breached the committed 15% envelope"
        );
        assert!(
            total_mape < 0.10,
            "surrogate total-power MAPE {total_mape:.4} breached the committed 10% envelope"
        );
    }

    #[test]
    fn fingerprint_separates_every_input_dimension() {
        let exp = Experiments::fast();
        let corpus = exp.sweep_training_corpus();
        let auto = ModelKind::AutoPower
            .train(&corpus, &exp.settings().train_two)
            .unwrap();
        let mcpat = ModelKind::McpatCalib
            .train(&corpus, &exp.settings().train_two)
            .unwrap();
        let space = DesignSpace::boom();
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let sim = SimConfig::fast();
        let base = sweep_fingerprint(
            &space,
            &workloads,
            auto.as_ref(),
            StreamScope::Sampled(8),
            &sim,
        );
        // Stable for identical inputs.
        assert_eq!(
            base,
            sweep_fingerprint(
                &space,
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(8),
                &sim
            )
        );
        // Any dimension changing changes the fingerprint.
        let variants = [
            sweep_fingerprint(
                &space.clone().with_axis(HwParam::CacheWay, vec![2]),
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(8),
                &sim,
            ),
            sweep_fingerprint(
                &space,
                &[Workload::Dhrystone],
                auto.as_ref(),
                StreamScope::Sampled(8),
                &sim,
            ),
            sweep_fingerprint(
                &space,
                &workloads,
                mcpat.as_ref(),
                StreamScope::Sampled(8),
                &sim,
            ),
            sweep_fingerprint(&space, &workloads, auto.as_ref(), StreamScope::Full, &sim),
            sweep_fingerprint(
                &space,
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(9),
                &sim,
            ),
            sweep_fingerprint(
                &space,
                &workloads,
                auto.as_ref(),
                StreamScope::Sampled(8),
                &SimConfig {
                    stream_seed: sim.stream_seed + 1,
                    ..sim
                },
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base fingerprint");
        }
    }
}
