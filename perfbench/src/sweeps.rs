//! The two sweep workloads: `sweep-exact` and `sweep-surrogate`.

use crate::inputs::{ExactInputs, Rng, SurrogateInputs, GATE_CONFIGS};
use crate::replay::{mismatches, Backend, TracedResult, TracedSweep};
use crate::report::{Metrics, Tally};
use crate::setup::{
    held_out_accuracy, held_out_configs, load_ms, timed, train_saved, Saved, SETUP_REPEATS, WORKERS,
};
use crate::span::{totals, within, write_trace, Recorder};
use crate::stats::{median, nearest_rank, peak_rss_mb};
use crate::WorkloadRun;
use autopower::{
    audit_selected, load_checkpoint, save_checkpoint, surrogate_gbdt_params, ActivitySurrogate,
    ChunkCursor, SimBackend, StreamSpec, SweepAggregator, SweepCheckpoint, SweepEngine, SweepSpec,
    SURROGATE_TRAIN_SEED,
};
use autopower_config::{CpuConfig, DesignSpace, Workload};
use std::path::Path;
use std::time::Instant;

/// Oracle configurations the surrogate trains on (the CLI's default).
const SURROGATE_TRAIN: usize = 96;

/// Chunks per throughput window of `sweep-exact` (about two seconds).
const EXACT_WINDOW_CHUNKS: usize = 4;

/// Chunks per throughput window of `sweep-surrogate` (about two seconds,
/// holding some twenty audited configurations).
const SURROGATE_WINDOW_CHUNKS: usize = 16;

/// Set-ups per `sweep-surrogate` run: surrogate training alone takes
/// seconds, long enough to measure steadily with fewer repeats.
const SURROGATE_SETUP_REPEATS: usize = 3;

/// Share of configurations the surrogate sweep audits exactly.
const AUDIT_RATE: f64 = 0.02;

/// What one timed streaming sweep left behind.
struct Streamed {
    aggregator: SweepAggregator,
    last_checkpoint: Option<SweepCheckpoint>,
    configs: u64,
    seconds: f64,
    /// `(seconds, configurations)` at every chunk boundary.
    marks: Vec<(f64, u64)>,
}

impl Streamed {
    /// The median throughput over consecutive windows of `window` chunks
    /// (the last, partial window dropped).  Load from outside the benchmark
    /// arrives in bursts; the median of a run's windows shrugs off a burst
    /// that the run's overall mean would absorb.
    fn configs_per_s(&self, window: usize) -> f64 {
        let mut rates = Vec::new();
        let mut from = (0.0, 0);
        for mark in self.marks.iter().skip(window - 1).step_by(window) {
            rates.push((mark.1 - from.1) as f64 / (mark.0 - from.0));
            from = *mark;
        }
        if rates.is_empty() {
            self.configs as f64 / self.seconds
        } else {
            median(&rates)
        }
    }

    /// The lower quartile of the ms from one checkpoint to the next: how
    /// long a streaming user waits for each chunk of durable progress (the
    /// same statistic as `serve-open`'s request latency).
    fn chunk_p25_ms(&self) -> f64 {
        let mut from = 0.0;
        let gaps: Vec<f64> = self
            .marks
            .iter()
            .map(|&(at, _)| {
                let gap = (at - from) * 1e3;
                from = at;
                gap
            })
            .collect();
        nearest_rank(&gaps, 25.0).value
    }
}

/// The end-to-end metrics every sweep reports.
struct SweepE2e<'a> {
    setups: &'a [f64],
    /// Milliseconds of the set-ups' model loads.
    setup_loads_ms: &'a [f64],
    streamed: &'a Streamed,
    window_chunks: usize,
    model_path: &'a Path,
    engine: &'a SweepEngine<'a>,
}

impl SweepE2e<'_> {
    /// Measures what is left to measure (more loads of the saved model,
    /// the held-out predictions) and collects every end-to-end metric but
    /// the peak RSS, which is read last.
    fn metrics(&self, tally: &mut Tally) -> Metrics {
        let mut loads_ms = self.setup_loads_ms.to_vec();
        loads_ms.extend(load_ms(self.model_path));
        let held_out = self.engine.run(&held_out_configs(), &Workload::RISCV_TESTS);
        let totals: Vec<f64> = held_out.iter().map(|p| p.power.total()).collect();
        let accuracy = held_out_accuracy(&totals);
        tally.check("a prediction for every held-out run", accuracy.is_some());
        let (mape, r2) = accuracy.unwrap_or((f64::NAN, f64::NAN));
        let mut e2e = Metrics::default();
        e2e.push("setup_s", median(self.setups), "s");
        e2e.push(
            "ops_per_s",
            self.streamed.configs_per_s(self.window_chunks),
            "ops/s",
        );
        e2e.push("latency_p25_ms", self.streamed.chunk_p25_ms(), "ms");
        e2e.push("model_load_ms", median(&loads_ms), "ms");
        e2e.push("accuracy.mape_pct", mape, "%");
        e2e.push("accuracy.r2", r2, "R2");
        e2e
    }
}

/// Streams `configs` through `engine` until `seconds` have passed (checked
/// at chunk boundaries), saving a checkpoint after every chunk.
fn stream_timed(
    engine: &SweepEngine<'_>,
    configs: impl IntoIterator<Item = CpuConfig>,
    seconds: f64,
    checkpoint: &Path,
) -> Streamed {
    let mut aggregator = SweepAggregator::new(Workload::RISCV_TESTS.len(), &StreamSpec::default());
    let mut last_checkpoint = None;
    let mut marks = Vec::new();
    let start = Instant::now();
    let progress = engine
        .stream(
            configs,
            &Workload::RISCV_TESTS,
            &mut aggregator,
            |aggregator, streamed| {
                let snapshot = SweepCheckpoint {
                    fingerprint: 0,
                    cursor: ChunkCursor { offset: streamed },
                    aggregator: aggregator.clone(),
                    audit: engine.audit_state(),
                };
                save_checkpoint(&snapshot, checkpoint)?;
                last_checkpoint = Some(snapshot);
                let elapsed = start.elapsed().as_secs_f64();
                marks.push((elapsed, streamed));
                Ok(elapsed < seconds)
            },
        )
        .expect("checkpoint writes succeed");
    Streamed {
        aggregator,
        last_checkpoint,
        configs: progress.configs_streamed,
        seconds: start.elapsed().as_secs_f64(),
        marks,
    }
}

/// Gate: the last checkpoint reloads to exactly what was saved, which is
/// exactly the sweep's final state.
fn check_checkpoint(tally: &mut Tally, streamed: &Streamed, path: &Path) {
    let loaded = load_checkpoint(path).ok();
    tally.check(
        "last checkpoint round-trips through load_checkpoint",
        loaded.is_some() && loaded == streamed.last_checkpoint,
    );
    tally.check(
        "last checkpoint holds the final aggregator",
        loaded.is_some_and(|c| c.aggregator == streamed.aggregator),
    );
}

/// Per-layer metrics shared by both traced sweeps.
fn layer_metrics(
    rec: &Recorder,
    model_path: &Path,
    traced_points: u64,
    checkpoint_bytes: u64,
) -> Metrics {
    let t = totals(&rec.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let mut m = Metrics::default();
    m.push(
        "corpus.generate_ms",
        get("corpus.generate").total_ms(),
        "ms",
    );
    m.push("ml.train_ms", get("ml.train").total_ms(), "ms");
    m.push("serialize.save_ms", get("serialize.save").total_ms(), "ms");
    m.push("serialize.load_ms", get("serialize.load").total_ms(), "ms");
    m.push(
        "serialize.model_bytes",
        std::fs::metadata(model_path).map_or(0, |f| f.len()) as f64,
        "bytes",
    );
    m.push(
        "config.generate_ms",
        get("config.sample").total_ms() + get("config.enumerate").total_ms(),
        "ms",
    );
    let lookups = get("perfsim.lookup").count;
    let sims = get("perfsim.sim").count;
    m.push("perfsim.lookups", lookups as f64, "count");
    m.push("perfsim.sims", sims as f64, "count");
    m.push("perfsim.sim_ms", get("perfsim.sim").total_ms(), "ms");
    m.push(
        "perfsim.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            (lookups - sims) as f64 / lookups as f64
        },
        "ratio",
    );
    let runs = get("engine.score_run");
    m.push(
        "engine.score_ms",
        runs.total_ms() / runs.count.max(1) as f64,
        "ms",
    );
    m.push("model.points", traced_points as f64, "count");
    m.push("model.infer_ms", get("model.infer").total_ms(), "ms");
    m.push("model.clock_ms", get("model.clock").total_ms(), "ms");
    m.push("model.sram_ms", get("model.sram").total_ms(), "ms");
    m.push("model.logic_ms", get("model.logic").total_ms(), "ms");
    m.note("stream.fold_ms", get("stream.fold").total_ms(), "ms");
    m.note(
        "stream.checkpoints",
        get("stream.checkpoint").count as f64,
        "count",
    );
    m.note(
        "stream.checkpoint_ms",
        get("stream.checkpoint").total_ms(),
        "ms",
    );
    m.note("stream.checkpoint_bytes", checkpoint_bytes as f64, "bytes");
    m
}

/// `sweep-exact`: a streaming exact sweep over seeded contiguous segments of
/// the enumerated BOOM space, two workers, a checkpoint after every chunk.
pub fn exact(seed: u64, seconds: f64, trace: bool, dir: &Path) -> WorkloadRun {
    let space = DesignSpace::boom();
    let inputs = ExactInputs::generate(seed, space.total());
    let mut tally = Tally::default();

    let model_path = dir.join("sweep-exact.apm");
    let mut setups = Vec::new();
    let mut setup_loads_ms = Vec::new();
    let mut ready: Option<Saved> = None;
    for _ in 0..SETUP_REPEATS {
        let (r, s) = timed(|| train_saved(&model_path, None));
        setups.push(s);
        setup_loads_ms.push(r.load_ms);
        ready = Some(r);
    }
    let Saved {
        trained, loaded, ..
    } = ready.expect("at least one set-up");

    let spec = SweepSpec::paper().threads(WORKERS);
    let engine = SweepEngine::new(loaded.as_ref(), spec);
    let checkpoint = dir.join("sweep-exact.ckpt");
    let streamed = stream_timed(&engine, inputs.configs(&space), seconds, &checkpoint);
    tally.add(streamed.configs, 0);

    check_checkpoint(&mut tally, &streamed, &checkpoint);
    // Streamed points (answered from the warm simulation cache) against a
    // cache-less engine, on a seeded subset of the first segment.
    let subset = space.enumerate_chunk(inputs.segments[0] + inputs.gate_at as u64, GATE_CONFIGS);
    let cached = engine.run(&subset, &Workload::RISCV_TESTS);
    let uncached = SweepEngine::new(&trained.model, spec.sim_cache(false))
        .run(&subset, &Workload::RISCV_TESTS);
    tally.add(cached.len() as u64, mismatches(&cached, &uncached));

    let mut e2e = SweepE2e {
        setups: &setups,
        setup_loads_ms: &setup_loads_ms,
        streamed: &streamed,
        window_chunks: EXACT_WINDOW_CHUNKS,
        model_path: &model_path,
        engine: &engine,
    }
    .metrics(&mut tally);

    let layers = trace.then(|| {
        let rec = Recorder::new();
        let traced_path = dir.join("sweep-exact-traced.apm");
        let traced_model = train_saved(&traced_path, Some(&rec)).trained;
        let replay = TracedSweep {
            model: &traced_model.model,
            library: traced_model.corpus.library(),
            sim: spec.sim,
            backend: Backend::Exact,
            threads: WORKERS,
            chunk_configs: spec.chunk_configs,
            rec: &rec,
        }
        .run(
            inputs.configs(&space),
            streamed.configs,
            &Workload::RISCV_TESTS,
            SweepAggregator::new(Workload::RISCV_TESTS.len(), &StreamSpec::default()),
            &dir.join("sweep-exact-traced.ckpt"),
        );
        check_replay(&mut tally, &engine, &replay, &streamed);
        let mut m = layer_metrics(
            &rec,
            &traced_path,
            replay.configs * Workload::RISCV_TESTS.len() as u64,
            replay.checkpoint_bytes,
        );
        m.push("trace.overhead_pct", overhead_pct(&replay, &streamed), "%");
        write_trace(&rec, dir, "sweep-exact", seed);
        m
    });
    e2e.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    WorkloadRun { e2e, layers, tally }
}

/// Gate: the traced replay folded exactly what the untraced engine folded,
/// and its first chunk's points are bit-identical to the engine's.
fn check_replay(
    tally: &mut Tally,
    engine: &SweepEngine<'_>,
    replay: &TracedResult,
    streamed: &Streamed,
) {
    tally.check(
        "traced replay folds the same aggregator as the engine",
        replay.aggregator == streamed.aggregator,
    );
    let configs: Vec<CpuConfig> = replay
        .first_chunk
        .iter()
        .step_by(Workload::RISCV_TESTS.len())
        .map(|p| p.config)
        .collect();
    let engine_points = engine.run(&configs, &Workload::RISCV_TESTS);
    tally.add(
        replay.first_chunk.len() as u64,
        mismatches(&replay.first_chunk, &engine_points),
    );
}

/// Traced minus untraced time per configuration, as a percentage of the
/// untraced time.
fn overhead_pct(replay: &TracedResult, streamed: &Streamed) -> f64 {
    let traced = replay.seconds / replay.configs as f64;
    let untraced = streamed.seconds / streamed.configs as f64;
    100.0 * (traced - untraced) / untraced
}

fn train_surrogate(rec: Option<&Recorder>) -> ActivitySurrogate {
    within(rec, "surrogate.train", || {
        ActivitySurrogate::train(
            &DesignSpace::boom(),
            &Workload::RISCV_TESTS,
            &SweepSpec::paper().sim,
            SURROGATE_TRAIN,
            SURROGATE_TRAIN_SEED,
            &surrogate_gbdt_params(),
        )
        .expect("surrogate training succeeds")
    })
}

/// `sweep-surrogate`: the streaming engine with the surrogate backend at a
/// 2% audit rate over seeded sampled configurations, serially.
pub fn surrogate(seed: u64, seconds: f64, trace: bool, dir: &Path) -> WorkloadRun {
    let space = DesignSpace::boom();
    let inputs = SurrogateInputs::generate(seed, &space);
    let mut tally = Tally::default();

    let model_path = dir.join("sweep-surrogate.apm");
    let mut setups = Vec::new();
    let mut setup_loads_ms = Vec::new();
    let mut ready: Option<(Saved, ActivitySurrogate)> = None;
    for _ in 0..SURROGATE_SETUP_REPEATS {
        let (r, s) = timed(|| (train_saved(&model_path, None), train_surrogate(None)));
        setups.push(s);
        setup_loads_ms.push(r.0.load_ms);
        ready = Some(r);
    }
    let (
        Saved {
            trained, loaded, ..
        },
        surrogate,
    ) = ready.expect("at least one set-up");

    let spec = SweepSpec::paper().threads(1);
    let engine = SweepEngine::new(loaded.as_ref(), spec)
        .with_backend(SimBackend::Surrogate {
            surrogate: &surrogate,
            audit_rate: AUDIT_RATE,
        })
        .expect("valid audit rate and matching surrogate");
    let checkpoint = dir.join("sweep-surrogate.ckpt");
    let streamed = stream_timed(
        &engine,
        inputs.configs.iter().copied(),
        seconds,
        &checkpoint,
    );
    tally.add(streamed.configs, 0);
    let audit_state = engine.audit_state();
    let report = engine.audit_report().expect("surrogate backend reports");
    check_checkpoint(&mut tally, &streamed, &checkpoint);

    // Audited points are emitted from the exact path: a seeded subset of
    // them against a cache-less exact engine.
    let audited: Vec<CpuConfig> = inputs.configs[..streamed.configs as usize]
        .iter()
        .filter(|c| audit_selected(c.id, AUDIT_RATE))
        .copied()
        .collect();
    let mut rng = Rng::new(inputs.gate_seed, 0);
    let subset: Vec<CpuConfig> = (0..GATE_CONFIGS.min(audited.len()))
        .map(|_| audited[rng.below(audited.len() as u64) as usize])
        .collect();
    tally.check("the sweep audited some configurations", !subset.is_empty());
    let surrogate_points = engine.run(&subset, &Workload::RISCV_TESTS);
    let exact_points = SweepEngine::new(&trained.model, spec.sim_cache(false))
        .run(&subset, &Workload::RISCV_TESTS);
    tally.add(
        surrogate_points.len() as u64,
        mismatches(&surrogate_points, &exact_points),
    );

    let mut e2e = SweepE2e {
        setups: &setups,
        setup_loads_ms: &setup_loads_ms,
        streamed: &streamed,
        window_chunks: SURROGATE_WINDOW_CHUNKS,
        model_path: &model_path,
        engine: &engine,
    }
    .metrics(&mut tally);
    e2e.note(
        "surrogate.audit_mape_pct",
        report.total_mape.map_or(f64::NAN, |m| 100.0 * m),
        "%",
    );

    let layers = trace.then(|| {
        let rec = Recorder::new();
        let traced_path = dir.join("sweep-surrogate-traced.apm");
        let traced_model = train_saved(&traced_path, Some(&rec)).trained;
        let traced_surrogate = train_surrogate(Some(&rec));
        let traced_inputs = rec.span("config.sample", None, 0, |_| {
            SurrogateInputs::generate(seed, &space)
        });
        let replay = TracedSweep {
            model: &traced_model.model,
            library: traced_model.corpus.library(),
            sim: spec.sim,
            backend: Backend::Surrogate {
                surrogate: &traced_surrogate,
                audit_rate: AUDIT_RATE,
            },
            threads: 1,
            chunk_configs: spec.chunk_configs,
            rec: &rec,
        }
        .run(
            traced_inputs.configs.iter().copied(),
            streamed.configs,
            &Workload::RISCV_TESTS,
            SweepAggregator::new(Workload::RISCV_TESTS.len(), &StreamSpec::default()),
            &dir.join("sweep-surrogate-traced.ckpt"),
        );
        tally.check(
            "traced replay accumulates the same audit errors as the engine",
            Some(&replay.audit) == audit_state.as_ref(),
        );
        check_replay(&mut tally, &engine, &replay, &streamed);
        let audited_points = replay.audit.points();
        let mut m = layer_metrics(
            &rec,
            &traced_path,
            replay.configs * Workload::RISCV_TESTS.len() as u64 + audited_points,
            replay.checkpoint_bytes,
        );
        m.push("trace.overhead_pct", overhead_pct(&replay, &streamed), "%");
        let t = totals(&rec.spans());
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        m.note(
            "surrogate.train_ms",
            get("surrogate.train").total_ms(),
            "ms",
        );
        m.note(
            "surrogate.infer_ms",
            get("surrogate.infer").total_ms(),
            "ms",
        );
        m.note("surrogate.audited_points", audited_points as f64, "count");
        write_trace(&rec, dir, "sweep-surrogate", seed);
        m
    });
    e2e.push("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    WorkloadRun { e2e, layers, tally }
}
