//! The traced sweep: a replay of `SweepEngine::stream` through the public
//! functions of each layer, with a span around every call.
//!
//! The replay follows the engine's own schedule — chunks of
//! `chunk_configs` configurations, each split into one contiguous run per
//! worker, every run scored in three phases (events, one batched power
//! prediction, audit fold) — so its points are bit-identical to the
//! engine's, which the sweep workloads check.  Timing a copy instead of
//! the engine itself keeps the program free of instrumentation; the price
//! is that the replay measures the engine's structure as of this benchmark.
//! One known difference: every run gets fresh simulation scratch, as on the
//! engine's parallel path, so a serial replay re-materializes instruction
//! streams per chunk where the serial engine keeps one scratch.

use crate::span::Recorder;
use autopower::{
    audit_selected, save_checkpoint, ActivitySurrogate, AuditAccumulator, AutoPower, ChunkCursor,
    FeatureScratch, PowerModel, PredictInput, Prediction, SweepAggregator, SweepCheckpoint,
    SweepPoint,
};
use autopower_config::{CpuConfig, Workload};
use autopower_ml::Matrix;
use autopower_perfsim::{
    simulate_counters_with, EventParams, SimCache, SimConfig, SimKey, SimScratch,
};
use autopower_techlib::TechLibrary;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Points kept for the per-group model replays.
const GROUP_REPLAY_POINTS: usize = 2048;

/// How the replay obtains event parameters.
#[derive(Clone, Copy)]
pub enum Backend<'a> {
    /// Exact simulation of every point.
    Exact,
    /// Surrogate prediction, auditing `audit_rate` of configurations.
    Surrogate {
        /// The trained surrogate.
        surrogate: &'a ActivitySurrogate,
        /// Fraction of configurations simulated exactly.
        audit_rate: f64,
    },
}

/// A point kept for the per-group replays.
pub struct Kept {
    /// The configuration scored.
    pub config: CpuConfig,
    /// The workload it was scored on.
    pub workload: Workload,
    /// Its event parameters.
    pub events: EventParams,
}

/// One traced streaming sweep.
pub struct TracedSweep<'a> {
    /// The model scored through (concrete, so its group sub-models can be
    /// replayed one by one).
    pub model: &'a AutoPower,
    /// The technology library the model was trained with.
    pub library: &'a TechLibrary,
    /// Simulation settings.
    pub sim: SimConfig,
    /// Event-parameter backend.
    pub backend: Backend<'a>,
    /// Worker threads per chunk.
    pub threads: usize,
    /// Configurations per chunk.
    pub chunk_configs: usize,
    /// Span store.
    pub rec: &'a Recorder,
}

/// What a traced sweep produced.
pub struct TracedResult {
    /// The folded sweep.
    pub aggregator: SweepAggregator,
    /// Audit accumulation (surrogate backend).
    pub audit: AuditAccumulator,
    /// Every point of the first chunk, for the bit-identity gate.
    pub first_chunk: Vec<SweepPoint>,
    /// Configurations streamed.
    pub configs: u64,
    /// Seconds the streaming took (before the per-group replays).
    pub seconds: f64,
    /// Bytes of the last checkpoint written.
    pub checkpoint_bytes: u64,
}

impl TracedSweep<'_> {
    /// Streams `configs` chunk by chunk until `max_configs` are folded,
    /// writing a checkpoint to `checkpoint` after every chunk, then replays
    /// the first points through each group sub-model on its own.
    pub fn run(
        &self,
        configs: impl IntoIterator<Item = CpuConfig>,
        max_configs: u64,
        workloads: &[Workload],
        aggregator: SweepAggregator,
        checkpoint: &Path,
    ) -> TracedResult {
        let rec = self.rec;
        let start = Instant::now();
        let cache = SimCache::new();
        let audit = Mutex::new(AuditAccumulator::new(EventParams::names().len()));
        let mut aggregator = aggregator;
        let mut source = configs.into_iter();
        let mut kept: Vec<Kept> = Vec::new();
        let mut first_chunk = Vec::new();
        let mut streamed = 0u64;
        let mut checkpoint_bytes = 0;
        let mut op = 0u64;
        while streamed < max_configs {
            let take = self.chunk_configs.min((max_configs - streamed) as usize);
            let done = rec.span("sweep.chunk", None, op, |chunk| {
                let buffer: Vec<CpuConfig> = rec.span("config.enumerate", Some(chunk), op, |_| {
                    source.by_ref().take(take).collect()
                });
                if buffer.is_empty() {
                    return true;
                }
                let run_len = buffer.len().div_ceil(self.threads).max(1);
                let runs: Vec<&[CpuConfig]> = buffer.chunks(run_len).collect();
                let scored: Vec<(Vec<SweepPoint>, Vec<Kept>)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = runs
                        .iter()
                        .map(|run| {
                            let (cache, audit) = (&cache, &audit);
                            scope.spawn(move || {
                                self.score_run(run, workloads, cache, audit, chunk, op)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("replay worker panicked"))
                        .collect()
                });
                rec.span("stream.fold", Some(chunk), op, |_| {
                    for (points, keep) in scored {
                        if op == 0 {
                            first_chunk.extend(points.iter().cloned());
                        }
                        for point in points {
                            aggregator.push(point);
                        }
                        let room = GROUP_REPLAY_POINTS.saturating_sub(kept.len());
                        kept.extend(keep.into_iter().take(room));
                    }
                });
                streamed += buffer.len() as u64;
                let snapshot = SweepCheckpoint {
                    fingerprint: 0,
                    cursor: ChunkCursor { offset: streamed },
                    aggregator: aggregator.clone(),
                    audit: matches!(self.backend, Backend::Surrogate { .. })
                        .then(|| audit.lock().expect("audit lock").clone()),
                };
                rec.span("stream.checkpoint", Some(chunk), op, |_| {
                    save_checkpoint(&snapshot, checkpoint).expect("checkpoint write succeeds");
                });
                checkpoint_bytes = std::fs::metadata(checkpoint).map_or(0, |m| m.len());
                false
            });
            if done {
                break;
            }
            op += 1;
        }
        let seconds = start.elapsed().as_secs_f64();
        replay_groups(rec, self.model, self.library, &kept);
        TracedResult {
            aggregator,
            audit: audit.into_inner().expect("audit lock"),
            first_chunk,
            configs: streamed,
            seconds,
            checkpoint_bytes,
        }
    }

    /// Scores one worker's run of configurations the way the engine's
    /// chunk scorer does; returns its points and the first ones' events.
    fn score_run(
        &self,
        configs: &[CpuConfig],
        workloads: &[Workload],
        cache: &SimCache,
        audit: &Mutex<AuditAccumulator>,
        chunk: u64,
        op: u64,
    ) -> (Vec<SweepPoint>, Vec<Kept>) {
        let rec = self.rec;
        rec.span("engine.score_run", Some(chunk), op, |parent| {
            let per_config = workloads.len();
            let n = configs.len() * per_config;
            let event_count = EventParams::names().len();
            let mut sim_scratch = SimScratch::new();
            let mut features = FeatureScratch::new();
            let mut events = vec![EventParams::empty(); n];
            let mut ipcs = vec![0.0; n];
            // (point index, exact raw rates, surrogate raw rates, shadow events)
            let mut audits: Vec<(usize, Vec<f64>, Vec<f64>, EventParams)> = Vec::new();

            let mut raw_all = Vec::new();
            if let Backend::Surrogate { surrogate, .. } = self.backend {
                raw_all = vec![0.0; n * event_count];
                let mut forest_out = Vec::new();
                for (w, &workload) in workloads.iter().enumerate() {
                    let mut flat = Vec::with_capacity(configs.len() * SimKey::FEATURE_COUNT);
                    for config in configs {
                        flat.extend_from_slice(
                            &SimKey::new(config, workload, &self.sim).features(),
                        );
                    }
                    let x = Matrix::from_flat(configs.len(), SimKey::FEATURE_COUNT, flat);
                    let mut batch = vec![0.0; configs.len() * event_count];
                    rec.span("surrogate.infer", Some(parent), op, |_| {
                        surrogate.predict_raw_batch_into(workload, &x, &mut forest_out, &mut batch)
                    });
                    for c in 0..configs.len() {
                        let idx = c * per_config + w;
                        raw_all[idx * event_count..(idx + 1) * event_count]
                            .copy_from_slice(&batch[c * event_count..(c + 1) * event_count]);
                    }
                }
            }

            let exact = |config: &CpuConfig, workload: Workload, scratch: &mut SimScratch| {
                rec.span("perfsim.lookup", Some(parent), op, |lookup| {
                    cache.counters_for(SimKey::new(config, workload, &self.sim), || {
                        rec.span("perfsim.sim", Some(lookup), op, |_| {
                            simulate_counters_with(config, workload, &self.sim, scratch)
                        })
                    })
                })
            };
            let mut idx = 0;
            for config in configs {
                for &workload in workloads {
                    let distortion = self.sim.event_distortion;
                    match self.backend {
                        Backend::Exact => {
                            let counters = exact(config, workload, &mut sim_scratch);
                            EventParams::from_counters_into(
                                &counters,
                                config.id,
                                workload,
                                distortion,
                                &mut events[idx],
                            );
                            ipcs[idx] = counters.ipc();
                        }
                        Backend::Surrogate { audit_rate, .. } => {
                            let raw = &raw_all[idx * event_count..(idx + 1) * event_count];
                            if audit_selected(config.id, audit_rate) {
                                let counters = exact(config, workload, &mut sim_scratch);
                                EventParams::from_counters_into(
                                    &counters,
                                    config.id,
                                    workload,
                                    distortion,
                                    &mut events[idx],
                                );
                                ipcs[idx] = counters.ipc();
                                let mut shadow = EventParams::empty();
                                EventParams::from_raw_rates_into(
                                    raw,
                                    config.id,
                                    workload,
                                    distortion,
                                    &mut shadow,
                                );
                                audits.push((
                                    idx,
                                    EventParams::raw_rates(&counters).to_vec(),
                                    raw.to_vec(),
                                    shadow,
                                ));
                            } else {
                                EventParams::from_raw_rates_into(
                                    raw,
                                    config.id,
                                    workload,
                                    distortion,
                                    &mut events[idx],
                                );
                                ipcs[idx] = raw[0];
                            }
                        }
                    }
                    idx += 1;
                }
            }

            let mut inputs: Vec<PredictInput<'_>> = events
                .iter()
                .enumerate()
                .map(|(i, e)| PredictInput {
                    config: &configs[i / per_config],
                    events: e,
                    workload: workloads[i % per_config],
                })
                .collect();
            inputs.extend(audits.iter().map(|(i, _, _, shadow)| PredictInput {
                config: &configs[i / per_config],
                events: shadow,
                workload: workloads[i % per_config],
            }));
            let mut predictions: Vec<Prediction> = Vec::new();
            rec.span("model.infer", Some(parent), op, |_| {
                self.model
                    .predict_batch_with(&inputs, &mut features, &mut predictions)
            });
            drop(inputs);

            let shadows = predictions.split_off(n);
            for ((i, exact_raw, surrogate_raw, _), shadow) in audits.iter().zip(&shadows) {
                audit.lock().expect("audit lock").record(
                    exact_raw,
                    surrogate_raw,
                    predictions[*i].total(),
                    shadow.total(),
                );
            }
            let kept = events
                .iter()
                .take(GROUP_REPLAY_POINTS)
                .enumerate()
                .map(|(i, e)| Kept {
                    config: configs[i / per_config],
                    workload: workloads[i % per_config],
                    events: e.clone(),
                })
                .collect();
            let points = predictions
                .into_iter()
                .enumerate()
                .map(|(i, power)| SweepPoint {
                    config: configs[i / per_config],
                    workload: workloads[i % per_config],
                    power,
                    ipc: ipcs[i],
                })
                .collect();
            (points, kept)
        })
    }
}

/// Replays `kept` points through each power-group sub-model of `model` on
/// its own, point by point: the shares of `model.clock`, `model.sram` and
/// `model.logic` show where inference time goes (they do not add up to the
/// batched `model.infer`).
pub fn replay_groups(rec: &Recorder, model: &AutoPower, library: &TechLibrary, kept: &[Kept]) {
    let mut scratch = FeatureScratch::new();
    let mut sink = 0.0;
    rec.span("model.clock", None, 0, |_| {
        for k in kept {
            sink +=
                model
                    .clock_model()
                    .predict_with(&k.config, &k.events, k.workload, &mut scratch);
        }
    });
    rec.span("model.sram", None, 0, |_| {
        for k in kept {
            sink += model.sram_model().predict_with(
                &k.config,
                &k.events,
                k.workload,
                library,
                &mut scratch,
            );
        }
    });
    rec.span("model.logic", None, 0, |_| {
        for k in kept {
            let logic = model.logic_model();
            sink += logic.predict_register_with(&k.config, &k.events, k.workload, &mut scratch);
            sink += logic.predict_comb_with(&k.config, &k.events, k.workload, &mut scratch);
        }
    });
    std::hint::black_box(sink);
}

/// Whether two predictions agree to the last bit (total and groups).
pub fn same_power(a: &Prediction, b: &Prediction) -> bool {
    let bits = |p: &Prediction| {
        let mut v = vec![p.total().to_bits()];
        if let Some(g) = p.groups() {
            v.extend([g.clock, g.sram, g.register, g.combinational].map(f64::to_bits));
        }
        v
    };
    bits(a) == bits(b)
}

/// Points of `a` that differ from their counterpart in `b` (same
/// configuration, workload, and every power figure and IPC to the last
/// bit); a length difference counts every unmatched point.
pub fn mismatches(a: &[SweepPoint], b: &[SweepPoint]) -> u64 {
    let differing = a
        .iter()
        .zip(b)
        .filter(|(x, y)| {
            x.config != y.config
                || x.workload != y.workload
                || x.ipc.to_bits() != y.ipc.to_bits()
                || !same_power(&x.power, &y.power)
        })
        .count();
    (differing + a.len().abs_diff(b.len())) as u64
}
