//! Set-up shared by every workload: the few-shot model the paper trains
//! from two known configurations, saved and loaded back, and the accuracy
//! of a workload's predictions on the held-out configurations.

use crate::span::{within, Recorder};
use autopower::{
    evaluate_totals, load_model, save_model, AutoPower, Corpus, CorpusSpec, PowerModel, RunData,
};
use autopower_config::{boom_configs, ConfigId, CpuConfig, Workload};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Worker threads of every parallel stage (sized for a two-core host).
pub const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` reports their median.  Set-up takes a few
/// hundred ms (seconds with the surrogate, which sets up fewer times), so
/// one of them alone swings with the host's load.
pub const SETUP_REPEATS: usize = 5;

/// The paper's two-configuration training set, C1 and C15.
pub fn train_ids() -> [ConfigId; 2] {
    [ConfigId::new(1), ConfigId::new(15)]
}

/// A trained model with the corpus it was trained on.
pub struct Trained {
    /// Golden corpus of C1 and C15 on the eight riscv-tests workloads.
    pub corpus: Corpus,
    /// The AutoPower model trained on it.
    pub model: AutoPower,
}

/// Generates the C1/C15 corpus at paper settings and trains AutoPower on it.
pub fn train(rec: Option<&Recorder>) -> Trained {
    let configs = boom_configs();
    let corpus = within(rec, "corpus.generate", || {
        Corpus::generate(
            &[configs[0], configs[14]],
            &Workload::RISCV_TESTS,
            &CorpusSpec::paper().threads(WORKERS),
        )
    });
    let model = within(rec, "ml.train", || {
        AutoPower::train(&corpus, &train_ids()).expect("C1/C15 training succeeds")
    });
    Trained { corpus, model }
}

/// A trained model and the same model loaded back from its saved file.
pub struct Saved {
    /// The trained model with its corpus.
    pub trained: Trained,
    /// The model as `load_model` read it back.
    pub loaded: Box<dyn PowerModel>,
    /// Milliseconds the load took.
    pub load_ms: f64,
}

/// Trains as [`train`], saves the model to `path` and loads it back: the
/// model every sweep scores with, as the CLI's `--load-model` does.
pub fn train_saved(path: &Path, rec: Option<&Recorder>) -> Saved {
    let trained = train(rec);
    within(rec, "serialize.save", || save_model(&trained.model, path))
        .expect("model file is writable");
    let (loaded, seconds) = timed(|| within(rec, "serialize.load", || load_model(path)));
    Saved {
        trained,
        loaded: loaded.expect("saved model loads"),
        load_ms: seconds * 1e3,
    }
}

/// Further loads of the saved model after a sweep, so that the samples of
/// `model_load_ms` span the run.
pub const LOAD_REPEATS: usize = 7;

/// The ms of [`LOAD_REPEATS`] `load_model` calls on `path`.
pub fn load_ms(path: &Path) -> Vec<f64> {
    (0..LOAD_REPEATS)
        .map(|_| timed(|| load_model(path).expect("saved model loads")).1 * 1e3)
        .collect()
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The 13 held-out BOOM configurations, C2..C14.
pub fn held_out_configs() -> Vec<CpuConfig> {
    boom_configs()[1..14].to_vec()
}

/// MAPE (percent) and R² of `totals` against golden power: the predicted
/// total power of [`held_out_configs`] over the eight riscv-tests
/// workloads, configuration-major, as a sweep or the server returns them.
/// `None` unless there is exactly one prediction per run.
pub fn held_out_accuracy(totals: &[f64]) -> Option<(f64, f64)> {
    let configs = held_out_configs();
    let workloads = Workload::RISCV_TESTS;
    if totals.len() != configs.len() * workloads.len() {
        return None;
    }
    let predicted: HashMap<(ConfigId, Workload), f64> = configs
        .iter()
        .flat_map(|c| workloads.iter().map(move |&w| (c.id, w)))
        .zip(totals.iter().copied())
        .collect();
    let corpus = Corpus::generate(&configs, &workloads, &CorpusSpec::paper().threads(WORKERS));
    let runs: Vec<&RunData> = corpus.runs().iter().collect();
    let summary = evaluate_totals(&runs, |run| predicted[&(run.config.id, run.workload)]);
    Some((summary.mape_percent(), summary.r_squared))
}
