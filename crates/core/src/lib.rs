//! AutoPower: automated few-shot architecture-level power modeling by power group
//! decoupling.
//!
//! This crate is the Rust reproduction of the DAC 2025 paper's primary contribution.
//! Given a handful of *known* configurations — for which netlists and golden power
//! reports exist — AutoPower trains a set of small, decoupled sub-models and then
//! predicts the power of *unseen* configurations from architecture-level information
//! only (hardware parameters `H` and performance-simulator event parameters `E`).
//!
//! The decoupling has two levels:
//!
//! 1. **Across power groups** — separate models for clock power, SRAM power and logic
//!    power ([`ClockPowerModel`], [`SramPowerModel`], [`LogicPowerModel`]).
//! 2. **Within each group** — each group model is split into simple sub-models that
//!    track structural quantities: register count / gating rate / effective active rate
//!    for the clock; block shapes / block activity / macro mapping for SRAM; register
//!    count × activity and stable × variation for logic.
//!
//! The crate also implements the paper's baselines (McPAT-Calib, McPAT-Calib +
//! Component, and the AutoPower− ablation), time-based power-trace prediction, and
//! the batch design-space sweep path ([`SweepEngine`] / [`sweep_multi`])
//! that scores generated configurations without ever synthesizing them.
//!
//! All four predictors implement the object-safe [`PowerModel`] trait and are
//! listed in the [`ModelKind`] registry, so the sweep, trace and
//! cross-validation engines run under any of them — select one by name
//! (`"autopower"`, `"mcpat-calib"`, `"mcpat-calib-component"`,
//! `"autopower-minus"`) and train it with [`ModelKind::train`].
//!
//! # Quickstart
//!
//! ```
//! use autopower::{AutoPower, Corpus, CorpusSpec};
//! use autopower_config::{boom_configs, ConfigId, Workload};
//!
//! // Build a small corpus (three configurations, two workloads) with the fast
//! // simulation settings so the doctest stays quick.
//! let configs = [boom_configs()[0], boom_configs()[7], boom_configs()[14]];
//! let spec = CorpusSpec::fast();
//! let corpus = Corpus::generate(&configs, &[Workload::Dhrystone, Workload::Vvadd], &spec);
//!
//! // Train on the two extreme configurations, predict the third.
//! let model = AutoPower::train(&corpus, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
//! let run = corpus.run(ConfigId::new(8), Workload::Vvadd).unwrap();
//! let predicted = model.predict_run(run);
//! assert!(predicted.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod clock;
mod dataset;
mod error;
mod evaluation;
mod features;
mod logic;
mod model;
pub mod pipeline;
mod power_model;
mod prediction;
mod serialize;
mod sram;
pub mod stream;
pub mod surrogate;
pub mod sweep;
mod trace;
mod xval;

pub use clock::ClockPowerModel;
pub use dataset::{Corpus, CorpusSpec, RunData};
pub use error::AutoPowerError;
pub use evaluation::{evaluate_totals, try_evaluate_totals, AccuracySummary, PredictionPair};
pub use features::{
    event_features, event_features_into, hw_feature_names, hw_features, hw_features_into,
    model_feature_names, model_features, model_features_into, FeatureScratch, ModelFeatures,
};
pub use logic::LogicPowerModel;
pub use model::AutoPower;
pub use pipeline::SubstratePipeline;
pub use power_model::{ModelKind, PowerModel, PredictInput};
pub use prediction::{ComponentBreakdown, ComponentPower, Prediction, Resolution};
pub use serialize::{decode_model, encode_model, load_model, save_model, MODEL_FORMAT_VERSION};
pub use sram::{
    predicted_block_power_mw, PositionHardwareModel, PredictedBlock, ScalingRule,
    SramActivityModel, SramPowerModel,
};
pub use stream::{
    area_proxy, decode_checkpoint, encode_checkpoint, load_checkpoint, load_checkpoint_salvaged,
    save_checkpoint, save_checkpoint_with, CheckpointSalvage, ChunkCursor, ParetoConstraints,
    ParetoEntry, ParetoFrontier, PowerSeries, QuantileSketch, SeriesSketch, StreamProgress,
    StreamSpec, SweepAggregator, SweepCheckpoint, CHECKPOINT_FORMAT_VERSION,
};
pub use surrogate::{
    audit_selected, decode_surrogate, encode_surrogate, load_surrogate, save_surrogate,
    surrogate_gbdt_params, ActivitySurrogate, AuditAccumulator, AuditEventError, AuditReport,
    SURROGATE_FORMAT_VERSION, SURROGATE_TRAIN_SEED,
};
pub use sweep::{
    config_summary, rank_by_efficiency, summarize, sweep_multi, ConfigSummary, EngineScratch,
    SimBackend, SweepEngine, SweepPoint, SweepSpec,
};
pub use trace::{
    evaluate_trace_prediction, trace_errors, PowerTracePredictor, PredictedPowerTrace,
    PredictedSample, TraceErrors,
};
pub use xval::{cross_validate, cross_validate_model, CrossValidation};

/// Re-export of the codec substrate the trained-model save/load format is
/// built on ([`PowerModel::serialize`] writes into its
/// [`Writer`](codec::Writer)).
pub use serde::codec;

/// Re-export of the golden power-group representation used for predictions as well.
pub use autopower_powersim::PowerGroups;
