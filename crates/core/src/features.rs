//! Feature assembly: the `H`, `E` and program-level feature vectors of the sub-models.

use crate::dataset::RunData;
use autopower_codec::{Codec, CodecError, Reader, Writer};
use autopower_config::{Component, CpuConfig, Workload};
use autopower_ml::Matrix;
use autopower_perfsim::EventParams;
use autopower_workloads::ProgramFeatures;
use std::fmt;

/// Hardware-parameter (`H`) features of one component: the values of the Table III
/// parameters the component is sensitive to.
pub fn hw_features(component: Component, config: &CpuConfig) -> Vec<f64> {
    let mut out = Vec::new();
    hw_features_into(component, config, &mut out);
    out
}

/// Appends the component's `H` features to `out` (the allocation-free twin of
/// [`hw_features`]).
pub fn hw_features_into(component: Component, config: &CpuConfig, out: &mut Vec<f64>) {
    out.extend(
        component
            .hw_params()
            .iter()
            .map(|&p| config.params.value(p) as f64),
    );
}

/// Names of the features returned by [`hw_features`], in the same order.
pub fn hw_feature_names(component: Component) -> Vec<String> {
    component
        .hw_params()
        .iter()
        .map(|p| p.name().to_owned())
        .collect()
}

/// Appends the event-parameter (`E`) features of one component to `out`: the subset of
/// simulator counters the component's activity depends on.
pub fn event_features_into(component: Component, events: &EventParams, out: &mut Vec<f64>) {
    events.component_features_into(component, out);
}

/// Assembles one sub-model's feature matrix over a batch of points: one
/// [`model_features_into`] row per point, in point order.
///
/// The rows are assembled by the same [`model_features_into`] the per-point
/// path uses, so scoring the matrix through
/// [`FlatForest::predict_into`](autopower_ml::FlatForest::predict_into) is
/// bit-identical to predicting each row on its own — the invariant the
/// forest-major batch path ([`PowerModel::predict_batch_with`](crate::PowerModel::predict_batch_with)) relies on.
pub(crate) fn batch_feature_matrix(
    which: ModelFeatures,
    component: Component,
    points: &[crate::power_model::PredictInput<'_>],
) -> Matrix {
    let mut data = Vec::new();
    for p in points {
        model_features_into(which, component, p.config, p.events, p.workload, &mut data);
    }
    Matrix::from_flat(points.len(), data.len() / points.len(), data)
}

/// A reusable feature-row buffer for the allocation-free prediction path.
///
/// Every prediction assembles many short-lived feature rows (one per
/// sub-model per component).  The engines that score thousands of points —
/// [`SweepEngine`](crate::SweepEngine), [`sweep_multi`](crate::sweep_multi) —
/// hand each worker one `FeatureScratch` and thread it through
/// [`PowerModel::predict_with`](crate::PowerModel::predict_with), so the row
/// storage is allocated once per worker instead of once per row.
#[derive(Debug, Clone, Default)]
pub struct FeatureScratch {
    row: Vec<f64>,
}

impl FeatureScratch {
    /// Creates an empty scratch (the first row fill sizes the buffer).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and hands out the reusable row buffer.
    pub(crate) fn row_mut(&mut self) -> &mut Vec<f64> {
        self.row.clear();
        &mut self.row
    }
}

/// Which feature blocks to include when assembling a sub-model's input row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelFeatures {
    /// Include the component's hardware parameters.
    pub hardware: bool,
    /// Include the component's event parameters.
    pub events: bool,
    /// Include the microarchitecture-independent program-level features.
    pub program: bool,
}

impl ModelFeatures {
    /// Hardware parameters only (`F_reg`, `F_gate`, `F_sta` in the paper).
    pub const HW_ONLY: ModelFeatures = ModelFeatures {
        hardware: true,
        events: false,
        program: false,
    };

    /// Hardware + event parameters (`F_α′`, `F_act`, `F_var`).
    pub const HW_EVENTS: ModelFeatures = ModelFeatures {
        hardware: true,
        events: true,
        program: false,
    };

    /// Hardware + events + program-level features (the SRAM activity model; the paper
    /// notes prior works ignore program-level features and that they improve robustness
    /// to simulator inaccuracy).
    pub const HW_EVENTS_PROGRAM: ModelFeatures = ModelFeatures {
        hardware: true,
        events: true,
        program: true,
    };
}

impl Codec for ModelFeatures {
    fn encode(&self, w: &mut Writer) {
        w.begin("features");
        w.bool("hardware", self.hardware);
        w.bool("events", self.events);
        w.bool("program", self.program);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("features")?;
        let mode = Self {
            hardware: r.bool("hardware")?,
            events: r.bool("events")?,
            program: r.bool("program")?,
        };
        r.end()?;
        Ok(mode)
    }
}

/// Appends the feature row of one `(component, configuration, workload)` sample to `out`:
/// the `H`, `E` and program blocks `which` selects, in that order.
pub fn model_features_into(
    which: ModelFeatures,
    component: Component,
    config: &CpuConfig,
    events: &EventParams,
    workload: Workload,
    out: &mut Vec<f64>,
) {
    if which.hardware {
        hw_features_into(component, config, out);
    }
    if which.events {
        event_features_into(component, events, out);
    }
    if which.program {
        ProgramFeatures::of(workload).push_into(out);
    }
}

/// Refuses a decoded sub-model unless it was fitted on rows of exactly
/// `width` features, the width of the rows its feature assembly feeds it.
///
/// `fitted` is the sub-model's own width (`None` if it is unfitted).  A
/// checksum-valid file can carry a self-consistent model of another width;
/// predicting with it would index past the row, a panic per request in a
/// server worker.  Decoding is where that is cheap to catch and where the
/// error can name the file.
pub(crate) fn check_width(
    r: &Reader<'_>,
    what: impl fmt::Display,
    fitted: Option<usize>,
    width: usize,
) -> Result<(), CodecError> {
    match fitted {
        Some(n) if n == width => Ok(()),
        Some(n) => Err(CodecError::new(
            r.offset(),
            format!("{what} was fitted on {n} features, but its rows carry {width}"),
        )),
        None => Err(CodecError::new(r.offset(), format!("{what} is not fitted"))),
    }
}

/// Assembles the flat row-major training matrix of one sub-model: one
/// [`model_features_into`] row per run, written back to back into a single buffer
/// (no per-row allocation).  Returns `None` when there are no runs.
pub(crate) fn model_feature_matrix(
    which: ModelFeatures,
    component: Component,
    runs: &[&RunData],
) -> Option<Matrix> {
    if runs.is_empty() {
        return None;
    }
    let mut data = Vec::new();
    for run in runs {
        model_features_into(
            which,
            component,
            &run.config,
            &run.sim.events,
            run.workload,
            &mut data,
        );
    }
    let width = data.len() / runs.len();
    Some(Matrix::from_flat(runs.len(), width, data))
}

/// Names of the features assembled by [`model_features_into`], in the same order.
pub fn model_feature_names(which: ModelFeatures, component: Component) -> Vec<String> {
    let mut names = Vec::new();
    if which.hardware {
        names.extend(hw_feature_names(component));
    }
    if which.events {
        names.extend(
            EventParams::component_feature_names(component)
                .iter()
                .map(|s| (*s).to_owned()),
        );
    }
    if which.program {
        names.extend(ProgramFeatures::names().iter().map(|s| (*s).to_owned()));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::boom_configs;
    use autopower_perfsim::{simulate, SimConfig};

    fn row(
        which: ModelFeatures,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        model_features_into(which, component, config, events, workload, &mut out);
        out
    }

    fn sample_events() -> EventParams {
        let cfg = boom_configs()[0];
        simulate(
            &cfg,
            Workload::Dhrystone,
            &SimConfig {
                max_instructions: 1_000,
                ..SimConfig::fast()
            },
        )
        .events
    }

    #[test]
    fn hw_features_follow_table_iii() {
        let cfg = boom_configs()[7];
        let f = hw_features(Component::Ifu, &cfg);
        assert_eq!(f, vec![8.0, 3.0, 24.0]);
        assert_eq!(
            hw_feature_names(Component::Ifu),
            vec!["FetchWidth", "DecodeWidth", "FetchBufferEntry"]
        );
    }

    #[test]
    fn feature_rows_match_their_names_for_every_component_and_mode() {
        let cfg = boom_configs()[0];
        let events = sample_events();
        for mode in [
            ModelFeatures::HW_ONLY,
            ModelFeatures::HW_EVENTS,
            ModelFeatures::HW_EVENTS_PROGRAM,
        ] {
            for c in Component::ALL {
                let values = row(mode, c, &cfg, &events, Workload::Dhrystone);
                let names = model_feature_names(mode, c);
                assert_eq!(values.len(), names.len(), "{c} mode {mode:?}");
                assert!(values.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn program_features_extend_the_row() {
        let cfg = boom_configs()[0];
        let events = sample_events();
        let without = row(
            ModelFeatures::HW_EVENTS,
            Component::Rob,
            &cfg,
            &events,
            Workload::Qsort,
        );
        let with = row(
            ModelFeatures::HW_EVENTS_PROGRAM,
            Component::Rob,
            &cfg,
            &events,
            Workload::Qsort,
        );
        assert_eq!(with.len(), without.len() + ProgramFeatures::names().len());
        assert_eq!(&with[..without.len()], &without[..]);
    }
}
