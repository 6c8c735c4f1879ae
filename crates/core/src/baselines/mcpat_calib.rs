//! The McPAT-Calib baseline: a single ML model from (H, E) to total power.

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{check_width, FeatureScratch};
use crate::power_model::{ModelKind, PowerModel};
use crate::prediction::Prediction;
use autopower_codec::{Codec, CodecError, Reader, Writer};
use autopower_config::{ConfigId, CpuConfig, HwParam, Workload};
use autopower_ml::{GradientBoosting, Matrix, Regressor};
use autopower_perfsim::EventParams;

/// The McPAT-Calib-style baseline.
///
/// Features are the full hardware-parameter vector (all 14 Table II parameters) plus all
/// event parameters; the target is the golden total power.  This mirrors how the paper
/// instantiates McPAT-Calib with XGBoost as the calibration model.
#[derive(Debug, Clone)]
pub struct McpatCalib {
    model: GradientBoosting,
}

impl McpatCalib {
    /// Feature row of one `(configuration, events)` point.
    pub fn features(config: &CpuConfig, events: &EventParams) -> Vec<f64> {
        let mut row = Vec::new();
        Self::features_into(config, events, &mut row);
        row
    }

    /// Appends the feature row of one point to `out` (the allocation-free
    /// twin of [`McpatCalib::features`]).
    pub fn features_into(config: &CpuConfig, events: &EventParams, out: &mut Vec<f64>) {
        out.extend(HwParam::ALL.iter().map(|&p| config.params.value(p) as f64));
        out.extend_from_slice(events.values());
    }

    /// Trains the baseline on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if the training set is empty or malformed.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        let fit_error = AutoPowerError::fit(
            autopower_config::Component::OtherLogic,
            "McPAT-Calib total power",
        );
        let runs = corpus.training_runs(train_configs);
        if runs.is_empty() {
            return Err(fit_error(autopower_ml::FitError::EmptyTrainingSet));
        }
        let mut data = Vec::new();
        for r in &runs {
            Self::features_into(&r.config, &r.sim.events, &mut data);
        }
        let matrix = Matrix::from_flat(runs.len(), data.len() / runs.len(), data);
        let targets: Vec<f64> = runs.iter().map(|r| r.golden.total_mw()).collect();
        let mut model = GradientBoosting::default();
        model.fit_matrix(&matrix, &targets).map_err(fit_error)?;
        Ok(Self { model })
    }
}

impl PowerModel for McpatCalib {
    fn kind(&self) -> ModelKind {
        ModelKind::McpatCalib
    }

    /// Total-only: the typed prediction carries the scalar and nothing else —
    /// no group slot to misread.
    fn predict_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        _workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> Prediction {
        let row = scratch.row_mut();
        Self::features_into(config, events, row);
        Prediction::total_only(self.model.predict(row).max(0.0))
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for McpatCalib {
    fn encode(&self, w: &mut Writer) {
        w.begin("mcpat-calib");
        self.model.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("mcpat-calib")?;
        let model = GradientBoosting::decode(r)?;
        let width = HwParam::ALL.len() + EventParams::names().len();
        check_width(r, "McPAT-Calib model", model.n_features(), width)?;
        r.end()?;
        Ok(Self { model })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CorpusSpec;
    use autopower_config::{boom_configs, Workload};

    fn corpus() -> Corpus {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn baseline_learns_the_training_runs() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let m = McpatCalib::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = m.predict_total(run);
            let truth = run.golden.total_mw();
            assert!(((pred - truth) / truth).abs() < 0.10, "{pred} vs {truth}");
        }
    }

    #[test]
    fn baseline_produces_positive_predictions_everywhere() {
        let c = corpus();
        let m = McpatCalib::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        for run in c.runs() {
            assert!(m.predict_total(run) > 0.0);
        }
    }

    #[test]
    fn feature_row_width_is_hw_plus_events() {
        let c = corpus();
        let run = &c.runs()[0];
        let row = McpatCalib::features(&run.config, &run.sim.events);
        assert_eq!(row.len(), 14 + EventParams::names().len());
    }

    #[test]
    fn decode_refuses_a_model_fitted_on_rows_wider_than_its_features() {
        let c = corpus();
        let runs = c.training_runs(&[ConfigId::new(1), ConfigId::new(15)]);
        // One extra column past the assembled row, carrying the target.
        let mut data = Vec::new();
        for run in &runs {
            McpatCalib::features_into(&run.config, &run.sim.events, &mut data);
            data.push(run.golden.total_mw());
        }
        let matrix = Matrix::from_flat(runs.len(), data.len() / runs.len(), data);
        let targets: Vec<f64> = runs.iter().map(|r| r.golden.total_mw()).collect();
        let mut model = GradientBoosting::default();
        model.fit_matrix(&matrix, &targets).unwrap();
        let err = crate::decode_model(&crate::encode_model(&McpatCalib { model })).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)), "{err}");
        let width = 14 + EventParams::names().len();
        let expected = format!(
            "McPAT-Calib model was fitted on {} features, but its rows carry {width}",
            width + 1
        );
        assert!(err.to_string().contains(&expected), "{err}");
    }

    #[test]
    fn empty_training_set_is_rejected() {
        let c = corpus();
        assert!(McpatCalib::train(&c, &[]).is_err());
    }
}
