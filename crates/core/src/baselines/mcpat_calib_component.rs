//! The "McPAT-Calib + Component" ablation baseline: one McPAT-Calib-style model per
//! component, summed.

use crate::dataset::Corpus;
use crate::error::AutoPowerError;
use crate::features::{
    check_width, model_feature_matrix, model_feature_names, model_features_into, FeatureScratch,
    ModelFeatures,
};
use crate::power_model::{ModelKind, PowerModel};
use crate::prediction::{ComponentBreakdown, Prediction};
use autopower_codec::{Codec, CodecError, Reader, Writer};
use autopower_config::{Component, ConfigId, CpuConfig, Workload};
use autopower_ml::{GradientBoosting, Regressor};
use autopower_perfsim::EventParams;

/// Per-component total-power baseline (the extra ablation of Fig. 6).
#[derive(Debug, Clone)]
pub struct McpatCalibComponent {
    per_component: Vec<GradientBoosting>,
}

impl McpatCalibComponent {
    /// Trains one model per component on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if a per-component model cannot be fitted.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        let runs = corpus.training_runs(train_configs);
        let per_component = Component::ALL
            .iter()
            .map(|&component| {
                let matrix = model_feature_matrix(ModelFeatures::HW_EVENTS, component, &runs)
                    .ok_or_else(|| {
                        AutoPowerError::fit(component, "per-component total power")(
                            autopower_ml::FitError::EmptyTrainingSet,
                        )
                    })?;
                let targets: Vec<f64> = runs
                    .iter()
                    .map(|r| r.golden.component(component).total())
                    .collect();
                let mut model = GradientBoosting::default();
                model
                    .fit_matrix(&matrix, &targets)
                    .map_err(AutoPowerError::fit(component, "per-component total power"))?;
                Ok(model)
            })
            .collect::<Result<Vec<_>, AutoPowerError>>()?;
        Ok(Self { per_component })
    }

    /// Predicted total power of one component in mW.
    pub fn predict_component_with(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> f64 {
        let row = scratch.row_mut();
        model_features_into(
            ModelFeatures::HW_EVENTS,
            component,
            config,
            events,
            workload,
            row,
        );
        self.per_component[component.index()].predict(row).max(0.0)
    }
}

impl PowerModel for McpatCalibComponent {
    fn kind(&self) -> ModelKind {
        ModelKind::McpatCalibComponent
    }

    /// Component-resolved, but without per-component groups: each component
    /// carries its predicted scalar, and the core-level total is their sum in
    /// [`Component::ALL`] order.
    fn predict_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> Prediction {
        Prediction::per_component(ComponentBreakdown::from_totals(|component| {
            self.predict_component_with(component, config, events, workload, scratch)
        }))
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for McpatCalibComponent {
    fn encode(&self, w: &mut Writer) {
        w.begin("mcpat-calib-component");
        w.begin_list("models", self.per_component.len());
        for model in &self.per_component {
            model.encode(w);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("mcpat-calib-component")?;
        let len = r.begin_list("models")?;
        if len != Component::ALL.len() {
            return Err(CodecError::new(
                r.offset(),
                format!(
                    "mcpat-calib-component has {len} models, expected {}",
                    Component::ALL.len()
                ),
            ));
        }
        let mut per_component = Vec::with_capacity(len);
        for component in Component::ALL {
            let model = GradientBoosting::decode(r)?;
            check_width(
                r,
                format_args!("{component} McPAT-Calib + Component model"),
                model.n_features(),
                model_feature_names(ModelFeatures::HW_EVENTS, component).len(),
            )?;
            per_component.push(model);
        }
        r.end()?;
        r.end()?;
        Ok(Self { per_component })
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
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    }

    #[test]
    fn component_sum_equals_core_prediction() {
        let c = corpus();
        let m = McpatCalibComponent::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let mut scratch = FeatureScratch::new();
        let sum: f64 = Component::ALL
            .iter()
            .map(|&comp| {
                m.predict_component_with(
                    comp,
                    &run.config,
                    &run.sim.events,
                    run.workload,
                    &mut scratch,
                )
            })
            .sum();
        assert!((sum - m.predict_total(run)).abs() < 1e-9);
    }

    #[test]
    fn in_sample_fit_is_tight() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let m = McpatCalibComponent::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = m.predict_total(run);
            let truth = run.golden.total_mw();
            assert!(((pred - truth) / truth).abs() < 0.15, "{pred} vs {truth}");
        }
    }

    #[test]
    fn rejects_empty_training() {
        let c = corpus();
        assert!(McpatCalibComponent::train(&c, &[]).is_err());
    }
}
