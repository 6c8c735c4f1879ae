//! The AutoPower− ablation baseline (Figs. 7 and 8 of the paper).
//!
//! AutoPower− keeps the *first* level of decoupling — separate models per power group —
//! but drops the second: instead of the structural sub-models (register count, gating
//! rate, scaling-pattern block shapes, macro mapping …) it applies a direct ML model per
//! component and per power group.

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
use autopower_powersim::PowerGroups;

/// The four power groups a model is trained for.
const GROUPS: usize = 4;

/// Direct per-group ML baseline.
#[derive(Debug, Clone)]
pub struct AutoPowerMinus {
    /// `models[component][group]` with groups ordered clock, sram, register, comb.
    models: Vec<[GradientBoosting; GROUPS]>,
}

impl AutoPowerMinus {
    /// Trains the ablation baseline on the runs of `train_configs`.
    ///
    /// # Errors
    ///
    /// Returns an error if a per-component per-group model cannot be fitted.
    pub fn train(corpus: &Corpus, train_configs: &[ConfigId]) -> Result<Self, AutoPowerError> {
        if train_configs.is_empty() {
            return Err(AutoPowerError::NoTrainingConfigs);
        }
        let runs = corpus.training_runs(train_configs);
        let mut models = Vec::with_capacity(Component::ALL.len());
        for &component in &Component::ALL {
            // One flat feature matrix per component feeds all four group fits.
            let matrix = model_feature_matrix(ModelFeatures::HW_EVENTS, component, &runs)
                .ok_or_else(|| {
                    AutoPowerError::fit(component, "direct group power")(
                        autopower_ml::FitError::EmptyTrainingSet,
                    )
                })?;
            let group_targets: [Vec<f64>; GROUPS] = [
                runs.iter()
                    .map(|r| r.golden.component(component).clock)
                    .collect(),
                runs.iter()
                    .map(|r| r.golden.component(component).sram)
                    .collect(),
                runs.iter()
                    .map(|r| r.golden.component(component).register)
                    .collect(),
                runs.iter()
                    .map(|r| r.golden.component(component).combinational)
                    .collect(),
            ];
            let mut fitted: Vec<GradientBoosting> = Vec::with_capacity(GROUPS);
            for targets in &group_targets {
                let mut model = GradientBoosting::default();
                model
                    .fit_matrix(&matrix, targets)
                    .map_err(AutoPowerError::fit(component, "direct group power"))?;
                fitted.push(model);
            }
            models.push(
                fitted
                    .try_into()
                    .expect("exactly four group models were fitted"),
            );
        }
        Ok(Self { models })
    }

    /// Predicted per-group power of one component: one feature row feeds all
    /// four group models.
    pub fn predict_component_with(
        &self,
        component: Component,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> PowerGroups {
        let row = scratch.row_mut();
        model_features_into(
            ModelFeatures::HW_EVENTS,
            component,
            config,
            events,
            workload,
            row,
        );
        let m = &self.models[component.index()];
        PowerGroups {
            clock: m[0].predict(row).max(0.0),
            sram: m[1].predict(row).max(0.0),
            register: m[2].predict(row).max(0.0),
            combinational: m[3].predict(row).max(0.0),
        }
    }
}

impl PowerModel for AutoPowerMinus {
    fn kind(&self) -> ModelKind {
        ModelKind::AutoPowerMinus
    }

    /// Fully component- and group-resolved: the typed prediction carries one
    /// group split per component, and the core-level groups/total are their
    /// [`Component::ALL`]-ordered sum (see [`ComponentBreakdown::groups`]).
    fn predict_with(
        &self,
        config: &CpuConfig,
        events: &EventParams,
        workload: Workload,
        scratch: &mut FeatureScratch,
    ) -> Prediction {
        Prediction::per_component(ComponentBreakdown::from_groups(|component| {
            self.predict_component_with(component, config, events, workload, scratch)
        }))
    }

    fn serialize(&self, w: &mut Writer) {
        Codec::encode(self, w);
    }
}

impl Codec for AutoPowerMinus {
    fn encode(&self, w: &mut Writer) {
        w.begin("autopower-minus");
        w.begin_list("components", self.models.len());
        for group_models in &self.models {
            w.begin_list("groups", group_models.len());
            for model in group_models {
                model.encode(w);
            }
            w.end();
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("autopower-minus")?;
        let components = r.begin_list("components")?;
        if components != Component::ALL.len() {
            return Err(CodecError::new(
                r.offset(),
                format!(
                    "autopower-minus has {components} components, expected {}",
                    Component::ALL.len()
                ),
            ));
        }
        let mut models = Vec::with_capacity(components);
        for component in Component::ALL {
            let groups = r.begin_list("groups")?;
            if groups != GROUPS {
                return Err(CodecError::new(
                    r.offset(),
                    format!("autopower-minus has {groups} group models, expected {GROUPS}"),
                ));
            }
            let width = model_feature_names(ModelFeatures::HW_EVENTS, component).len();
            let mut fitted = Vec::with_capacity(GROUPS);
            for group in 0..GROUPS {
                let model = GradientBoosting::decode(r)?;
                check_width(
                    r,
                    format_args!("{component} AutoPower- group {group} model"),
                    model.n_features(),
                    width,
                )?;
                fitted.push(model);
            }
            r.end()?;
            models.push(
                fitted
                    .try_into()
                    .expect("exactly four group models were decoded"),
            );
        }
        r.end()?;
        r.end()?;
        Ok(Self { models })
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
    fn per_group_predictions_are_physical() {
        let c = corpus();
        let m = AutoPowerMinus::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        for run in c.runs() {
            let p = m.predict_run(run);
            assert!(p.is_physical());
            assert!(p.total() > 0.0);
        }
    }

    #[test]
    fn sram_free_components_predict_near_zero_sram_power() {
        let c = corpus();
        let m = AutoPowerMinus::train(&c, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let run = c.run(ConfigId::new(8), Workload::Vvadd).unwrap();
        let p = m.predict_component_with(
            Component::FuPool,
            &run.config,
            &run.sim.events,
            run.workload,
            &mut FeatureScratch::new(),
        );
        assert!(p.sram < 1e-6, "FU pool has no SRAM, predicted {}", p.sram);
    }

    #[test]
    fn in_sample_totals_are_close() {
        let c = corpus();
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let m = AutoPowerMinus::train(&c, &train).unwrap();
        for run in c.training_runs(&train) {
            let pred = m.predict_run(run).total();
            let truth = run.golden.total_mw();
            assert!(((pred - truth) / truth).abs() < 0.15, "{pred} vs {truth}");
        }
    }

    #[test]
    fn rejects_empty_training() {
        let c = corpus();
        assert!(AutoPowerMinus::train(&c, &[]).is_err());
    }
}
