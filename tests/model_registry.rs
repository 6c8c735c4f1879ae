//! Trait-path parity: for every registry model, typed predictions made through
//! `Box<dyn PowerModel>` are bit-identical to the inherent-method predictions
//! (totals AND resolved structure), and the model-agnostic engines (sweep,
//! trace, xval) accept baselines.  These tests pin the acceptance criterion of
//! the typed-`Prediction` redesign: totals never moved, and no consumer reads
//! a parked group slot from a total-only model.

use autopower_repro::config::{boom_configs, Component, ConfigId, DesignSpace, Workload};
use autopower_repro::model::baselines::{AutoPowerMinus, McpatCalib, McpatCalibComponent};
use autopower_repro::model::{
    cross_validate_model, AutoPower, Corpus, CorpusSpec, ModelKind, PowerModel,
    PowerTracePredictor, Resolution, SweepEngine, SweepSpec,
};
use autopower_repro::powersim::PowerGroups;

fn corpus() -> Corpus {
    let cfgs = boom_configs();
    Corpus::generate(
        &[cfgs[0], cfgs[7], cfgs[14]],
        &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
        &CorpusSpec::fast(),
    )
}

fn train_ids() -> [ConfigId; 2] {
    [ConfigId::new(1), ConfigId::new(15)]
}

fn bits(groups: PowerGroups) -> [u64; 4] {
    [
        groups.clock.to_bits(),
        groups.sram.to_bits(),
        groups.register.to_bits(),
        groups.combinational.to_bits(),
    ]
}

#[test]
fn autopower_trait_predictions_are_bit_identical_to_inherent() {
    let c = corpus();
    let inherent = AutoPower::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        let typed = boxed.predict_run(run);
        let legacy = inherent.predict_run(run);
        assert!(matches!(typed.resolution(), Resolution::Grouped(_)));
        assert_eq!(bits(typed.groups().unwrap()), bits(legacy));
        assert_eq!(typed.total().to_bits(), legacy.total().to_bits());
        assert_eq!(
            boxed.predict_total(run).to_bits(),
            inherent.predict_total(run).to_bits()
        );
    }
}

#[test]
fn autopower_component_view_matches_inherent_predict_component() {
    let c = corpus();
    let inherent = AutoPower::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        let breakdown = boxed.predict_run_components(run).unwrap();
        for component in Component::ALL {
            let legacy =
                inherent.predict_component(component, &run.config, &run.sim.events, run.workload);
            let entry = breakdown.component(component);
            assert_eq!(bits(entry.groups.unwrap()), bits(legacy));
            assert_eq!(entry.total.to_bits(), legacy.total().to_bits());
        }
    }
}

#[test]
fn autopower_minus_trait_predictions_are_bit_identical_to_inherent() {
    let c = corpus();
    let inherent = AutoPowerMinus::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPowerMinus.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        let typed = boxed.predict_run(run);
        let legacy = inherent.predict_run(run);
        // AutoPower− is fully component-resolved; its core-level groups are
        // the Component::ALL-ordered sum — bit-identical to the inherent
        // accumulation loop.
        assert!(matches!(typed.resolution(), Resolution::PerComponent(_)));
        assert_eq!(bits(typed.groups().unwrap()), bits(legacy));
        assert_eq!(typed.total().to_bits(), legacy.total().to_bits());
        let breakdown = typed.components().unwrap();
        for component in Component::ALL {
            let legacy_component =
                inherent.predict_component(component, &run.config, &run.sim.events, run.workload);
            assert_eq!(
                bits(breakdown.component(component).groups.unwrap()),
                bits(legacy_component)
            );
        }
    }
}

#[test]
fn mcpat_calib_trait_totals_are_bit_identical_to_inherent() {
    let c = corpus();
    let inherent = McpatCalib::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::McpatCalib.train(&c, &train_ids()).unwrap();
    for run in c.runs() {
        let typed = boxed.predict_run(run);
        // The inherent API predicts a scalar; the typed prediction carries it
        // as TotalOnly — same bits, and no group structure to misread.
        assert_eq!(typed.total().to_bits(), inherent.predict_run(run).to_bits());
        assert!(matches!(typed.resolution(), Resolution::TotalOnly));
        assert!(typed.groups().is_none());
        assert!(typed.components().is_none());
        assert!(boxed.predict_run_components(run).is_none());
    }
}

#[test]
fn mcpat_calib_component_trait_totals_are_bit_identical_to_inherent() {
    let c = corpus();
    let inherent = McpatCalibComponent::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::McpatCalibComponent
        .train(&c, &train_ids())
        .unwrap();
    for run in c.runs() {
        let typed = boxed.predict_run(run);
        assert_eq!(typed.total().to_bits(), inherent.predict_run(run).to_bits());
        // Component-resolved but without per-component groups: each entry
        // carries the inherent per-component scalar, no group split.
        assert!(typed.groups().is_none());
        let breakdown = typed.components().unwrap();
        assert!(!breakdown.resolves_groups());
        for component in Component::ALL {
            let entry = breakdown.component(component);
            assert!(entry.groups.is_none());
            assert_eq!(
                entry.total.to_bits(),
                inherent
                    .predict_component(component, &run.config, &run.sim.events, run.workload)
                    .to_bits()
            );
        }
    }
}

#[test]
fn sweep_engine_under_dyn_autopower_matches_the_inherent_model() {
    let c = corpus();
    let inherent = AutoPower::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    let configs = DesignSpace::boom().sample(6, 7);
    let workloads = [Workload::Dhrystone, Workload::Vvadd];
    let spec = SweepSpec::fast().threads(1);
    // The default AutoPower sweep path is bit-identical before and after the
    // trait refactor: an engine over the inherent model and one over the
    // boxed trait object score the same points.
    let via_inherent = SweepEngine::new(&inherent, spec).run(&configs, &workloads);
    let via_trait = SweepEngine::new(boxed.as_ref(), spec).run(&configs, &workloads);
    assert_eq!(via_inherent, via_trait);
}

#[test]
fn trace_predictor_under_dyn_model_matches_inherent_predictions() {
    let c = corpus();
    let inherent = AutoPower::train(&c, &train_ids()).unwrap();
    let boxed: Box<dyn PowerModel> = ModelKind::AutoPower.train(&c, &train_ids()).unwrap();
    let run = c.run(ConfigId::new(8), Workload::Qsort).unwrap();
    let via_inherent = PowerTracePredictor::new(&inherent).predict_trace(run);
    let via_trait = PowerTracePredictor::new(boxed.as_ref()).predict_trace(run);
    assert_eq!(via_inherent, via_trait);
}

#[test]
fn cross_validation_runs_under_a_baseline_model() {
    let c = corpus();
    let ids = c.config_ids();
    let xv = cross_validate_model(&c, &ids, ModelKind::McpatCalib).unwrap();
    assert_eq!(xv.model, ModelKind::McpatCalib);
    assert_eq!(xv.folds.len(), ids.len());
    let pooled = xv.pooled();
    assert_eq!(pooled.pairs.len(), c.runs().len());
    assert!(pooled.mape.is_finite());
    assert!(xv.worst_fold_mape() >= pooled.mape - 1e-12);
}
