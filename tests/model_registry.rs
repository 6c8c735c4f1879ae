//! Registry-level prediction contracts: every registry model resolves exactly
//! the structure its [`ModelKind`] entry declares (a total-only model carries
//! no group slot to misread), and the model-agnostic engines (sweep, trace,
//! xval) run under any model held as `&dyn PowerModel`.  Totals themselves are
//! pinned bit for bit by the goldens in `tests/training_parity.rs`.
//!
//! [`ModelKind`]: autopower_repro::model::ModelKind

use autopower_repro::config::{boom_configs, Component, ConfigId, DesignSpace, Workload};
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
fn every_model_resolves_the_shape_its_registry_entry_declares() {
    let c = corpus();
    for kind in ModelKind::ALL {
        let model = kind.train(&c, &train_ids()).unwrap();
        for run in c.runs() {
            let prediction = model.predict_run(run);
            let components = model.predict_run_components(run);
            assert_eq!(
                prediction.groups().is_some(),
                kind.resolves_groups(),
                "{kind}"
            );
            assert_eq!(components.is_some(), kind.resolves_components(), "{kind}");
            assert_eq!(
                model.predict_total(run).to_bits(),
                prediction.total().to_bits(),
                "{kind}"
            );
            match prediction.resolution() {
                Resolution::TotalOnly => assert_eq!(kind, ModelKind::McpatCalib),
                Resolution::Grouped(_) => assert_eq!(kind, ModelKind::AutoPower),
                Resolution::PerComponent(breakdown) => {
                    // A per-component model's component view is the breakdown
                    // its prediction carries.
                    assert_eq!(components.as_ref(), Some(breakdown), "{kind}");
                    // Where components carry groups (AutoPower−), the core
                    // groups are their Component::ALL-ordered sum.
                    if kind == ModelKind::AutoPowerMinus {
                        let mut sum = PowerGroups::default();
                        for component in Component::ALL {
                            sum += breakdown.component(component).groups.unwrap();
                        }
                        assert_eq!(bits(prediction.groups().unwrap()), bits(sum));
                        assert_eq!(prediction.total().to_bits(), sum.total().to_bits());
                    }
                }
            }
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
    // An engine over the concrete model and one over the boxed trait object
    // score the same points.
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
