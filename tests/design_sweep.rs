//! Workspace-level acceptance tests of the design-space sweep subsystem:
//! generated (non-seed) configurations flow through batch inference with
//! bit-identical results for every worker-thread count.

use autopower_repro::config::{DesignSpace, Workload};
use autopower_repro::experiments::{
    ExperimentSettings, Experiments, ModelSource, StreamScope, SweepRequest,
};
use autopower_repro::model::{AutoPower, Corpus, CorpusSpec, ModelKind, SweepEngine, SweepSpec};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained model shared by every property case (training is the expensive
/// part and is itself deterministic).
fn model() -> &'static AutoPower {
    static MODEL: OnceLock<AutoPower> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfgs = autopower_repro::config::boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [
            autopower_repro::config::ConfigId::new(1),
            autopower_repro::config::ConfigId::new(15),
        ];
        AutoPower::train(&corpus, &train).expect("training succeeds")
    })
}

proptest! {
    /// `threads(1)` and `threads(8)` (and any chunking) score the same points
    /// bit for bit, whatever subset of the space is drawn.
    #[test]
    fn sweep_is_thread_count_invariant(
        count in 2usize..8,
        sample_seed in 0u64..10_000,
        chunk in 1usize..5,
    ) {
        let configs = DesignSpace::boom().sample(count, sample_seed);
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let serial = SweepEngine::new(
            model(),
            SweepSpec { chunk_configs: chunk, ..SweepSpec::fast().threads(1) },
        )
        .run(&configs, &workloads);
        let parallel = SweepEngine::new(model(), SweepSpec::fast().threads(8))
            .run(&configs, &workloads);
        prop_assert_eq!(serial, parallel);
    }
}

/// A fast sweep over 200 generated configurations succeeds, ranks no seed
/// among its best configurations, and folds the same aggregate (and so prints
/// the same report) for any `--threads` value.
#[test]
fn fast_sweep_explores_200_generated_configs_identically_across_threads() {
    let request = SweepRequest::new(
        ModelSource::Train(ModelKind::AutoPower),
        StreamScope::Sampled(200),
    );
    let run = |threads: usize| {
        Experiments::new(ExperimentSettings::fast().with_threads(threads))
            .sweep(&request)
            .expect("exact sweeps succeed")
    };
    let serial = run(1);
    assert!(serial.complete);
    assert_eq!(serial.streamed, 200);
    assert_eq!(serial.aggregator.configs_folded(), 200);
    let top = serial.aggregator.top();
    assert!(!top.is_empty());
    assert!(top.iter().all(|s| !s.config.id.is_seed()));
    let parallel = run(8);
    assert_eq!(serial.aggregator, parallel.aggregator);
    assert_eq!(serial.to_string(), parallel.to_string());
}
