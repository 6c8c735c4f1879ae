//! Property tests of the streaming sweep path: for ANY chunking, stop point,
//! top-k and sketch capacity, the bounded-memory aggregation reproduces the
//! materialized `summarize` + `rank_by_efficiency` results bit for bit, and a
//! sweep interrupted at a chunk boundary — its state round-tripped through the
//! checkpoint codec — resumes to the exact one-shot aggregate.
//!
//! The scored points are generated once (training and simulating in every one
//! of the 48 property cases would be prohibitively slow) — the properties vary
//! only the aggregation knobs, which is exactly the surface streaming adds on
//! top of the already-pinned scoring path.

use autopower::codec::{Codec, Reader, Writer};
use autopower::{
    rank_by_efficiency, summarize, AutoPower, Corpus, CorpusSpec, PowerSeries, StreamSpec,
    SweepAggregator, SweepEngine, SweepPoint, SweepSpec,
};
use autopower_config::{boom_configs, ConfigId, DesignSpace, Workload};
use proptest::prelude::*;
use std::sync::OnceLock;

const WORKLOADS: [Workload; 2] = [Workload::Dhrystone, Workload::Qsort];
const CONFIGS: usize = 24;

/// The one-time-scored point set every property case slices: 24 generated
/// configurations x 2 workloads under a model trained on C1+C15.
fn points() -> &'static [SweepPoint] {
    static POINTS: OnceLock<Vec<SweepPoint>> = OnceLock::new();
    POINTS.get_or_init(|| {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let model = AutoPower::train(&corpus, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let configs = DesignSpace::boom().sample(CONFIGS, 0x5EED);
        let points =
            SweepEngine::new(&model, SweepSpec::fast().threads(1)).run(&configs, &WORKLOADS);
        assert_eq!(points.len(), CONFIGS * WORKLOADS.len());
        points
    })
}

/// Nearest-rank quantile over an ascending series — the materialized report's
/// rule, restated independently of the sketch.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

proptest! {
    /// Streaming aggregation over any prefix of the sweep, at any top-k and
    /// sketch capacity, matches the materialized summaries: same top-k table
    /// (bit for bit), exact quantiles equal to nearest-rank over the totals.
    #[test]
    fn streaming_matches_materialized_for_any_knobs(
        n_configs in 1usize..25,
        top_k in 1usize..12,
        level_capacity in 8usize..200,
    ) {
        let per_config = WORKLOADS.len();
        let slice = &points()[..n_configs * per_config];
        let summaries = summarize(slice, per_config);

        let spec = StreamSpec { top_k, sketch_level_capacity: level_capacity };
        let mut agg = SweepAggregator::new(per_config, &spec);
        for point in slice {
            agg.push(point.clone());
        }
        prop_assert_eq!(agg.configs_folded(), n_configs as u64);
        prop_assert_eq!(agg.pending_points(), 0);

        // Top-k is the stable efficiency ranking truncated to k.
        let expected: Vec<_> = rank_by_efficiency(&summaries)
            .into_iter()
            .take(top_k)
            .collect();
        let got = agg.top();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert_eq!(g.config.id, e.config.id);
            prop_assert_eq!(
                g.energy_per_instruction.to_bits(),
                e.energy_per_instruction.to_bits()
            );
        }

        // While the sketch is exact (guaranteed here: n_configs < capacity),
        // its quantiles equal the materialized nearest-rank table and the
        // extrema are exact.
        let mut totals: Vec<f64> = summaries.iter().map(|s| s.mean_total).collect();
        totals.sort_by(f64::total_cmp);
        let series = agg.series(PowerSeries::Total);
        if series.sketch().is_exact() {
            for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let got = series.quantile(q).unwrap();
                prop_assert_eq!(got.to_bits(), nearest_rank(&totals, q).to_bits());
            }
        }
        prop_assert_eq!(series.min(), Some(totals[0]));
        prop_assert_eq!(series.max(), Some(*totals.last().unwrap()));
    }

    /// Killing the fold at ANY configuration boundary, serializing the
    /// aggregator through the checkpoint codec, and resuming in a fresh
    /// aggregator reproduces the uninterrupted aggregate exactly — top table,
    /// sketches, Pareto frontier, the works.
    #[test]
    fn resume_from_any_chunk_boundary_is_bit_identical(
        n_configs in 1usize..25,
        split in 0usize..25,
        top_k in 1usize..8,
    ) {
        prop_assume!(split <= n_configs);
        let per_config = WORKLOADS.len();
        let slice = &points()[..n_configs * per_config];
        let spec = StreamSpec { top_k, sketch_level_capacity: 16 };

        let mut one_shot = SweepAggregator::new(per_config, &spec);
        for point in slice {
            one_shot.push(point.clone());
        }

        // Fold the head, round-trip through the binary codec ("the process
        // died; the checkpoint is all that survives"), fold the tail.
        let mut head = SweepAggregator::new(per_config, &spec);
        for point in &slice[..split * per_config] {
            head.push(point.clone());
        }
        let mut w = Writer::new();
        head.encode(&mut w);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).expect("checkpoint stream opens");
        let mut resumed = SweepAggregator::decode(&mut r).expect("checkpoint decodes");
        r.expect_eof().expect("no trailing checkpoint bytes");
        for point in &slice[split * per_config..] {
            resumed.push(point.clone());
        }

        prop_assert_eq!(resumed, one_shot);
    }
}
