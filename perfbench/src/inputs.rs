//! Seeded workload inputs.
//!
//! Every input a workload feeds the program — the enumeration segments, the
//! sampled configurations, the serving hot pool and arrival schedule, and
//! the subsets the correctness gates re-check — is a pure function of the
//! `--seed` argument.  The program only ever receives the generated inputs.

use autopower_config::seed::{combine, splitmix64};
use autopower_config::{CpuConfig, DesignSpace, Workload};
use std::time::Duration;

/// Configurations in one contiguous segment of the exact sweep.  Within a
/// segment, configurations differing only along power-only axes sit next to
/// each other, so most of them share a simulation.
pub const EXACT_SEGMENT: usize = 512;

/// Segments the exact sweep may stream (room for a run several times
/// faster than today's before they run out).  The cost of a simulation
/// varies along the enumeration order, so one run covering several seeded
/// segments varies less from seed to seed than one long region would.
pub const EXACT_SEGMENTS: usize = 32;

/// Configurations the gates re-check exactly, at a seeded position.
pub const GATE_CONFIGS: usize = 8;

/// Configurations sampled for the surrogate sweep (streamed until the run's
/// time is up).
pub const SURROGATE_POOL: usize = 24_000;

/// A deterministic stream of pseudo-random numbers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by the workload seed and a purpose label, so each
    /// input draws from its own independent stream.
    pub fn new(seed: u64, purpose: u64) -> Self {
        Self(combine(seed, purpose))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// Inputs of `sweep-exact`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactInputs {
    /// Enumeration offsets of the contiguous segments, in stream order.
    pub segments: Vec<u64>,
    /// Offset of the gate subset within the first segment.
    pub gate_at: usize,
}

impl ExactInputs {
    /// Draws the inputs for `seed` over a space of `total` configurations.
    pub fn generate(seed: u64, total: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let last_start = total.saturating_sub(EXACT_SEGMENT as u64).max(1);
        Self {
            segments: (0..EXACT_SEGMENTS).map(|_| rng.below(last_start)).collect(),
            gate_at: rng.below((EXACT_SEGMENT - GATE_CONFIGS) as u64) as usize,
        }
    }

    /// The configurations to stream: every segment of the enumeration, in
    /// order.
    pub fn configs<'a>(&'a self, space: &'a DesignSpace) -> impl Iterator<Item = CpuConfig> + 'a {
        self.segments
            .iter()
            .flat_map(move |&at| space.enumerate().skip(at as usize).take(EXACT_SEGMENT))
    }
}

/// Inputs of `sweep-surrogate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateInputs {
    /// The sampled configurations, in stream order.
    pub configs: Vec<CpuConfig>,
    /// Seed of the gate's choice among the audited configurations.
    pub gate_seed: u64,
}

impl SurrogateInputs {
    /// Draws the inputs for `seed`.
    pub fn generate(seed: u64, space: &DesignSpace) -> Self {
        let mut rng = Rng::new(seed, 2);
        Self {
            configs: space.sample(SURROGATE_POOL, rng.next_u64()),
            gate_seed: rng.next_u64(),
        }
    }
}

/// One scheduled predict request of `serve-open`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// When the request is due, from the phase start.
    pub due: Duration,
    /// The configuration to score.
    pub config: CpuConfig,
    /// The workload to score it on.
    pub workload: Workload,
    /// Whether the configuration came from the hot pool.
    pub hot: bool,
}

/// One fixed-rate phase of `serve-open`.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Arrival rate in requests per second.
    pub rate: f64,
    /// The Poisson arrival schedule, due times non-decreasing.
    pub requests: Vec<Request>,
}

/// Shape of the serving traffic, fixed for every commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficShape {
    /// Configurations in the hot pool.
    pub hot_pool: usize,
    /// Probability that a request draws its configuration from the hot pool.
    pub hot_share: f64,
    /// Requests per phase, at least.
    pub min_requests: usize,
}

/// Inputs of `serve-open`: one phase per rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// The hot pool.
    pub hot_pool: Vec<CpuConfig>,
    /// One phase per rate, in the order given.
    pub phases: Vec<Phase>,
}

impl ServeInputs {
    /// Draws the inputs for `seed`: phase `i` runs at `rates[i]` for
    /// `phase_seconds` or `shape.min_requests` requests, whichever is more.
    pub fn generate(
        seed: u64,
        space: &DesignSpace,
        rates: &[f64],
        phase_seconds: f64,
        shape: &TrafficShape,
    ) -> Self {
        let mut rng = Rng::new(seed, 3);
        let counts: Vec<usize> = rates
            .iter()
            .map(|&r| shape.min_requests.max((r * phase_seconds).ceil() as usize))
            .collect();
        // One sample keeps every configuration identifier distinct: the hot
        // pool first, then a fresh configuration for every request that may
        // need one.
        let sample = space.sample(
            shape.hot_pool + counts.iter().sum::<usize>(),
            rng.next_u64(),
        );
        let (hot_pool, fresh) = sample.split_at(shape.hot_pool);
        let mut fresh = fresh.iter();
        let phases = rates
            .iter()
            .zip(&counts)
            .map(|(&rate, &count)| {
                let mut t = 0.0;
                let requests = (0..count)
                    .map(|_| {
                        t += -(1.0 - rng.unit()).ln() / rate;
                        let hot = rng.unit() < shape.hot_share;
                        let config = if hot {
                            hot_pool[rng.below(hot_pool.len() as u64) as usize]
                        } else {
                            *fresh.next().expect("one fresh configuration per request")
                        };
                        let workloads = Workload::RISCV_TESTS;
                        let workload = workloads[rng.below(workloads.len() as u64) as usize];
                        Request {
                            due: Duration::from_secs_f64(t),
                            config,
                            workload,
                            hot,
                        }
                    })
                    .collect();
                Phase { rate, requests }
            })
            .collect();
        Self {
            hot_pool: hot_pool.to_vec(),
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: TrafficShape = TrafficShape {
        hot_pool: 8,
        hot_share: 0.5,
        min_requests: 200,
    };

    fn serve(seed: u64) -> ServeInputs {
        ServeInputs::generate(seed, &DesignSpace::boom(), &[100.0, 200.0], 1.0, &SHAPE)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let space = DesignSpace::boom();
        let total = space.total();
        assert_eq!(
            ExactInputs::generate(7, total),
            ExactInputs::generate(7, total)
        );
        assert_ne!(
            ExactInputs::generate(7, total),
            ExactInputs::generate(8, total)
        );
        let a = SurrogateInputs::generate(7, &space);
        assert_eq!(a, SurrogateInputs::generate(7, &space));
        assert_ne!(a.configs, SurrogateInputs::generate(8, &space).configs);
        assert_eq!(serve(7), serve(7));
        let (x, y) = (serve(7), serve(8));
        assert_ne!(x.hot_pool, y.hot_pool);
        assert_ne!(x.phases[0].requests, y.phases[0].requests);
    }

    #[test]
    fn exact_segments_fit_in_the_space() {
        let space = DesignSpace::boom();
        let total = space.total();
        for seed in 0..64 {
            let inputs = ExactInputs::generate(seed, total);
            assert!(inputs
                .segments
                .iter()
                .all(|&at| at + EXACT_SEGMENT as u64 <= total));
            assert!(inputs.gate_at + GATE_CONFIGS <= EXACT_SEGMENT);
        }
        let inputs = ExactInputs::generate(3, total);
        let configs: Vec<CpuConfig> = inputs.configs(&space).take(EXACT_SEGMENT + 1).collect();
        assert_eq!(
            configs[..EXACT_SEGMENT],
            space.enumerate_chunk(inputs.segments[0], EXACT_SEGMENT)[..]
        );
        assert_eq!(
            configs[EXACT_SEGMENT],
            space.enumerate_chunk(inputs.segments[1], 1)[0]
        );
    }

    #[test]
    fn serve_schedule_has_the_asked_shape() {
        let inputs = serve(11);
        assert_eq!(inputs.hot_pool.len(), SHAPE.hot_pool);
        for phase in &inputs.phases {
            let n = phase.requests.len();
            assert!(n >= SHAPE.min_requests);
            assert!(phase.requests.windows(2).all(|w| w[0].due <= w[1].due));
            // A Poisson schedule at `rate` spans about n / rate seconds.
            let span = phase.requests[n - 1].due.as_secs_f64();
            let expected = n as f64 / phase.rate;
            assert!(
                (span - expected).abs() < 0.25 * expected,
                "{span} vs {expected}"
            );
            let hot = phase.requests.iter().filter(|r| r.hot).count() as f64 / n as f64;
            assert!((hot - SHAPE.hot_share).abs() < 0.1);
        }
        // Fresh configurations never repeat; identifiers stay unique.
        let mut ids: Vec<_> = inputs
            .phases
            .iter()
            .flat_map(|p| p.requests.iter().filter(|r| !r.hot).map(|r| r.config.id))
            .chain(inputs.hot_pool.iter().map(|c| c.id))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
