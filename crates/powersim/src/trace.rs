//! Time-based golden power traces (the ground truth of Table IV).

use crate::groups::PowerGroups;
use autopower_config::{ConfigId, Workload};

/// One sample of a power trace: the average power of one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Cycle at which the interval starts.
    pub start_cycle: u64,
    /// Length of the interval in cycles.
    pub cycles: u64,
    /// Average per-group power of the interval, in mW.
    pub power: PowerGroups,
}

/// A golden time-based power trace for one `(configuration, workload)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// The evaluated configuration.
    pub config: ConfigId,
    /// The executed workload.
    pub workload: Workload,
    /// Nominal interval length in cycles (the paper uses 50).
    pub interval_cycles: u32,
    /// Samples in execution order.
    pub samples: Vec<PowerSample>,
}

impl PowerTrace {
    /// Total power values of all samples, in mW.
    pub fn totals(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.power.total()).collect()
    }

    /// Maximum sample power in mW (0 for an empty trace).
    pub fn max_power(&self) -> f64 {
        self.totals().into_iter().fold(0.0, f64::max)
    }

    /// Minimum sample power in mW.
    ///
    /// An empty trace has no minimum; by convention it reports 0.0, matching
    /// [`PowerTrace::max_power`] and [`PowerTrace::average_power`], so that
    /// empty traces never leak the fold's `f64::INFINITY` identity to callers.
    pub fn min_power(&self) -> f64 {
        let min = self.totals().into_iter().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Cycle-weighted average power in mW (0 for an empty trace).
    pub fn average_power(&self) -> f64 {
        let cycles: u64 = self.samples.iter().map(|s| s.cycles).sum();
        if cycles == 0 {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.power.total() * s.cycles as f64)
            .sum::<f64>()
            / cycles as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with(totals: &[f64]) -> PowerTrace {
        PowerTrace {
            config: ConfigId::new(2),
            workload: Workload::Gemm,
            interval_cycles: 50,
            samples: totals
                .iter()
                .enumerate()
                .map(|(i, &t)| PowerSample {
                    start_cycle: i as u64 * 50,
                    cycles: 50,
                    power: PowerGroups {
                        clock: t / 2.0,
                        sram: t / 4.0,
                        register: t / 8.0,
                        combinational: t / 8.0,
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn extrema_and_average() {
        let t = trace_with(&[10.0, 30.0, 20.0]);
        assert!((t.max_power() - 30.0).abs() < 1e-12);
        assert!((t.min_power() - 10.0).abs() < 1e-12);
        assert!((t.average_power() - 20.0).abs() < 1e-12);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = trace_with(&[]);
        assert_eq!(t.max_power(), 0.0);
        assert_eq!(t.min_power(), 0.0);
        assert_eq!(t.average_power(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn average_is_cycle_weighted() {
        let mut t = trace_with(&[10.0, 40.0]);
        t.samples[1].cycles = 150; // second interval three times longer
        let expected = (10.0 * 50.0 + 40.0 * 150.0) / 200.0;
        assert!((t.average_power() - expected).abs() < 1e-12);
    }
}
