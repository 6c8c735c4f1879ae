//! Workload profiles: the per-benchmark characteristics that drive the synthetic
//! instruction streams.

use autopower_config::Workload;

/// Fractions of each instruction class in the dynamic instruction stream.
///
/// The six fractions must sum to 1 (within floating-point tolerance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrMix {
    /// Simple integer ALU operations.
    pub int_alu: f64,
    /// Integer multiply / divide.
    pub mul_div: f64,
    /// Floating-point operations.
    pub fp: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Conditional branches and jumps.
    pub branch: f64,
}

impl InstrMix {
    /// Creates a mix, checking that the fractions are non-negative and sum to ≈1.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or the sum deviates from 1 by more than 1e-6.
    pub fn new(int_alu: f64, mul_div: f64, fp: f64, load: f64, store: f64, branch: f64) -> Self {
        let mix = Self {
            int_alu,
            mul_div,
            fp,
            load,
            store,
            branch,
        };
        assert!(
            mix.fractions().iter().all(|&f| f >= 0.0),
            "instruction mix fractions must be non-negative"
        );
        let sum: f64 = mix.fractions().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "instruction mix fractions must sum to 1 (got {sum})"
        );
        mix
    }

    /// The six fractions in a fixed order (int_alu, mul_div, fp, load, store, branch).
    pub fn fractions(&self) -> [f64; 6] {
        [
            self.int_alu,
            self.mul_div,
            self.fp,
            self.load,
            self.store,
            self.branch,
        ]
    }

    /// Fraction of memory instructions (loads + stores).
    pub fn memory_fraction(&self) -> f64 {
        self.load + self.store
    }
}

/// One execution phase of a workload.
///
/// Small riscv-tests workloads have a single phase; GEMM and SPMM alternate between
/// phases with different memory intensity, which is what makes their 50-cycle power
/// traces interesting (Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Relative length of the phase (weights are normalised over the phase list).
    pub weight: f64,
    /// Instruction mix during the phase.
    pub mix: InstrMix,
    /// Data working-set size in bytes touched during the phase.
    pub data_working_set: u64,
    /// Instruction working-set (code footprint) in bytes.
    pub code_working_set: u64,
    /// Probability that a branch outcome is effectively data-dependent (hard to predict).
    pub branch_irregularity: f64,
    /// Average register dependency distance (higher ⇒ more instruction-level parallelism).
    pub ilp: f64,
    /// Fraction of loads that stream through memory with unit stride (prefetch friendly).
    pub streaming_fraction: f64,
}

/// The full profile of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Which workload this profile describes.
    pub workload: Workload,
    /// Execution phases, in order; the stream generator cycles through them.
    pub phases: Vec<Phase>,
    /// Nominal dynamic instruction count of one full run of the benchmark.
    pub nominal_instructions: u64,
    /// Number of distinct memory pages touched (drives TLB behaviour).
    pub footprint_pages: u32,
}

impl WorkloadProfile {
    /// Weighted-average instruction mix over all phases.
    pub fn mix(&self) -> InstrMix {
        let total_w: f64 = self.phases.iter().map(|p| p.weight).sum();
        let mut acc = [0.0f64; 6];
        for p in &self.phases {
            for (a, f) in acc.iter_mut().zip(p.mix.fractions()) {
                *a += p.weight / total_w * f;
            }
        }
        InstrMix::new(acc[0], acc[1], acc[2], acc[3], acc[4], acc[5])
    }

    /// Weighted-average data working set in bytes.
    pub fn data_working_set(&self) -> f64 {
        let total_w: f64 = self.phases.iter().map(|p| p.weight).sum();
        self.phases
            .iter()
            .map(|p| p.weight / total_w * p.data_working_set as f64)
            .sum()
    }

    /// Weighted-average branch irregularity.
    pub fn branch_irregularity(&self) -> f64 {
        let total_w: f64 = self.phases.iter().map(|p| p.weight).sum();
        self.phases
            .iter()
            .map(|p| p.weight / total_w * p.branch_irregularity)
            .sum()
    }

    /// Weighted-average instruction-level parallelism.
    pub fn ilp(&self) -> f64 {
        let total_w: f64 = self.phases.iter().map(|p| p.weight).sum();
        self.phases.iter().map(|p| p.weight / total_w * p.ilp).sum()
    }
}

// The catalogue below reads best as one compact positional row per workload.
#[allow(clippy::too_many_arguments)]
fn single_phase(
    workload: Workload,
    mix: InstrMix,
    data_ws: u64,
    code_ws: u64,
    branch_irr: f64,
    ilp: f64,
    streaming: f64,
    instructions: u64,
    pages: u32,
) -> WorkloadProfile {
    WorkloadProfile {
        workload,
        phases: vec![Phase {
            weight: 1.0,
            mix,
            data_working_set: data_ws,
            code_working_set: code_ws,
            branch_irregularity: branch_irr,
            ilp,
            streaming_fraction: streaming,
        }],
        nominal_instructions: instructions,
        footprint_pages: pages,
    }
}

/// Returns the profile of a workload.
///
/// The profiles are fixed, documented constants — they play the role of the benchmark
/// binaries in the paper's flow.
pub fn profile(workload: Workload) -> WorkloadProfile {
    match workload {
        Workload::Dhrystone => single_phase(
            workload,
            InstrMix::new(0.46, 0.02, 0.00, 0.22, 0.12, 0.18),
            6 * 1024,
            10 * 1024,
            0.12,
            2.4,
            0.25,
            200_000,
            8,
        ),
        Workload::Median => single_phase(
            workload,
            InstrMix::new(0.38, 0.01, 0.00, 0.30, 0.13, 0.18),
            16 * 1024,
            4 * 1024,
            0.30,
            2.1,
            0.45,
            120_000,
            10,
        ),
        Workload::Multiply => single_phase(
            workload,
            InstrMix::new(0.34, 0.28, 0.00, 0.18, 0.08, 0.12),
            4 * 1024,
            3 * 1024,
            0.08,
            3.0,
            0.30,
            150_000,
            6,
        ),
        Workload::Qsort => single_phase(
            workload,
            InstrMix::new(0.36, 0.01, 0.00, 0.26, 0.15, 0.22),
            48 * 1024,
            5 * 1024,
            0.55,
            1.8,
            0.15,
            180_000,
            20,
        ),
        Workload::Rsort => single_phase(
            workload,
            InstrMix::new(0.33, 0.02, 0.00, 0.29, 0.24, 0.12),
            96 * 1024,
            4 * 1024,
            0.15,
            2.6,
            0.55,
            220_000,
            32,
        ),
        Workload::Towers => single_phase(
            workload,
            InstrMix::new(0.40, 0.00, 0.00, 0.21, 0.19, 0.20),
            8 * 1024,
            3 * 1024,
            0.22,
            1.7,
            0.20,
            100_000,
            7,
        ),
        Workload::Spmv => single_phase(
            workload,
            InstrMix::new(0.27, 0.02, 0.22, 0.31, 0.06, 0.12),
            160 * 1024,
            4 * 1024,
            0.35,
            2.3,
            0.20,
            200_000,
            48,
        ),
        Workload::Vvadd => single_phase(
            workload,
            InstrMix::new(0.26, 0.00, 0.25, 0.26, 0.17, 0.06),
            64 * 1024,
            2 * 1024,
            0.03,
            3.4,
            0.90,
            140_000,
            24,
        ),
        Workload::Gemm => WorkloadProfile {
            workload,
            phases: vec![
                // Blocked inner-product compute phase: FP heavy, cache friendly.
                Phase {
                    weight: 0.62,
                    mix: InstrMix::new(0.22, 0.01, 0.38, 0.26, 0.05, 0.08),
                    data_working_set: 32 * 1024,
                    code_working_set: 2 * 1024,
                    branch_irregularity: 0.04,
                    ilp: 3.6,
                    streaming_fraction: 0.70,
                },
                // Block refill phase: streaming loads of the next tiles.
                Phase {
                    weight: 0.26,
                    mix: InstrMix::new(0.26, 0.01, 0.12, 0.42, 0.11, 0.08),
                    data_working_set: 256 * 1024,
                    code_working_set: 2 * 1024,
                    branch_irregularity: 0.06,
                    ilp: 3.0,
                    streaming_fraction: 0.92,
                },
                // Result write-back phase: store heavy.
                Phase {
                    weight: 0.12,
                    mix: InstrMix::new(0.27, 0.01, 0.10, 0.16, 0.38, 0.08),
                    data_working_set: 128 * 1024,
                    code_working_set: 2 * 1024,
                    branch_irregularity: 0.05,
                    ilp: 2.8,
                    streaming_fraction: 0.88,
                },
            ],
            nominal_instructions: 2_000_000,
            footprint_pages: 96,
        },
        Workload::Spmm => WorkloadProfile {
            workload,
            phases: vec![
                // Row-pointer traversal: branchy, irregular loads.
                Phase {
                    weight: 0.30,
                    mix: InstrMix::new(0.34, 0.01, 0.05, 0.34, 0.06, 0.20),
                    data_working_set: 192 * 1024,
                    code_working_set: 3 * 1024,
                    branch_irregularity: 0.50,
                    ilp: 1.9,
                    streaming_fraction: 0.20,
                },
                // Accumulation over non-zeros: FP with gather loads.
                Phase {
                    weight: 0.52,
                    mix: InstrMix::new(0.24, 0.01, 0.30, 0.32, 0.05, 0.08),
                    data_working_set: 320 * 1024,
                    code_working_set: 3 * 1024,
                    branch_irregularity: 0.25,
                    ilp: 2.6,
                    streaming_fraction: 0.30,
                },
                // Output row flush: stores.
                Phase {
                    weight: 0.18,
                    mix: InstrMix::new(0.28, 0.01, 0.08, 0.18, 0.35, 0.10),
                    data_working_set: 96 * 1024,
                    code_working_set: 3 * 1024,
                    branch_irregularity: 0.10,
                    ilp: 2.9,
                    streaming_fraction: 0.80,
                },
            ],
            nominal_instructions: 2_400_000,
            footprint_pages: 128,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_valid_profile() {
        for w in Workload::ALL {
            let p = profile(w);
            assert_eq!(p.workload, w);
            assert!(!p.phases.is_empty());
            assert!(p.nominal_instructions > 0);
            assert!(p.footprint_pages > 0);
            // mix() asserts the per-phase mixes and the weighted mix are normalised.
            let mix = p.mix();
            assert!((mix.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_workloads_are_phased() {
        assert!(profile(Workload::Gemm).phases.len() >= 3);
        assert!(profile(Workload::Spmm).phases.len() >= 3);
        for w in Workload::RISCV_TESTS {
            assert_eq!(profile(w).phases.len(), 1);
        }
    }

    #[test]
    fn workloads_span_distinct_regimes() {
        let qsort = profile(Workload::Qsort);
        let vvadd = profile(Workload::Vvadd);
        // qsort is far harder on the branch predictor than vvadd.
        assert!(qsort.branch_irregularity() > 5.0 * vvadd.branch_irregularity());
        // vvadd has far more instruction-level parallelism.
        assert!(vvadd.ilp() > qsort.ilp());
        // spmv touches much more data than dhrystone.
        assert!(
            profile(Workload::Spmv).data_working_set()
                > 10.0 * profile(Workload::Dhrystone).data_working_set()
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_mix_rejected() {
        let _ = InstrMix::new(0.5, 0.1, 0.1, 0.1, 0.1, 0.5);
    }

    #[test]
    fn memory_fraction_is_load_plus_store() {
        let m = InstrMix::new(0.4, 0.0, 0.0, 0.3, 0.1, 0.2);
        assert!((m.memory_fraction() - 0.4).abs() < 1e-12);
    }
}
