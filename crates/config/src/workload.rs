//! Workload identifiers: the eight riscv-tests benchmarks plus the two large
//! trace-prediction workloads (GEMM, SPMM).

use std::fmt;

/// One of the workloads used in the paper's evaluation.
///
/// The eight small workloads come from the riscv-tests benchmark suite and are used for
/// the average-power experiments (Figs. 4–8).  GEMM and SPMM are the two large
/// million-cycle workloads used for time-based power-trace prediction (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// Dhrystone integer synthetic benchmark.
    Dhrystone,
    /// Median filter over an integer vector.
    Median,
    /// Software multiply kernel.
    Multiply,
    /// Quicksort over an integer array.
    Qsort,
    /// Radix sort over an integer array.
    Rsort,
    /// Towers of Hanoi (recursive, branchy).
    Towers,
    /// Sparse matrix-vector multiplication.
    Spmv,
    /// Dense vector-vector addition.
    Vvadd,
    /// Dense matrix-matrix multiplication (large, phased; trace prediction).
    Gemm,
    /// Sparse matrix-matrix multiplication (large, phased; trace prediction).
    Spmm,
}

impl Workload {
    /// The eight riscv-tests workloads used for the average-power experiments.
    pub const RISCV_TESTS: [Workload; 8] = [
        Workload::Dhrystone,
        Workload::Median,
        Workload::Multiply,
        Workload::Qsort,
        Workload::Rsort,
        Workload::Towers,
        Workload::Spmv,
        Workload::Vvadd,
    ];

    /// The two large workloads used for time-based power-trace prediction (Table IV).
    pub const TRACE_WORKLOADS: [Workload; 2] = [Workload::Gemm, Workload::Spmm];

    /// All ten workloads.
    pub const ALL: [Workload; 10] = [
        Workload::Dhrystone,
        Workload::Median,
        Workload::Multiply,
        Workload::Qsort,
        Workload::Rsort,
        Workload::Towers,
        Workload::Spmv,
        Workload::Vvadd,
        Workload::Gemm,
        Workload::Spmm,
    ];

    /// Short, stable lowercase name (matches the riscv-tests binary names).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dhrystone => "dhrystone",
            Workload::Median => "median",
            Workload::Multiply => "multiply",
            Workload::Qsort => "qsort",
            Workload::Rsort => "rsort",
            Workload::Towers => "towers",
            Workload::Spmv => "spmv",
            Workload::Vvadd => "vvadd",
            Workload::Gemm => "gemm",
            Workload::Spmm => "spmm",
        }
    }

    /// Stable index of the workload in [`Workload::ALL`].
    pub fn index(self) -> usize {
        Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("every workload is listed in ALL")
    }

    /// Whether this is one of the two large trace-prediction workloads.
    pub fn is_trace_workload(self) -> bool {
        matches!(self, Workload::Gemm | Workload::Spmm)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sets_are_consistent() {
        assert_eq!(Workload::RISCV_TESTS.len(), 8);
        assert_eq!(Workload::TRACE_WORKLOADS.len(), 2);
        assert_eq!(Workload::ALL.len(), 10);
        for w in Workload::RISCV_TESTS {
            assert!(!w.is_trace_workload());
        }
        for w in Workload::TRACE_WORKLOADS {
            assert!(w.is_trace_workload());
        }
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let mut names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
        for n in names {
            assert_eq!(n, n.to_lowercase());
        }
    }

    #[test]
    fn indices_are_stable() {
        for (i, w) in Workload::ALL.iter().enumerate() {
            assert_eq!(w.index(), i);
        }
    }
}
