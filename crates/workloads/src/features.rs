//! Program-level features.
//!
//! Section II-B of the paper: the SRAM activity model additionally consumes
//! "program-level features that are independent of microarchitecture, such as the number
//! of branch instructions", because they are not affected by performance-simulator
//! inaccuracy.  This module derives exactly that kind of feature from a workload profile.

use crate::profile::WorkloadProfile;
use autopower_config::Workload;

/// Microarchitecture-independent features of one workload.
///
/// These depend only on the program (the workload profile), never on the CPU
/// configuration or on the performance simulator, and are therefore immune to simulator
/// inaccuracy — the property the paper exploits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramFeatures {
    /// Total dynamic instruction count of the nominal run.
    pub instruction_count: f64,
    /// Number of dynamic branch instructions.
    pub branch_count: f64,
    /// Number of dynamic load instructions.
    pub load_count: f64,
    /// Number of dynamic store instructions.
    pub store_count: f64,
    /// Number of dynamic floating-point instructions.
    pub fp_count: f64,
    /// Data working-set size in bytes.
    pub data_working_set: f64,
    /// Branch irregularity (fraction of effectively data-dependent branches).
    pub branch_irregularity: f64,
    /// Average register dependency distance.
    pub ilp: f64,
    /// Number of distinct memory pages touched.
    pub footprint_pages: f64,
}

impl ProgramFeatures {
    /// Derives the program-level features of a workload from its profile.
    pub fn of(workload: Workload) -> Self {
        Self::from_profile(&crate::profile::profile(workload))
    }

    /// Derives the program-level features from an explicit profile.
    pub fn from_profile(profile: &WorkloadProfile) -> Self {
        let mix = profile.mix();
        let n = profile.nominal_instructions as f64;
        Self {
            instruction_count: n,
            branch_count: n * mix.branch,
            load_count: n * mix.load,
            store_count: n * mix.store,
            fp_count: n * mix.fp,
            data_working_set: profile.data_working_set(),
            branch_irregularity: profile.branch_irregularity(),
            ilp: profile.ilp(),
            footprint_pages: profile.footprint_pages as f64,
        }
    }

    /// The features as a fixed-order vector, for use in ML feature matrices.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(Self::names().len());
        self.push_into(&mut out);
        out
    }

    /// Appends the features to `out` in [`ProgramFeatures::to_vec`] order
    /// (the allocation-free twin used by the batch inference hot path).
    pub fn push_into(&self, out: &mut Vec<f64>) {
        out.extend([
            self.instruction_count,
            self.branch_count,
            self.load_count,
            self.store_count,
            self.fp_count,
            self.data_working_set,
            self.branch_irregularity,
            self.ilp,
            self.footprint_pages,
        ]);
    }

    /// Names of the features returned by [`ProgramFeatures::to_vec`], in the same order.
    pub fn names() -> &'static [&'static str] {
        &[
            "prog_instruction_count",
            "prog_branch_count",
            "prog_load_count",
            "prog_store_count",
            "prog_fp_count",
            "prog_data_working_set",
            "prog_branch_irregularity",
            "prog_ilp",
            "prog_footprint_pages",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_vector_matches_names() {
        let f = ProgramFeatures::of(Workload::Qsort);
        assert_eq!(f.to_vec().len(), ProgramFeatures::names().len());
    }

    #[test]
    fn features_distinguish_workloads() {
        let qsort = ProgramFeatures::of(Workload::Qsort);
        let vvadd = ProgramFeatures::of(Workload::Vvadd);
        assert!(qsort.branch_irregularity > vvadd.branch_irregularity);
        assert!(vvadd.fp_count > qsort.fp_count);
    }

    #[test]
    fn features_are_independent_of_any_configuration() {
        // Trivially true by construction, but assert the values are finite and
        // reproducible, which is what the model relies on.
        let a = ProgramFeatures::of(Workload::Gemm);
        let b = ProgramFeatures::of(Workload::Gemm);
        assert_eq!(a, b);
        assert!(a.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn branch_count_consistent_with_mix() {
        let f = ProgramFeatures::of(Workload::Towers);
        let p = crate::profile::profile(Workload::Towers);
        let expected = p.nominal_instructions as f64 * p.mix().branch;
        assert!((f.branch_count - expected).abs() < 1e-9);
    }
}
