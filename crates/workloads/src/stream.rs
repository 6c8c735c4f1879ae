//! Synthetic instruction stream generation.

use crate::profile::{profile, Phase, WorkloadProfile};
use autopower_config::{seed, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Class of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Simple integer ALU operation.
    IntAlu,
    /// Integer multiply or divide.
    MulDiv,
    /// Floating-point operation.
    Fp,
    /// Load.
    Load,
    /// Store.
    Store,
    /// Conditional branch or jump.
    Branch,
}

impl InstrKind {
    /// All instruction kinds in a stable order.
    pub const ALL: [InstrKind; 6] = [
        InstrKind::IntAlu,
        InstrKind::MulDiv,
        InstrKind::Fp,
        InstrKind::Load,
        InstrKind::Store,
        InstrKind::Branch,
    ];

    /// Whether the instruction accesses data memory.
    pub fn is_memory(self) -> bool {
        matches!(self, InstrKind::Load | InstrKind::Store)
    }
}

/// One dynamic instruction of a synthetic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// Instruction class.
    pub kind: InstrKind,
    /// Program counter (byte address within the code working set).
    pub pc: u64,
    /// Distance (in instructions) to the most recent producer of this instruction's
    /// source operand; larger distances expose more instruction-level parallelism.
    pub dep_distance: u32,
    /// Data address for loads and stores, `None` otherwise.
    pub addr: Option<u64>,
    /// For branches: the static branch site identifier (a small integer).
    pub branch_site: Option<u16>,
    /// For branches: the resolved direction.
    pub taken: bool,
    /// Index of the workload phase this instruction was generated in.
    pub phase: u8,
}

/// Deterministic generator of synthetic instruction streams for one workload.
///
/// The generator is an [`Iterator`] over [`Instruction`]s and never terminates on its
/// own; the consumer decides how many instructions to execute (`take(n)` or the
/// simulator's instruction budget).
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    /// Per-phase chunk lengths (instructions) used to cycle through phases.
    chunk_lengths: Vec<u64>,
    phase_index: usize,
    instrs_left_in_phase: u64,
    emitted: u64,
    /// Streaming pointer per phase for unit-stride accesses.
    stream_ptr: u64,
    /// Static branch-site biases (probability taken), indexed by site id.
    site_bias: Vec<f64>,
    /// Loop program counter within the code working set.
    pc: u64,
    data_base: u64,
    code_base: u64,
}

/// Number of instructions of one pass over the phase schedule.
const PHASE_SCHEDULE_LENGTH: u64 = 20_000;
/// Number of distinct static branch sites the generator models.
const BRANCH_SITES: usize = 64;

impl StreamGenerator {
    /// Creates a generator for `workload`, seeded deterministically from `seed_value`.
    pub fn new(workload: Workload, seed_value: u64) -> Self {
        Self::with_profile(profile(workload), seed_value)
    }

    /// Creates a generator from an explicit profile (useful for custom workloads).
    ///
    /// # Panics
    ///
    /// Panics if the profile has no phases.
    pub fn with_profile(profile: WorkloadProfile, seed_value: u64) -> Self {
        assert!(
            !profile.phases.is_empty(),
            "profile must have at least one phase"
        );
        let mixed = seed::combine(seed::hash_str(profile.workload.name()), seed_value);
        let mut rng = StdRng::seed_from_u64(mixed);
        let total_w: f64 = profile.phases.iter().map(|p| p.weight).sum();
        let chunk_lengths: Vec<u64> = profile
            .phases
            .iter()
            .map(|p| ((p.weight / total_w) * PHASE_SCHEDULE_LENGTH as f64).max(1.0) as u64)
            .collect();
        let site_bias: Vec<f64> = (0..BRANCH_SITES)
            .map(|_| if rng.gen_bool(0.5) { 0.92 } else { 0.12 })
            .collect();
        let first_chunk = chunk_lengths[0];
        Self {
            profile,
            rng,
            chunk_lengths,
            phase_index: 0,
            instrs_left_in_phase: first_chunk,
            emitted: 0,
            stream_ptr: 0,
            site_bias,
            pc: 0,
            data_base: 0x8000_0000,
            code_base: 0x1000_0000,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn current_phase(&self) -> &Phase {
        &self.profile.phases[self.phase_index]
    }

    fn advance_phase_if_needed(&mut self) {
        if self.instrs_left_in_phase == 0 {
            self.phase_index = (self.phase_index + 1) % self.profile.phases.len();
            self.instrs_left_in_phase = self.chunk_lengths[self.phase_index];
        }
    }

    fn pick_kind(&mut self) -> InstrKind {
        let mix = self.current_phase().mix;
        let r: f64 = self.rng.gen();
        let f = mix.fractions();
        let mut acc = 0.0;
        for (kind, frac) in InstrKind::ALL.iter().zip(f) {
            acc += frac;
            if r < acc {
                return *kind;
            }
        }
        InstrKind::IntAlu
    }

    fn gen_data_addr(&mut self) -> u64 {
        let phase = *self.current_phase();
        let ws = phase.data_working_set.max(64);
        if self.rng.gen_bool(phase.streaming_fraction) {
            // Unit-stride streaming within the working set.
            self.stream_ptr = (self.stream_ptr + 8) % ws;
            self.data_base + self.stream_ptr
        } else if self.rng.gen_bool(0.6) {
            // Hot region: the first 1/8th of the working set absorbs most irregular
            // accesses (stack, frequently reused indices).
            self.data_base + self.rng.gen_range(0..(ws / 8).max(64))
        } else {
            // Cold irregular access anywhere in the working set.
            self.data_base + self.rng.gen_range(0..ws)
        }
    }

    fn gen_pc(&mut self, kind: InstrKind, taken: bool) -> u64 {
        let code_ws = self.current_phase().code_working_set.max(256);
        if kind == InstrKind::Branch && taken {
            // Mostly backward branches (loops) with occasional far calls.
            if self.rng.gen_bool(0.85) {
                let back = self.rng.gen_range(16..512).min(self.pc.max(16));
                self.pc = self.pc.saturating_sub(back);
            } else {
                self.pc = self.rng.gen_range(0..code_ws) & !3;
            }
        } else {
            self.pc = (self.pc + 4) % code_ws;
        }
        self.code_base + self.pc
    }
}

impl Iterator for StreamGenerator {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        self.advance_phase_if_needed();
        let phase = *self.current_phase();
        let kind = self.pick_kind();

        let (branch_site, taken) = if kind == InstrKind::Branch {
            // Hot-site skew: real programs execute a few branch sites most of the time.
            let site = ((self.rng.gen::<f64>().powi(2)) * BRANCH_SITES as f64) as u16;
            let taken = if self.rng.gen_bool(phase.branch_irregularity) {
                // Data-dependent branch: effectively a coin flip.
                self.rng.gen_bool(0.5)
            } else {
                self.rng.gen_bool(self.site_bias[site as usize])
            };
            (Some(site), taken)
        } else {
            (None, false)
        };

        let addr = if kind.is_memory() {
            Some(self.gen_data_addr())
        } else {
            None
        };

        let pc = self.gen_pc(kind, taken);

        // Dependency distance: geometric-ish around the phase ILP.
        let ilp = phase.ilp.max(1.0);
        let dep_distance = 1 + (self.rng.gen::<f64>() * 2.0 * ilp) as u32;

        self.instrs_left_in_phase -= 1;
        self.emitted += 1;

        Some(Instruction {
            kind,
            pc,
            dep_distance,
            addr,
            branch_site,
            taken,
            phase: self.phase_index as u8,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<_> = StreamGenerator::new(Workload::Qsort, 7).take(500).collect();
        let b: Vec<_> = StreamGenerator::new(Workload::Qsort, 7).take(500).collect();
        assert_eq!(a, b);
        let c: Vec<_> = StreamGenerator::new(Workload::Qsort, 8).take(500).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn mix_matches_profile_roughly() {
        let n = 40_000usize;
        let instrs: Vec<_> = StreamGenerator::new(Workload::Vvadd, 1).take(n).collect();
        let mut counts: HashMap<InstrKind, usize> = HashMap::new();
        for i in &instrs {
            *counts.entry(i.kind).or_default() += 1;
        }
        let target = profile(Workload::Vvadd).mix();
        let load_frac = counts[&InstrKind::Load] as f64 / n as f64;
        assert!(
            (load_frac - target.load).abs() < 0.03,
            "load fraction {load_frac}"
        );
        let br_frac = *counts.get(&InstrKind::Branch).unwrap_or(&0) as f64 / n as f64;
        assert!(
            (br_frac - target.branch).abs() < 0.02,
            "branch fraction {br_frac}"
        );
    }

    #[test]
    fn memory_instructions_have_addresses() {
        for i in StreamGenerator::new(Workload::Rsort, 3).take(5_000) {
            if i.kind.is_memory() {
                assert!(i.addr.is_some());
            } else {
                assert!(i.addr.is_none());
            }
            if i.kind == InstrKind::Branch {
                assert!(i.branch_site.is_some());
            }
        }
    }

    #[test]
    fn phased_workloads_visit_all_phases() {
        let phases: std::collections::HashSet<u8> = StreamGenerator::new(Workload::Gemm, 11)
            .take(60_000)
            .map(|i| i.phase)
            .collect();
        assert_eq!(phases.len(), profile(Workload::Gemm).phases.len());
    }

    #[test]
    fn streaming_workload_produces_sequential_addresses() {
        // vvadd has 90 % streaming accesses: consecutive memory addresses should very
        // often differ by exactly the stride.
        let addrs: Vec<u64> = StreamGenerator::new(Workload::Vvadd, 2)
            .take(20_000)
            .filter_map(|i| i.addr)
            .collect();
        let sequential = addrs
            .windows(2)
            .filter(|w| w[1] == w[0] + 8 || w[1] < w[0])
            .count();
        assert!(sequential as f64 / (addrs.len() - 1) as f64 > 0.6);
    }

    proptest! {
        /// Addresses stay within the declared working set window for every workload.
        #[test]
        fn addresses_within_working_set(widx in 0usize..10, s in 0u64..1000) {
            let w = Workload::ALL[widx];
            let prof = profile(w);
            let max_ws = prof.phases.iter().map(|p| p.data_working_set).max().unwrap();
            for i in StreamGenerator::new(w, s).take(2_000) {
                if let Some(a) = i.addr {
                    prop_assert!(a >= 0x8000_0000);
                    prop_assert!(a < 0x8000_0000 + max_ws);
                }
            }
        }

        /// Dependency distances are strictly positive and bounded by a small multiple of
        /// the phase ILP.
        #[test]
        fn dep_distance_bounds(s in 0u64..200) {
            for i in StreamGenerator::new(Workload::Gemm, s).take(2_000) {
                prop_assert!(i.dep_distance >= 1);
                prop_assert!(i.dep_distance <= 16);
            }
        }
    }
}
