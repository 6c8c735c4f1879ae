//! Architecture-level event parameters: the counters an architect would read out of a
//! performance simulator such as gem5.

use autopower_config::{seed, Component, ConfigId, Workload};

/// Raw event counters accumulated by the pipeline model over a window of cycles.
///
/// These are the *true* counters of the simulated machine; the reported
/// [`EventParams`] may be a distorted view of them (see [`EventParams::from_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Cycles elapsed in the window.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Fetch groups (instruction-cache accesses).
    pub fetch_groups: u64,
    /// Instructions decoded / renamed.
    pub decoded: u64,
    /// Micro-ops dispatched into the ROB.
    pub dispatched: u64,
    /// Integer ALU / multiply operations issued.
    pub int_issued: u64,
    /// Floating-point operations issued.
    pub fp_issued: u64,
    /// Memory operations issued.
    pub mem_issued: u64,
    /// Conditional branches fetched.
    pub branches: u64,
    /// Branches mispredicted.
    pub branch_mispredicts: u64,
    /// Instruction-cache accesses.
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache read accesses.
    pub dcache_reads: u64,
    /// Data-cache write accesses.
    pub dcache_writes: u64,
    /// Data-cache misses (reads and writes).
    pub dcache_misses: u64,
    /// Instruction-TLB accesses.
    pub itlb_accesses: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB accesses.
    pub dtlb_accesses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Miss-status-holding-register allocations.
    pub mshr_allocations: u64,
    /// Sum over cycles of the ROB occupancy (for averages).
    pub rob_occupancy_sum: u64,
    /// Sum over cycles of the fetch-buffer occupancy.
    pub fetch_buffer_occupancy_sum: u64,
    /// Sum over cycles of the load/store-queue occupancy.
    pub lsq_occupancy_sum: u64,
    /// Cycles the front end could not deliver instructions.
    pub frontend_stall_cycles: u64,
    /// Cycles dispatch was blocked by a full back end.
    pub backend_stall_cycles: u64,
}

impl EventCounters {
    /// Element-wise difference `self - earlier`, used to derive per-interval counters.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not element-wise ≤ `self`.
    pub fn delta_since(&self, earlier: &EventCounters) -> EventCounters {
        macro_rules! sub {
            ($($f:ident),*) => {
                EventCounters { $($f: self.$f - earlier.$f),* }
            };
        }
        sub!(
            cycles,
            committed,
            fetched,
            fetch_groups,
            decoded,
            dispatched,
            int_issued,
            fp_issued,
            mem_issued,
            branches,
            branch_mispredicts,
            icache_accesses,
            icache_misses,
            dcache_reads,
            dcache_writes,
            dcache_misses,
            itlb_accesses,
            itlb_misses,
            dtlb_accesses,
            dtlb_misses,
            mshr_allocations,
            rob_occupancy_sum,
            fetch_buffer_occupancy_sum,
            lsq_occupancy_sum,
            frontend_stall_cycles,
            backend_stall_cycles
        )
    }

    /// Instructions per cycle of the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// Names and values of all event parameters, expressed as per-cycle rates.
///
/// Field order here defines the canonical feature order used by the ML models.
const EVENT_NAMES: [&str; 25] = [
    "ipc",
    "fetch_rate",
    "fetch_group_rate",
    "decode_rate",
    "dispatch_rate",
    "int_issue_rate",
    "fp_issue_rate",
    "mem_issue_rate",
    "branch_rate",
    "branch_mispredict_rate",
    "icache_access_rate",
    "icache_miss_rate",
    "dcache_read_rate",
    "dcache_write_rate",
    "dcache_miss_rate",
    "itlb_access_rate",
    "itlb_miss_rate",
    "dtlb_access_rate",
    "dtlb_miss_rate",
    "mshr_alloc_rate",
    "rob_occupancy",
    "fetch_buffer_occupancy",
    "lsq_occupancy",
    "frontend_stall_fraction",
    "backend_stall_fraction",
];

/// Architecture-level event parameters: the `E` input of the power models.
///
/// All values are per-cycle rates (or average occupancies), which makes them comparable
/// across windows of different lengths.  They may include a systematic
/// configuration-and-workload-dependent distortion that emulates performance-simulator
/// inaccuracy (the paper identifies gem5 inaccuracy as a root cause of ML power-model
/// error); the golden power flow never uses the distorted values.
#[derive(Debug, Clone, PartialEq)]
pub struct EventParams {
    values: Vec<f64>,
}

impl EventParams {
    /// Derives event parameters from raw counters.
    ///
    /// `distortion` is the relative magnitude of the simulator-inaccuracy perturbation
    /// (0.0 means a perfect simulator); the perturbation is deterministic in
    /// `(config, workload, event name)` so it behaves like a systematic modelling error,
    /// not like random noise that would average out.
    pub fn from_counters(
        counters: &EventCounters,
        config: ConfigId,
        workload: Workload,
        distortion: f64,
    ) -> Self {
        let mut out = Self {
            values: Vec::with_capacity(EVENT_NAMES.len()),
        };
        Self::from_counters_into(counters, config, workload, distortion, &mut out);
        out
    }

    /// Derives event parameters from raw counters into an existing parameter
    /// set, reusing its allocation (the allocation-free twin of
    /// [`EventParams::from_counters`], used by the sweep hot path where one
    /// reusable `EventParams` per worker absorbs thousands of derivations).
    pub fn from_counters_into(
        counters: &EventCounters,
        config: ConfigId,
        workload: Workload,
        distortion: f64,
        out: &mut Self,
    ) {
        Self::from_raw_rates_into(
            &Self::raw_rates(counters),
            config,
            workload,
            distortion,
            out,
        );
    }

    /// The undistorted per-cycle rates of `counters`, in canonical
    /// [`EventParams::names`] order.
    ///
    /// These are the surrogate's regression targets: a learned model predicts
    /// the *raw* rates, and [`EventParams::from_raw_rates_into`] re-applies
    /// the same deterministic simulator-inaccuracy distortion the exact path
    /// applies, so a perfect surrogate reproduces the exact pipeline's
    /// [`EventParams`] bit for bit.
    pub fn raw_rates(counters: &EventCounters) -> [f64; EVENT_NAMES.len()] {
        let c = counters;
        let cyc = c.cycles.max(1) as f64;
        [
            c.committed as f64 / cyc,
            c.fetched as f64 / cyc,
            c.fetch_groups as f64 / cyc,
            c.decoded as f64 / cyc,
            c.dispatched as f64 / cyc,
            c.int_issued as f64 / cyc,
            c.fp_issued as f64 / cyc,
            c.mem_issued as f64 / cyc,
            c.branches as f64 / cyc,
            c.branch_mispredicts as f64 / cyc,
            c.icache_accesses as f64 / cyc,
            c.icache_misses as f64 / cyc,
            c.dcache_reads as f64 / cyc,
            c.dcache_writes as f64 / cyc,
            c.dcache_misses as f64 / cyc,
            c.itlb_accesses as f64 / cyc,
            c.itlb_misses as f64 / cyc,
            c.dtlb_accesses as f64 / cyc,
            c.dtlb_misses as f64 / cyc,
            c.mshr_allocations as f64 / cyc,
            c.rob_occupancy_sum as f64 / cyc,
            c.fetch_buffer_occupancy_sum as f64 / cyc,
            c.lsq_occupancy_sum as f64 / cyc,
            c.frontend_stall_cycles as f64 / cyc,
            c.backend_stall_cycles as f64 / cyc,
        ]
    }

    /// Builds event parameters from raw (undistorted) per-cycle rates,
    /// applying the same deterministic `(config, workload, event name)`
    /// distortion as [`EventParams::from_counters_into`].
    ///
    /// The distortion factor never depends on the counters themselves, so
    /// surrogate-predicted rates pass through the identical perturbation the
    /// exact simulation path would apply to that configuration.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not hold one value per [`EventParams::names`]
    /// entry.
    pub fn from_raw_rates_into(
        raw: &[f64],
        config: ConfigId,
        workload: Workload,
        distortion: f64,
        out: &mut Self,
    ) {
        assert_eq!(
            raw.len(),
            EVENT_NAMES.len(),
            "raw rates must hold one value per event parameter"
        );
        out.values.clear();
        out.values
            .extend(raw.iter().zip(EVENT_NAMES.iter()).map(|(&v, name)| {
                if distortion <= 0.0 {
                    v
                } else {
                    let s = seed::combine(
                        seed::hash_str(name),
                        seed::combine(seed::hash_str(workload.name()), config.index() as u64),
                    );
                    v * seed::lognormal_factor(s, distortion)
                }
            }));
    }

    /// Creates a parameter set with no values yet, to be filled by
    /// [`EventParams::from_counters_into`].
    ///
    /// Only useful as the initial value of a reused scratch parameter set (it
    /// holds no parameters until the first refill); sweep workers seed their
    /// per-worker scratch with it.
    pub fn empty() -> Self {
        Self { values: Vec::new() }
    }

    /// Names of all event parameters in canonical order.
    pub fn names() -> &'static [&'static str] {
        &EVENT_NAMES
    }

    /// All values in canonical order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of one named event parameter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`EventParams::names`].
    pub fn value(&self, name: &str) -> f64 {
        let idx = EVENT_NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown event parameter {name}"));
        self.values[idx]
    }

    /// Appends the subset of event parameters relevant to one component (its
    /// `E` features) to `out`.
    pub fn component_features_into(&self, component: Component, out: &mut Vec<f64>) {
        out.extend(
            Self::component_feature_indices(component)
                .iter()
                .map(|&i| self.values[i]),
        );
    }

    /// Positions of the component's feature names within [`EventParams::names`],
    /// resolved once instead of by per-call linear name search.
    fn component_feature_indices(component: Component) -> &'static [usize] {
        static INDICES: std::sync::OnceLock<Vec<Vec<usize>>> = std::sync::OnceLock::new();
        let per_component = INDICES.get_or_init(|| {
            Component::ALL
                .iter()
                .map(|&c| {
                    Self::component_feature_names(c)
                        .iter()
                        .map(|name| {
                            EVENT_NAMES
                                .iter()
                                .position(|n| n == name)
                                .unwrap_or_else(|| panic!("unknown event parameter {name}"))
                        })
                        .collect()
                })
                .collect()
        });
        &per_component[component.index()]
    }

    /// Names of the event parameters used as features for one component.
    pub fn component_feature_names(component: Component) -> &'static [&'static str] {
        match component {
            Component::BpTage | Component::BpBtb | Component::BpOthers => &[
                "fetch_group_rate",
                "branch_rate",
                "branch_mispredict_rate",
                "frontend_stall_fraction",
            ],
            Component::ICacheTagArray | Component::ICacheDataArray | Component::ICacheOthers => &[
                "fetch_group_rate",
                "icache_access_rate",
                "icache_miss_rate",
                "frontend_stall_fraction",
            ],
            Component::Rnu => &["decode_rate", "dispatch_rate", "ipc"],
            Component::Rob => &[
                "dispatch_rate",
                "ipc",
                "rob_occupancy",
                "backend_stall_fraction",
            ],
            Component::Regfile => &["int_issue_rate", "fp_issue_rate", "mem_issue_rate", "ipc"],
            Component::DCacheTagArray | Component::DCacheDataArray | Component::DCacheOthers => &[
                "dcache_read_rate",
                "dcache_write_rate",
                "dcache_miss_rate",
                "mem_issue_rate",
            ],
            Component::FpIsu => &["fp_issue_rate", "dispatch_rate", "backend_stall_fraction"],
            Component::IntIsu => &["int_issue_rate", "dispatch_rate", "backend_stall_fraction"],
            Component::MemIsu => &["mem_issue_rate", "dispatch_rate", "backend_stall_fraction"],
            Component::ITlb => &["itlb_access_rate", "itlb_miss_rate", "fetch_group_rate"],
            Component::DTlb => &["dtlb_access_rate", "dtlb_miss_rate", "mem_issue_rate"],
            Component::FuPool => &["int_issue_rate", "fp_issue_rate", "mem_issue_rate", "ipc"],
            Component::OtherLogic => &[
                "ipc",
                "dispatch_rate",
                "frontend_stall_fraction",
                "backend_stall_fraction",
            ],
            Component::DCacheMshr => &["dcache_miss_rate", "mshr_alloc_rate", "mem_issue_rate"],
            Component::Lsu => &[
                "mem_issue_rate",
                "dcache_read_rate",
                "dcache_write_rate",
                "lsq_occupancy",
            ],
            Component::Ifu => &[
                "fetch_rate",
                "fetch_group_rate",
                "decode_rate",
                "fetch_buffer_occupancy",
                "branch_mispredict_rate",
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_config::ConfigId;

    fn sample_counters() -> EventCounters {
        EventCounters {
            cycles: 1000,
            committed: 800,
            fetched: 1500,
            fetch_groups: 400,
            decoded: 900,
            dispatched: 900,
            int_issued: 400,
            fp_issued: 100,
            mem_issued: 300,
            branches: 150,
            branch_mispredicts: 20,
            icache_accesses: 400,
            icache_misses: 10,
            dcache_reads: 200,
            dcache_writes: 100,
            dcache_misses: 15,
            itlb_accesses: 400,
            itlb_misses: 2,
            dtlb_accesses: 300,
            dtlb_misses: 5,
            mshr_allocations: 15,
            rob_occupancy_sum: 40_000,
            fetch_buffer_occupancy_sum: 8_000,
            lsq_occupancy_sum: 10_000,
            frontend_stall_cycles: 120,
            backend_stall_cycles: 200,
        }
    }

    #[test]
    fn names_and_values_align() {
        let p =
            EventParams::from_counters(&sample_counters(), ConfigId::new(3), Workload::Qsort, 0.0);
        assert_eq!(p.values().len(), EventParams::names().len());
        assert!((p.value("ipc") - 0.8).abs() < 1e-12);
        assert!((p.value("rob_occupancy") - 40.0).abs() < 1e-12);
    }

    #[test]
    fn into_twin_overwrites_reused_parameter_set() {
        let c = sample_counters();
        let fresh = EventParams::from_counters(&c, ConfigId::new(3), Workload::Qsort, 0.08);
        // Seed the reused set with different values (another config, workload
        // and distortion); the refill must fully overwrite them.
        let mut reused = EventParams::from_counters(&c, ConfigId::new(9), Workload::Spmv, 0.3);
        EventParams::from_counters_into(&c, ConfigId::new(3), Workload::Qsort, 0.08, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn zero_distortion_is_exact_and_nonzero_is_systematic() {
        let c = sample_counters();
        let exact = EventParams::from_counters(&c, ConfigId::new(2), Workload::Spmv, 0.0);
        let d1 = EventParams::from_counters(&c, ConfigId::new(2), Workload::Spmv, 0.1);
        let d2 = EventParams::from_counters(&c, ConfigId::new(2), Workload::Spmv, 0.1);
        assert_eq!(d1, d2, "distortion must be deterministic");
        assert_ne!(exact, d1);
        // Distortion is bounded: within ~40% for sigma=0.1.
        for (a, b) in exact.values().iter().zip(d1.values()) {
            if *a > 0.0 {
                assert!((b / a - 1.0).abs() < 0.4);
            }
        }
    }

    #[test]
    fn raw_rates_roundtrip_through_from_raw_rates() {
        let c = sample_counters();
        let raw = EventParams::raw_rates(&c);
        assert_eq!(raw.len(), EventParams::names().len());
        for distortion in [0.0, 0.08] {
            let direct =
                EventParams::from_counters(&c, ConfigId::new(7), Workload::Towers, distortion);
            let mut rebuilt = EventParams::empty();
            EventParams::from_raw_rates_into(
                &raw,
                ConfigId::new(7),
                Workload::Towers,
                distortion,
                &mut rebuilt,
            );
            assert_eq!(direct, rebuilt, "distortion {distortion} diverged");
        }
    }

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let a = sample_counters();
        let mut b = a;
        b.cycles += 50;
        b.committed += 40;
        b.dcache_misses += 3;
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 50);
        assert_eq!(d.committed, 40);
        assert_eq!(d.dcache_misses, 3);
        assert_eq!(d.fetched, 0);
    }

    #[test]
    fn every_component_has_event_features() {
        let p =
            EventParams::from_counters(&sample_counters(), ConfigId::new(1), Workload::Vvadd, 0.0);
        for c in Component::ALL {
            let mut f = Vec::new();
            p.component_features_into(c, &mut f);
            assert!(!f.is_empty());
            assert_eq!(f.len(), EventParams::component_feature_names(c).len());
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    #[should_panic(expected = "unknown event parameter")]
    fn unknown_event_name_panics() {
        let p =
            EventParams::from_counters(&sample_counters(), ConfigId::new(1), Workload::Vvadd, 0.0);
        let _ = p.value("no_such_event");
    }
}
