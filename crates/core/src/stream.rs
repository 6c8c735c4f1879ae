//! Bounded-memory streaming sweeps: fold a million-configuration design-space
//! walk into a fixed-size aggregate, checkpoint it mid-flight, and resume.
//!
//! [`SweepEngine::run`](crate::SweepEngine::run) materializes every
//! [`SweepPoint`] and sorts at the end — fine for `--count N` samples,
//! impossible for the full enumerable [`DesignSpace`](autopower_config::DesignSpace)
//! (hundreds of thousands to millions of points).  This module keeps the exact
//! same scoring path (`for_each_point`, byte-for-byte the same work and order)
//! but replaces retention with **streaming aggregation**:
//!
//! * [`SweepAggregator`] folds each configuration's workloads through the same
//!   [`config_summary`] fold the materialized path uses, then keeps only
//!   * a top-k table by energy per instruction that replicates
//!     [`rank_by_efficiency`](crate::rank_by_efficiency)'s stable sort bit for bit (same canonicalised
//!     key, ties broken by arrival order),
//!   * one deterministic [`QuantileSketch`] per power series (the four groups
//!     plus the total) with exact min/max, and
//!   * the running power-vs-IPC-vs-area [`ParetoFrontier`].
//!
//!   Memory is O(top-k + sketches + frontier), independent of how many
//!   configurations stream through.
//! * The aggregator state and a [`ChunkCursor`] serialize through the bit-exact
//!   text [`Codec`] (the PR 4 model-persistence substrate), giving an on-disk
//!   [`SweepCheckpoint`].  A sweep interrupted at a chunk boundary and resumed
//!   from its checkpoint reaches state **bit-identical** to an uninterrupted
//!   run, so the final report reproduces byte for byte.
//!
//! Determinism is load-bearing everywhere: sketch compaction is seedless and
//! counter-driven (not randomized as in textbook KLL), so the same point
//! stream always produces the same sketch — resumed or not, at any thread
//! count.  While a sketch has never compacted (the common case below ~10k
//! points per series at the default capacity) its quantiles are *exact*: the
//! nearest-rank quantiles of the materialized summaries.

use crate::error::AutoPowerError;
use crate::serialize::{decode_config, encode_config};
use crate::surrogate::AuditAccumulator;
use crate::sweep::{config_summary, efficiency_sort_key, ConfigSummary, SweepEngine, SweepPoint};
use autopower_config::{CpuConfig, HwParam, Workload};
use autopower_powersim::PowerGroups;
use serde::codec::{Codec, CodecError, Reader, Writer};
use std::cmp::Ordering;
use std::path::{Path, PathBuf};

/// Version tag of the checkpoint format; bumped on layout changes so a stale
/// file fails loudly instead of deserializing garbage.
pub const CHECKPOINT_FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Quantile sketches
// ---------------------------------------------------------------------------

/// A deterministic multi-level quantile sketch (KLL-style, seedless).
///
/// Values enter level 0 with weight 1.  When a level fills to its capacity it
/// is sorted and every other element is promoted to the next level with twice
/// the weight; the starting parity alternates per level via a compaction
/// counter, so long streams are not systematically biased toward either
/// neighbour.  All state transitions are pure functions of the input sequence
/// — no RNG — which is what lets a resumed sweep rebuild the exact sketch.
///
/// Until the first compaction the sketch holds every value and
/// [`QuantileSketch::quantile`] is **exact** (identical to nearest-rank over
/// the sorted series).  After compactions it is a bounded-error summary with
/// at most `levels * level_capacity` retained values.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    level_capacity: usize,
    levels: Vec<Vec<f64>>,
    compactions: Vec<u64>,
    count: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch whose levels compact at `level_capacity`
    /// retained values.
    ///
    /// # Panics
    ///
    /// Panics if `level_capacity < 8` (the error bound would be useless).
    pub fn new(level_capacity: usize) -> Self {
        assert!(level_capacity >= 8, "sketch level capacity must be >= 8");
        Self {
            level_capacity,
            levels: vec![Vec::new()],
            compactions: vec![0],
            count: 0,
        }
    }

    /// Folds one value into the sketch.
    pub fn insert(&mut self, value: f64) {
        self.count += 1;
        self.levels[0].push(value);
        if self.levels[0].len() >= self.level_capacity {
            self.compact(0);
        }
    }

    fn compact(&mut self, level: usize) {
        if self.levels.len() == level + 1 {
            self.levels.push(Vec::new());
            self.compactions.push(0);
        }
        let parity = (self.compactions[level] % 2) as usize;
        self.compactions[level] += 1;
        let mut buf = std::mem::take(&mut self.levels[level]);
        buf.sort_by(f64::total_cmp);
        self.levels[level + 1].extend(buf.iter().copied().skip(parity).step_by(2));
        if self.levels[level + 1].len() >= self.level_capacity {
            self.compact(level + 1);
        }
    }

    /// Number of values folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of values currently retained across all levels (the memory
    /// bound).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Whether the sketch still holds every inserted value, making
    /// [`QuantileSketch::quantile`] exact.
    pub fn is_exact(&self) -> bool {
        self.compactions.iter().all(|&c| c == 0)
    }

    /// The estimated `q`-quantile (`q` clamped to `[0, 1]`), or `None` while
    /// empty.
    ///
    /// Uses the nearest-rank rule — `round((n - 1) * q)` over the weighted
    /// sorted values — so an uncompacted sketch reproduces the nearest-rank
    /// quantiles of the materialized values bit for bit.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (level, values) in self.levels.iter().enumerate() {
            let weight = 1u64 << level;
            weighted.extend(values.iter().map(|&v| (v, weight)));
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let target = ((total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut cumulative = 0u64;
        for (value, weight) in weighted {
            cumulative += weight;
            if cumulative > target {
                return Some(value);
            }
        }
        unreachable!("target rank is below the total weight by construction")
    }
}

impl Codec for QuantileSketch {
    fn encode(&self, w: &mut Writer) {
        w.begin("sketch");
        w.u64("level_capacity", self.level_capacity as u64);
        w.u64("count", self.count);
        w.begin_list("compactions", self.compactions.len());
        for &c in &self.compactions {
            w.u64("n", c);
        }
        w.end();
        w.begin_list("levels", self.levels.len());
        for level in &self.levels {
            w.f64_seq("values", level);
        }
        w.end();
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("sketch")?;
        let capacity_line = r.line();
        let level_capacity = r.u64("level_capacity")? as usize;
        if level_capacity < 8 {
            return Err(CodecError::new(
                capacity_line,
                format!("sketch level capacity {level_capacity} below the minimum of 8"),
            ));
        }
        let count = r.u64("count")?;
        let n_compactions = r.begin_list("compactions")?;
        let mut compactions = Vec::with_capacity(n_compactions);
        for _ in 0..n_compactions {
            compactions.push(r.u64("n")?);
        }
        r.end()?;
        let shape_line = r.line();
        let n_levels = r.begin_list("levels")?;
        let mut levels = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            levels.push(r.f64_seq("values")?);
        }
        r.end()?;
        r.end()?;
        if levels.is_empty() || levels.len() != compactions.len() {
            return Err(CodecError::new(
                shape_line,
                format!(
                    "sketch has {} level(s) but {} compaction counter(s)",
                    levels.len(),
                    compactions.len()
                ),
            ));
        }
        Ok(Self {
            level_capacity,
            levels,
            compactions,
            count,
        })
    }
}

/// A [`QuantileSketch`] plus exact running min/max, tracking one power series
/// of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSketch {
    min: f64,
    max: f64,
    sketch: QuantileSketch,
}

impl SeriesSketch {
    fn new(level_capacity: usize) -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketch: QuantileSketch::new(level_capacity),
        }
    }

    fn insert(&mut self, value: f64) {
        // total_cmp keeps the extrema deterministic even for NaN inputs.
        if value.total_cmp(&self.min) == Ordering::Less {
            self.min = value;
        }
        if value.total_cmp(&self.max) == Ordering::Greater {
            self.max = value;
        }
        self.sketch.insert(value);
    }

    /// Exact minimum of the series so far, `None` while empty.
    pub fn min(&self) -> Option<f64> {
        (self.sketch.count() > 0).then_some(self.min)
    }

    /// Exact maximum of the series so far, `None` while empty.
    pub fn max(&self) -> Option<f64> {
        (self.sketch.count() > 0).then_some(self.max)
    }

    /// The estimated `q`-quantile (see [`QuantileSketch::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.sketch.quantile(q)
    }

    /// The underlying sketch.
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }
}

impl Codec for SeriesSketch {
    fn encode(&self, w: &mut Writer) {
        w.begin("series");
        w.f64("min", self.min);
        w.f64("max", self.max);
        self.sketch.encode(w);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("series")?;
        let min = r.f64("min")?;
        let max = r.f64("max")?;
        let sketch = QuantileSketch::decode(r)?;
        r.end()?;
        Ok(Self { min, max, sketch })
    }
}

/// The five power series a streaming sweep tracks: the four power groups plus
/// the total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerSeries {
    /// Clock-tree power.
    Clock,
    /// SRAM macro power.
    Sram,
    /// Register (sequential logic) power.
    Register,
    /// Combinational logic power.
    Combinational,
    /// Total power.
    Total,
}

impl PowerSeries {
    /// All series, group rows first, in the sweep report's row order.
    pub const ALL: [PowerSeries; 5] = [
        PowerSeries::Clock,
        PowerSeries::Sram,
        PowerSeries::Register,
        PowerSeries::Combinational,
        PowerSeries::Total,
    ];

    /// Stable row label of the sweep report's quantile table.
    pub fn label(self) -> &'static str {
        match self {
            PowerSeries::Clock => "clock",
            PowerSeries::Sram => "sram",
            PowerSeries::Register => "register",
            PowerSeries::Combinational => "combinational",
            PowerSeries::Total => "total",
        }
    }

    fn index(self) -> usize {
        match self {
            PowerSeries::Clock => 0,
            PowerSeries::Sram => 1,
            PowerSeries::Register => 2,
            PowerSeries::Combinational => 3,
            PowerSeries::Total => 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Area proxy + Pareto frontier
// ---------------------------------------------------------------------------

/// A deterministic area proxy for a configuration, in kilo-flop-bit
/// equivalents (kFBE).
///
/// The sweep has no physical design data for generated configurations, so the
/// Pareto frontier's third axis is a fixed structural estimate: storage
/// structures contribute their approximate flop-bit count (SRAM bits
/// discounted 20:1 for macro density), datapath width products stand in for
/// combinational area.  The weights are arbitrary but **frozen** — the proxy
/// is a pure function of the 14 hardware parameters, so frontier membership
/// is reproducible across runs, resumes and refactors.
pub fn area_proxy(config: &CpuConfig) -> f64 {
    let v = |p: HwParam| f64::from(config.value(p));
    // Architectural state: each entry carries its payload width in flop bits.
    let flop_bits = v(HwParam::RobEntry) * 70.0
        + (v(HwParam::IntPhyRegister) + v(HwParam::FpPhyRegister)) * 64.0
        + v(HwParam::LdqStqEntry) * 2.0 * 80.0
        + v(HwParam::FetchBufferEntry) * 140.0
        + v(HwParam::BranchCount) * 512.0;
    // SRAM structures: bits at 1/20 the area cost of a flop bit.
    let sram_bits = v(HwParam::CacheWay) * 2.0 * 4096.0 * 8.0
        + v(HwParam::DtlbEntry) * 2.0 * 60.0
        + v(HwParam::MshrEntry) * 100.0;
    // Datapath: decoder/issue crossbars grow with width products.
    let datapath = v(HwParam::FetchWidth) * 400.0
        + v(HwParam::DecodeWidth) * v(HwParam::IntIssueWidth) * 1500.0
        + v(HwParam::DecodeWidth) * v(HwParam::MemFpIssueWidth) * 800.0;
    (flop_bits + sram_bits / 20.0 + datapath) / 1000.0
}

/// One non-dominated configuration on the frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEntry {
    /// The configuration's per-workload summary.
    pub summary: ConfigSummary,
    /// Its [`area_proxy`] value, in kFBE.
    pub area: f64,
}

/// The running power-vs-IPC-vs-area non-dominated set of a sweep.
///
/// Objectives: minimize mean total power, maximize mean IPC, minimize the
/// [`area_proxy`].  Weak dominance — a candidate no better anywhere and tied
/// everywhere else is dominated — so exact ties keep the **first-seen**
/// configuration, making the frontier deterministic in stream order.
/// Configurations with a non-finite objective are skipped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoFrontier {
    entries: Vec<ParetoEntry>,
}

/// Whether objective vector `a` weakly dominates `b`.
fn dominates(a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    a.0 <= b.0 && a.1 >= b.1 && a.2 <= b.2
}

impl ParetoFrontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a configuration to the frontier; returns whether it was
    /// admitted (and any newly dominated incumbents evicted).
    pub fn offer(&mut self, summary: ConfigSummary) -> bool {
        let area = area_proxy(&summary.config);
        let candidate = (summary.mean_total, summary.mean_ipc, area);
        if !(candidate.0.is_finite() && candidate.1.is_finite() && candidate.2.is_finite()) {
            return false;
        }
        let objectives = |e: &ParetoEntry| (e.summary.mean_total, e.summary.mean_ipc, e.area);
        if self
            .entries
            .iter()
            .any(|e| dominates(objectives(e), candidate))
        {
            return false;
        }
        self.entries
            .retain(|e| !dominates(candidate, objectives(e)));
        self.entries.push(ParetoEntry { summary, area });
        true
    }

    /// The frontier in admission order.
    pub fn entries(&self) -> &[ParetoEntry] {
        &self.entries
    }

    /// The frontier sorted by mean total power ascending (ties by
    /// configuration id), the order the `pareto` report prints.
    pub fn sorted_by_power(&self) -> Vec<&ParetoEntry> {
        let mut sorted: Vec<&ParetoEntry> = self.entries.iter().collect();
        sorted.sort_by(|a, b| {
            a.summary
                .mean_total
                .total_cmp(&b.summary.mean_total)
                .then_with(|| {
                    a.summary
                        .config
                        .id
                        .index()
                        .cmp(&b.summary.config.id.index())
                })
        });
        sorted
    }

    /// Number of non-dominated configurations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The streaming aggregator
// ---------------------------------------------------------------------------

/// Feasibility constraints applied to candidates **before** they are offered
/// to the Pareto frontier.
///
/// Filtering happens pre-fold, so the reported frontier is by construction
/// the Pareto frontier *of the feasible set*: every retained entry satisfies
/// the bounds, and infeasible candidates never enter the dominance tests or
/// inflate the retained state.  (For these bound directions — a power cap and
/// an IPC floor — any dominator of a feasible point is itself feasible, so
/// the result also coincides with filtering afterwards; pre-filtering keeps
/// the memory bound and makes the scoping explicit rather than accidental.)
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParetoConstraints {
    /// Upper bound on mean predicted total power in mW, inclusive.
    pub max_power: Option<f64>,
    /// Lower bound on mean simulated IPC, inclusive.
    pub min_ipc: Option<f64>,
}

impl ParetoConstraints {
    /// Whether a summary satisfies every present constraint.
    pub fn admits(&self, summary: &ConfigSummary) -> bool {
        self.max_power.is_none_or(|p| summary.mean_total <= p)
            && self.min_ipc.is_none_or(|i| summary.mean_ipc >= i)
    }

    /// Whether any constraint is present.
    pub fn is_constrained(&self) -> bool {
        self.max_power.is_some() || self.min_ipc.is_some()
    }

    /// Validates the bounds: a present `max_power` must be finite and
    /// positive, a present `min_ipc` finite and non-negative (anything else —
    /// NaN, a non-positive power cap, a negative or infinite IPC floor —
    /// excludes every physical configuration or nothing definable, and is
    /// refused up front).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first offending bound;
    /// the CLI reports it at parse time, library callers wrap it in
    /// [`AutoPowerError::Surrogate`]-style input errors of their own.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(p) = self.max_power {
            if !p.is_finite() || p <= 0.0 {
                return Err(format!(
                    "--max-power must be a finite positive power bound in mW, got {p}"
                ));
            }
        }
        if let Some(i) = self.min_ipc {
            if !i.is_finite() || i < 0.0 {
                return Err(format!(
                    "--min-ipc must be a finite non-negative IPC bound, got {i}"
                ));
            }
        }
        Ok(())
    }
}

/// Aggregation knobs of a streaming sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Configurations retained in the energy-efficiency top-k table.
    pub top_k: usize,
    /// Per-level capacity of each power-series [`QuantileSketch`].
    pub sketch_level_capacity: usize,
}

impl Default for StreamSpec {
    fn default() -> Self {
        Self {
            top_k: 10,
            sketch_level_capacity: 1024,
        }
    }
}

/// A retained top-k summary plus its arrival sequence number (the stable-sort
/// tie-breaker).
#[derive(Debug, Clone, PartialEq)]
struct TopEntry {
    seq: u64,
    summary: ConfigSummary,
}

/// Bounded-memory fold of a configuration-major sweep point stream.
///
/// Feed it every [`SweepPoint`] of a sweep in emission order (workloads of one
/// configuration contiguous, the order [`SweepEngine::for_each_point`]
/// guarantees); it folds each completed configuration through the shared
/// [`config_summary`] and retains only the top-k table, the per-series
/// sketches and the Pareto frontier.  Equality with the materialized path is
/// bit-exact:
///
/// * summaries come from the *same* fold as [`summarize`](crate::summarize),
/// * the top-k table equals `rank_by_efficiency(&summaries)[..k]` — same
///   canonicalised key, and ties keep the earlier configuration exactly like
///   a stable sort of the arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAggregator {
    per_config: usize,
    top_k: usize,
    partial: Vec<SweepPoint>,
    configs: u64,
    groups_resolved: bool,
    series: Vec<SeriesSketch>,
    top: Vec<TopEntry>,
    pareto: ParetoFrontier,
    constraints: ParetoConstraints,
}

impl SweepAggregator {
    /// Creates an empty aggregator for sweeps scoring `per_config` workloads
    /// per configuration.
    ///
    /// # Panics
    ///
    /// Panics if `per_config` or `spec.top_k` is zero.
    pub fn new(per_config: usize, spec: &StreamSpec) -> Self {
        assert!(
            per_config > 0,
            "need at least one workload per configuration"
        );
        assert!(spec.top_k > 0, "top-k retention needs k >= 1");
        Self {
            per_config,
            top_k: spec.top_k,
            partial: Vec::with_capacity(per_config),
            configs: 0,
            groups_resolved: true,
            series: PowerSeries::ALL
                .iter()
                .map(|_| SeriesSketch::new(spec.sketch_level_capacity))
                .collect(),
            top: Vec::with_capacity(spec.top_k + 1),
            pareto: ParetoFrontier::new(),
            constraints: ParetoConstraints::default(),
        }
    }

    /// Same aggregator with feasibility constraints applied to every summary
    /// before it is offered to the Pareto frontier.  The top-k table and the
    /// power-series sketches still fold **all** summaries — the constraints
    /// scope the frontier, not the sweep statistics.
    ///
    /// # Panics
    ///
    /// Panics if the constraints fail [`ParetoConstraints::validate`]
    /// (callers validate user input before building an aggregator).
    pub fn with_pareto_constraints(mut self, constraints: ParetoConstraints) -> Self {
        if let Err(message) = constraints.validate() {
            panic!("invalid pareto constraints: {message}");
        }
        self.constraints = constraints;
        self
    }

    /// The feasibility constraints scoping the Pareto frontier.
    pub fn pareto_constraints(&self) -> &ParetoConstraints {
        &self.constraints
    }

    /// Folds one sweep point.  Workloads of a configuration must arrive
    /// contiguously; the configuration is folded when its last workload
    /// arrives.
    pub fn push(&mut self, point: SweepPoint) {
        if let Some(first) = self.partial.first() {
            assert_eq!(
                first.config.id, point.config.id,
                "points of one configuration must arrive contiguously"
            );
        }
        self.partial.push(point);
        if self.partial.len() == self.per_config {
            let summary = config_summary(&self.partial);
            self.partial.clear();
            self.push_summary(summary);
        }
    }

    /// Folds one already-summarized configuration.
    pub fn push_summary(&mut self, summary: ConfigSummary) {
        let seq = self.configs;
        self.configs += 1;
        match summary.mean_groups {
            Some(g) => {
                self.series[PowerSeries::Clock.index()].insert(g.clock);
                self.series[PowerSeries::Sram.index()].insert(g.sram);
                self.series[PowerSeries::Register.index()].insert(g.register);
                self.series[PowerSeries::Combinational.index()].insert(g.combinational);
            }
            None => self.groups_resolved = false,
        }
        self.series[PowerSeries::Total.index()].insert(summary.mean_total);

        // Insert-sorted by (canonical efficiency key, arrival order): the
        // first k entries of this order are exactly what a stable sort of all
        // summaries would put first, so the table matches
        // rank_by_efficiency(...)[..k] bit for bit.
        let key = efficiency_sort_key(summary.energy_per_instruction);
        let pos = self.top.partition_point(|e| {
            match efficiency_sort_key(e.summary.energy_per_instruction).total_cmp(&key) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => e.seq < seq,
            }
        });
        if pos < self.top_k {
            self.top.insert(pos, TopEntry { seq, summary });
            self.top.truncate(self.top_k);
        }

        // Constraint filtering happens before the frontier fold: an
        // infeasible summary must not get the chance to dominate and evict a
        // feasible one.
        if self.constraints.admits(&summary) {
            self.pareto.offer(summary);
        }
    }

    /// Number of whole configurations folded so far.
    pub fn configs_folded(&self) -> u64 {
        self.configs
    }

    /// Workloads of the configuration currently mid-fold (zero exactly at
    /// configuration boundaries — the only places a checkpoint may be taken).
    pub fn pending_points(&self) -> usize {
        self.partial.len()
    }

    /// Workloads per configuration this aggregator folds.
    pub fn per_config(&self) -> usize {
        self.per_config
    }

    /// The top-k retention size.
    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Whether every folded configuration resolved per-group power (vacuously
    /// true before the first fold), mirroring
    /// [`ConfigSummary::mean_groups`]`.is_some()` of the materialized path.
    pub fn resolves_groups(&self) -> bool {
        self.groups_resolved
    }

    /// The retained best-efficiency summaries, best first — bit-identical to
    /// `rank_by_efficiency(&all_summaries)` truncated to k.
    pub fn top(&self) -> Vec<&ConfigSummary> {
        self.top.iter().map(|e| &e.summary).collect()
    }

    /// The sketch tracking one power series.  Group series are only
    /// meaningful while [`SweepAggregator::resolves_groups`] holds.
    pub fn series(&self, series: PowerSeries) -> &SeriesSketch {
        &self.series[series.index()]
    }

    /// The running Pareto frontier.
    pub fn pareto(&self) -> &ParetoFrontier {
        &self.pareto
    }

    /// Total values currently retained across all bounded structures (the
    /// aggregator's memory footprint in retained values, reported by the
    /// streaming bench).
    pub fn retained_state(&self) -> usize {
        self.partial.len()
            + self.top.len()
            + self.pareto.len()
            + self
                .series
                .iter()
                .map(|s| s.sketch().retained())
                .sum::<usize>()
    }
}

fn encode_summary(w: &mut Writer, summary: &ConfigSummary) {
    w.begin("summary");
    encode_config(w, &summary.config);
    match summary.mean_groups {
        Some(g) => {
            w.bool("has_groups", true);
            w.f64("clock", g.clock);
            w.f64("sram", g.sram);
            w.f64("register", g.register);
            w.f64("combinational", g.combinational);
        }
        None => w.bool("has_groups", false),
    }
    w.f64("mean_total", summary.mean_total);
    w.f64("mean_ipc", summary.mean_ipc);
    w.f64("energy_per_instruction", summary.energy_per_instruction);
    w.end();
}

fn decode_summary(r: &mut Reader<'_>) -> Result<ConfigSummary, CodecError> {
    r.begin("summary")?;
    let config = decode_config(r)?;
    let mean_groups = if r.bool("has_groups")? {
        Some(PowerGroups {
            clock: r.f64("clock")?,
            sram: r.f64("sram")?,
            register: r.f64("register")?,
            combinational: r.f64("combinational")?,
        })
    } else {
        None
    };
    let mean_total = r.f64("mean_total")?;
    let mean_ipc = r.f64("mean_ipc")?;
    let energy_per_instruction = r.f64("energy_per_instruction")?;
    r.end()?;
    Ok(ConfigSummary {
        config,
        mean_total,
        mean_groups,
        mean_ipc,
        energy_per_instruction,
    })
}

impl Codec for SweepAggregator {
    fn encode(&self, w: &mut Writer) {
        w.begin("aggregator");
        w.u64("per_config", self.per_config as u64);
        w.u64("top_k", self.top_k as u64);
        // The partial buffer is intentionally not serialized: checkpoints are
        // only valid at configuration boundaries.  Recording the count makes
        // a mid-configuration encode fail loudly at decode time instead of
        // silently dropping points.
        w.u64("pending_points", self.partial.len() as u64);
        w.u64("configs", self.configs);
        w.bool("groups_resolved", self.groups_resolved);
        w.begin_list("series", self.series.len());
        for series in &self.series {
            series.encode(w);
        }
        w.end();
        w.begin_list("top", self.top.len());
        for entry in &self.top {
            w.begin("entry");
            w.u64("seq", entry.seq);
            encode_summary(w, &entry.summary);
            w.end();
        }
        w.end();
        w.begin_list("pareto", self.pareto.entries.len());
        for entry in &self.pareto.entries {
            w.begin("entry");
            w.f64("area", entry.area);
            encode_summary(w, &entry.summary);
            w.end();
        }
        w.end();
        // Optional trailing section: written only when constraints are
        // present, so unconstrained aggregators encode byte-identically to
        // the pre-constraint format (and old checkpoints decode).
        if self.constraints.is_constrained() {
            w.begin("constraints");
            match self.constraints.max_power {
                Some(p) => {
                    w.bool("has_max_power", true);
                    w.f64("max_power", p);
                }
                None => w.bool("has_max_power", false),
            }
            match self.constraints.min_ipc {
                Some(i) => {
                    w.bool("has_min_ipc", true);
                    w.f64("min_ipc", i);
                }
                None => w.bool("has_min_ipc", false),
            }
            w.end();
        }
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("aggregator")?;
        let arity_line = r.line();
        let per_config = r.u64("per_config")? as usize;
        let top_k = r.u64("top_k")? as usize;
        if per_config == 0 || top_k == 0 {
            return Err(CodecError::new(
                arity_line,
                "aggregator arity fields must be positive",
            ));
        }
        let pending_line = r.line();
        let pending = r.u64("pending_points")?;
        if pending != 0 {
            return Err(CodecError::new(
                pending_line,
                format!(
                    "aggregator was encoded mid-configuration ({pending} pending point(s)); \
                     checkpoints are only valid at configuration boundaries"
                ),
            ));
        }
        let configs = r.u64("configs")?;
        let groups_resolved = r.bool("groups_resolved")?;
        let series_line = r.line();
        let n_series = r.begin_list("series")?;
        if n_series != PowerSeries::ALL.len() {
            return Err(CodecError::new(
                series_line,
                format!(
                    "expected {} power series, found {n_series}",
                    PowerSeries::ALL.len()
                ),
            ));
        }
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            series.push(SeriesSketch::decode(r)?);
        }
        r.end()?;
        let top_line = r.line();
        let n_top = r.begin_list("top")?;
        if n_top > top_k {
            return Err(CodecError::new(
                top_line,
                format!("top table holds {n_top} entries but k is {top_k}"),
            ));
        }
        let mut top = Vec::with_capacity(n_top);
        for _ in 0..n_top {
            r.begin("entry")?;
            let seq = r.u64("seq")?;
            let summary = decode_summary(r)?;
            r.end()?;
            top.push(TopEntry { seq, summary });
        }
        r.end()?;
        let n_pareto = r.begin_list("pareto")?;
        let mut entries = Vec::with_capacity(n_pareto);
        for _ in 0..n_pareto {
            r.begin("entry")?;
            let area = r.f64("area")?;
            let summary = decode_summary(r)?;
            r.end()?;
            entries.push(ParetoEntry { summary, area });
        }
        r.end()?;
        let mut constraints = ParetoConstraints::default();
        if r.try_begin("constraints")? {
            if r.bool("has_max_power")? {
                constraints.max_power = Some(r.f64("max_power")?);
            }
            if r.bool("has_min_ipc")? {
                constraints.min_ipc = Some(r.f64("min_ipc")?);
            }
            r.end()?;
        }
        r.end()?;
        Ok(Self {
            per_config,
            top_k,
            partial: Vec::with_capacity(per_config),
            configs,
            groups_resolved,
            series,
            top,
            pareto: ParetoFrontier { entries },
            constraints,
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Position of a streaming sweep in its configuration source: how many
/// configurations have been fully folded (the enumeration/sample offset the
/// next chunk starts at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkCursor {
    /// Configurations completed so far.
    pub offset: u64,
}

impl Codec for ChunkCursor {
    fn encode(&self, w: &mut Writer) {
        w.begin("cursor");
        w.u64("offset", self.offset);
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("cursor")?;
        let offset = r.u64("offset")?;
        r.end()?;
        Ok(Self { offset })
    }
}

/// An on-disk snapshot of a streaming sweep at a chunk boundary: where it was
/// ([`ChunkCursor`]) and everything it had folded ([`SweepAggregator`]),
/// guarded by a fingerprint of the sweep's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Caller-computed fingerprint of the sweep inputs (space, workloads,
    /// model, settings); resume must refuse a checkpoint whose fingerprint
    /// does not match the sweep being resumed.
    pub fingerprint: u64,
    /// Where the sweep stopped.
    pub cursor: ChunkCursor,
    /// Everything folded so far.
    pub aggregator: SweepAggregator,
    /// Surrogate audit-error accumulation at the checkpoint, `Some` exactly
    /// for surrogate-backed sweeps.  Joins the snapshot so a resumed sweep's
    /// audit table is bit-identical to an uninterrupted run's.
    pub audit: Option<AuditAccumulator>,
}

impl Codec for SweepCheckpoint {
    fn encode(&self, w: &mut Writer) {
        w.begin("sweep-checkpoint");
        w.u64("version", CHECKPOINT_FORMAT_VERSION);
        w.u64("fingerprint", self.fingerprint);
        self.cursor.encode(w);
        self.aggregator.encode(w);
        // Optional trailing section: exact-backend checkpoints encode
        // byte-identically to the pre-surrogate format, and old checkpoints
        // decode with no audit state.
        if let Some(audit) = &self.audit {
            audit.encode(w);
        }
        w.end();
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.begin("sweep-checkpoint")?;
        let version_line = r.line();
        let version = r.u64("version")?;
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(CodecError::new(
                version_line,
                format!(
                    "unsupported checkpoint version {version} (this build reads version \
                     {CHECKPOINT_FORMAT_VERSION})"
                ),
            ));
        }
        let fingerprint = r.u64("fingerprint")?;
        let cursor = ChunkCursor::decode(r)?;
        let aggregator = SweepAggregator::decode(r)?;
        let audit = if r.try_begin("audit")? {
            Some(AuditAccumulator::decode_fields(r)?)
        } else {
            None
        };
        r.end()?;
        Ok(Self {
            fingerprint,
            cursor,
            aggregator,
            audit,
        })
    }
}

/// Serializes a checkpoint to its text form.
pub fn encode_checkpoint(checkpoint: &SweepCheckpoint) -> String {
    let mut w = Writer::new();
    checkpoint.encode(&mut w);
    w.finish()
}

/// Parses [`encode_checkpoint`] text.
///
/// # Errors
///
/// Returns [`AutoPowerError::Checkpoint`] on a malformed stream or version
/// mismatch.
pub fn decode_checkpoint(text: &str) -> Result<SweepCheckpoint, AutoPowerError> {
    let mut r = Reader::new(text);
    let checkpoint = SweepCheckpoint::decode(&mut r).map_err(checkpoint_err)?;
    r.expect_eof().map_err(checkpoint_err)?;
    Ok(checkpoint)
}

fn checkpoint_err(e: CodecError) -> AutoPowerError {
    AutoPowerError::Checkpoint(e.to_string())
}

/// Atomically writes a checkpoint to `path` (temp file + rename, so an
/// interrupted write can never leave a truncated checkpoint behind).
///
/// # Errors
///
/// Returns [`AutoPowerError::Checkpoint`] if the aggregator is
/// mid-configuration ([`SweepAggregator::pending_points`] non-zero) or the
/// file cannot be written.
pub fn save_checkpoint(
    checkpoint: &SweepCheckpoint,
    path: impl AsRef<Path>,
) -> Result<(), AutoPowerError> {
    save_checkpoint_with(checkpoint, path, |tmp, text| std::fs::write(tmp, text))
}

/// [`save_checkpoint`] with an injectable temp-file writer — the seam the
/// chaos tests use to tear a checkpoint write at a chosen byte offset.  The
/// writer receives the temp path and the full encoded text; the rename into
/// `path` happens only when it returns `Ok`, exactly mirroring a process
/// killed mid-write (torn temp file, untouched main file).
///
/// # Errors
///
/// Returns [`AutoPowerError::Checkpoint`] if the aggregator is
/// mid-configuration ([`SweepAggregator::pending_points`] non-zero), the
/// writer fails, or the rename fails.
pub fn save_checkpoint_with(
    checkpoint: &SweepCheckpoint,
    path: impl AsRef<Path>,
    write: impl FnOnce(&Path, &str) -> std::io::Result<()>,
) -> Result<(), AutoPowerError> {
    let path = path.as_ref();
    if checkpoint.aggregator.pending_points() != 0 {
        return Err(AutoPowerError::Checkpoint(format!(
            "cannot checkpoint mid-configuration ({} pending point(s))",
            checkpoint.aggregator.pending_points()
        )));
    }
    let tmp = sibling_tmp(path);
    write(&tmp, &encode_checkpoint(checkpoint))
        .map_err(|e| AutoPowerError::Checkpoint(format!("writing {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| AutoPowerError::Checkpoint(format!("renaming into {}: {e}", path.display())))
}

/// The temp-file sibling [`save_checkpoint`] stages writes through.
fn sibling_tmp(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Loads a checkpoint written by [`save_checkpoint`].
///
/// # Errors
///
/// Returns [`AutoPowerError::Checkpoint`] if the file cannot be read or does
/// not parse.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<SweepCheckpoint, AutoPowerError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| AutoPowerError::Checkpoint(format!("reading {}: {e}", path.display())))?;
    decode_checkpoint(&text)
}

/// What [`load_checkpoint_salvaged`] had to do when the main checkpoint file
/// was not usable as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSalvage {
    /// The file the returned checkpoint was actually read from.
    pub path: PathBuf,
    /// Human-readable account of what was wrong and what was recovered.
    pub reason: String,
}

/// Crash-safe [`load_checkpoint`]: when the main file is torn or missing, or
/// the `.tmp` sibling left behind by a writer killed between write and rename
/// holds a *newer* durable cursor, recover the last durable state instead of
/// failing.  Returns the checkpoint plus `Some(CheckpointSalvage)` whenever
/// anything other than a clean main file was used — callers surface that to
/// the operator.
///
/// `expected_fingerprint` guards salvage: a sibling is only ever adopted when
/// its fingerprint matches (pass `None` to accept any).  A clean main file
/// with a *mismatched* fingerprint is still returned (with no salvage) so
/// callers keep reporting their own, more specific mismatch error.
///
/// The invariant chaos tests pin: for a writer killed at **any** byte offset,
/// this either returns the last durably completed checkpoint or refuses
/// loudly — it never fabricates or silently rewinds state.
///
/// # Errors
///
/// Returns [`AutoPowerError::Checkpoint`] when neither the main file nor a
/// fingerprint-matching sibling holds a complete checkpoint; the message
/// names the main file.
pub fn load_checkpoint_salvaged(
    path: impl AsRef<Path>,
    expected_fingerprint: Option<u64>,
) -> Result<(SweepCheckpoint, Option<CheckpointSalvage>), AutoPowerError> {
    let path = path.as_ref();
    let tmp = sibling_tmp(path);
    let matches = |cp: &SweepCheckpoint| expected_fingerprint.is_none_or(|fp| cp.fingerprint == fp);
    let main = load_checkpoint(path);
    let sibling = load_checkpoint(&tmp);
    match (main, sibling) {
        (Ok(main_cp), Ok(tmp_cp)) => {
            if matches(&tmp_cp) && tmp_cp.cursor.offset > main_cp.cursor.offset {
                // Crash between write and rename: the sibling is the newer
                // durable state.
                let reason = format!(
                    "sibling {} holds a newer durable cursor (offset {}) than {} (offset {}); \
                     the previous run was interrupted between write and rename",
                    tmp.display(),
                    tmp_cp.cursor.offset,
                    path.display(),
                    main_cp.cursor.offset,
                );
                Ok((tmp_cp, Some(CheckpointSalvage { path: tmp, reason })))
            } else if matches(&tmp_cp) && !matches(&main_cp) {
                let reason = format!(
                    "{} belongs to a different sweep; recovered sibling {} (offset {}) instead",
                    path.display(),
                    tmp.display(),
                    tmp_cp.cursor.offset,
                );
                Ok((tmp_cp, Some(CheckpointSalvage { path: tmp, reason })))
            } else {
                Ok((main_cp, None))
            }
        }
        // A torn sibling next to a clean main file is the normal debris of a
        // writer killed mid-write: the main file is the last durable state.
        (Ok(main_cp), Err(_)) => Ok((main_cp, None)),
        (Err(main_err), Ok(tmp_cp)) if matches(&tmp_cp) => {
            let reason = format!(
                "{} is unreadable ({main_err}); recovered sibling {} at offset {}",
                path.display(),
                tmp.display(),
                tmp_cp.cursor.offset,
            );
            Ok((tmp_cp, Some(CheckpointSalvage { path: tmp, reason })))
        }
        (Err(main_err), _) => Err(main_err),
    }
}

// ---------------------------------------------------------------------------
// The streaming driver
// ---------------------------------------------------------------------------

/// What a [`SweepEngine::stream`] call processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProgress {
    /// Configurations folded by this call (excluding resumed prior state).
    pub configs_streamed: u64,
    /// Chunks completed by this call.
    pub chunks: u64,
    /// Peak number of [`SweepPoint`]s materialized at once — one chunk's
    /// worth, the streaming path's point-memory high-water mark (compare with
    /// `configs × workloads` for the materializing path).
    pub peak_retained_points: usize,
    /// Whether the configuration source was exhausted (`false` when the
    /// `after_chunk` callback stopped the sweep early).
    pub complete: bool,
}

impl SweepEngine<'_> {
    /// Streams configurations through the aggregator in bounded-memory
    /// chunks.
    ///
    /// Pulls [`SweepSpec::chunk_configs`](crate::SweepSpec)-sized chunks from
    /// `configs`, scores each chunk via the same
    /// [`for_each_point`](SweepEngine::for_each_point) path as the
    /// materializing sweep (bit-identical points, serial or parallel), and
    /// folds every point into `aggregator`.  After each completed chunk —
    /// with the aggregator guaranteed at a configuration boundary —
    /// `after_chunk` is called with the aggregator and the cumulative number
    /// of configurations this call has folded; returning `Ok(false)` stops
    /// the sweep early (the checkpoint-interrupt hook), and an error aborts
    /// it.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `after_chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `aggregator` was built for a different workload count.
    pub fn stream(
        &self,
        configs: impl IntoIterator<Item = CpuConfig>,
        workloads: &[Workload],
        aggregator: &mut SweepAggregator,
        mut after_chunk: impl FnMut(&SweepAggregator, u64) -> Result<bool, AutoPowerError>,
    ) -> Result<StreamProgress, AutoPowerError> {
        assert_eq!(
            aggregator.per_config(),
            workloads.len(),
            "aggregator workload arity does not match the sweep"
        );
        let chunk = self.spec().chunk_configs.max(1);
        let mut source = configs.into_iter();
        let mut buffer: Vec<CpuConfig> = Vec::with_capacity(chunk);
        let mut progress = StreamProgress {
            configs_streamed: 0,
            chunks: 0,
            peak_retained_points: 0,
            complete: false,
        };
        loop {
            buffer.clear();
            buffer.extend(source.by_ref().take(chunk));
            if buffer.is_empty() {
                progress.complete = true;
                return Ok(progress);
            }
            progress.peak_retained_points = progress
                .peak_retained_points
                .max(buffer.len() * workloads.len());
            self.for_each_point(&buffer, workloads, |point| aggregator.push(point));
            debug_assert_eq!(
                aggregator.pending_points(),
                0,
                "a whole chunk must leave the aggregator at a configuration boundary"
            );
            progress.configs_streamed += buffer.len() as u64;
            progress.chunks += 1;
            if !after_chunk(aggregator, progress.configs_streamed)? {
                // Stopped early; peek whether the source happened to be done.
                progress.complete = source.next().is_none();
                return Ok(progress);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Corpus, CorpusSpec};
    use crate::model::AutoPower;
    use crate::power_model::ModelKind;
    use crate::prediction::Prediction;
    use crate::sweep::{rank_by_efficiency, summarize, SweepSpec};
    use autopower_config::{boom_configs, ConfigId, DesignSpace, Workload};

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: &T) -> T {
        let mut w = Writer::new();
        value.encode(&mut w);
        let text = w.finish();
        let mut r = Reader::new(&text);
        let decoded = T::decode(&mut r).expect("roundtrip decode");
        r.expect_eof().expect("trailing content after decode");
        decoded
    }

    fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn uncompacted_sketch_is_exact() {
        let mut sketch = QuantileSketch::new(64);
        let values: Vec<f64> = (0..50).map(|i| ((i * 37) % 50) as f64).collect();
        for &v in &values {
            sketch.insert(v);
        }
        assert!(sketch.is_exact());
        assert_eq!(sketch.count(), 50);
        let mut sorted = values;
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(sketch.quantile(q), Some(nearest_rank(&sorted, q)));
        }
    }

    #[test]
    fn compacted_sketch_stays_bounded_and_close() {
        let mut sketch = QuantileSketch::new(32);
        let n = 10_000;
        for i in 0..n {
            // A deterministic permutation of 0..n via a co-prime stride.
            sketch.insert(((i * 7919) % n) as f64);
        }
        assert!(!sketch.is_exact());
        assert_eq!(sketch.count(), n as u64);
        // Memory stays O(levels * capacity) despite 10k inserts.
        assert!(sketch.retained() <= 32 * sketch.levels.len());
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let estimate = sketch.quantile(q).unwrap();
            let truth = (n - 1) as f64 * q;
            assert!(
                (estimate - truth).abs() < n as f64 * 0.08,
                "q={q}: estimate {estimate} too far from {truth}"
            );
        }
    }

    #[test]
    fn sketch_is_deterministic_and_roundtrips() {
        let feed = |sketch: &mut QuantileSketch| {
            for i in 0..5_000u64 {
                sketch.insert(((i * 31) % 997) as f64);
            }
        };
        let mut a = QuantileSketch::new(64);
        let mut b = QuantileSketch::new(64);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(a, b, "same input stream must build the same sketch");
        // Codec roundtrip restores the sketch bit for bit, and continuing to
        // feed the restored sketch matches continuing the original.
        let mut restored = roundtrip(&a);
        assert_eq!(restored, a);
        feed(&mut a);
        feed(&mut restored);
        assert_eq!(restored, a);
    }

    #[test]
    fn series_sketch_tracks_exact_extrema() {
        let mut series = SeriesSketch::new(16);
        assert_eq!(series.min(), None);
        assert_eq!(series.max(), None);
        for i in 0..200 {
            series.insert(((i * 131) % 200) as f64 - 50.0);
        }
        assert_eq!(series.min(), Some(-50.0));
        assert_eq!(series.max(), Some(149.0));
        assert_eq!(roundtrip(&series), series);
    }

    fn summary(id: u32, total: f64, ipc: f64, epi: f64) -> ConfigSummary {
        let mut config = boom_configs()[0];
        config.id = ConfigId::generated(id);
        ConfigSummary {
            config,
            mean_total: total,
            mean_groups: None,
            mean_ipc: ipc,
            energy_per_instruction: epi,
        }
    }

    #[test]
    fn top_k_matches_stable_sort_truncation_with_ties_and_nans() {
        let spec = StreamSpec {
            top_k: 3,
            sketch_level_capacity: 8,
        };
        let mut agg = SweepAggregator::new(1, &spec);
        let negative_nan = f64::from_bits(0xfff8_0000_0000_0001);
        let epis = [2.0, 1.0, 1.0, f64::NAN, 0.5, negative_nan, 1.0, 3.0];
        let summaries: Vec<ConfigSummary> = epis
            .iter()
            .enumerate()
            .map(|(i, &epi)| summary(i as u32 + 1, 1.0, 1.0, epi))
            .collect();
        for s in &summaries {
            agg.push_summary(*s);
        }
        let expected: Vec<&ConfigSummary> =
            rank_by_efficiency(&summaries).into_iter().take(3).collect();
        let got = agg.top();
        assert_eq!(got.len(), 3);
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.config.id, e.config.id, "tie-break order diverged");
            assert_eq!(
                g.energy_per_instruction.to_bits(),
                e.energy_per_instruction.to_bits()
            );
        }
    }

    #[test]
    fn aggregator_matches_materialized_summaries_bit_for_bit() {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let model = AutoPower::train(&corpus, &[ConfigId::new(1), ConfigId::new(15)]).unwrap();
        let configs = DesignSpace::boom().sample(7, 23);
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let engine = SweepEngine::new(&model, SweepSpec::fast().threads(1));
        let points = engine.run(&configs, &workloads);
        let summaries = summarize(&points, workloads.len());

        let spec = StreamSpec {
            top_k: 4,
            sketch_level_capacity: 64,
        };
        let mut agg = SweepAggregator::new(workloads.len(), &spec);
        for p in &points {
            agg.push(p.clone());
        }
        assert_eq!(agg.configs_folded(), configs.len() as u64);
        assert_eq!(agg.pending_points(), 0);
        assert!(agg.resolves_groups());

        // Top-k is the stable-sorted ranking truncated to k.
        let expected: Vec<&ConfigSummary> =
            rank_by_efficiency(&summaries).into_iter().take(4).collect();
        assert_eq!(agg.top(), expected);

        // Exact quantiles (no compaction at this scale) equal nearest-rank
        // over the materialized totals.
        let mut totals: Vec<f64> = summaries.iter().map(|s| s.mean_total).collect();
        totals.sort_by(f64::total_cmp);
        let total_series = agg.series(PowerSeries::Total);
        assert!(total_series.sketch().is_exact());
        assert_eq!(total_series.min(), Some(totals[0]));
        assert_eq!(total_series.max(), Some(*totals.last().unwrap()));
        for q in [0.25, 0.5, 0.75] {
            assert_eq!(total_series.quantile(q), Some(nearest_rank(&totals, q)));
        }

        // Aggregator state roundtrips bit for bit through the codec.
        assert_eq!(roundtrip(&agg), agg);
    }

    #[test]
    fn total_only_points_clear_the_groups_flag() {
        let spec = StreamSpec::default();
        let mut agg = SweepAggregator::new(1, &spec);
        let mut config = boom_configs()[0];
        config.id = ConfigId::generated(1);
        agg.push(SweepPoint {
            config,
            workload: Workload::Dhrystone,
            power: Prediction::total_only(3.5),
            ipc: 1.0,
        });
        assert!(!agg.resolves_groups());
        assert_eq!(agg.series(PowerSeries::Total).min(), Some(3.5));
        assert_eq!(agg.series(PowerSeries::Clock).min(), None);
    }

    #[test]
    #[should_panic(expected = "contiguously")]
    fn interleaved_configurations_panic() {
        let mut agg = SweepAggregator::new(2, &StreamSpec::default());
        let mut a = boom_configs()[0];
        a.id = ConfigId::generated(1);
        let mut b = boom_configs()[1];
        b.id = ConfigId::generated(2);
        let point = |config| SweepPoint {
            config,
            workload: Workload::Dhrystone,
            power: Prediction::total_only(1.0),
            ipc: 1.0,
        };
        agg.push(point(a));
        agg.push(point(b));
    }

    #[test]
    fn pareto_frontier_is_mutually_non_dominated_and_first_seen_wins() {
        let mut frontier = ParetoFrontier::new();
        // (total, ipc) pairs; area is a pure function of the (identical)
        // parameters, so dominance reduces to power/IPC here.
        assert!(frontier.offer(summary(1, 10.0, 1.0, 10.0)));
        // Strictly better on power: admitted, evicts nothing (better IPC too).
        assert!(frontier.offer(summary(2, 8.0, 1.2, 6.7)));
        assert!(!frontier
            .entries()
            .iter()
            .any(|e| e.summary.config.id == ConfigId::generated(1)));
        // Dominated: rejected.
        assert!(!frontier.offer(summary(3, 9.0, 1.1, 8.2)));
        // Trade-off (more power, more IPC): admitted.
        assert!(frontier.offer(summary(4, 9.5, 2.0, 4.8)));
        // Exact tie with an incumbent: first-seen wins.
        assert!(!frontier.offer(summary(5, 8.0, 1.2, 6.7)));
        // Non-finite objectives are skipped.
        assert!(!frontier.offer(summary(6, f64::NAN, 1.0, f64::NAN)));
        assert_eq!(frontier.len(), 2);
        for a in frontier.entries() {
            for b in frontier.entries() {
                let obj = |e: &ParetoEntry| (e.summary.mean_total, e.summary.mean_ipc, e.area);
                assert!(
                    std::ptr::eq(a, b) || !dominates(obj(a), obj(b)),
                    "frontier contains a dominated entry"
                );
            }
        }
        // Report order: by power ascending.
        let sorted = frontier.sorted_by_power();
        assert_eq!(sorted[0].summary.config.id, ConfigId::generated(2));
        assert_eq!(sorted[1].summary.config.id, ConfigId::generated(4));
    }

    #[test]
    fn area_proxy_is_monotone_in_structure_sizes() {
        let space = DesignSpace::boom();
        let configs = space.sample(1, 3);
        let small = configs[0];
        let mut grown = small;
        grown.params = {
            let mut values = *small.params.values();
            values[3] += 32; // RobEntry
            autopower_config::HardwareParams::new(values)
        };
        assert!(area_proxy(&grown) > area_proxy(&small));
        // Pure function: same parameters, same proxy.
        assert_eq!(area_proxy(&small), area_proxy(&configs[0]));
    }

    #[test]
    fn checkpoint_roundtrips_and_validates() {
        let spec = StreamSpec {
            top_k: 2,
            sketch_level_capacity: 8,
        };
        let mut agg = SweepAggregator::new(1, &spec);
        for i in 0..5 {
            agg.push_summary(summary(
                i + 1,
                10.0 - f64::from(i),
                1.0,
                10.0 - f64::from(i),
            ));
        }
        let checkpoint = SweepCheckpoint {
            fingerprint: 0xDEAD_BEEF_1234_5678,
            cursor: ChunkCursor { offset: 5 },
            aggregator: agg,
            audit: None,
        };
        let dir = std::env::temp_dir().join(format!("autopower-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        save_checkpoint(&checkpoint, &path).unwrap();
        let restored = load_checkpoint(&path).unwrap();
        assert_eq!(restored, checkpoint);

        // A tampered version fails loudly.
        let text = encode_checkpoint(&checkpoint).replace("version 1", "version 99");
        let err = decode_checkpoint(&text).unwrap_err();
        assert!(matches!(err, AutoPowerError::Checkpoint(_)));
        assert!(err.to_string().contains("version"));

        // Truncation fails loudly.
        let whole = encode_checkpoint(&checkpoint);
        let truncated = &whole[..whole.len() / 2];
        assert!(decode_checkpoint(truncated).is_err());

        // A missing file reports the path.
        let missing = load_checkpoint(dir.join("missing.ckpt")).unwrap_err();
        assert!(missing.to_string().contains("missing.ckpt"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_configuration_checkpoints_are_refused() {
        let mut agg = SweepAggregator::new(2, &StreamSpec::default());
        let mut config = boom_configs()[0];
        config.id = ConfigId::generated(1);
        agg.push(SweepPoint {
            config,
            workload: Workload::Dhrystone,
            power: Prediction::total_only(1.0),
            ipc: 1.0,
        });
        assert_eq!(agg.pending_points(), 1);
        let checkpoint = SweepCheckpoint {
            fingerprint: 1,
            cursor: ChunkCursor { offset: 0 },
            aggregator: agg,
            audit: None,
        };
        let err = save_checkpoint(&checkpoint, std::env::temp_dir().join("never-written.ckpt"))
            .unwrap_err();
        assert!(err.to_string().contains("mid-configuration"));
        // The direct codec path refuses at decode time too.
        let text = encode_checkpoint(&checkpoint);
        assert!(decode_checkpoint(&text).is_err());
    }

    #[test]
    fn writer_killed_at_every_byte_offset_salvages_last_durable_cursor_or_refuses() {
        let spec = StreamSpec {
            top_k: 2,
            sketch_level_capacity: 8,
        };
        let checkpoint_at = |offset: u32| {
            let mut agg = SweepAggregator::new(1, &spec);
            for i in 0..offset {
                let total = 10.0 - f64::from(i);
                agg.push_summary(summary(i + 1, total, 1.0, total));
            }
            SweepCheckpoint {
                fingerprint: 0xF00D_F00D,
                cursor: ChunkCursor {
                    offset: u64::from(offset),
                },
                aggregator: agg,
                audit: None,
            }
        };
        let cp1 = checkpoint_at(3);
        let cp2 = checkpoint_at(7);
        let dir = std::env::temp_dir().join(format!("autopower-salvage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.ckpt");
        let tmp = dir.join("sweep.ckpt.tmp");
        let text1 = encode_checkpoint(&cp1);
        let text2 = encode_checkpoint(&cp2);

        // Second save killed after k bytes of the temp write (the rename
        // never ran): resume must come back with the durable cp1 — unless
        // the torn prefix still parses as the complete cp2, in which case
        // adopting it is correct but must be reported as a salvage.
        for k in 0..=text2.len() {
            save_checkpoint(&cp1, &path).unwrap();
            std::fs::write(&tmp, &text2[..k]).unwrap();
            let (loaded, salvage) = load_checkpoint_salvaged(&path, Some(cp1.fingerprint)).unwrap();
            if loaded == cp2 {
                let salvage = salvage.expect("adopting the sibling must be reported");
                assert_eq!(salvage.path, tmp);
                assert!(salvage.reason.contains("newer durable cursor"));
            } else {
                assert_eq!(loaded, cp1, "kill at byte {k} must yield durable state");
                assert!(salvage.is_none());
            }
        }
        // At k == len the sibling is complete and must be adopted.
        save_checkpoint(&cp1, &path).unwrap();
        std::fs::write(&tmp, &text2).unwrap();
        let (loaded, salvage) = load_checkpoint_salvaged(&path, Some(cp1.fingerprint)).unwrap();
        assert_eq!(loaded, cp2);
        assert!(salvage.is_some());

        // First-ever save killed after k bytes: nothing durable exists, so
        // resume refuses loudly (naming the main file) for every torn
        // prefix — it never fabricates state from a partial write.
        for k in 0..text1.len() {
            std::fs::remove_file(&path).ok();
            std::fs::write(&tmp, &text1[..k]).unwrap();
            match load_checkpoint_salvaged(&path, Some(cp1.fingerprint)) {
                Err(e) => assert!(e.to_string().contains("sweep.ckpt")),
                // A prefix that still parses (e.g. missing only the final
                // newline) must decode to exactly the durable checkpoint.
                Ok((loaded, salvage)) => {
                    assert_eq!(loaded, cp1, "kill at byte {k} fabricated a checkpoint");
                    assert!(salvage.is_some());
                }
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::write(&tmp, &text1).unwrap();
        let (loaded, salvage) = load_checkpoint_salvaged(&path, Some(cp1.fingerprint)).unwrap();
        assert_eq!(loaded, cp1);
        assert!(salvage.unwrap().reason.contains("unreadable"));

        // A torn main file with a complete sibling recovers the sibling.
        std::fs::write(&path, &text2[..text2.len() / 2]).unwrap();
        std::fs::write(&tmp, &text1).unwrap();
        let (loaded, salvage) = load_checkpoint_salvaged(&path, Some(cp1.fingerprint)).unwrap();
        assert_eq!(loaded, cp1);
        assert!(salvage.is_some());

        // An alien sibling (different sweep) is never adopted: the clean
        // main file wins even though the sibling's cursor is further along.
        let alien = SweepCheckpoint {
            fingerprint: 0x0BAD_0BAD,
            ..cp2.clone()
        };
        save_checkpoint(&cp1, &path).unwrap();
        save_checkpoint(&alien, &tmp).unwrap();
        let (loaded, salvage) = load_checkpoint_salvaged(&path, Some(cp1.fingerprint)).unwrap();
        assert_eq!(loaded, cp1);
        assert!(salvage.is_none());

        // A clean-but-mismatched main file comes back unsalvaged so callers
        // keep reporting their own fingerprint error.
        std::fs::remove_file(&tmp).ok();
        let (loaded, salvage) = load_checkpoint_salvaged(&path, Some(0x5EED)).unwrap();
        assert_eq!(loaded, cp1);
        assert!(salvage.is_none());

        // The writer seam: a torn injected write fails the save and leaves
        // the previous durable file untouched.
        save_checkpoint(&cp1, &path).unwrap();
        let err = save_checkpoint_with(&cp2, &path, |tmp_path, text| {
            std::fs::write(tmp_path, &text[..text.len() / 2])?;
            Err(std::io::Error::other("injected torn write"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("injected torn write"));
        assert_eq!(load_checkpoint(&path).unwrap(), cp1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_driver_chunks_stops_and_resumes_bit_identically() {
        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let model = ModelKind::AutoPower
            .train(&corpus, &[ConfigId::new(1), ConfigId::new(15)])
            .unwrap();
        let configs = DesignSpace::boom().sample(10, 77);
        let workloads = [Workload::Dhrystone, Workload::Qsort];
        let spec = SweepSpec {
            chunk_configs: 3,
            ..SweepSpec::fast().threads(2)
        };
        let stream_spec = StreamSpec {
            top_k: 5,
            sketch_level_capacity: 32,
        };

        // One-shot run.
        let engine = SweepEngine::new(model.as_ref(), spec);
        let mut one_shot = SweepAggregator::new(workloads.len(), &stream_spec);
        let progress = engine
            .stream(
                configs.iter().copied(),
                &workloads,
                &mut one_shot,
                |_, _| Ok(true),
            )
            .unwrap();
        assert!(progress.complete);
        assert_eq!(progress.configs_streamed, 10);
        assert_eq!(progress.chunks, 4); // 3 + 3 + 3 + 1
        assert_eq!(progress.peak_retained_points, 3 * workloads.len());

        // Interrupted after the second chunk, resumed from the cursor.
        let engine2 = SweepEngine::new(model.as_ref(), spec);
        let mut first_half = SweepAggregator::new(workloads.len(), &stream_spec);
        let mut folded_at_stop = 0;
        let partial = engine2
            .stream(
                configs.iter().copied(),
                &workloads,
                &mut first_half,
                |_, folded| {
                    folded_at_stop = folded;
                    Ok(folded < 6)
                },
            )
            .unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.configs_streamed, 6);
        // Round-trip through the checkpoint codec, then resume on a fresh
        // engine (fresh caches) from the cursor.
        let mut resumed = roundtrip(&first_half);
        let engine3 = SweepEngine::new(model.as_ref(), spec);
        let tail = engine3
            .stream(
                configs[folded_at_stop as usize..].iter().copied(),
                &workloads,
                &mut resumed,
                |_, _| Ok(true),
            )
            .unwrap();
        assert!(tail.complete);
        assert_eq!(resumed, one_shot, "resumed state diverged from one-shot");
    }

    #[test]
    fn pareto_constraints_filter_before_the_frontier_fold() {
        // Two genuine frontier points (neither dominates: the hot one buys
        // its IPC with power) — constraints carve out one or the other.
        let hot = summary(1, 12.0, 2.0, 6.0); // power 12 mW, ipc 2.0
        let cool = summary(2, 8.0, 1.5, 5.3); // power 8 mW, ipc 1.5

        let spec = StreamSpec {
            top_k: 3,
            sketch_level_capacity: 8,
        };
        let mut unconstrained = SweepAggregator::new(1, &spec);
        unconstrained.push_summary(hot);
        unconstrained.push_summary(cool);
        assert_eq!(unconstrained.pareto().len(), 2);

        let power_capped = ParetoConstraints {
            max_power: Some(10.0),
            min_ipc: None,
        };
        assert!(power_capped.admits(&cool));
        assert!(!power_capped.admits(&hot));
        let mut constrained = SweepAggregator::new(1, &spec).with_pareto_constraints(power_capped);
        constrained.push_summary(hot);
        constrained.push_summary(cool);
        assert_eq!(constrained.pareto().len(), 1);
        assert_eq!(
            constrained.pareto().entries()[0].summary.config.id,
            ConfigId::generated(2),
            "only the feasible point reaches the frontier"
        );
        // Sweep statistics are unscoped: both summaries still folded into the
        // top table and sketches.
        assert_eq!(constrained.configs_folded(), 2);
        assert_eq!(constrained.top().len(), 2);
        assert_eq!(constrained.series(PowerSeries::Total).sketch().count(), 2);

        let ipc_floored = ParetoConstraints {
            max_power: None,
            min_ipc: Some(1.8),
        };
        let mut floored = SweepAggregator::new(1, &spec).with_pareto_constraints(ipc_floored);
        floored.push_summary(hot);
        floored.push_summary(cool);
        assert_eq!(floored.pareto().len(), 1);
        assert_eq!(
            floored.pareto().entries()[0].summary.config.id,
            ConfigId::generated(1)
        );
    }

    #[test]
    fn constraint_bounds_are_inclusive() {
        let constraints = ParetoConstraints {
            max_power: Some(8.0),
            min_ipc: Some(1.5),
        };
        assert!(constraints.admits(&summary(1, 8.0, 1.5, 5.3)));
        assert!(!constraints.admits(&summary(2, 8.0 + 1e-9, 1.5, 5.3)));
        assert!(!constraints.admits(&summary(3, 8.0, 1.5 - 1e-9, 5.3)));
        assert!(ParetoConstraints::default().admits(&summary(4, 1e12, 0.0, 1e12)));
    }

    #[test]
    fn invalid_constraints_are_refused() {
        for bad_power in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = ParetoConstraints {
                max_power: Some(bad_power),
                min_ipc: None,
            };
            assert!(c.validate().is_err(), "max_power {bad_power} accepted");
        }
        for bad_ipc in [-0.1, f64::NAN, f64::INFINITY] {
            let c = ParetoConstraints {
                max_power: None,
                min_ipc: Some(bad_ipc),
            };
            assert!(c.validate().is_err(), "min_ipc {bad_ipc} accepted");
        }
        assert!(ParetoConstraints {
            max_power: Some(10.0),
            min_ipc: Some(0.0),
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid pareto constraints")]
    fn aggregator_refuses_invalid_constraints() {
        let _ = SweepAggregator::new(1, &StreamSpec::default()).with_pareto_constraints(
            ParetoConstraints {
                max_power: Some(f64::NAN),
                min_ipc: None,
            },
        );
    }

    #[test]
    fn constrained_aggregators_roundtrip_and_unconstrained_encoding_is_unchanged() {
        let spec = StreamSpec {
            top_k: 2,
            sketch_level_capacity: 8,
        };
        let constraints = ParetoConstraints {
            max_power: Some(9.5),
            min_ipc: Some(0.75),
        };
        let mut constrained = SweepAggregator::new(1, &spec).with_pareto_constraints(constraints);
        constrained.push_summary(summary(1, 9.0, 1.0, 9.0));
        constrained.push_summary(summary(2, 11.0, 2.0, 5.5)); // filtered out
        let restored = roundtrip(&constrained);
        assert_eq!(restored, constrained);
        assert_eq!(restored.pareto_constraints(), &constraints);

        // The optional section only appears when constraints are present, so
        // pre-constraint checkpoints stay byte-compatible.
        let mut plain = SweepAggregator::new(1, &spec);
        plain.push_summary(summary(1, 9.0, 1.0, 9.0));
        let mut w = Writer::new();
        plain.encode(&mut w);
        assert!(!w.finish().contains("constraints"));
        assert_eq!(roundtrip(&plain), plain);
    }

    #[test]
    fn checkpoints_carry_optional_audit_state_bit_exactly() {
        use crate::surrogate::AuditAccumulator;
        use autopower_perfsim::EventParams;

        let spec = StreamSpec {
            top_k: 2,
            sketch_level_capacity: 8,
        };
        let mut agg = SweepAggregator::new(1, &spec);
        agg.push_summary(summary(1, 5.0, 1.0, 5.0));

        let n = EventParams::names().len();
        let mut audit = AuditAccumulator::new(n);
        let exact: Vec<f64> = (0..n).map(|e| 1.0 + e as f64).collect();
        let predicted: Vec<f64> = exact.iter().map(|v| v * 1.01).collect();
        audit.record(&exact, &predicted, 50.0, 51.0);

        let with_audit = SweepCheckpoint {
            fingerprint: 42,
            cursor: ChunkCursor { offset: 1 },
            aggregator: agg.clone(),
            audit: Some(audit),
        };
        let restored = decode_checkpoint(&encode_checkpoint(&with_audit)).unwrap();
        assert_eq!(restored, with_audit);

        // Exact-backend checkpoints omit the section entirely.
        let without = SweepCheckpoint {
            fingerprint: 42,
            cursor: ChunkCursor { offset: 1 },
            aggregator: agg,
            audit: None,
        };
        let text = encode_checkpoint(&without);
        assert!(!text.contains("audit"));
        assert_eq!(decode_checkpoint(&text).unwrap(), without);
    }
}
