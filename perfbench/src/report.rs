//! Metric collection, correctness accounting and the result line.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// A workload-specific figure: printed in the table, left out of the
    /// result line (which holds the same metrics on every workload).
    pub note: bool,
}

/// Metrics in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one measurement listed in `BENCHMARK.json`.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.add(name, value, unit, false);
    }

    /// Appends one workload-specific figure, printed but not in the result
    /// line.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.add(name, value, unit, true);
    }

    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: bool) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "{name} twice");
        self.0.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Names of the listed (non-note) metrics, in order.
    pub fn listed(&self) -> Vec<&'static str> {
        self.0.iter().filter(|m| !m.note).map(|m| m.name).collect()
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`, as
/// listed in `BENCHMARK.json`.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "ops_per_s",
    "latency_p25_ms",
    "model_load_ms",
    "accuracy.mape_pct",
    "accuracy.r2",
    "peak_rss_mb",
];

/// The per-layer metrics every workload reports with `--trace 1`, as listed
/// in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 17] = [
    "corpus.generate_ms",
    "ml.train_ms",
    "serialize.save_ms",
    "serialize.load_ms",
    "serialize.model_bytes",
    "config.generate_ms",
    "perfsim.lookups",
    "perfsim.sims",
    "perfsim.sim_ms",
    "perfsim.cache_hit_ratio",
    "engine.score_ms",
    "model.points",
    "model.infer_ms",
    "model.clock_ms",
    "model.sram_ms",
    "model.logic_ms",
    "trace.overhead_pct",
];

/// Operations attempted and failed, across the measured work and the
/// correctness gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations of which `bad` failed.
    pub fn add(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Counts one gate check; a failed one is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.add(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: correctness gate failed: {what}");
        }
    }
}

fn json_number(v: f64) -> String {
    // Non-finite values have no JSON form; they only arise from failed
    // operations, which already make the run incorrect.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .filter(|m| !m.note)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A human-readable table of `metrics`; workload-specific notes are
/// marked `*`.
pub fn table(title: &str, metrics: &Metrics) -> String {
    let mut out = format!("{title} (* workload-specific, not in the result line)\n");
    for m in &metrics.0 {
        let mark = if m.note { '*' } else { ' ' };
        out.push_str(&format!(
            "{mark} {:<28} {:>16.4} {}\n",
            m.name, m.value, m.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s");
        m.push("serve.light.p99_ms", f64::INFINITY, "ms");
        m.note("serve.reloads", 4.0, "count");
        let mut tally = Tally::default();
        tally.add(10, 0);
        let line = result_json(tally, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"serve.light.p99_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
        tally.check("mismatch", false);
        assert!(result_json(tally, &m).starts_with("{\"correct\": false, \"attempted\": 11"));
        assert!(table("t", &m).contains("* serve.reloads"));
    }

    /// The names in `BENCHMARK.json`, in order, of one of its metric lists.
    fn manifest_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let list = text
            .split(&format!("\"{key}\": ["))
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("metric list present");
        list.split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or_default().to_owned())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
    }
}
