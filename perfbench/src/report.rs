//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("batch_qps", "1/s"),
    ("replica_rounds_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("server.broadcast_hot.us_p50", "us"),
    ("server.broadcast_cold.us_p50", "us"),
    ("server.replay.us_p50", "us"),
    ("server.plan.us_p50", "us"),
    ("server.cache.hit_ratio", "frac"),
    ("server.cache.resident_mib", "MiB"),
    ("server.pool.overhead_frac", "frac"),
    ("trees.ns_per_round", "ns"),
    ("trees.useful_ratio", "frac"),
    ("scenario.faults.ns_per_round", "ns"),
    ("scenario.nonquiet_share", "frac"),
    ("engine.dense.ns_per_round", "ns"),
    ("frontier.ns_per_round", "ns"),
    ("workload.predicate.ns_per_round", "ns"),
    ("montecarlo.pool.idle_frac", "frac"),
    ("montecarlo.censored_share", "frac"),
    ("emulation.ns_per_round", "ns"),
    ("emulation.model_ratio", "frac"),
    ("ledger.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// What one run measured and how many of its operations were checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations executed and checked.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    /// Failed operations per check.
    failures: BTreeMap<&'static str, u64>,
}

impl Report {
    /// Counts one operation, checked by `what`.
    pub fn check(&mut self, ok: bool, what: &'static str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.failures.entry(what).or_insert(0) += 1;
        }
    }

    /// Failed operations per check.
    pub fn failures(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.failures.iter().map(|(what, count)| (*what, *count))
    }

    /// Records metric `name`, which must be in one of the catalogues.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name or a non-finite value: both are bugs
    /// in the benchmark, and neither may reach the result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, value);
    }

    /// Adds a human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The note lines, one metric or finding per line.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The result line: the metrics of `catalogue`, every one of which
    /// must have been recorded unless `absent_is_zero`.
    ///
    /// # Panics
    ///
    /// Panics when a required metric is missing.
    pub fn result_line(&self, catalogue: &[(&'static str, &str)], absent_is_zero: bool) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) => v,
                None if absent_is_zero => 0.0,
                None => panic!("metric {name} was not measured"),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut report = Report::default();
        report.check(true, "a");
        report.check(false, "b");
        assert_eq!(report.failures().collect::<Vec<_>>(), [("b", 1)]);
        report.set("qps", 1234.5);
        let line = report.result_line(&[("qps", "1/s")], false);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \
             \"metrics\": {\"qps\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn absent_layers_read_zero() {
        let report = Report::default();
        let line = report.result_line(&PER_LAYER, true);
        assert!(line.contains("\"trees.ns_per_round\": {\"value\": 0, \"unit\": \"ns\"}"));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn absent_end_to_end_metrics_are_a_bug() {
        let _ = Report::default().result_line(&END_TO_END, false);
    }

    #[test]
    fn names_are_unique_across_catalogues() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn the_catalogue_matches_benchmark_json() {
        // BENCHMARK.json sits at the repository root, beside this package.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
