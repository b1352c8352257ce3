//! What a run hands back to `main`, and the one-line JSON result.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qops_per_s", "QOPs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("swaps_total", "count"),
    ("depth_factor_geomean", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The diagnostic line listing every set-up repetition.
pub fn setup_note(times: &[f64]) -> String {
    let reps: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    format!("setup_reps_s=[{}]", reps.join(","))
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct RunOutcome {
    pub attempted: usize,
    /// Jobs that failed a check, were refused or timed out.
    pub failed: usize,
    /// Human-readable reason for every failed check.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Diagnostic `key=value` lines printed before the result.
    pub notes: Vec<String>,
}

impl RunOutcome {
    /// Records `(name, value)` pairs against the units of `table`.
    pub fn set_metrics(&mut self, table: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        self.metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("no value measured for `{name}`"))
                    .1;
                Metric { name, value, unit }
            })
            .collect();
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. Values print with all their digits.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut out = RunOutcome {
            attempted: 3,
            ..RunOutcome::default()
        };
        out.set_metrics(
            &[("latency_p50_ms", "ms"), ("swaps_total", "count")],
            &[("swaps_total", 12.0), ("latency_p50_ms", 1.25)],
        );
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"swaps_total\": {\"value\": 12, \"unit\": \"count\"}}}"
        );
        out.fail("boom");
        out.failed = 1;
        assert!(out
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }
}
