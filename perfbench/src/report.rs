//! Named metrics with units, and the result line the run ends with.

use crate::stats::{supported_quantile, Windows};

/// Metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, String)>,
}

impl Metrics {
    /// Record (or overwrite) a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit.to_string();
            }
            None => self
                .entries
                .push((name.to_string(), value, unit.to_string())),
        }
    }

    /// Print one `name = value unit` line per metric to stdout.
    pub fn print(&self) {
        for (name, value, unit) in &self.entries {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }

    /// The metrics as a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// What a run measured, checked and counted.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check that failed (empty when all passed).
    pub check_failures: Vec<String>,
    /// Requests attempted in the measured phase.
    pub attempted: usize,
    /// Requests refused, errored or released short.
    pub failed: usize,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a failed check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.check_failures.push(message.into());
    }

    /// Record a check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Record as `name` (ms) the median over `windows` of each window's
    /// `q`-quantile of its anchor latencies.  A run whose windows hold fewer
    /// than ten samples beyond the quantile (too few samples in all) fails.
    pub fn windowed_quantile(&mut self, name: &str, windows: &Windows, q: f64) {
        let value =
            windows.anchor_median(|window| supported_quantile(window, q).unwrap_or(f64::NAN));
        if value.is_finite() {
            self.metrics.put(name, value, "ms");
        } else {
            self.fail(format!(
                "{name}: too few samples to leave ten beyond the {q} quantile"
            ));
        }
    }

    /// The final result line.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_documented_shape() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        outcome.metrics.put("latency_ms", 1.25, "ms");
        outcome.metrics.put("latency_ms", 1.5, "ms");
        assert_eq!(
            outcome.result_line(),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"latency_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
        outcome.check(false, || "bad".to_string());
        assert!(outcome.result_line().starts_with("{\"correct\":false"));
    }
}
