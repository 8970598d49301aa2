//! Metric collection and the result line.

use std::fmt::Write as _;

/// Metrics in emission order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records one metric and echoes it as a readable line.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("{name:<42} {value:>16.6} {unit}");
        self.0.push((name, value, unit));
    }

    /// Echoes a figure that is not part of the result line.
    pub fn show(&self, name: &str, value: f64, unit: &str) {
        println!("{name:<42} {value:>16.6} {unit}");
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    /// Units of work attempted (allocator calls, or survey machines).
    pub attempted: u64,
    /// Units refused or lost.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Metrics,
}

impl Outcome {
    /// The machine-readable result line.
    ///
    /// # Errors
    ///
    /// A non-finite metric value (JSON has no spelling for it).
    pub fn json(&self, correct: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Host peak resident set of this process, MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_shaped() {
        let mut metrics = Metrics::default();
        metrics.put("a_s", 0.5, "s");
        metrics.put("b", 3.0, "count");
        let out = Outcome {
            attempted: 4,
            failed: 0,
            metrics,
        };
        assert_eq!(
            out.json(true).expect("finite"),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut metrics = Metrics::default();
        metrics.put("x", f64::NAN, "s");
        let out = Outcome {
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(out.json(true).is_err());
    }
}
