//! Named metrics with units, the human-readable listing and the one-line
//! JSON result the benchmark ends its output with.

use std::fmt::Write as _;

/// Metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _, _)| n.as_str())
    }

    /// `metric <name> = <value> <unit>`, one per line.
    pub fn print(&self, workload: &str) {
        for (name, value, unit) in &self.entries {
            println!("metric {workload} {name} = {value} {unit}");
        }
    }

    /// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Non-finite values cannot be written as JSON numbers; they make the
    /// result incorrect instead of malformed.
    pub fn result_line(&self, mut correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                correct = false;
                0.0
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident memory (`VmHWM`) of a process, in MiB; `None` once the
/// process is gone.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
