//! Samples, metrics and the one-line JSON result.

use std::fmt::Write as _;

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Timing samples of one kind, in any unit.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples in the order they were taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank percentile (`p` in 0..=1); 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// `n=…, p50=…, p95=…, p99=…, max=…` for the human summary.
    pub fn describe(&self) -> String {
        format!(
            "n={} p50={:.4} p95={:.4} p99={:.4} max={:.4}",
            self.len(),
            self.pct(0.50),
            self.pct(0.95),
            self.pct(0.99),
            self.max()
        )
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`. Values keep every
/// digit (`{}` on f64 prints the shortest exact round-trip form).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.pct(0.5), 50.0);
        assert_eq!(s.pct(0.95), 95.0);
        assert_eq!(s.pct(0.99), 99.0);
        assert_eq!(s.pct(1.0), 100.0);
        assert_eq!(Samples::default().pct(0.5), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let m = Metric {
            name: "latency_ms_p50".into(),
            value: 1.25,
            unit: "ms",
        };
        assert_eq!(
            result_json(true, 3, 0, &[&m]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
