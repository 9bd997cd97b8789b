//! What one run reports: the verdict of its checks, the loads attempted
//! and failed, and named metrics with units, printed as the last line of
//! standard output.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Loads attempted in the timed phase.
    pub attempted: u64,
    /// Loads that returned an error instead of a result.
    pub failed: u64,
    /// One message per failed correctness check (empty when correct).
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a failed check (kept to the first few per run in the
    /// printed list; all count).
    pub fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// `check` failed on one load: record it with the load's label.
    pub fn check(&mut self, label: &str, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.violation(format!("{label}: {e}"));
        }
    }

    /// The final JSON line.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                x.name,
                v,
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// Linear-interpolated percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = RunResult { attempted: 3, ..Default::default() };
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.violation("bad".into());
        assert!(r.to_json().starts_with("{\"correct\": false"));
    }
}
