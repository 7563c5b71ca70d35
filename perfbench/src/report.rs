//! Metrics, the result line, statistics over passes, and the simulated
//! digest.

use std::fmt::Write;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a result.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `MiB/s`, `count`.
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds (or replaces) `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = Metric { name, value, unit },
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Median of `xs` (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Streams beyond the nearest-rank p99 of `n` samples.
pub fn beyond_p99(n: u64) -> u64 {
    n - (99 * n).div_ceil(100)
}

/// FNV-1a over a sequence of integers: the digest of every simulated
/// statistic a workload produced. Equal across runs, seeds aside, and
/// across pool widths, because the simulation is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value in.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds every value in.
    pub fn all(&mut self, vs: impl IntoIterator<Item = u64>) {
        for v in vs {
            self.u64(v);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The host-time statistic. Each pass is split into segments of equal
/// work (at fixed counts of the calling thread's allocations); each
/// segment keeps its fastest time over all passes, and the kept times are
/// summed. Interference from other tenants of the host only ever slows
/// work down and comes and goes over seconds, so each segment's fastest
/// time is its least disturbed one. A pass with a single segment reduces
/// to the fastest pass, and so do passes cut into differing numbers of
/// segments.
pub fn segment_floor<'a>(passes: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut floor = Floor::default();
    for p in passes {
        floor.add(p);
    }
    floor.value()
}

/// [`segment_floor`] folded one pass at a time, keeping only each
/// segment's fastest time and the fastest whole pass.
#[derive(Clone, Debug, Default)]
pub struct Floor {
    segments: Vec<f64>,
    fastest: Option<f64>,
    ragged: bool,
}

impl Floor {
    /// Folds in one pass's segment times.
    pub fn add(&mut self, segments: &[f64]) {
        let total: f64 = segments.iter().sum();
        self.fastest = Some(self.fastest.map_or(total, |f| f.min(total)));
        if self.segments.is_empty() && !self.ragged {
            self.segments = segments.to_vec();
        } else if self.segments.len() == segments.len() {
            for (kept, &s) in self.segments.iter_mut().zip(segments) {
                *kept = kept.min(s);
            }
        } else {
            self.ragged = true;
            self.segments.clear();
        }
    }

    /// The floor so far (NaN before the first pass).
    pub fn value(&self) -> f64 {
        match self.fastest {
            None => f64::NAN,
            Some(fastest) if self.ragged => fastest,
            Some(_) => self.segments.iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_floor_keeps_each_segments_fastest_time() {
        let floor = |passes: &[&[f64]]| segment_floor(passes.iter().copied());
        assert_eq!(floor(&[&[1.0, 5.0, 2.0], &[3.0, 1.0, 2.5]]), 4.0);
        assert_eq!(floor(&[&[2.0], &[1.5]]), 1.5);
        assert_eq!(floor(&[&[1.0, 1.0], &[3.0]]), 2.0);
        assert_eq!(floor(&[&[3.0], &[1.0, 1.0], &[0.5, 0.5]]), 1.0);
        assert!(floor(&[]).is_nan());
    }

    #[test]
    fn p99_tail_counts() {
        assert_eq!(beyond_p99(1000), 10);
        assert_eq!(beyond_p99(999), 9);
        assert_eq!(beyond_p99(144), 1);
    }

    #[test]
    fn names_and_units() {
        assert!(valid_name("core.batches.SFA"));
        assert!(valid_name("cluster.share_permille.rtx3090"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(valid_unit("MiB/s"));
        assert!(!valid_unit("‰"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25, "s");
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
