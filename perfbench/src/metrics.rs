//! Metric names, units and the result line.
//!
//! Every metric the benchmark can print is named here or built by
//! [`Metrics::push`], so the tests can hold the printed names against
//! `BENCHMARK.json` and against the name grammar.

use std::fmt::Write as _;

/// Host-clock seconds.
pub const S: &str = "s";
/// Virtual-clock seconds: model time, deterministic per seed.
pub const VIRT_S: &str = "virt_s";
/// Virtual-clock milliseconds.
pub const VIRT_MS: &str = "virt_ms";

/// The end-to-end metrics every `--trace 0` run prints, with their units.
pub const END_TO_END: [(&str, &str); 14] = [
    ("run_s", S),
    ("setup_s", S),
    ("peak_rss_mb", "MiB"),
    ("virt_s.rl.kernel", VIRT_S),
    ("virt_s.rl.user", VIRT_S),
    ("virt_s.sor.kernel", VIRT_S),
    ("virt_s.sor.user", VIRT_S),
    ("virt_s.asp.kernel", VIRT_S),
    ("virt_s.asp.user", VIRT_S),
    ("virt_s.leq.kernel", VIRT_S),
    ("virt_s.leq.user", VIRT_S),
    ("virt_p50_ms", VIRT_MS),
    ("virt_p99_ms", VIRT_MS),
    ("virt_p999_ms", VIRT_MS),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`, starting with a letter or digit).
    pub name: String,
    /// Unit (`s`, `virt_s`, `count`, ...).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A finite number in JSON form, with every digit Rust's shortest
/// round-trip formatting gives. Non-finite values (a division by a zero
/// count) become `-1`, which no real measurement produces.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// A JSON string literal (quotes and backslashes escaped; the benchmark
/// only ever quotes host strings such as the CPU model).
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last line of every run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Whether `name` obeys the benchmark's name grammar: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, the first a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
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
