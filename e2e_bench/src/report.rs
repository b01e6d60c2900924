//! Metric lines for people and the one-line JSON result for tools.

use std::fmt::Write as _;

/// One reported number with its unit, sample count and how it was taken.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) -> Self {
        Metric {
            name,
            // `+ 0.0` turns the -0 of an empty f64 sum into 0
            value: if value.is_finite() { value + 0.0 } else { 0.0 },
            unit,
            samples,
            note: note.to_owned(),
        }
    }
}

/// Prints one line per metric.
pub fn print_lines(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<26} {:>16.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
