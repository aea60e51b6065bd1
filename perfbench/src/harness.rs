//! The shared measurement rules of every workload: one percentile rule,
//! the median and the interquartile mean, the metric sheet and its JSON
//! line, and the failure exit.

use ius_obs::HistogramSnapshot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Exit code of a run whose answer or durability check failed.
pub const EXIT_CHECK_FAILED: i32 = 3;

/// Ends the run because an answer or durability check failed: no result
/// line is printed and the exit code is non-zero. Callable from any thread.
pub fn check_failed(message: &str) -> ! {
    eprintln!("perfbench: CHECK FAILED: {message}");
    std::process::exit(EXIT_CHECK_FAILED);
}

/// The one percentile rule of the benchmark: nearest rank, `⌈q·n⌉`-th
/// smallest of `sorted` (ascending). 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `values` and returns their median under [`percentile`].
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Sorts `values` and returns the mean of their middle half (the
/// interquartile mean): steadier than the median when the values come from
/// a mix of two regimes, and unlike the mean not moved by a stray outlier.
pub fn middle_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    mean(&values[quarter..values.len() - quarter])
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `after − before` of two snapshots of one monotone server histogram:
/// what was recorded between them. `min`/`max` are taken from `after`
/// (the snapshot keeps no per-bucket extremes).
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .filter_map(|&(idx, n)| {
            let old = before
                .buckets
                .iter()
                .find(|&&(i, _)| i == idx)
                .map_or(0, |&(_, m)| m);
            (n > old).then_some((idx, n - old))
        })
        .collect();
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        min: after.min,
        max: after.max,
        buckets,
    }
}

/// Named metric values of one run (units live with the declared metric
/// lists in `main.rs`).
#[derive(Debug, Default)]
pub struct Sheet {
    entries: Vec<(&'static str, f64)>,
}

impl Sheet {
    /// Records `name = value` (a later value for the same name replaces
    /// the earlier one).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.entries.iter_mut().find(|e| e.0 == name) {
            Some(entry) => entry.1 = value,
            None => self.entries.push((name, value)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.0 == name).map(|e| e.1)
    }
}

/// Appends `s` to `out` as a JSON string literal.
pub fn json_str(out: &mut String, s: &str) {
    out.push('"');
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
}

/// A JSON number: the shortest decimal that round-trips (all measured
/// digits), with non-finite values mapped to 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(&mut out, name);
        let _ = write!(out, ": {{\"value\": {}, \"unit\": ", json_num(*value));
        json_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// The per-run scratch directory `.bench_work/<label>-<pid>` under the
/// working directory, created empty.
pub fn work_dir(label: &str) -> PathBuf {
    let dir = Path::new(".bench_work").join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            middle_mean(&mut [100.0, 2.0, 1.0, 3.0, 4.0, -50.0, 5.0, 6.0]),
            3.5
        );
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(0, 0, &[("a_s", 1.5, "s"), ("b", 2.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }
}
