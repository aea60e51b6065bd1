//! What every workload shares: run parameters, the pattern mix, the NAIVE
//! expected answers, the run header and the report a workload fills in.

use crate::harness::{check_failed, mean, median, middle_mean, percentile, Sheet};
use crate::load::{Closed, QuerySample};
use crate::trace::{Spans, Trace};
use ius_datasets::patterns::PatternSampler;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexVariant, NaiveIndex, UncertainIndex};
use ius_weighted::{WeightedString, ZEstimation};
use std::time::{Duration, Instant};

/// Load threads (client connections or library callers) of every
/// workload: the host's `nproc` on the reference host.
pub const CLIENTS: usize = 2;
/// Server worker threads, where a server is used.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` and `build_peak_bytes` are their medians.
pub const SETUP_REPS: usize = 5;
/// Closed-loop slices per window (see `load::closed_loop`).
pub const SLICES: usize = 24;
/// One pattern in this many is drawn uniformly at random (almost surely
/// absent from the corpus).
pub const ABSENT_EVERY: usize = 8;

/// Command-line parameters of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: the corpus, patterns and mutations derive from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny corpora and one set-up: for the benchmark's own tests.
    pub smoke: bool,
    /// Corrupts one expected answer (test hook: the run must then fail).
    pub corrupt_expected: bool,
    /// The run's common clock (span timestamps are relative to it).
    pub epoch: Instant,
}

impl Params {
    /// Set-up repetitions of this run.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// A share of the measured window.
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// The index family of every workload: the minimizer suffix array with the 2D grid.
pub fn spec(z: f64, ell: usize, sigma: usize) -> IndexSpec {
    IndexSpec::new(
        IndexFamily::Minimizer(IndexVariant::ArrayGrid),
        IndexParams::new(z, ell, sigma).expect("benchmark index parameters"),
    )
}

/// The workload's query mix, sampled with the paper's §7.1 sampler before
/// any timing: `count` patterns, half of length `ell` and half of `2·ell`,
/// with every [`ABSENT_EVERY`]-th one replaced by a random (absent)
/// pattern.
pub fn sample_patterns(
    estimation: &ZEstimation,
    seed: u64,
    ell: usize,
    count: usize,
    sigma: usize,
) -> Vec<Vec<u8>> {
    let mut sampler = PatternSampler::new(estimation, seed ^ 0x5EED_0F9A_7700);
    let mut patterns = Vec::with_capacity(count);
    for i in 0..count {
        let m = if i % 2 == 0 { ell } else { 2 * ell };
        let pattern = if i % ABSENT_EVERY == ABSENT_EVERY - 1 {
            sampler.sample_random(m, 1, sigma).pop()
        } else {
            sampler.sample(m)
        };
        match pattern {
            Some(p) => patterns.push(p),
            None => check_failed(&format!("the corpus has no solid factor of length {m}")),
        }
    }
    patterns
}

/// The expected answer of every pattern, from the NAIVE scan index.
pub fn naive_answers(x: &WeightedString, z: f64, patterns: &[Vec<u8>]) -> Vec<Vec<usize>> {
    let began = Instant::now();
    let naive = NaiveIndex::new(z).expect("z ≥ 1");
    let answers = patterns
        .iter()
        .map(|p| {
            naive
                .query(p, x)
                .expect("NAIVE accepts every non-empty pattern")
        })
        .collect();
    eprintln!(
        "  NAIVE answers for {} pattern(s) in {:.2} s",
        patterns.len(),
        began.elapsed().as_secs_f64()
    );
    answers
}

/// Corrupts one expected answer (the `--corrupt-expected` test hook): the
/// first pattern gains a position no corpus here reaches.
pub fn corrupt(expected: &mut [Vec<usize>]) {
    if let Some(first) = expected.first_mut() {
        first.push(usize::MAX / 2);
    }
}

/// Fails the run when an answer differs from the expected one.
pub fn check_answer(got: &[usize], expected: &[usize], what: &str, pattern: usize) {
    if got != expected {
        check_failed(&format!(
            "{what}: pattern {pattern} answered {} position(s), expected {} (first got {:?}, first expected {:?})",
            got.len(),
            expected.len(),
            got.iter().take(4).collect::<Vec<_>>(),
            expected.iter().take(4).collect::<Vec<_>>()
        ));
    }
}

/// One corpus line of the run header.
#[derive(Debug, Clone)]
pub struct CorpusInfo {
    /// Generator name.
    pub name: &'static str,
    /// Length.
    pub n: usize,
    /// Alphabet size.
    pub sigma: usize,
    /// Weight threshold.
    pub z: f64,
    /// Minimum pattern length.
    pub ell: usize,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub sheet: Sheet,
    /// Operations attempted (every op type).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every recorded span.
    pub trace: Trace,
    /// Corpora, for the header.
    pub corpora: Vec<CorpusInfo>,
    /// Fsync policy of the write-ahead log, if one is armed.
    pub fsync: Option<&'static str>,
    /// Patterns in the query mix.
    pub patterns: usize,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.sheet.set(name, value);
    }

    /// Folds the main thread's span buffer in.
    pub fn absorb(&mut self, spans: Spans) {
        self.trace.absorb(spans);
    }

    /// Records the median duration (seconds) of the spans named `span` as
    /// metric `name`.
    pub fn span_median_s(&mut self, name: &'static str, span: &str) {
        let mut d = self.trace.durations(span);
        self.set(name, median(&mut d) / 1e9);
    }

    /// The query-facing metrics of a closed loop: end-to-end throughput
    /// and latency from the untraced slices, call time and engine counters
    /// from the traced ones, and the tracing overhead between the two.
    /// Throughput is taken per slice and the run reports its interquartile
    /// mean over the slices; latency percentiles are taken over all the
    /// operations of the slices at once (a tail percentile of one slice
    /// rests on too few operations).
    pub fn closed_loop_metrics(&mut self, closed: &mut Closed, trace: bool) {
        self.attempted += closed.attempted;
        self.failed += closed.failed;
        eprintln!(
            "  slice rates (q/s): {}",
            closed
                .slices
                .iter()
                .map(|s| format!("{:.0}{}", s.rate, if s.traced { "*" } else { "" }))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let rate = |traced: bool| {
            let mut v: Vec<f64> = closed
                .slices
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.rate)
                .collect();
            middle_mean(&mut v)
        };
        let latency = |traced: bool| {
            let mut v: Vec<f64> = closed
                .slices
                .iter()
                .filter(|s| s.traced == traced)
                .flat_map(|s| s.latency_us.iter().copied())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let untraced_qps = rate(false);
        self.set("query_qps", untraced_qps);
        let untraced = latency(false);
        self.set("query_p50_us", percentile(&untraced, 0.50));
        self.set("query_p99_us", percentile(&untraced, 0.99));
        if trace {
            self.set("trace.overhead_frac", 1.0 - rate(true) / untraced_qps);
        }
        let traced = latency(true);
        self.set("query.call_us.p50", percentile(&traced, 0.50));
        self.set("query.call_us.p99", percentile(&traced, 0.99));
        self.set("query.call_us.mean", mean(&traced));
        let per =
            |f: fn(&QuerySample) -> f64| mean(&closed.samples.iter().map(f).collect::<Vec<_>>());
        let candidates = per(|s| s.stats.candidates as f64);
        let reported = per(|s| s.stats.reported as f64);
        self.set("query.candidates", candidates);
        self.set("query.verified", per(|s| s.stats.verified as f64));
        self.set("query.reported", reported);
        self.set("query.grid_nodes", per(|s| s.stats.grid_nodes as f64));
        self.set(
            "query.useful_ratio",
            if candidates > 0.0 {
                reported / candidates
            } else {
                0.0
            },
        );
        for spans in closed.spans.drain(..) {
            self.trace.absorb(spans);
        }
    }

    /// Mean stage times of the engine (ns per query) and the call time
    /// they leave unattributed.
    pub fn stage_metrics(&mut self, scan: f64, locate: f64, verify: f64, report: f64, call: f64) {
        self.set("query.scan_ns", scan);
        self.set("query.locate_ns", locate);
        self.set("query.verify_ns", verify);
        self.set("query.report_ns", report);
        let unattributed = call - (scan + locate + verify + report);
        self.set("query.unattributed_ns", unattributed);
        self.set(
            "trace.query_unattributed_frac",
            if call > 0.0 { unattributed / call } else { 0.0 },
        );
    }

    /// The share of set-up time no child span covers.
    pub fn setup_unattributed(&mut self) {
        let (own, total) = self.trace.self_and_total("setup");
        self.set(
            "trace.setup_unattributed_frac",
            if total > 0 {
                own as f64 / total as f64
            } else {
                0.0
            },
        );
    }
}
