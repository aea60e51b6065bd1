//! `rssi-library`: the sensor regime, used as a library. An RSSI corpus
//! (σ = 91, every position uncertain) is indexed as MWSA-G in process and
//! queried with `query_into` by two closed-loop callers. Server,
//! persistence and live fan-out are bypassed.

use crate::common::{
    check_answer, corrupt, naive_answers, sample_patterns, spec, CorpusInfo, Params, Report,
    CLIENTS, SLICES,
};
use crate::harness::{check_failed, mean, median};
use crate::load::{closed_loop, Outcome, Window};
use crate::trace::Spans;
use ius_datasets::corpora::bench_corpus;
use ius_index::{save_index, QueryScratch, UncertainIndex};
use ius_weighted::ZEstimation;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Corpus length. Solid factors of length 2ℓ = 16 are rare in RSSI
/// strings (a few dozen at this length), so the smoke run keeps it too.
const N: usize = 40_000;
/// Patterns in the query mix.
const PATTERNS: usize = 4096;

/// Counts the bytes written through it.
struct Counter(u64);

impl Write for Counter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    // The corpus is the preset's own (its generator seed is fixed) and
    // `--seed` draws the pattern mix. The generator's random walk over 91
    // levels mixes too slowly at this length for corpora of different seeds
    // to be alike: their mean candidates per query range from 25 to 52,
    // against 25 to 28 for mixes drawn from one corpus.
    let n = N;
    let corpus = bench_corpus("rssi", n, None).expect("rssi preset");
    let (x, z, ell) = (corpus.x, corpus.z, corpus.ell);
    report.corpora.push(CorpusInfo {
        name: "rssi",
        n,
        sigma: x.sigma(),
        z,
        ell,
    });
    let mut spans = Spans::new(p.trace, p.epoch, 0);

    // Set-up (z-estimation → build), repeated; the last index is queried.
    let (mut setup_s, mut peak) = (Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..p.setup_reps() as u64 {
        drop(kept.take());
        let began = Instant::now();
        let (built, mem) = ius_memtrack::measure(|| {
            spans.enter("setup", rep);
            let estimation = spans
                .span("weighted.zest", rep, || ZEstimation::build(&x, z))
                .unwrap_or_else(|e| check_failed(&format!("z-estimation: {e}")));
            let index = spans
                .span("index.build", rep, || {
                    spec(z, ell, x.sigma()).build_with_estimation(&x, &estimation)
                })
                .unwrap_or_else(|e| check_failed(&format!("index build: {e}")));
            spans.exit();
            (estimation, index)
        });
        setup_s.push(began.elapsed().as_secs_f64());
        peak.push(mem.peak_bytes as f64);
        kept = Some(built);
    }
    let (estimation, index) = kept.expect("at least one set-up");
    eprintln!("  set-ups (s): {setup_s:.3?}");
    report.set("setup_s", median(&mut setup_s));
    report.set("build_peak_bytes", median(&mut peak));
    report.set("index_bytes", index.size_bytes() as f64);
    // Nothing is written to disk here: `disk_bytes` is the length the
    // index would take as an IUSX file.
    let mut encoded = Counter(0);
    save_index(&index, &mut encoded).expect("encoding into memory cannot fail");
    report.set("disk_bytes", encoded.0 as f64);
    report.set("index.file_bytes", encoded.0 as f64);
    let stats = index.stats();
    report.set("index.leaves", stats.num_leaves as f64);
    report.set("index.grid_points", stats.num_grid_points as f64);
    report.set("index.mismatches", stats.num_mismatches as f64);
    report.set("weighted.zest_bytes", estimation.memory_bytes() as f64);
    report.absorb(spans);
    report.span_median_s("weighted.zest_s", "weighted.zest");
    report.span_median_s("index.build_s", "index.build");
    report.setup_unattributed();

    let patterns = sample_patterns(&estimation, p.seed, ell, PATTERNS, x.sigma());
    drop(estimation);
    let mut expected = naive_answers(&x, z, &patterns);
    if p.corrupt_expected {
        corrupt(&mut expected);
    }
    report.patterns = patterns.len();

    let make = |_| (QueryScratch::new(), Vec::new());
    let query = |(scratch, out): &mut (QueryScratch, Vec<usize>), t: usize, seq: u64| {
        let i = (t * patterns.len() / CLIENTS + seq as usize) % patterns.len();
        out.clear();
        let answer = index.query_into(&patterns[i], &x, scratch, out);
        let at = Instant::now();
        match answer {
            Ok(stats) => {
                check_answer(out, &expected[i], "library answer", i);
                Outcome::Done {
                    at,
                    stats: Some(stats),
                }
            }
            Err(e) => {
                eprintln!("perfbench: query failed: {e}");
                Outcome::Failed
            }
        }
    };
    let warm = Window::new(Duration::from_millis(200), 1, false);
    closed_loop(
        CLIENTS,
        warm,
        p.epoch,
        "index.query_into",
        None,
        make,
        query,
    );
    let window = Window::new(p.window(1.0), SLICES, p.trace);
    let mut closed = closed_loop(
        CLIENTS,
        window,
        p.epoch,
        "index.query_into",
        None,
        make,
        query,
    );

    // Stage means over the queries that drew a stage-timing ticket, and
    // the call time those stages leave unattributed.
    let timed: Vec<_> = closed
        .samples
        .iter()
        .filter(|s| s.stats.timed)
        .copied()
        .collect();
    let stage = |f: fn(&ius_query::QueryStats) -> u64| {
        mean(&timed.iter().map(|s| f(&s.stats) as f64).collect::<Vec<_>>())
    };
    let call = mean(&timed.iter().map(|s| s.call_ns as f64).collect::<Vec<_>>());
    report.stage_metrics(
        stage(|s| s.scan_ns),
        stage(|s| s.locate_ns),
        stage(|s| s.verify_ns),
        stage(|s| s.report_ns),
        call,
    );
    report.closed_loop_metrics(&mut closed, p.trace);
    report
}
