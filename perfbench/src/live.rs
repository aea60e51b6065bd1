//! `pangenome-live`: a pangenome corpus (δ = 5% SNPs) indexed as MWSA-G,
//! served from a `LiveIndex` with a write-ahead log fsynced per record.
//! One connection appends the second half of the corpus in fixed batches
//! at a fixed row rate (with a `delete_range` every few batches) and waits
//! for each ack; the other runs a closed query loop beside it. Afterwards
//! the index is dropped without a checkpoint and reopened from its
//! directory.

use crate::common::{naive_answers, sample_patterns, spec, CorpusInfo, Params, Report, SLICES};
use crate::harness::{check_failed, dir_bytes, hist_delta, mean, median, percentile, work_dir};
use crate::load::{closed_loop, Window};
use crate::trace::Spans;
use crate::wire::{connect, op_delta, server_config, server_metrics, wire_query};
use ius_datasets::corpora::bench_corpus;
use ius_live::{FsyncPolicy, LiveConfig, LiveIndex};
use ius_server::{Client, MetricsSnapshot, ServedIndex, Server};
use ius_weighted::{is_solid, WeightedString, ZEstimation};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Corpus length: the first half seeds the index, the rest is appended
/// (the smoke run uses [`SMOKE_N`]).
const N: usize = 290_000;
const SMOKE_N: usize = 20_000;
/// Rows per APPEND. The appender sends them at a fixed row rate, so that
/// the appended half takes the whole window: about 570 batches a second
/// at the 20 s of `run_seconds`, a flush about every 1.1 s, and the same
/// number of flushes and compactions per second whatever the host's speed.
const BATCH: usize = 16;
/// The query loop stops with the ingest, or after this many windows (when
/// the host cannot keep up with the row rate).
const MAX_WINDOWS: f64 = 3.0;
/// One DELETE_RANGE after every this many appends, of this many rows:
/// deletes retract 16 of every 512 appended rows (about 3%), a stream of
/// occasional corrections to a corpus that mostly grows. The tombstones
/// then cover about 3% of the appended half at the end of the window, so
/// the query cost they add stays small beside the fan-out over segments.
const DELETE_EVERY: usize = 32;
const DELETE_ROWS: usize = 16;
/// Memtable rows that trigger a flush (and with it a checkpoint).
const FLUSH_ROWS: usize = 8_192;
/// Patterns in the query mix.
const PATTERNS: usize = 256;
/// Wire op byte of APPEND in the METRICS per-op service list.
const OP_APPEND: u8 = 5;
/// The write-ahead log's fsync policy, as the header states it.
pub const FSYNC: &str = "record";

/// No background compactor: compaction runs at fixed points instead (into
/// one segment at set-up, then one tiered round after every flush), so the
/// segment layout, and with it every size, depends only on the seed.
fn live_config() -> LiveConfig {
    LiveConfig {
        flush_threshold: FLUSH_ROWS,
        auto_compact: false,
        ..LiveConfig::default()
    }
}

/// A deterministic stream of positions for the deletes.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// Half-open ranges sorted and merged the way the live index keeps its
/// tombstones (overlapping or touching ranges become one).
fn coalesce(mut ranges: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    ranges.sort_unstable();
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
    for (s, e) in ranges {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// What the acks promised: the first `rows` rows of `x` with `deletes`
/// tombstoned, queried with `patterns` at threshold `z`.
struct Acked<'a> {
    x: &'a WeightedString,
    rows: usize,
    deletes: Vec<(usize, usize)>,
    patterns: &'a [Vec<u8>],
    z: f64,
}

/// Checks a live index against the acked state: length, tombstones, every
/// row, and every pattern's answer against NAIVE over the materialized
/// corpus with the tombstones applied.
fn check_state(live: &LiveIndex, acked: &Acked, corrupt_expected: bool, when: &str) {
    let Acked {
        x,
        rows,
        ref deletes,
        patterns,
        z,
    } = *acked;
    if live.len() != rows {
        check_failed(&format!(
            "{when}: corpus length {} != {rows} acked rows",
            live.len()
        ));
    }
    if &live.tombstones() != deletes {
        check_failed(&format!(
            "{when}: {} tombstone range(s) != {} acked",
            live.tombstones().len(),
            deletes.len()
        ));
    }
    let materialized = live
        .materialize()
        .unwrap_or_else(|| check_failed(&format!("{when}: empty live index")));
    let sigma = x.sigma();
    if materialized.flat_probs() != &x.flat_probs()[..rows * sigma] {
        check_failed(&format!(
            "{when}: the materialized rows differ from the appended ones"
        ));
    }
    let mut expected = naive_answers(&materialized, z, patterns);
    if corrupt_expected {
        crate::common::corrupt(&mut expected);
    }
    for (i, (pattern, want)) in patterns.iter().zip(expected.iter_mut()).enumerate() {
        want.retain(|&p| {
            deletes
                .iter()
                .all(|&(s, e)| p + pattern.len() <= s || p >= e)
        });
        let got = live
            .query_owned(pattern)
            .unwrap_or_else(|e| check_failed(&format!("{when}: query {i}: {e}")));
        crate::common::check_answer(&got, want, when, i);
    }
}

/// Everything one set-up leaves running.
struct Setup {
    live: Arc<LiveIndex>,
    server: Server,
}

/// One set-up: seed → compact to a fixed point → arm the WAL → bind,
/// under a `setup` span.
fn setup(
    seed: &WeightedString,
    z: f64,
    ell: usize,
    dir: &Path,
    rep: u64,
    spans: &mut Spans,
) -> Setup {
    spans.enter("setup", rep);
    let live = spans
        .span("index.build", rep, || {
            LiveIndex::from_corpus(seed, spec(z, ell, seed.sigma()), 2 * ell, live_config())
        })
        .unwrap_or_else(|e| check_failed(&format!("seed the live index: {e}")));
    spans
        .span("live.compact", rep, || live.compact_full())
        .unwrap_or_else(|e| check_failed(&format!("compact the seeded index: {e}")));
    spans
        .span("live.arm", rep, || {
            live.enable_durability(dir, FsyncPolicy::Record)
        })
        .unwrap_or_else(|e| check_failed(&format!("arm the WAL in {}: {e}", dir.display())));
    let live = Arc::new(live);
    let server = spans
        .span("server.bind", rep, || {
            Server::bind(
                "127.0.0.1:0",
                ServedIndex::live(live.clone()),
                None,
                &server_config(),
            )
        })
        .unwrap_or_else(|e| check_failed(&format!("bind: {e}")));
    spans.exit();
    Setup { live, server }
}

/// What the appender saw.
#[derive(Default)]
struct Appends {
    latency_us: Vec<f64>,
    from: usize,
    rows: usize,
    deletes: Vec<(usize, usize)>,
    attempted: u64,
    failed: u64,
    elapsed_s: f64,
    segments: Vec<f64>,
    memtable_rows: Vec<f64>,
    tombstones: f64,
}

/// Appends `x[from..]` in batches over one connection, batch `b` due
/// `b × every` after the start and each waiting for its ack, with a delete
/// every [`DELETE_EVERY`] batches and a tiered compaction round after every
/// flush. A batch that falls behind its due time is sent at once.
fn append_all(
    addr: std::net::SocketAddr,
    x: &WeightedString,
    from: usize,
    every: Duration,
    start_segments: u64,
    seed: u64,
    spans: &mut Spans,
) -> Appends {
    let mut client = connect(addr);
    let sigma = x.sigma();
    let mut rng = SplitMix(seed ^ 0x0DE1_E7E5);
    let mut out = Appends {
        from,
        rows: from,
        ..Appends::default()
    };
    let started = Instant::now();
    let mut batch = 0usize;
    let mut segments = start_segments;
    while out.rows < x.len() {
        let due = every * batch as u32;
        let now = started.elapsed();
        if now < due {
            std::thread::sleep(due - now);
        }
        let end = (out.rows + BATCH).min(x.len());
        let probs = x.flat_probs()[out.rows * sigma..end * sigma].to_vec();
        let began = Instant::now();
        spans.enter("client.append", batch as u64);
        let ack = client.append_rows(sigma as u64, probs);
        spans.exit();
        out.attempted += 1;
        match ack {
            Ok(snapshot) => {
                out.latency_us.push(began.elapsed().as_secs_f64() * 1e6);
                out.rows = end;
                segments = if snapshot.segments > segments {
                    spans.enter("client.compact", batch as u64);
                    let ack = client.compact(false);
                    spans.exit();
                    out.attempted += 1;
                    match ack {
                        Ok(compacted) => compacted.segments,
                        Err(e) => {
                            eprintln!("perfbench: compaction failed: {e}");
                            out.failed += 1;
                            snapshot.segments
                        }
                    }
                } else {
                    snapshot.segments
                };
                out.segments.push(snapshot.segments as f64);
                out.memtable_rows.push(snapshot.memtable_rows as f64);
                out.tombstones = snapshot.tombstones as f64;
                if snapshot.corpus_len != end as u64 {
                    check_failed(&format!(
                        "append acked corpus length {} != {end}",
                        snapshot.corpus_len
                    ));
                }
            }
            Err(e) => {
                eprintln!("perfbench: append failed: {e}");
                out.failed += 1;
                break;
            }
        }
        batch += 1;
        if batch.is_multiple_of(DELETE_EVERY) {
            let start = rng.below(out.rows - DELETE_ROWS);
            let range = (start, start + DELETE_ROWS);
            spans.enter("client.delete_range", batch as u64);
            let ack = client.delete_range(range.0 as u64, range.1 as u64);
            spans.exit();
            out.attempted += 1;
            match ack {
                Ok(_) => out.deletes.push(range),
                Err(e) => {
                    eprintln!("perfbench: delete failed: {e}");
                    out.failed += 1;
                }
            }
        }
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out
}

/// A served answer is right only if every position is a z-solid
/// occurrence in the generated corpus (the live index may be mid-ingest,
/// so the full answer is checked after the run).
fn check_solid(positions: &[usize], pattern: &[u8], x: &WeightedString, z: f64, i: usize) {
    let sorted = positions.windows(2).all(|w| w[0] < w[1]);
    let solid = positions.iter().all(|&p| {
        p + pattern.len() <= x.len() && is_solid(x.occurrence_probability(p, pattern), z)
    });
    if !sorted || !solid {
        check_failed(&format!(
            "live answer to pattern {i} holds a position that is not a solid occurrence"
        ));
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let n = if p.smoke { SMOKE_N } else { N };
    let corpus = bench_corpus("pangenome", n, Some(p.seed)).expect("pangenome preset");
    let (x, z, ell) = (corpus.x, corpus.z, corpus.ell);
    let seed_rows = n / 2;
    let seed = x.substring(0, seed_rows).expect("seed half");
    report.corpora.push(CorpusInfo {
        name: "pangenome",
        n,
        sigma: x.sigma(),
        z,
        ell,
    });
    report.fsync = Some(FSYNC);
    let base = work_dir("pangenome-live");
    let mut spans = Spans::new(p.trace, p.epoch, 0);

    let (mut setup_s, mut peak) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut dir = base.clone();
    for rep in 0..p.setup_reps() {
        if let Some(Setup { server, .. }) = kept.take() {
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = base.join(format!("live-{rep}"));
        let began = Instant::now();
        let (s, mem) = ius_memtrack::measure(|| setup(&seed, z, ell, &dir, rep as u64, &mut spans));
        setup_s.push(began.elapsed().as_secs_f64());
        peak.push(mem.peak_bytes as f64);
        kept = Some(s);
    }
    let Setup { live, server } = kept.expect("at least one set-up");
    eprintln!("  set-ups (s): {setup_s:.3?}");
    report.set("setup_s", median(&mut setup_s));
    report.set("build_peak_bytes", median(&mut peak));

    // The query mix covers the whole corpus, appended half included.
    let estimation = spans
        .span("weighted.zest", 0, || ZEstimation::build(&x, z))
        .unwrap_or_else(|e| check_failed(&format!("z-estimation: {e}")));
    report.set("weighted.zest_bytes", estimation.memory_bytes() as f64);
    let patterns = sample_patterns(&estimation, p.seed, ell, PATTERNS, x.sigma());
    drop(estimation);
    report.patterns = patterns.len();
    report.absorb(spans);
    for (metric, span) in [
        ("weighted.zest_s", "weighted.zest"),
        ("index.build_s", "index.build"),
        ("live.compact_s", "live.compact"),
        ("live.arm_s", "live.arm"),
        ("server.bind_s", "server.bind"),
    ] {
        report.span_median_s(metric, span);
    }
    report.setup_unattributed();

    let addr = server.local_addr();
    let refused = AtomicU64::new(0);
    let query = |client: &mut Client, _t: usize, seq: u64| {
        let i = seq as usize % patterns.len();
        let (outcome, positions) = wire_query(client, &patterns[i], &refused);
        check_solid(&positions, &patterns[i], &x, z, i);
        outcome
    };
    let metrics = server.metrics_handle();
    let stats_before = live.live_stats();
    let before = metrics.snapshot();
    // The window is the ingest: queries run until the last append is
    // acked (the row rate spreads the appended half over `--seconds`), in
    // slices of the usual length, and at most `MAX_WINDOWS` times as long.
    let window = Window::new(
        p.window(MAX_WINDOWS),
        SLICES * MAX_WINDOWS as usize,
        p.trace,
    );
    let mut append_spans = Spans::new(p.trace, p.epoch, 99);
    let ingested = AtomicBool::new(false);
    let segments = live.num_segments() as u64;
    let every = p.window(BATCH as f64 / (n - seed_rows) as f64);
    let (mut closed, appends) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let appends = append_all(
                addr,
                &x,
                seed_rows,
                every,
                segments,
                p.seed,
                &mut append_spans,
            );
            ingested.store(true, Ordering::Release);
            appends
        });
        let closed = closed_loop(
            1,
            window,
            p.epoch,
            "client.query",
            Some(&ingested),
            |_| connect(addr),
            query,
        );
        (closed, appender.join().expect("appender thread"))
    });
    let after = metrics.snapshot();
    let stats_after = live.live_stats();
    report.closed_loop_metrics(&mut closed, p.trace);
    server_metrics(&mut report, &before, &after);
    report.absorb(append_spans);
    report.attempted += appends.attempted;
    report.failed += appends.failed;
    live_metrics(&mut report, &before, &after, &appends);
    let appended = appends.rows - seed_rows;
    report.set(
        "live.flushes",
        (stats_after.flushes - stats_before.flushes) as f64,
    );
    report.set(
        "live.compactions",
        (stats_after.compactions - stats_before.compactions) as f64,
    );
    report.set(
        "live.wal_bytes_per_row",
        (stats_after.wal_bytes - stats_before.wal_bytes) as f64 / appended.max(1) as f64,
    );
    report.set("server.refused", refused.load(Ordering::Relaxed) as f64);

    // Every answer after the run, then the crash: no checkpoint, the
    // index is dropped and reopened from its directory alone.
    let acked = Acked {
        x: &x,
        rows: appends.rows,
        deletes: coalesce(appends.deletes.clone()),
        patterns: &patterns,
        z,
    };
    check_state(&live, &acked, p.corrupt_expected, "after the run");
    drop(metrics);
    server.shutdown();
    let live = Arc::try_unwrap(live)
        .unwrap_or_else(|_| check_failed("the live index is still shared after shutdown"));
    drop(live);
    report.set("disk_bytes", dir_bytes(&dir) as f64);
    let mut spans = Spans::new(p.trace, p.epoch, 0);
    let began = Instant::now();
    let reopened = spans
        .span("live.open", 0, || LiveIndex::open(&dir, live_config()))
        .unwrap_or_else(|e| check_failed(&format!("reopen {}: {e}", dir.display())));
    report.set("recovery_s", began.elapsed().as_secs_f64());
    report.absorb(spans);
    check_state(&reopened, &acked, false, "after recovery");
    let replay = reopened.obs_snapshot();
    report.set("live.replay_records", replay.replay_records as f64);
    report.set("live.replay_ms", replay.replay_ns as f64 / 1e6);
    report.set(
        "index_bytes",
        ius_index::UncertainIndex::size_bytes(&reopened) as f64,
    );
    let stats = ius_index::UncertainIndex::stats(&reopened);
    report.set("index.leaves", stats.num_leaves as f64);
    report.set("index.grid_points", stats.num_grid_points as f64);
    report.set("index.mismatches", stats.num_mismatches as f64);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&base);
    report
}

/// The ingest side: ack latency and rate, the WAL, flushes, compactions
/// and the index shape the acks reported.
fn live_metrics(
    report: &mut Report,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    appends: &Appends,
) {
    let append = op_delta(after, before, OP_APPEND);
    report.set("live.append_service_us.p50", append.p50() as f64 / 1e3);
    report.set("live.append_service_us.p99", append.p99() as f64 / 1e3);
    let fsync = hist_delta(&after.live.wal_fsync, &before.live.wal_fsync);
    report.set("live.wal_fsync_us.p50", fsync.p50() as f64 / 1e3);
    report.set("live.wal_fsync_us.p99", fsync.p99() as f64 / 1e3);
    let flush = hist_delta(&after.live.flush, &before.live.flush);
    report.set("live.flush_ms.p50", flush.p50() as f64 / 1e6);
    report.set("live.flush_ms.max", flush.quantile(1.0) as f64 / 1e6);
    let compaction = hist_delta(&after.live.compaction, &before.live.compaction);
    report.set("live.compaction_ms.p50", compaction.p50() as f64 / 1e6);
    let mut latency = appends.latency_us.clone();
    latency.sort_by(f64::total_cmp);
    report.set("append_p50_us", percentile(&latency, 0.50));
    report.set("append_p99_us", percentile(&latency, 0.99));
    report.set(
        "append_rows_per_s",
        (appends.rows - appends.from) as f64 / appends.elapsed_s,
    );
    report.set("live.segments.mean", mean(&appends.segments));
    report.set(
        "live.segments.max",
        appends.segments.iter().copied().fold(0.0, f64::max),
    );
    report.set("live.memtable_rows.mean", mean(&appends.memtable_rows));
    report.set("live.tombstones", appends.tombstones);
}
