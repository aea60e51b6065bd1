//! Asserts the acceptance criterion of the query-engine overhaul: once a
//! [`QueryScratch`]'s buffers have warmed up, `query_into` performs **no
//! heap allocation** on the minimizer-index hot paths (simple and grid
//! queries, count-only sink), and neither do the composite fan-outs over
//! shards and live segments.
//!
//! This integration test is its own binary, so installing the counting
//! allocator here affects nothing else in the workspace. Every window is
//! measured with [`ius_memtrack::measure_thread`], which counts only the
//! measuring thread: the sibling tests of this binary run concurrently and
//! build indexes while a window is open.

use ius::prelude::*;
use ius_memtrack::CountingAllocator;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator::new();

fn workload() -> (WeightedString, ZEstimation, Vec<Vec<u8>>, IndexParams) {
    let x = PangenomeConfig {
        n: 2_000,
        delta: 0.05,
        seed: 0xA110C,
        ..Default::default()
    }
    .generate();
    let z = 16.0;
    let ell = 32usize;
    let est = ZEstimation::build(&x, z).unwrap();
    let mut sampler = PatternSampler::new(&est, 77);
    let mut patterns = sampler.sample_many(ell, 40);
    patterns.extend(sampler.sample_many(2 * ell, 20));
    assert!(patterns.len() >= 40, "workload needs patterns");
    let params = IndexParams::new(z, ell, x.sigma()).unwrap();
    (x, est, patterns, params)
}

/// Runs every pattern once to warm the scratch, then asserts that a second
/// full pass allocates zero heap bytes.
fn assert_steady_state_allocation_free(variant: IndexVariant, label: &str) {
    let (x, est, patterns, params) = workload();
    let index = MinimizerIndex::build_from_estimation(&x, &est, params, variant).unwrap();
    let mut scratch = QueryScratch::new();
    let mut sink = CountSink::new();

    // Warm-up pass: buffers grow to the workload's high-water mark.
    let mut warm_count = 0usize;
    for pattern in &patterns {
        index
            .query_into(pattern, &x, &mut scratch, &mut sink)
            .unwrap();
        warm_count = sink.count;
    }

    // Steady-state pass: must not touch the allocator at all.
    let (steady_count, mem) = ius_memtrack::measure_thread(|| {
        let mut sink = CountSink::new();
        for pattern in &patterns {
            index
                .query_into(pattern, &x, &mut scratch, &mut sink)
                .unwrap();
        }
        sink.count
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes,
        0,
        "{label}: steady-state query_into allocated {} bytes over {} queries",
        mem.peak_bytes,
        patterns.len()
    );
    assert_eq!(mem.retained_bytes, 0, "{label}: steady state retained heap");
    assert!(
        steady_count >= warm_count,
        "{label}: queries kept answering"
    );
    assert!(steady_count > 0, "{label}: workload found occurrences");
}

#[test]
fn mwsa_simple_query_is_allocation_free_after_warmup() {
    assert_steady_state_allocation_free(IndexVariant::Array, "MWSA");
}

#[test]
fn mwsa_grid_query_is_allocation_free_after_warmup() {
    assert_steady_state_allocation_free(IndexVariant::ArrayGrid, "MWSA-G");
}

#[test]
fn mwst_tree_query_is_allocation_free_after_warmup() {
    assert_steady_state_allocation_free(IndexVariant::Tree, "MWST");
}

/// The serving hot path is `query_into` **plus** metrics recording: stage
/// timings into log-linear histograms, op counters, and a ring-buffer
/// slow-query log. All of it must stay allocation-free in steady state —
/// the observability layer's core promise.
#[test]
fn instrumented_query_recording_is_allocation_free_after_warmup() {
    use ius_obs::{clock, Counter, EventLog, Histogram};
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    // The registry mirrors the server's per-worker one: histograms and the
    // event log allocate once here, never on the recording path.
    let scan = Histogram::new();
    let locate = Histogram::new();
    let verify = Histogram::new();
    let report = Histogram::new();
    let queries = Counter::new();
    let slow_log = EventLog::new(128);
    clock::warm_up();
    assert!(clock::enabled(), "timing must be on for this test");

    // Warm-up pass.
    let mut sink = CountSink::new();
    for pattern in &patterns {
        index
            .query_into(pattern, &x, &mut scratch, &mut sink)
            .unwrap();
    }

    // Steady state: query + full metrics recording, zero heap traffic.
    // Stage recording mirrors the server: only queries that drew a
    // stage-tracing ticket (1 in `clock::STAGE_SAMPLE_EVERY`) carry
    // stamped stage fields and reach the stage histograms.
    let ((recorded, timed), mem) = ius_memtrack::measure_thread(|| {
        let mut sink = CountSink::new();
        let mut timed = 0u64;
        for pattern in &patterns {
            let start = clock::now_ns();
            let stats = index
                .query_into(pattern, &x, &mut scratch, &mut sink)
                .unwrap();
            if stats.timed {
                timed += 1;
                scan.record(stats.scan_ns);
                locate.record(stats.locate_ns);
                verify.record(stats.verify_ns);
                report.record(stats.report_ns);
            }
            queries.inc();
            let elapsed = clock::now_ns().saturating_sub(start);
            slow_log.record(pattern.len() as u64, elapsed, stats.reported as u64);
        }
        (queries.get(), timed)
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes, 0,
        "instrumented steady-state queries allocated {} bytes",
        mem.peak_bytes
    );
    assert_eq!(mem.retained_bytes, 0, "instrumentation retained heap");
    assert_eq!(recorded as usize, patterns.len());
    // 60 patterns at a 1-in-16 ticket guarantee several timed queries on
    // this thread no matter where the tick starts.
    assert!(
        timed >= 1,
        "sampling must trace some of {} queries",
        recorded
    );
    assert_eq!(scan.count(), timed);
    assert_eq!(slow_log.recorded(), patterns.len() as u64);
    // The stage stamps really measured something on this build.
    assert!(scan.snapshot().sum > 0, "scan stage timings recorded");
}

/// The fully traced serving path — span tree into the thread-local trace
/// buffer, flight-recorder push, slow-query ring push with its pattern
/// prefix — must stay allocation-free in steady state, on sampled and
/// unsampled requests alike. This is the budget behind the <2%
/// instrumentation-overhead acceptance row.
#[test]
fn traced_query_path_is_allocation_free_after_warmup() {
    use ius_obs::{clock, trace};
    use ius_server::{FlightRecorder, SlowRing, TRACE_NO_ERROR};
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    // The rings preallocate at construction, exactly like the server's
    // shared state; nothing below may touch the allocator again.
    let flight = FlightRecorder::new();
    let slow = SlowRing::new(64);
    clock::warm_up();
    assert!(clock::enabled(), "timing must be on for this test");

    // Mirrors one served request: arm the trace on sampled requests, wrap
    // the query in a STAGE_QUERY span with stage leaves, then push the
    // finished trace into the flight recorder and the timing into the
    // slow ring.
    let run_one = |pattern: &Vec<u8>, sampled: bool, scratch: &mut QueryScratch| -> u64 {
        let start = clock::now_ns();
        let armed = sampled && trace::begin(trace::next_trace_id());
        if armed {
            trace::leaf(trace::STAGE_QUEUE_WAIT, 120, 0, 0);
            trace::enter(trace::STAGE_QUERY);
        }
        let mut sink = CountSink::new();
        let stats = index.query_into(pattern, &x, scratch, &mut sink).unwrap();
        if armed {
            if stats.timed {
                trace::leaf(trace::STAGE_SCAN, stats.scan_ns, 0, 0);
                trace::leaf(
                    trace::STAGE_VERIFY,
                    stats.verify_ns,
                    stats.candidates as u64,
                    0,
                );
            }
            trace::exit_with(stats.candidates as u64, stats.reported as u64);
        }
        let elapsed = clock::now_ns().saturating_sub(start);
        let recorded = trace::finish(|buf| {
            flight.record(buf, 1, TRACE_NO_ERROR, elapsed);
        });
        assert_eq!(recorded.is_some(), sampled, "arming must follow the ticket");
        slow.record(
            elapsed,
            pattern.len() as u64,
            pattern,
            stats.reported as u64,
        );
        stats.reported as u64
    };

    // Warm-up pass, alternating sampled and unsampled requests.
    for (i, pattern) in patterns.iter().enumerate() {
        run_one(pattern, i % 2 == 0, &mut scratch);
    }

    // Steady state: the whole traced request loop, zero heap traffic.
    let (reported, mem) = ius_memtrack::measure_thread(|| {
        let mut reported = 0u64;
        for (i, pattern) in patterns.iter().enumerate() {
            reported += run_one(pattern, i % 2 == 0, &mut scratch);
        }
        reported
    });
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.peak_bytes,
        0,
        "traced steady-state queries allocated {} bytes over {} requests",
        mem.peak_bytes,
        patterns.len()
    );
    assert_eq!(mem.retained_bytes, 0, "traced path retained heap");
    assert!(reported > 0, "workload found occurrences");
    // Both rings really absorbed the pushes.
    let occupancy = flight.occupancy();
    assert!(occupancy.recent > 0, "flight recorder captured traces");
    assert_eq!(slow.recorded(), 2 * patterns.len() as u64);
    // Sampled traces carry the span tree.
    let snapshot = flight.snapshot();
    assert!(snapshot
        .iter()
        .any(|t| t.spans.iter().any(|s| s.code == trace::STAGE_QUERY)));
}

#[test]
fn collecting_into_a_warm_reused_vector_is_also_allocation_free() {
    let (x, est, patterns, params) = workload();
    let index =
        MinimizerIndex::build_from_estimation(&x, &est, params, IndexVariant::ArrayGrid).unwrap();
    let mut scratch = QueryScratch::new();
    let mut out: Vec<usize> = Vec::new();
    let mut high_water = 0usize;
    for pattern in &patterns {
        out.clear();
        index
            .query_into(pattern, &x, &mut scratch, &mut out)
            .unwrap();
        high_water = high_water.max(out.len());
    }
    // `out` has warmed to the largest single answer; replaying the workload
    // into it allocates nothing.
    let (_, mem) = ius_memtrack::measure_thread(|| {
        for pattern in &patterns {
            out.clear();
            index
                .query_into(pattern, &x, &mut scratch, &mut out)
                .unwrap();
        }
    });
    assert_eq!(mem.peak_bytes, 0, "reused collect sink allocated");
    assert!(high_water > 0);
}

/// Warms `query` up on every pattern, then asserts that a second full pass
/// makes no allocation at all and gives the same answers.
fn assert_composite_allocation_free(
    label: &str,
    patterns: &[Vec<u8>],
    mut query: impl FnMut(&[u8], &mut QueryScratch, &mut CountSink),
) {
    let mut scratch = QueryScratch::new();
    let mut run = |scratch: &mut QueryScratch, counts: &mut [usize]| {
        for (pattern, count) in patterns.iter().zip(counts.iter_mut()) {
            let mut sink = CountSink::new();
            query(pattern, scratch, &mut sink);
            *count = sink.count;
        }
    };
    let mut warm = vec![0usize; patterns.len()];
    run(&mut scratch, &mut warm);
    let mut steady = vec![0usize; patterns.len()];
    let ((), mem) = ius_memtrack::measure_thread(|| run(&mut scratch, &mut steady));
    assert!(ius_memtrack::is_installed());
    assert_eq!(
        mem.alloc_calls,
        0,
        "{label}: steady-state queries made {} allocation calls ({} bytes at peak) \
         over {} queries",
        mem.alloc_calls,
        mem.peak_bytes,
        patterns.len()
    );
    assert_eq!(mem.peak_bytes, 0, "{label}: steady state touched the heap");
    assert_eq!(steady, warm, "{label}: queries kept answering");
    assert!(
        warm.iter().sum::<usize>() > 0,
        "{label}: workload found occurrences"
    );
}

#[test]
fn sharded_query_is_allocation_free_after_warmup() {
    let (x, _est, patterns, params) = workload();
    let ell = params.ell;
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let sharded = ShardedIndex::build(&x, spec, 3, 2 * ell).unwrap();
    assert!(sharded.num_shards() >= 2);
    assert_composite_allocation_free("SHARDED-MWSA-G", &patterns, |pattern, scratch, sink| {
        sharded.query_owned_into(pattern, scratch, sink).unwrap();
    });
}

/// The live fan-out at its fullest: several segments, a memtable tail
/// whose scan finds hits, and a tombstone that masks one of them.
#[test]
fn live_query_is_allocation_free_after_warmup() {
    let (x, _est, patterns, params) = workload();
    let ell = params.ell;
    let spec = IndexSpec::new(IndexFamily::Minimizer(IndexVariant::ArrayGrid), params);
    let config = LiveConfig {
        flush_threshold: 400,
        auto_compact: false,
        ..LiveConfig::default()
    };
    let tail = x.len() - 300;
    let live =
        LiveIndex::from_corpus(&x.substring(0, tail).unwrap(), spec, 2 * ell, config).unwrap();
    live.append(&x.substring(tail, x.len()).unwrap()).unwrap();
    let answers = |live: &LiveIndex| -> Vec<usize> {
        patterns
            .iter()
            .flat_map(|pattern| live.query_owned(pattern).unwrap())
            .collect()
    };
    // Mask one occurrence the memtable scan reports.
    let before = answers(&live);
    let &hit = before
        .iter()
        .find(|&&p| p >= tail)
        .expect("the memtable scan found hits");
    live.delete_range(hit, hit + 1).unwrap();
    assert!(
        answers(&live).len() < before.len(),
        "the tombstone masks hits"
    );
    let stats = live.live_stats();
    assert!(stats.segments >= 2, "{} segments", stats.segments);
    assert!(stats.memtable_rows >= 300);
    assert_eq!(stats.tombstones, 1);
    assert_composite_allocation_free("LIVE-MWSA-G", &patterns, |pattern, scratch, sink| {
        live.query_owned_into(pattern, scratch, sink).unwrap();
    });
}
