//! The load generator shared by every workload: a closed loop (callers
//! that wait for each answer).

use crate::trace::Spans;
use ius_query::QueryStats;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// What one operation came back with.
pub enum Outcome {
    /// Answered at `at` (the answer is checked after that, outside the
    /// timed interval); engine counters if any.
    Done {
        /// When the answer arrived.
        at: Instant,
        /// The engine's counters, if the call returns them.
        stats: Option<QueryStats>,
    },
    /// A typed error or refusal; counts in `failed`.
    Failed,
}

/// In a traced slice, one operation in this many is recorded as a span
/// with its engine counters (the program samples its own stage timings
/// at the same rate); every operation's latency is always kept.
pub const TRACE_EVERY: u64 = 16;

/// A closed-loop window cut into equal slices. With tracing on, every
/// other slice is traced, so one run measures both and the difference is
/// the tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Number of slices.
    pub slices: usize,
    /// Length of one slice.
    pub slice: Duration,
    /// Whether every other slice is traced.
    pub trace: bool,
    /// Slices `k` with `k + phase` even are the traced ones.
    pub phase: usize,
}

impl Window {
    /// A window of `total` cut into `slices` slices.
    pub fn new(total: Duration, slices: usize, trace: bool) -> Self {
        Window {
            slices,
            slice: total / slices as u32,
            trace,
            phase: 0,
        }
    }

    /// Whether slice `k` is traced.
    pub fn traced(&self, k: usize) -> bool {
        self.trace && (k + self.phase).is_multiple_of(2)
    }
}

/// Engine counters and call time of one traced query.
#[derive(Debug, Clone, Copy)]
pub struct QuerySample {
    /// Call time (round trip over TCP, call time in process), ns.
    pub call_ns: u64,
    /// The engine's counters for the query.
    pub stats: QueryStats,
}

/// One slice of a closed-loop window.
#[derive(Debug, Default)]
pub struct Slice {
    /// Whether the slice was traced.
    pub traced: bool,
    /// Completed operations per second.
    pub rate: f64,
    /// Latencies (µs) of the operations started in it, ascending.
    pub latency_us: Vec<f64>,
}

/// Everything one closed loop measured.
#[derive(Debug, Default)]
pub struct Closed {
    /// The complete slices, in order.
    pub slices: Vec<Slice>,
    /// Engine counters of the sampled queries in traced slices.
    pub samples: Vec<QuerySample>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Span buffers of the load threads.
    pub spans: Vec<Spans>,
}

impl Closed {
    /// Appends a later window's measurements.
    fn extend(&mut self, later: Closed) {
        self.slices.extend(later.slices);
        self.samples.extend(later.samples);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.spans.extend(later.spans);
    }
}

/// Slices per segment of a closed-loop window: one traced and one
/// untraced slice in a traced run. Which of the two is traced alternates
/// from segment to segment, so that the first slice after the threads
/// start and connect is as often traced as not.
pub const SEGMENT_SLICES: usize = 2;

/// Runs `threads` closed-loop callers for the whole `window`, or until
/// `stop` is raised; only the slices that ended before it count. The window
/// runs in segments of [`SEGMENT_SLICES`] slices, each on fresh threads with
/// fresh state, so that no one placement of the load threads (and of the
/// server workers they wake) on the CPUs holds for a whole run. Thread `t`
/// of a segment owns the state `make(t)` (a connection, a scratch); its
/// `seq`-th call is `op(state, t, seq)`; sampled calls in traced slices are
/// wrapped in a span named `span_name` whose request id is `(t << 40) |
/// seq`.
pub fn closed_loop<S>(
    threads: usize,
    window: Window,
    epoch: Instant,
    span_name: &'static str,
    stop: Option<&AtomicBool>,
    make: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, usize, u64) -> Outcome + Sync,
) -> Closed {
    let slices = SEGMENT_SLICES.min(window.slices);
    let mut out = Closed::default();
    for phase in 0..window.slices.div_ceil(slices) {
        let per = Window {
            slices,
            phase,
            ..window
        };
        out.extend(segment(threads, per, epoch, span_name, stop, &make, &op));
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            break;
        }
    }
    out
}

/// One segment of [`closed_loop`].
fn segment<S>(
    threads: usize,
    window: Window,
    epoch: Instant,
    span_name: &'static str,
    stop: Option<&AtomicBool>,
    make: &(impl Fn(usize) -> S + Sync),
    op: &(impl Fn(&mut S, usize, u64) -> Outcome + Sync),
) -> Closed {
    let barrier = Barrier::new(threads);
    let complete = AtomicUsize::new(window.slices);
    let start = OnceLock::new();
    let mut out = Closed::default();
    let mut latency_us = vec![Vec::new(); window.slices];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, start, make, op) = (&barrier, &start, make, op);
                let complete = &complete;
                scope.spawn(move || {
                    let mut state = make(t);
                    let mut spans = Spans::new(false, epoch, t as u32 + 1);
                    let mut mine = Closed::default();
                    let mut latency_us = vec![Vec::new(); window.slices];
                    barrier.wait();
                    let start: Instant = *start.get_or_init(Instant::now);
                    let mut seq = 0u64;
                    loop {
                        let began = Instant::now();
                        let k = (began.duration_since(start).as_nanos() / window.slice.as_nanos())
                            as usize;
                        if k >= window.slices {
                            break;
                        }
                        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
                            complete.fetch_min(k, Ordering::Relaxed);
                            break;
                        }
                        let traced = window.traced(k);
                        let sampled = traced && seq.is_multiple_of(TRACE_EVERY);
                        spans.set_on(sampled);
                        spans.enter(span_name, ((t as u64) << 40) | seq);
                        let outcome = op(&mut state, t, seq);
                        mine.attempted += 1;
                        seq += 1;
                        match outcome {
                            Outcome::Done { at, stats } => {
                                spans.exit_at(at);
                                let ns = at.duration_since(began).as_nanos() as u64;
                                latency_us[k].push(ns as f64 / 1e3);
                                if let (true, Some(stats)) = (sampled, stats) {
                                    mine.samples.push(QuerySample { call_ns: ns, stats });
                                }
                            }
                            Outcome::Failed => {
                                spans.exit_at(Instant::now());
                                mine.failed += 1;
                            }
                        }
                    }
                    spans.set_on(false);
                    (mine, latency_us, spans)
                })
            })
            .collect();
        for handle in handles {
            let (mine, theirs, spans) = handle.join().expect("closed-loop thread");
            out.samples.extend(mine.samples);
            out.attempted += mine.attempted;
            out.failed += mine.failed;
            out.spans.push(spans);
            for (all, some) in latency_us.iter_mut().zip(theirs) {
                all.extend(some);
            }
        }
    });
    let secs = window.slice.as_secs_f64();
    out.slices = latency_us
        .into_iter()
        .take(complete.load(Ordering::Relaxed))
        .enumerate()
        .map(|(k, mut latency_us)| {
            latency_us.sort_by(f64::total_cmp);
            Slice {
                traced: window.traced(k),
                rate: latency_us.len() as f64 / secs,
                latency_us,
            }
        })
        .collect();
    out
}
