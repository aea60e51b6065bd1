//! Benchmark-side spans around each call into a layer of the program.
//!
//! Every load thread owns a [`Spans`] buffer (no sharing, no locks on the
//! hot path); a span records its name, start and end on the run's common
//! clock, its parent span, and the request id shared by every span of one
//! request. The buffers stay in memory and are merged into one [`Trace`]
//! when the run ends, which computes self times and writes the spans out.
//! With tracing off a buffer records nothing and each call costs a branch.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes the same buffer (or, after a merge,
/// the merged trace).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `index.build` or `client.query`.
    pub name: &'static str,
    /// Recording thread (0 = the main thread).
    pub thread: u32,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A buffer for `thread` on the run's clock `epoch`; records only while
    /// `on`.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Self {
        Spans {
            on,
            epoch,
            thread,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording (used to alternate traced and untraced
    /// slices of one window). Only call with no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty());
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: self.thread,
            request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        self.exit_at(Instant::now());
    }

    /// Closes the innermost open span at `end`.
    pub fn exit_at(&mut self, end: Instant) {
        if !self.on {
            return;
        }
        let end = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, request);
        let value = f();
        self.exit();
        value
    }
}

/// All spans of one run, merged from the thread buffers.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Moves a thread buffer's spans in, re-basing their parent links.
    pub fn absorb(&mut self, buffer: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(buffer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the time its child
    /// spans cover. Children of one span run on its thread one after
    /// another, so their durations do not overlap and simply add up.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// Summed self time and summed duration of the spans named `name`.
    pub fn self_and_total(&self, name: &str) -> (u64, u64) {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(a, b), (s, own)| (a + own, b + s.dur_ns()))
    }

    /// Writes the spans as tab-separated rows
    /// (`name thread request parent start_ns end_ns self_ns`).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "name\tthread\trequest\tparent\tstart_ns\tend_ns\tself_ns"
        )?;
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.thread, s.request, parent, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parents_rebase() {
        let epoch = Instant::now();
        let mut a = Spans::new(true, epoch, 0);
        a.enter("root", 1);
        a.span("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        a.exit();
        let mut b = Spans::new(true, epoch, 1);
        b.enter("other", 2);
        b.span("leaf", 2, || ());
        b.exit();
        let mut off = Spans::new(false, epoch, 2);
        off.span("ignored", 3, || ());
        let mut trace = Trace::default();
        trace.absorb(a);
        trace.absorb(b);
        trace.absorb(off);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.spans[3].parent, Some(2));
        let (own, total) = trace.self_and_total("root");
        let child = trace.durations("child")[0] as u64;
        assert_eq!(own + child, total);
        assert!(child >= 2_000_000);
    }
}
