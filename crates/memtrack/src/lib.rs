//! # ius-memtrack — peak-heap measurement
//!
//! The paper evaluates *construction space* as the maximum resident set size
//! of the construction process (`/usr/bin/time -v`). This crate provides the
//! deterministic, in-process equivalent: a counting [`std::alloc::GlobalAlloc`]
//! wrapper that tracks live and peak heap bytes, plus a [`measure`] helper
//! that runs a closure and reports the peak heap growth it caused.
//!
//! Two scopes of measurement exist:
//!
//! * [`measure`] counts every thread of the process. Construction benches
//!   need it, because parallel builds allocate on their worker threads.
//! * [`measure_thread`] counts only the calling thread. Allocation-free
//!   hot-path assertions need it: a test harness runs sibling tests
//!   concurrently, and their allocations must not land in the window.
//!
//! Usage (typically in a benchmark binary):
//!
//! ```
//! use ius_memtrack::{measure, CountingAllocator};
//!
//! // In a binary: #[global_allocator] static A: CountingAllocator = CountingAllocator::new();
//! let (value, stats) = measure(|| vec![0u8; 1 << 16]);
//! assert_eq!(value.len(), 1 << 16);
//! // When the counting allocator is not installed the stats are zero, but the
//! // closure's value is still returned.
//! assert!(stats.peak_bytes == 0 || stats.peak_bytes >= 1 << 16);
//! ```

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes allocated through [`CountingAllocator`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Peak of [`LIVE`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls served (alloc/alloc_zeroed/realloc) since process start.
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
/// Whether a `CountingAllocator` has been installed as the global allocator.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Serialises [`measure`] calls so concurrent measurements do not interleave.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// The calling thread's share of the counters: allocation calls, net live
/// bytes (allocations minus the deallocations this thread made, so it can
/// go below zero when the thread frees memory another thread allocated)
/// and the peak of the latter since the last [`measure_thread`] start.
#[derive(Clone, Copy)]
struct ThreadCounts {
    calls: usize,
    live: isize,
    peak: isize,
}

thread_local! {
    // `const`-initialized and free of drop glue: reading it never
    // allocates and never registers a destructor, so the allocator itself
    // may touch it, even while the thread is being torn down.
    static THREAD: Cell<ThreadCounts> = const {
        Cell::new(ThreadCounts { calls: 0, live: 0, peak: 0 })
    };
}

/// A `#[global_allocator]`-compatible allocator that counts live and peak
/// heap usage while delegating to the system allocator.
pub struct CountingAllocator {
    _private: (),
}

impl CountingAllocator {
    /// Creates the allocator (const so it can be used in a `static`).
    pub const fn new() -> Self {
        Self { _private: () }
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            track_dealloc(layout.size());
            track_alloc(new_size);
        }
        new_ptr
    }
}

#[inline]
fn track_alloc(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    track_thread_alloc(size);
}

#[inline]
fn track_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
    track_thread_dealloc(size);
}

#[inline]
fn track_thread_alloc(size: usize) {
    update_thread(|t| {
        t.calls += 1;
        t.live = t.live.wrapping_add(size as isize);
        t.peak = t.peak.max(t.live);
    });
}

#[inline]
fn track_thread_dealloc(size: usize) {
    update_thread(|t| t.live = t.live.wrapping_sub(size as isize));
}

#[inline]
fn update_thread(f: impl FnOnce(&mut ThreadCounts)) {
    // `try_with` cannot fail for a const thread-local without drop glue;
    // ignoring the error keeps the allocator panic-free regardless.
    let _ = THREAD.try_with(|cell| {
        let mut counts = cell.get();
        f(&mut counts);
        cell.set(counts);
    });
}

/// A snapshot of heap statistics produced by [`measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Peak heap growth (bytes above the live level at the start of the
    /// measured closure). Zero when the counting allocator is not installed.
    pub peak_bytes: usize,
    /// Net heap growth retained by the closure's return value (bytes).
    pub retained_bytes: usize,
    /// Allocation calls served during the closure (an arena open shows up
    /// here as **one** call for the buffer, however many typed views are
    /// carved out of it — views attribute bytes, they do not allocate).
    pub alloc_calls: usize,
}

/// Live heap bytes currently allocated (0 when the allocator is not
/// installed as the global allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Peak heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Returns `true` if a [`CountingAllocator`] appears to be installed (i.e. it
/// has served at least one allocation).
pub fn is_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Resets the peak to the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Allocation calls served since process start (0 when the allocator is
/// not installed).
pub fn alloc_calls() -> usize {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs `f`, measuring the peak heap growth above the level at entry and the
/// bytes retained by its return value.
///
/// Measurements are serialised by an internal lock; nested calls would
/// deadlock, so keep measured regions flat (the benchmark harness does).
pub fn measure<T, F: FnOnce() -> T>(f: F) -> (T, MemoryStats) {
    // A poisoned lock only means a previous measurement panicked; the
    // counters are monotone and self-consistent, so continue regardless.
    let _guard = MEASURE_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let before = live_bytes();
    let calls_before = alloc_calls();
    reset_peak();
    let value = f();
    let peak = peak_bytes();
    let after = live_bytes();
    let stats = MemoryStats {
        peak_bytes: peak.saturating_sub(before),
        retained_bytes: after.saturating_sub(before),
        alloc_calls: alloc_calls().saturating_sub(calls_before),
    };
    (value, stats)
}

/// Runs `f`, measuring the heap traffic of the **calling thread only**:
/// peak growth of this thread's net live bytes above the level at entry,
/// the net growth left at exit, and the allocation calls this thread made.
///
/// Allocations made by other threads never land in the window, so this is
/// the measurement for single-threaded hot-path assertions in a test
/// binary whose sibling tests run concurrently. Work `f` hands to other
/// threads is not counted; use [`measure`] for that. Nested calls restart
/// the peak, so keep measured regions flat.
pub fn measure_thread<T, F: FnOnce() -> T>(f: F) -> (T, MemoryStats) {
    let start = THREAD.with(|cell| {
        let mut counts = cell.get();
        counts.peak = counts.live;
        cell.set(counts);
        counts
    });
    let value = f();
    let end = THREAD.with(Cell::get);
    let stats = MemoryStats {
        peak_bytes: end.peak.saturating_sub(start.live).max(0) as usize,
        retained_bytes: end.live.saturating_sub(start.live).max(0) as usize,
        alloc_calls: end.calls - start.calls,
    };
    (value, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the counting allocator is *not* installed as the global allocator
    // of the test binary (that would affect every other test in the
    // workspace); these tests exercise the bookkeeping directly.

    #[test]
    fn tracking_math() {
        reset_peak();
        let base_live = live_bytes();
        track_alloc(1000);
        track_alloc(500);
        assert_eq!(live_bytes(), base_live + 1500);
        assert!(peak_bytes() >= base_live + 1500);
        track_dealloc(1000);
        assert_eq!(live_bytes(), base_live + 500);
        // Peak must not decrease.
        assert!(peak_bytes() >= base_live + 1500);
        track_dealloc(500);
        assert_eq!(live_bytes(), base_live);
    }

    #[test]
    fn measure_returns_closure_value() {
        let (v, stats) = measure(|| (0..100).sum::<u64>());
        assert_eq!(v, 4950);
        // Without the allocator installed the stats are zero — but never
        // garbage.
        assert!(stats.peak_bytes < 1 << 30);
        assert!(stats.retained_bytes <= stats.peak_bytes || stats.peak_bytes == 0);
    }

    #[test]
    fn measure_is_serialised() {
        // Concurrent measures must not deadlock or panic.
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let (v, _) = measure(move || vec![i as u8; 10_000].len());
                    v
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 10_000);
        }
    }

    #[test]
    fn thread_counts_ignore_other_threads() {
        // The per-thread bookkeeping is exercised directly (the allocator
        // is not installed here, and the process-wide counters belong to
        // `tracking_math`): another thread's traffic must not show up in
        // this thread's window, while this thread's own traffic must.
        let ((), stats) = measure_thread(|| {
            std::thread::spawn(|| track_thread_alloc(1 << 20))
                .join()
                .unwrap();
        });
        assert_eq!(stats, MemoryStats::default());
        let ((), stats) = measure_thread(|| {
            track_thread_alloc(300);
            track_thread_alloc(200);
            track_thread_dealloc(300);
        });
        assert_eq!(stats.peak_bytes, 500);
        assert_eq!(stats.retained_bytes, 200);
        assert_eq!(stats.alloc_calls, 2);
        // Freeing more than the window allocated never underflows.
        let ((), stats) = measure_thread(|| track_thread_dealloc(200));
        assert_eq!(stats, MemoryStats::default());
    }

    #[test]
    fn default_constructs() {
        let _a = CountingAllocator::default();
        let _b = CountingAllocator::new();
    }
}
