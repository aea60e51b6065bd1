//! The shared overlap/home-range routing rule of every composite index.
//!
//! Both composites in this workspace — the static [`crate::ShardedIndex`]
//! and the dynamic `ius_live::LiveIndex` — cut one logical weighted string
//! into an ordered sequence of *home ranges* that tile `[0, n)`, and build
//! each part's index over its home range extended by an **overlap** of
//! `max_pattern_len − 1` positions to the right. The invariants both rely
//! on live here, in one place:
//!
//! * **No loss:** an occurrence of a pattern of length `m ≤ max_pattern_len`
//!   starting at position `p` spans the window `[p, p + m)`, which lies
//!   entirely inside the chunk of the part whose home range contains `p`
//!   (the chunk extends `max_pattern_len − 1` positions past the home end).
//! * **No duplication:** each part reports only starts inside its own home
//!   range; hits in the overlap region (starts belonging to the *next*
//!   part's home range) are dropped by [`HomeRangeSink`]. That single
//!   filter is the deduplication.
//! * **Global order for free:** home ranges are disjoint and increasing and
//!   each part's output is sorted, so the concatenation of the filtered
//!   per-part outputs is globally sorted — the final merge needs no sort.
//!   The parts can therefore stream, one after the other, straight into
//!   one shared buffer.

use ius_query::MatchSink;

/// The chunk overlap implied by a maximum supported pattern length: a
/// window of at most `max_pattern_len` letters starting on the last home
/// position needs `max_pattern_len − 1` more positions to verify.
///
/// # Panics
///
/// Panics in debug builds if `max_pattern_len` is zero (callers validate it
/// before any overlap arithmetic).
#[inline]
pub fn overlap_len(max_pattern_len: usize) -> usize {
    debug_assert!(max_pattern_len > 0, "max_pattern_len must be positive");
    max_pattern_len - 1
}

/// The exclusive end of the chunk covering one home range
/// `[offset, offset + home_len)` plus the overlap, clipped at the logical
/// length `n` (the last part has nothing to its right).
#[inline]
pub fn chunk_end(offset: usize, home_len: usize, overlap: usize, n: usize) -> usize {
    (offset + home_len + overlap).min(n)
}

/// The dedup-and-translate step of the composite query fan-out, as a
/// sink one part's engine streams into: keeps only chunk-local starts
/// inside the home range (`pos < home_len` — overlap hits are the next
/// part's responsibility) and appends them to `out` in global
/// coordinates (`pos + offset`).
///
/// The input order is preserved, so a part's sorted output lands sorted,
/// and parts streamed in home-range order leave `out` globally sorted.
#[derive(Debug)]
pub struct HomeRangeSink<'a> {
    out: &'a mut Vec<usize>,
    home_len: usize,
    offset: usize,
}

impl<'a> HomeRangeSink<'a> {
    /// A sink for the part whose home range is
    /// `[offset, offset + home_len)`, appending to `out`.
    pub fn new(out: &'a mut Vec<usize>, home_len: usize, offset: usize) -> Self {
        Self {
            out,
            home_len,
            offset,
        }
    }
}

impl MatchSink for HomeRangeSink<'_> {
    #[inline]
    fn push(&mut self, pos: usize) -> bool {
        if pos < self.home_len {
            self.out.push(pos + self.offset);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_one_less_than_the_pattern_bound() {
        assert_eq!(overlap_len(1), 0);
        assert_eq!(overlap_len(64), 63);
    }

    #[test]
    fn chunk_end_clips_at_the_logical_length() {
        assert_eq!(chunk_end(0, 10, 7, 100), 17);
        assert_eq!(chunk_end(90, 10, 7, 100), 100);
        assert_eq!(chunk_end(95, 5, 0, 100), 100);
    }

    fn stream(out: &mut Vec<usize>, positions: &[usize], home_len: usize, offset: usize) {
        let mut sink = HomeRangeSink::new(out, home_len, offset);
        for &pos in positions {
            assert!(sink.push(pos), "the home filter never stops a part");
        }
    }

    #[test]
    fn home_filter_drops_overlap_hits_and_translates_the_rest() {
        let mut positions = Vec::new();
        stream(&mut positions, &[0, 3, 9, 10, 14], 10, 100);
        assert_eq!(positions, vec![100, 103, 109]);
        // Order (and hence global sortedness) is preserved, also across
        // parts streamed in home-range order into the same buffer.
        stream(&mut positions, &[0, 4, 12], 10, 110);
        assert_eq!(positions, vec![100, 103, 109, 110, 114]);
    }

    #[test]
    fn home_filter_handles_empty_inputs() {
        let mut positions: Vec<usize> = Vec::new();
        stream(&mut positions, &[], 5, 7);
        assert!(positions.is_empty());
    }
}
