//! Measurement helpers: wall-clock, peak heap, index size and query latency.

use ius_datasets::patterns::PatternSampler;
use ius_index::{IndexFamily, IndexParams, IndexSpec, IndexStats, IndexVariant, UncertainIndex};
use ius_weighted::{Result, WeightedString, ZEstimation};
use std::time::{Duration, Instant};

/// Query sweeps per side when two indexes' query latencies are compared
/// (sharded vs unsharded, fully merged live vs rebuilt). The host's speed
/// drifts over minutes, so the two sides are read in alternating sweeps and
/// each keeps its minimum.
pub const PAIRED_SWEEPS: usize = 15;

/// The seven index kinds evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Weighted suffix tree baseline.
    Wst,
    /// Weighted suffix array baseline.
    Wsa,
    /// Minimizer weighted suffix tree (simple query).
    Mwst,
    /// Minimizer weighted suffix array (simple query).
    Mwsa,
    /// Minimizer weighted suffix tree with the 2D grid.
    MwstG,
    /// Minimizer weighted suffix array with the 2D grid.
    MwsaG,
    /// Minimizer weighted suffix tree built by the space-efficient
    /// construction of Section 4.
    MwstSe,
}

impl IndexKind {
    /// All kinds, in the order the paper's figures list them.
    pub fn all() -> [IndexKind; 7] {
        [
            IndexKind::Wst,
            IndexKind::Wsa,
            IndexKind::Mwst,
            IndexKind::Mwsa,
            IndexKind::MwstG,
            IndexKind::MwsaG,
            IndexKind::MwstSe,
        ]
    }

    /// The kinds shown in the tree-based panels of Figures 6–12.
    pub fn tree_family() -> [IndexKind; 3] {
        [IndexKind::Wst, IndexKind::Mwst, IndexKind::MwstG]
    }

    /// The kinds shown in the array-based panels of Figures 6–12.
    pub fn array_family() -> [IndexKind; 3] {
        [IndexKind::Wsa, IndexKind::Mwsa, IndexKind::MwsaG]
    }

    /// Display name used in reports (matches the paper).
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Wst => "WST",
            IndexKind::Wsa => "WSA",
            IndexKind::Mwst => "MWST",
            IndexKind::Mwsa => "MWSA",
            IndexKind::MwstG => "MWST-G",
            IndexKind::MwsaG => "MWSA-G",
            IndexKind::MwstSe => "MWST-SE",
        }
    }

    /// The builder-layer family this kind maps to. All construction now goes
    /// through the unified [`IndexSpec`] entry point — the per-family match
    /// arms this harness used to hand-roll live in `ius_index::builder`.
    pub fn family(&self) -> IndexFamily {
        match self {
            IndexKind::Wst => IndexFamily::Wst,
            IndexKind::Wsa => IndexFamily::Wsa,
            IndexKind::Mwst => IndexFamily::Minimizer(IndexVariant::Tree),
            IndexKind::Mwsa => IndexFamily::Minimizer(IndexVariant::Array),
            IndexKind::MwstG => IndexFamily::Minimizer(IndexVariant::TreeGrid),
            IndexKind::MwsaG => IndexFamily::Minimizer(IndexVariant::ArrayGrid),
            IndexKind::MwstSe => IndexFamily::SpaceEfficient(IndexVariant::Tree),
        }
    }

    /// The buildable descriptor of this kind under the given parameters.
    pub fn spec(&self, params: IndexParams) -> IndexSpec {
        IndexSpec::new(self.family(), params)
    }

    /// Does constructing this index require the explicit z-estimation?
    pub fn needs_estimation(&self) -> bool {
        self.family().needs_estimation()
    }

    /// Is this one of the `Θ(nz)`-sized baselines?
    pub fn is_baseline(&self) -> bool {
        matches!(self, IndexKind::Wst | IndexKind::Wsa)
    }

    /// Builds the index through the unified builder layer.
    ///
    /// `estimation` must be `Some` for every kind except [`IndexKind::MwstSe`].
    ///
    /// # Errors
    ///
    /// Propagates construction errors of the respective index.
    pub fn build(
        &self,
        x: &WeightedString,
        estimation: Option<&ZEstimation>,
        params: IndexParams,
    ) -> Result<Box<dyn UncertainIndex + Sync>> {
        let spec = self.spec(params);
        // Fail loudly on misuse rather than silently re-deriving the
        // estimation inside the caller's timed/measured region (its cost is
        // folded in separately by `measure_build`).
        assert!(
            estimation.is_some() || !spec.family.needs_estimation(),
            "estimation required for this index kind"
        );
        let index = match estimation {
            Some(estimation) if spec.family.needs_estimation() => {
                spec.build_with_estimation(x, estimation)?
            }
            _ => spec.build(x)?,
        };
        Ok(Box::new(index))
    }
}

/// Everything measured while constructing one index.
pub struct BuildMeasurement {
    /// Which index was built.
    pub kind: IndexKind,
    /// Wall-clock construction time, including the z-estimation when the
    /// index requires it.
    pub wall: Duration,
    /// Peak heap growth during construction, in bytes. Includes the
    /// z-estimation for estimation-based indexes (approximated as
    /// `max(estimation peak, estimation retained + index peak)` when the
    /// estimation is shared across index builds).
    pub peak_bytes: usize,
    /// Final index size in bytes.
    pub size_bytes: usize,
    /// Structural statistics of the index.
    pub stats: IndexStats,
    /// The built index, for subsequent query measurements.
    pub index: Box<dyn UncertainIndex + Sync>,
}

/// Peak/retained heap of building the shared z-estimation, measured once per
/// `(dataset, z)` configuration by [`measure_estimation`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimationCost {
    /// Peak heap growth while constructing the estimation.
    pub peak_bytes: usize,
    /// Heap retained by the estimation itself.
    pub retained_bytes: usize,
    /// Wall-clock time of constructing the estimation.
    pub wall: Duration,
}

/// Builds a z-estimation while measuring its wall-clock time and heap cost.
///
/// # Errors
///
/// Propagates threshold validation errors.
pub fn measure_estimation(x: &WeightedString, z: f64) -> Result<(ZEstimation, EstimationCost)> {
    let start = Instant::now();
    let (result, mem) = ius_memtrack::measure(|| ZEstimation::build(x, z));
    let estimation = result?;
    Ok((
        estimation,
        EstimationCost {
            peak_bytes: mem.peak_bytes,
            retained_bytes: mem.retained_bytes,
            wall: start.elapsed(),
        },
    ))
}

/// Builds one index while measuring wall-clock time, peak heap and size.
///
/// For estimation-based kinds the shared estimation's cost is folded in so
/// that the reported numbers correspond to a from-scratch construction, as
/// the paper measures them.
///
/// # Errors
///
/// Propagates construction errors.
pub fn measure_build(
    kind: IndexKind,
    x: &WeightedString,
    estimation: Option<&ZEstimation>,
    estimation_cost: EstimationCost,
    params: IndexParams,
) -> Result<BuildMeasurement> {
    let start = Instant::now();
    let (built, mem) = ius_memtrack::measure(|| kind.build(x, estimation, params));
    let index = built?;
    let mut wall = start.elapsed();
    let mut peak = mem.peak_bytes;
    if kind.needs_estimation() {
        wall += estimation_cost.wall;
        peak = estimation_cost
            .peak_bytes
            .max(estimation_cost.retained_bytes + mem.peak_bytes);
    }
    Ok(BuildMeasurement {
        kind,
        wall,
        peak_bytes: peak,
        size_bytes: index.size_bytes(),
        stats: index.stats(),
        index,
    })
}

/// Aggregate query-time measurement over a pattern set.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryMeasurement {
    /// Average time per query in microseconds.
    pub avg_micros: f64,
    /// Total number of reported occurrences over all patterns.
    pub total_occurrences: usize,
    /// Number of patterns queried.
    pub num_patterns: usize,
}

/// Runs every pattern through the index and reports the averages.
///
/// Uses the sink-based serving path (`query_into` with one reused scratch
/// and output buffer) — the configuration the query figures are meant to
/// describe.
pub fn measure_queries(
    index: &dyn UncertainIndex,
    patterns: &[Vec<u8>],
    x: &WeightedString,
) -> QueryMeasurement {
    if patterns.is_empty() {
        return QueryMeasurement::default();
    }
    let mut scratch = ius_query::QueryScratch::new();
    let mut out: Vec<usize> = Vec::new();
    let start = Instant::now();
    let mut total = 0usize;
    for pattern in patterns {
        out.clear();
        if index.query_into(pattern, x, &mut scratch, &mut out).is_ok() {
            total += out.len();
        }
    }
    let elapsed = start.elapsed();
    QueryMeasurement {
        avg_micros: elapsed.as_micros() as f64 / patterns.len() as f64,
        total_occurrences: total,
        num_patterns: patterns.len(),
    }
}

/// Samples query patterns the way the paper does (uniformly from the
/// z-estimation), capped at `max_patterns` to keep sweep runtimes sane.
pub fn sample_patterns(
    estimation: &ZEstimation,
    m: usize,
    max_patterns: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let paper_count =
        PatternSampler::paper_pattern_count(estimation.len(), estimation.z()).min(max_patterns);
    PatternSampler::new(estimation, seed).sample_many(m, paper_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ius_datasets::pangenome::PangenomeConfig;

    #[test]
    fn all_kinds_build_and_answer_queries() {
        let x = PangenomeConfig {
            n: 800,
            delta: 0.06,
            seed: 4,
            ..Default::default()
        }
        .generate();
        let z = 8.0;
        let ell = 16usize;
        let params = IndexParams::new(z, ell, x.sigma()).unwrap();
        let (est, est_cost) = measure_estimation(&x, z).unwrap();
        let patterns = sample_patterns(&est, ell, 20, 1);
        assert!(!patterns.is_empty());
        let mut reference: Option<usize> = None;
        for kind in IndexKind::all() {
            let estimation = if kind.needs_estimation() {
                Some(&est)
            } else {
                None
            };
            let b = measure_build(kind, &x, estimation, est_cost, params).unwrap();
            // The space-efficient construction produces an MWST; all other
            // kinds report their own name.
            if matches!(kind, IndexKind::MwstSe) {
                assert_eq!(b.stats.name, "MWST");
            } else {
                assert_eq!(b.kind.name(), b.stats.name.as_str());
            }
            assert!(b.size_bytes > 0);
            let q = measure_queries(b.index.as_ref(), &patterns, &x);
            assert_eq!(q.num_patterns, patterns.len());
            match reference {
                None => reference = Some(q.total_occurrences),
                Some(expected) => assert_eq!(
                    q.total_occurrences,
                    expected,
                    "{} reports a different occurrence total",
                    kind.name()
                ),
            }
        }
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(IndexKind::all().len(), 7);
        assert!(IndexKind::Wst.is_baseline());
        assert!(!IndexKind::Mwsa.is_baseline());
        assert!(IndexKind::Wsa.needs_estimation());
        assert!(!IndexKind::MwstSe.needs_estimation());
        assert_eq!(IndexKind::MwsaG.name(), "MWSA-G");
    }
}
