//! Support counting: the naive scan and the Rapid Signature Support
//! Counter (RSSC, paper Section 5.3).
//!
//! RSSC answers "which of these candidate signatures contain point x?"
//! with a handful of AND operations over precomputed bit masks. Per
//! relevant attribute `a`, each histogram bin stores a bit vector over the
//! candidates: bit `j` is 0 iff candidate `j` has an interval on `a` that
//! does **not** cover the bin (candidates without an interval on `a` keep
//! bit 1, like `S2` in the paper's Figure 3). The candidate set of a point
//! is the AND of its bins' vectors over all relevant attributes.
//!
//! Because relevant intervals are runs of histogram bins, using the base
//! histogram binning as the RSSC binning is exact — no boundary
//! subtleties. (The paper derives its binning from interval endpoints;
//! those endpoints *are* bin edges here.)

use crate::types::Signature;
use std::collections::{BTreeMap, HashMap};

/// A table of counted signature supports.
///
/// Filled during cluster-core generation; consulted by the Equation 1
/// leave-one-out tests, redundancy filtering and AI proving.
#[derive(Debug, Clone, Default)]
pub struct SupportTable {
    map: HashMap<Signature, f64>,
}

impl SupportTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `sig`'s counted support.
    pub fn insert(&mut self, sig: Signature, support: f64) {
        self.map.insert(sig, support);
    }

    /// Looks up a previously counted support.
    pub fn get(&self, sig: &Signature) -> Option<f64> {
        self.map.get(sig).copied()
    }

    /// Number of recorded signatures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no signature has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Maintained signature supports in summation form — the incremental
/// service's delta-maintenance state (DESIGN.md §14).
///
/// Signature supports are per-point indicator sums, so the support over
/// the cumulative dataset equals the support over the previous state
/// plus the support over an appended delta block (or minus, for a
/// retract). Counts are exact `u64`s, making the maintained values
/// *equal*, not approximately equal, to a from-scratch count — the
/// foundation of the service's byte-identity contract.
///
/// Invariant: every cached signature is stated against the *current*
/// histogram discretization. When the bin rule steps (the bin count is
/// a function of `n`), callers must [`SupportCache::clear`] — stale
/// discretizations would make [`SupportCache::apply_delta`]'s RSSC pass
/// disagree with the histograms.
#[derive(Debug, Clone, Default)]
pub struct SupportCache {
    // BTreeMap: apply_delta iterates the cache; deterministic order
    // keeps every downstream count sequence reproducible.
    counts: BTreeMap<Signature, u64>,
}

impl SupportCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached support of `sig`, if the cache has seen it.
    pub fn get(&self, sig: &Signature) -> Option<u64> {
        self.counts.get(sig).copied()
    }

    /// Records a freshly counted support.
    pub fn insert(&mut self, sig: Signature, support: u64) {
        self.counts.insert(sig, support);
    }

    /// Number of cached signatures.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Drops every entry (bin-rule step or full invalidation).
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// The cached `(signature, support)` pairs in deterministic
    /// (BTreeMap key) order — snapshot serialization.
    pub fn iter(&self) -> impl Iterator<Item = (&Signature, u64)> {
        self.counts.iter().map(|(sig, &c)| (sig, c))
    }

    /// Folds a delta block into every cached support: one RSSC pass
    /// over the delta rows, then an exact add (append) or subtract
    /// (retract) per signature. Cost is `O(|delta| · cached)` bit-ops —
    /// independent of the cumulative dataset size.
    pub fn apply_delta(&mut self, delta_rows: &[&[f64]], retract: bool) {
        if self.counts.is_empty() || delta_rows.is_empty() {
            return;
        }
        let sigs: Vec<Signature> = self.counts.keys().cloned().collect();
        let delta = count_supports_rssc(&sigs, delta_rows);
        for (sig, d) in sigs.iter().zip(delta) {
            let entry = self.counts.get_mut(sig).expect("cached signature");
            if retract {
                *entry = entry
                    .checked_sub(d)
                    .expect("retract of rows never appended");
            } else {
                *entry += d;
            }
        }
    }

    /// Estimated resident bytes (admission accounting).
    pub fn mem_bytes(&self) -> usize {
        // A signature holds a handful of intervals (4 usizes each); 256
        // bytes is a generous flat estimate per entry including the
        // tree node.
        self.counts.len() * 256
    }
}

/// The RSSC bit-mask structure for one candidate batch.
#[derive(Debug, Clone)]
pub struct Rssc {
    /// Attributes that at least one candidate constrains (`A_rel` of the
    /// batch).
    attrs: Vec<usize>,
    /// Per entry in `attrs`: the attribute's histogram bin count (bins may
    /// differ across attributes under exact-IQR binning).
    bins_of: Vec<usize>,
    /// Per entry in `attrs`: `bins_of × words` mask words, row-major by bin.
    masks: Vec<Vec<u64>>,
    /// Number of candidates.
    num_candidates: usize,
    /// Words per bit vector.
    words: usize,
    /// All-valid-candidates mask (trailing bits cleared).
    full: Vec<u64>,
}

impl Rssc {
    /// Builds masks for a candidate batch. Each attribute's bin count is
    /// read from the candidate intervals themselves (every
    /// [`Interval`](crate::types::Interval) carries its discretization).
    ///
    /// # Panics
    /// Panics if two candidate intervals on the same attribute disagree
    /// about the attribute's bin count.
    pub fn build(candidates: &[Signature]) -> Self {
        let num_candidates = candidates.len();
        let words = num_candidates.div_ceil(64).max(1);
        // Which attributes are constrained at all, and with how many bins?
        let mut attr_set: Vec<usize> = candidates.iter().flat_map(|s| s.attributes()).collect();
        attr_set.sort_unstable();
        attr_set.dedup();
        let mut bins_of = vec![0usize; attr_set.len()];
        for cand in candidates {
            for iv in cand.intervals() {
                let ai = attr_set.binary_search(&iv.attr).expect("attr present");
                if bins_of[ai] == 0 {
                    bins_of[ai] = iv.bins;
                } else {
                    assert_eq!(
                        bins_of[ai], iv.bins,
                        "inconsistent bin counts on attribute {}",
                        iv.attr
                    );
                }
            }
        }

        // Initialize all-ones (valid candidate bits only).
        let full = full_mask(num_candidates, words);
        let mut masks: Vec<Vec<u64>> = bins_of
            .iter()
            .map(|&bins| {
                let mut m = Vec::with_capacity(bins * words);
                for _ in 0..bins {
                    m.extend_from_slice(&full);
                }
                m
            })
            .collect();

        // Clear bit j on bins outside candidate j's interval on a.
        for (j, cand) in candidates.iter().enumerate() {
            for iv in cand.intervals() {
                let ai = attr_set.binary_search(&iv.attr).expect("attr present");
                let mask = &mut masks[ai];
                for bin in 0..bins_of[ai] {
                    if bin < iv.bin_lo || bin > iv.bin_hi {
                        mask[bin * words + j / 64] &= !(1u64 << (j % 64));
                    }
                }
            }
        }
        Self {
            attrs: attr_set,
            bins_of,
            masks,
            num_candidates,
            words,
            full,
        }
    }

    /// Writes the candidate-membership bit vector of `point` into `acc`
    /// (`acc.len() == words`); returns false if there are no candidates.
    pub fn membership_into(&self, point: &[f64], acc: &mut [u64]) -> bool {
        if self.num_candidates == 0 {
            return false;
        }
        debug_assert_eq!(acc.len(), self.words);
        acc.copy_from_slice(&self.full);
        for (ai, &attr) in self.attrs.iter().enumerate() {
            let bin = p3c_stats::histogram::bin_index(point[attr], self.bins_of[ai]);
            let row = &self.masks[ai][bin * self.words..(bin + 1) * self.words];
            let mut any = 0u64;
            for (a, &r) in acc.iter_mut().zip(row) {
                *a &= r;
                any |= *a;
            }
            if any == 0 {
                return false; // early exit: point in no candidate
            }
        }
        true
    }

    /// Adds 1 to `counts[j]` for every candidate j containing `point`.
    pub fn count_into(&self, point: &[f64], counts: &mut [u64], scratch: &mut Vec<u64>) {
        debug_assert_eq!(counts.len(), self.num_candidates);
        scratch.resize(self.words, 0);
        if !self.membership_into(point, scratch) {
            return;
        }
        for (w, &word) in scratch.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
                counts[j] += 1;
                bits &= bits - 1;
            }
        }
    }
}

fn full_mask(num_candidates: usize, words: usize) -> Vec<u64> {
    let mut m = vec![u64::MAX; words];
    let tail = num_candidates % 64;
    if tail != 0 {
        m[words - 1] = (1u64 << tail) - 1;
    }
    if num_candidates == 0 {
        m.fill(0);
    }
    m
}

/// Naive support counting: query every candidate for every point.
/// Kept as the correctness oracle for RSSC and for the ablation benchmark.
pub fn count_supports_naive(candidates: &[Signature], rows: &[&[f64]]) -> Vec<u64> {
    let mut counts = vec![0u64; candidates.len()];
    for row in rows {
        for (j, cand) in candidates.iter().enumerate() {
            if cand.contains(row) {
                counts[j] += 1;
            }
        }
    }
    counts
}

/// RSSC-accelerated support counting over a row set.
pub fn count_supports_rssc(candidates: &[Signature], rows: &[&[f64]]) -> Vec<u64> {
    let rssc = Rssc::build(candidates);
    let mut counts = vec![0u64; candidates.len()];
    let mut scratch = Vec::new();
    for row in rows {
        rssc.count_into(row, &mut counts, &mut scratch);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Interval;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    fn rows(data: &[Vec<f64>]) -> Vec<&[f64]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn rssc_matches_naive_on_small_case() {
        let candidates = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
            Signature::new(vec![iv(1, 0, 4)]),
        ];
        let data = vec![
            vec![0.15, 0.75],
            vec![0.15, 0.25],
            vec![0.95, 0.15],
            vec![0.25, 0.95],
        ];
        let r = rows(&data);
        assert_eq!(
            count_supports_rssc(&candidates, &r),
            count_supports_naive(&candidates, &r)
        );
    }

    #[test]
    fn unconstrained_attribute_keeps_bit_set() {
        // Candidate 0 constrains attr 0 only; a point anywhere on attr 1
        // must still match (the paper's S2-in-Figure-3 case).
        let candidates = vec![Signature::new(vec![iv(0, 0, 4)])];
        let data = vec![vec![0.3, 0.99], vec![0.9, 0.99]];
        assert_eq!(count_supports_rssc(&candidates, &rows(&data)), vec![1]);
    }

    #[test]
    fn more_than_64_candidates() {
        // Cross the word boundary: 130 single-interval candidates.
        let candidates: Vec<Signature> = (0..130)
            .map(|j| Signature::new(vec![Interval::new(j % 5, (j / 5) % 10, (j / 5) % 10, 10)]))
            .collect();
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                (0..5)
                    .map(|j| ((i * 7 + j * 3) % 100) as f64 / 100.0)
                    .collect()
            })
            .collect();
        let r = rows(&data);
        assert_eq!(
            count_supports_rssc(&candidates, &r),
            count_supports_naive(&candidates, &r)
        );
    }

    #[test]
    fn empty_candidates() {
        let r: Vec<&[f64]> = vec![];
        assert!(count_supports_rssc(&[], &r).is_empty());
        let mut acc = vec![0u64; 1];
        assert!(!Rssc::build(&[]).membership_into(&[0.5], &mut acc));
    }

    #[test]
    fn support_table_roundtrip() {
        let mut t = SupportTable::new();
        let s = Signature::new(vec![iv(0, 0, 1)]);
        assert!(t.get(&s).is_none());
        t.insert(s.clone(), 42.0);
        assert_eq!(t.get(&s), Some(42.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mixed_bin_counts_across_attributes() {
        // Attribute 0 discretized with 4 bins, attribute 1 with 16 —
        // exactly what exact-IQR binning produces.
        let candidates = vec![
            Signature::new(vec![Interval::new(0, 0, 1, 4), Interval::new(1, 8, 11, 16)]),
            Signature::new(vec![Interval::new(1, 0, 3, 16)]),
        ];
        let data = vec![
            vec![0.3, 0.6], // in cand 0 (bin0 attr0 ∈ [0,1]; attr1 bin 9)
            vec![0.3, 0.1], // in cand 1 only
            vec![0.9, 0.6], // attr0 bin 3 → outside cand 0
        ];
        let r: Vec<&[f64]> = data.iter().map(|x| x.as_slice()).collect();
        assert_eq!(
            count_supports_rssc(&candidates, &r),
            count_supports_naive(&candidates, &r)
        );
        assert_eq!(count_supports_rssc(&candidates, &r), vec![1, 1]);
    }

    #[test]
    fn support_cache_delta_matches_full_recount() {
        let sigs = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
        ];
        let first = vec![vec![0.15, 0.75], vec![0.15, 0.25], vec![0.95, 0.15]];
        let second = vec![vec![0.25, 0.95], vec![0.05, 0.55]];
        let mut cache = SupportCache::new();
        for (sig, c) in sigs.iter().zip(count_supports_rssc(&sigs, &rows(&first))) {
            cache.insert(sig.clone(), c);
        }
        cache.apply_delta(&rows(&second), false);
        let mut cumulative = first.clone();
        cumulative.extend(second.iter().cloned());
        let full = count_supports_rssc(&sigs, &rows(&cumulative));
        for (sig, c) in sigs.iter().zip(full) {
            assert_eq!(cache.get(sig), Some(c));
        }
        // Retracting the delta restores the original counts exactly.
        cache.apply_delta(&rows(&second), true);
        for (sig, c) in sigs.iter().zip(count_supports_rssc(&sigs, &rows(&first))) {
            assert_eq!(cache.get(sig), Some(c));
        }
    }

    #[test]
    fn count_into_accumulates_across_points() {
        let candidates = vec![Signature::new(vec![iv(0, 0, 4)])];
        let rssc = Rssc::build(&candidates);
        let mut counts = vec![0u64; 1];
        let mut scratch = Vec::new();
        rssc.count_into(&[0.1], &mut counts, &mut scratch);
        rssc.count_into(&[0.3], &mut counts, &mut scratch);
        rssc.count_into(&[0.9], &mut counts, &mut scratch);
        assert_eq!(counts, vec![2]);
    }
}
