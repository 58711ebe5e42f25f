//! Split-local interval-bitmap support counting — the MR proving kernel.
//!
//! [`crate::support::Rssc`] answers "which candidates contain this
//! point?" one point at a time, ANDing one candidate-wide bit vector per
//! attribute. Its cost grows with `points × attributes × candidates/64`,
//! which is what a multi-level proving batch of tens of thousands of
//! candidates cannot afford. This kernel turns the loop around and
//! answers "which points of this split does each candidate contain?":
//!
//! 1. One row-major pass over the split builds a bitmap over the split's
//!    rows for every *distinct interval* of the batch (bit `r` set iff
//!    interval contains row `r`, binned exactly like
//!    [`Interval::contains`]).
//! 2. The candidates are walked in order with a stack of prefix ANDs:
//!    depth `d` holds the AND of the current candidate's first `d + 1`
//!    interval bitmaps. Consecutive candidates of a sorted level share
//!    all but their last interval, so each costs one AND plus popcount
//!    over `split/64` words. A prefix whose AND is empty makes every
//!    extension of it zero without touching a word.
//!
//! Counts are exact integers, equal to
//! [`crate::support::count_supports_naive`] for every candidate order;
//! the order only decides how much of the stack is reused.

use crate::types::{Interval, Signature};
use p3c_stats::BinIndexer;

/// Support-counting plan for one candidate batch: the batch's distinct
/// intervals, grouped by discretization, and each candidate as a list of
/// indices into them. Built once per batch; [`SplitCounter::count`] runs
/// per split.
#[derive(Debug, Clone)]
pub struct SplitCounter {
    /// Distinct intervals, sorted by `(attr, bins, bin_lo, bin_hi)` so
    /// each discretization is one run.
    intervals: Vec<Interval>,
    /// Runs of `intervals` sharing `(attr, bins)`: `(attr, indexer,
    /// start, end)` — one bin computation per run per row.
    groups: Vec<(usize, BinIndexer, usize, usize)>,
    /// Per candidate, its interval indices (in the signature's attribute
    /// order), flattened; candidate `j` is `ivs[offsets[j]..offsets[j+1]]`.
    ivs: Vec<u32>,
    offsets: Vec<usize>,
    /// Longest candidate (stack depth).
    max_len: usize,
}

impl SplitCounter {
    /// Plan for counting `candidates` (any order; sorted levels reuse the
    /// prefix stack best).
    pub fn new(candidates: &[Signature]) -> Self {
        let key = |iv: &Interval| (iv.attr, iv.bins, iv.bin_lo, iv.bin_hi);
        let mut intervals: Vec<Interval> = candidates
            .iter()
            .flat_map(|s| s.intervals().iter().copied())
            .collect();
        intervals.sort_unstable_by_key(key);
        intervals.dedup();
        let mut groups = Vec::new();
        let mut start = 0;
        while start < intervals.len() {
            let (attr, bins) = (intervals[start].attr, intervals[start].bins);
            let end = start
                + intervals[start..]
                    .iter()
                    .take_while(|iv| iv.attr == attr && iv.bins == bins)
                    .count();
            groups.push((attr, BinIndexer::new(bins), start, end));
            start = end;
        }
        let mut ivs = Vec::new();
        let mut offsets = Vec::with_capacity(candidates.len() + 1);
        offsets.push(0);
        for cand in candidates {
            for iv in cand.intervals() {
                let i = intervals
                    .binary_search_by_key(&key(iv), key)
                    .expect("interval collected above");
                ivs.push(u32::try_from(i).expect("fewer than 2^32 distinct intervals"));
            }
            offsets.push(ivs.len());
        }
        let max_len = candidates.iter().map(Signature::len).max().unwrap_or(0);
        Self {
            intervals,
            groups,
            ivs,
            offsets,
            max_len,
        }
    }

    /// Number of candidates in the plan.
    pub fn num_candidates(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Supports of every candidate over `rows`, in candidate order.
    pub fn count(&self, rows: &[&[f64]]) -> Vec<u64> {
        let words = rows.len().div_ceil(64);
        let mut counts = vec![0u64; self.num_candidates()];
        if words == 0 {
            return counts;
        }
        let bitmaps = self.interval_bitmaps(rows, words);
        // Prefix stack: `stack[d]` is the AND of the bitmaps of intervals
        // `path[..=d]`, `pop[d]` its popcount; entries at and beyond
        // `path.len()` are dead.
        let mut stack = vec![0u64; self.max_len * words];
        let mut pop = vec![0u64; self.max_len];
        let mut path: Vec<u32> = Vec::with_capacity(self.max_len);
        for (j, count) in counts.iter_mut().enumerate() {
            let cand = &self.ivs[self.offsets[j]..self.offsets[j + 1]];
            if cand.is_empty() {
                *count = rows.len() as u64;
                continue;
            }
            let shared = path.iter().zip(cand).take_while(|(a, b)| a == b).count();
            path.truncate(shared);
            for (d, &iv) in cand.iter().enumerate().skip(shared) {
                path.push(iv);
                let bits = &bitmaps[iv as usize * words..][..words];
                let (done, rest) = stack.split_at_mut(d * words);
                let top = &mut rest[..words];
                pop[d] = if d == 0 {
                    top.copy_from_slice(bits);
                    popcount(top)
                } else if pop[d - 1] == 0 {
                    // Empty prefix: every extension is empty; `top` is
                    // left stale and never read (its popcount is 0).
                    0
                } else {
                    let below = &done[(d - 1) * words..];
                    let mut n = 0u64;
                    for ((t, &a), &b) in top.iter_mut().zip(below).zip(bits) {
                        *t = a & b;
                        n += u64::from(t.count_ones());
                    }
                    n
                };
            }
            *count = pop[cand.len() - 1];
        }
        counts
    }

    /// One row-major pass: bit `r` of interval `i`'s bitmap (`words`
    /// words at `i * words`) is set iff the interval contains `rows[r]`.
    fn interval_bitmaps(&self, rows: &[&[f64]], words: usize) -> Vec<u64> {
        let mut bitmaps = vec![0u64; self.intervals.len() * words];
        for (r, row) in rows.iter().enumerate() {
            let (w, bit) = (r / 64, 1u64 << (r % 64));
            for &(attr, indexer, start, end) in &self.groups {
                let b = indexer.index(row[attr]);
                for (i, iv) in self.intervals[start..end].iter().enumerate() {
                    if iv.bin_lo <= b && b <= iv.bin_hi {
                        bitmaps[(start + i) * words + w] |= bit;
                    }
                }
            }
        }
        bitmaps
    }
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::count_supports_naive;

    /// splitmix64: a seeded, dependency-free case generator.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn rows(data: &[Vec<f64>]) -> Vec<&[f64]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    fn check(candidates: &[Signature], data: &[Vec<f64>]) {
        let r = rows(data);
        assert_eq!(
            SplitCounter::new(candidates).count(&r),
            count_supports_naive(candidates, &r),
            "candidates: {candidates:?}"
        );
    }

    /// A random interval on `attr` under that attribute's bin count.
    fn random_interval(mix: &mut Mix, attr: usize, bins: usize) -> Interval {
        let lo = mix.below(bins);
        let hi = lo + mix.below(bins - lo);
        Interval::new(attr, lo, hi, bins)
    }

    /// A level-concatenated batch, as multi-level collection builds it:
    /// level 1 singletons, then each deeper level as one-interval
    /// extensions of the level below, every level sorted.
    fn random_batch(mix: &mut Mix, d: usize, bins: &[usize]) -> Vec<Signature> {
        let mut batch = Vec::new();
        let mut level: Vec<Signature> = (0..6)
            .map(|_| {
                let a = mix.below(d);
                Signature::singleton(random_interval(mix, a, bins[a]))
            })
            .collect();
        for _ in 0..4 {
            level.sort();
            level.dedup();
            batch.extend(level.iter().cloned());
            let mut next = Vec::new();
            for sig in &level {
                for _ in 0..3 {
                    let a = mix.below(d);
                    if let Some(ext) = sig.extended(random_interval(mix, a, bins[a])) {
                        next.push(ext);
                    }
                }
            }
            level = next;
        }
        batch
    }

    fn random_rows(mix: &mut Mix, n: usize, d: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..d).map(|_| mix.unit()).collect())
            .collect()
    }

    #[test]
    fn seeded_batches_match_naive_at_word_boundary_split_lengths() {
        let mut mix = Mix(0x5eed);
        for case in 0..40 {
            let d = 2 + case % 4;
            // Exact-IQR binning: every attribute its own bin count.
            let bins: Vec<usize> = (0..d).map(|a| 2 + (a * 5 + case) % 11).collect();
            let batch = random_batch(&mut mix, d, &bins);
            for n in [0, 1, 63, 64, 65, 200] {
                check(&batch, &random_rows(&mut mix, n, d));
            }
        }
    }

    #[test]
    fn signature_followed_by_its_own_extension() {
        // Level 2 ends with `ab`; level 3 starts with `ab` + one interval.
        // The stack must extend `ab`'s AND, and the next candidate must
        // not inherit `abc`'s deeper entry.
        let a = Interval::new(0, 0, 4, 10);
        let b = Interval::new(1, 2, 7, 10);
        let c = Interval::new(2, 0, 2, 10);
        let batch = vec![
            Signature::singleton(a),
            Signature::singleton(b),
            Signature::new(vec![a, b]),
            Signature::new(vec![a, b, c]),
            Signature::new(vec![a, b]),
            Signature::new(vec![a]),
            Signature::new(vec![a, c]),
            Signature::new(vec![b, c]),
        ];
        let mut mix = Mix(7);
        for n in [1, 63, 64, 65, 300] {
            check(&batch, &random_rows(&mut mix, n, 3));
        }
    }

    #[test]
    fn empty_prefix_and_single_interval_candidates() {
        // `a` covers the low half of attribute 0 and the data lives in
        // the high half, so `a` and every extension of it count zero.
        let a = Interval::new(0, 0, 4, 10);
        let b = Interval::new(1, 0, 9, 10);
        let c = Interval::new(2, 3, 5, 10);
        let batch = vec![
            Signature::singleton(a),
            Signature::singleton(c),
            Signature::new(vec![a, b]),
            Signature::new(vec![a, b, c]),
            Signature::new(vec![a, c]),
            Signature::new(vec![b, c]),
        ];
        let mut mix = Mix(11);
        let data: Vec<Vec<f64>> = (0..130)
            .map(|_| vec![0.5 + 0.5 * mix.unit(), mix.unit(), mix.unit()])
            .collect();
        check(&batch, &data);
        let counts = SplitCounter::new(&batch).count(&rows(&data));
        assert_eq!(counts[0], 0);
        assert_eq!(&counts[2..5], &[0, 0, 0]);
        assert!(counts[1] > 0 && counts[5] > 0);
    }

    #[test]
    fn empty_batch_and_empty_split() {
        let counter = SplitCounter::new(&[]);
        assert_eq!(counter.num_candidates(), 0);
        assert!(counter.count(&rows(&[vec![0.5]])).is_empty());
        let one = [Signature::singleton(Interval::new(0, 0, 0, 2))];
        assert_eq!(SplitCounter::new(&one).count(&[]), vec![0]);
    }
}
