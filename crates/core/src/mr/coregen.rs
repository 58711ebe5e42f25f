//! MapReduce cluster-core generation (paper Section 5.3).
//!
//! Three pieces:
//!
//! 1. **Parallel candidate generation** — with `k` p-signatures there are
//!    `c = k(k−1)/2` join pairs; above `T_gen` pairs the join runs as a
//!    map-only job over pair-index ranges, with the signature list shipped
//!    through the distributed cache (below `T_gen` it runs serially, since
//!    "each MR job adds some overhead").
//! 2. **Bounded multi-level candidate collection** — candidates are not
//!    proven at every level. While a batch is open, the next level is
//!    generated *speculatively* from the batch's unproven top level, and
//!    the paper's stop heuristic `c_sum > T_c ∧ |Cand_j| > |Cand_{j−1}|`
//!    is checked against it *before* it joins the batch; a speculative
//!    level above `max_candidates_per_level` is too big as well.
//!    Generation gives up as soon as the level crosses that bound. A
//!    too-big level never joins: the open batch is proven with one job
//!    and level j is regenerated from the proven level j−1, where the
//!    serial safety valve applies exactly as in
//!    [`crate::cores::generate_cluster_cores`]. A batch's first level has
//!    no collected predecessor, so it is proven alone once it exceeds
//!    `T_c` by itself.
//! 3. **Interval-bitmap candidate proving** — each mapper builds one
//!    bitmap over its split's rows per distinct interval of the batch and
//!    counts every candidate as an AND of its intervals' bitmaps, sharing
//!    prefix ANDs along the sorted batch
//!    ([`crate::splitcount::SplitCounter`]); it emits per-split support
//!    counts and reducers sum them.

use crate::config::P3cParams;
use crate::cores::{filter_maximal, ClusterCore, CoreGenStats, SupportTester};
use crate::mr::SigMsg;
use crate::splitcount::SplitCounter;
use crate::support::SupportTable;
use crate::types::{Interval, Signature};
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, Reducer};
// audit: unordered-ok — HashSet here backs membership probes only
// (Apriori prune checks); every iterated/emitted collection below is a
// BTreeSet or explicitly sorted Vec.
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Distributed-cache charge for shipping a signature list to mappers.
fn signature_bytes(sigs: &[Signature]) -> usize {
    sigs.iter().map(|s| 4 + s.len() * 32).sum()
}

// ------------------------------------------------------------- proving --

/// Mapper for the proving job: split-local interval-bitmap counting.
struct ProveMapper {
    counter: Arc<SplitCounter>,
}

impl<'a> Mapper<&'a [f64], usize, u64> for ProveMapper {
    fn map(&self, row: &&'a [f64], out: &mut Emitter<usize, u64>) {
        self.map_split(std::slice::from_ref(row), out);
    }

    fn map_split(&self, split: &[&'a [f64]], out: &mut Emitter<usize, u64>) {
        for (idx, c) in self.counter.count(split).into_iter().enumerate() {
            if c > 0 {
                out.emit(idx, c);
            }
        }
    }
}

struct SumReducer;
impl Reducer<usize, u64, (usize, u64)> for SumReducer {
    fn reduce(&self, key: &usize, values: Vec<u64>, out: &mut Vec<(usize, u64)>) {
        out.push((*key, values.into_iter().sum()));
    }
}

/// Counts the supports of a candidate batch with one MR job.
pub fn proving_job(
    engine: &Engine,
    candidates: &[Signature],
    rows: &[&[f64]],
) -> Result<Vec<u64>, MrError> {
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    let result = engine.run_with_cache(
        "p3c-prove-candidates",
        rows,
        signature_bytes(candidates),
        &ProveMapper {
            counter: Arc::new(SplitCounter::new(candidates)),
        },
        &SumReducer,
    )?;
    let mut counts = vec![0u64; candidates.len()];
    for (idx, c) in result.output {
        counts[idx] = c;
    }
    Ok(counts)
}

// -------------------------------------------------- candidate generation --

/// Mapper for parallel candidate generation: each record is a range of
/// prefix buckets (index ranges into the sorted signature list) to join.
///
/// The paper partitions the raw `k(k−1)/2` pair-index space across
/// mappers; since only pairs sharing a (p−1)-prefix can produce surviving
/// candidates, we ship the same distributed-cache payload but let each
/// mapper enumerate pairs *within its buckets* — identical output, far
/// fewer wasted join attempts (see DESIGN.md §1).
struct CandGenMapper {
    /// Sorted signature list.
    level: Arc<Vec<Signature>>,
    // audit: unordered-ok — membership probes only, never iterated.
    prune: Arc<HashSet<Signature>>,
}

impl Mapper<(usize, usize), (), SigMsg> for CandGenMapper {
    /// A record `(i, end)` joins `sorted[i]` with every `sorted[j]`,
    /// `i < j < end` — one record per bucket row, so every in-bucket pair
    /// is enumerated exactly once and large buckets spread across tasks.
    fn map(&self, &(i, end): &(usize, usize), out: &mut Emitter<(), SigMsg>) {
        for j in (i + 1)..end {
            if let Some(cand) =
                crate::cores::join_in_bucket(&self.level[i], &self.level[j], &self.prune)
            {
                out.emit((), SigMsg(cand));
            }
        }
    }
}

/// Candidate generation: serial below `t_gen` within-bucket join pairs, a
/// map-only MR job above (paper Section 5.3). Duplicate candidates from
/// different pair joins are removed, and the all-subsets Apriori prune is
/// applied. Produces exactly [`crate::cores::generate_candidates`]'s
/// output either way.
pub fn generate_candidates_mr(
    engine: &Engine,
    level: &[Signature],
    // audit: unordered-ok — membership probes only, never iterated.
    prune_against: &HashSet<Signature>,
    t_gen: usize,
) -> Result<Vec<Signature>, MrError> {
    Ok(
        generate_candidates_within_mr(engine, level, prune_against, t_gen, usize::MAX)?
            .expect("no level exceeds usize::MAX candidates"),
    )
}

/// [`generate_candidates_mr`] bounded by `limit`: `None` when the level
/// has more than `limit` candidates. The serial join gives up at the
/// first candidate past the bound; the MR join runs to completion and is
/// checked after.
fn generate_candidates_within_mr(
    engine: &Engine,
    level: &[Signature],
    // audit: unordered-ok — membership probes only, never iterated.
    prune_against: &HashSet<Signature>,
    t_gen: usize,
    limit: usize,
) -> Result<Option<Vec<Signature>>, MrError> {
    // Sort and bucket by (p−1)-prefix.
    let mut sorted: Vec<Signature> = level.to_vec();
    sorted.sort();
    sorted.dedup();
    let mut buckets = crate::cores::prefix_buckets(&sorted);
    let join_pairs: usize = buckets
        .iter()
        .map(|(s, e)| (e - s) * (e - s).saturating_sub(1) / 2)
        .sum();
    if join_pairs <= t_gen {
        return Ok(crate::cores::generate_candidates_within(
            level,
            prune_against,
            limit,
        ));
    }
    // One record per bucket row: (i, end) means "join sorted[i] with
    // sorted[i+1..end]" — exact pair coverage with balanced tasks.
    buckets = buckets
        .into_iter()
        .flat_map(|(s, e)| (s..e).map(move |i| (i, e)))
        .collect();
    let level_arc = Arc::new(sorted);
    let prune_arc = Arc::new(prune_against.clone());
    let cache_bytes = signature_bytes(level);
    let result = engine.run_map_only_with_cache(
        "p3c-candidate-generation",
        &buckets,
        cache_bytes,
        &CandGenMapper {
            level: level_arc,
            prune: prune_arc,
        },
    )?;
    // BTreeSet: dedup and the output's sorted order in one structure —
    // this collection IS the emitted result, so its order must be fixed.
    let mut set: BTreeSet<Signature> = BTreeSet::new();
    for SigMsg(sig) in result.output {
        set.insert(sig);
    }
    Ok((set.len() <= limit).then(|| set.into_iter().collect()))
}

// ------------------------------------------- multi-level orchestration --

/// Result of the MapReduce core-generation phase.
#[derive(Debug, Clone)]
pub struct MrCoreGenResult {
    /// The maximal proven cores.
    pub cores: Vec<ClusterCore>,
    /// All proven signatures with their supports (pre-maximality).
    pub proven: Vec<(Signature, f64)>,
    /// Support table over all counted signatures.
    pub table: SupportTable,
    /// Per-level generation statistics.
    pub stats: CoreGenStats,
    /// Levels counted by each proving job, in job order (one entry per
    /// multi-level collection batch; they sum to
    /// `stats.candidates_per_level.len()`).
    pub batches: Vec<usize>,
}

/// Runs cluster-core generation with multi-level candidate collection
/// (paper Section 5.3). Produces exactly the same proven set as the
/// serial [`crate::cores::generate_cluster_cores`] — the collection
/// heuristic only changes *when* supports are counted, and only levels
/// generated from proven signatures ever meet the
/// `max_candidates_per_level` valve.
pub fn generate_cluster_cores_mr(
    engine: &Engine,
    intervals: &[Interval],
    rows: &[&[f64]],
    params: &P3cParams,
) -> Result<MrCoreGenResult, MrError> {
    let n = rows.len();
    let tester = SupportTester::from_params(params);
    let mut table = SupportTable::new();
    let mut stats = CoreGenStats::default();
    let mut all_proven: Vec<(Signature, f64)> = Vec::new();
    // Every signature proven so far, across batches. Threading this set
    // through proving keeps the downward-closure check exact: re-deriving
    // provenness from the support table is wrong, because Equation 1
    // alone is not recursive — a signature can pass it while one of its
    // own subsignatures failed validation.
    // audit: unordered-ok — membership probes only, never iterated.
    let mut proven_set: HashSet<Signature> = HashSet::new();
    let mut batches = Vec::new();
    let cap = match params.max_candidates_per_level {
        0 => usize::MAX,
        cap => cap,
    };

    // Level-1 candidates.
    let mut current: Vec<Signature> = intervals
        .iter()
        .map(|&iv| Signature::singleton(iv))
        .collect();
    current.sort();
    current.dedup();

    // The levels collected since the last proving job; `csum` counts
    // their candidates.
    let mut batch: Vec<Vec<Signature>> = Vec::new();
    let mut csum = 0usize;
    let mut level = 1usize;
    while !current.is_empty() && level <= params.max_levels {
        if batch.is_empty() {
            // Generated from proven signatures: the serial valve applies.
            crate::cores::truncate_level(&mut current, params, &mut stats);
        }
        stats.candidates_per_level.push(current.len());
        csum += current.len();
        batch.push(current);
        let top = batch.last().expect("level just collected");

        // Speculate on the next level from the unproven top level, within
        // the stop rule: it may join only if it does not grow past the
        // top level once the batch exceeds t_c, and never above the valve.
        // A batch's first level has no collected predecessor, so it is
        // proven at once when it alone exceeds t_c.
        let speculative = if batch.len() == 1 && csum > params.t_c {
            None
        } else {
            let limit = top.len().max(params.t_c.saturating_sub(csum)).min(cap);
            // audit: unordered-ok — membership probes only, never iterated.
            let prune: HashSet<Signature> = top.iter().cloned().collect();
            generate_candidates_within_mr(engine, top, &prune, params.t_gen, limit)?
        };
        current = match speculative {
            Some(next) => next,
            None => {
                // Prove the open batch, then regenerate the next level
                // from the just-proven top level.
                let proven_now = prove_batch(
                    engine,
                    &batch,
                    rows,
                    n,
                    &tester,
                    &mut table,
                    &mut proven_set,
                    &mut stats,
                )?;
                batches.push(batch.len());
                let basis: Vec<Signature> = proven_now
                    .iter()
                    .filter(|(s, _)| s.len() == level)
                    .map(|(s, _)| s.clone())
                    .collect();
                all_proven.extend(proven_now);
                batch.clear();
                csum = 0;
                // audit: unordered-ok — membership probes only, never iterated.
                let prune: HashSet<Signature> = basis.iter().cloned().collect();
                generate_candidates_mr(engine, &basis, &prune, params.t_gen)?
            }
        };
        level += 1;
    }
    if !batch.is_empty() {
        let proven_now = prove_batch(
            engine,
            &batch,
            rows,
            n,
            &tester,
            &mut table,
            &mut proven_set,
            &mut stats,
        )?;
        batches.push(batch.len());
        all_proven.extend(proven_now);
    }

    stats.total_proven = all_proven.len();
    let mut cores = filter_maximal(&all_proven);
    crate::cores::attach_expected_supports(&mut cores, n);
    stats.maximal = cores.len();
    Ok(MrCoreGenResult {
        cores,
        proven: all_proven,
        table,
        stats,
        batches,
    })
}

/// Proves a batch of levels with one MR support-counting job, evaluating
/// Equation 1 level by level (a candidate needs all its subsignatures
/// proven, so validation ascends).
#[allow(clippy::too_many_arguments)]
fn prove_batch(
    engine: &Engine,
    batch: &[Vec<Signature>],
    rows: &[&[f64]],
    n: usize,
    tester: &SupportTester,
    table: &mut SupportTable,
    // audit: unordered-ok — membership probes only, never iterated.
    proven_set: &mut HashSet<Signature>,
    stats: &mut CoreGenStats,
) -> Result<Vec<(Signature, f64)>, MrError> {
    let flat: Vec<Signature> = batch.iter().flatten().cloned().collect();
    let counts = proving_job(engine, &flat, rows)?;
    for (sig, &c) in flat.iter().zip(&counts) {
        table.insert(sig.clone(), c as f64);
    }
    // Validate ascending by level; a signature is proven iff Equation 1
    // holds AND all its subsignatures are proven (matching the serial
    // per-level semantics). `proven_set` persists across batches, so the
    // downward-closure check is exact for subsignatures proved in earlier
    // batches too. It must NOT be re-derived from the support table: the
    // table already holds this batch's counts, and Equation 1 in
    // isolation can accept a signature whose validation failed the
    // closure check one level down.
    let mut proven: Vec<(Signature, f64)> = Vec::new();
    let mut by_level: Vec<Vec<(&Signature, f64)>> = Vec::new();
    for level_sigs in batch {
        by_level.push(
            level_sigs
                .iter()
                .map(|s| (s, table.get(s).unwrap_or(0.0)))
                .collect(),
        );
    }
    for level_sigs in by_level {
        let mut proven_this_level = 0usize;
        for (sig, support) in level_sigs {
            let subs_ok =
                sig.len() == 1 || sig.subsignatures().all(|sub| proven_set.contains(&sub));
            if subs_ok && tester.passes_equation1(sig, support, n, table) {
                proven_set.insert(sig.clone());
                proven.push((sig.clone(), support));
                proven_this_level += 1;
            }
        }
        stats.proven_per_level.push(proven_this_level);
    }
    Ok(proven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_mapreduce::MrConfig;

    fn iv(attr: usize, lo: usize, hi: usize) -> Interval {
        Interval::new(attr, lo, hi, 10)
    }

    #[test]
    fn parallel_candgen_matches_serial() {
        // 40 singletons on 8 attributes → 780 pairs; force the MR path
        // with t_gen = 0.
        let level: Vec<Signature> = (0..40)
            .map(|i| Signature::singleton(Interval::new(i % 8, i / 8, i / 8, 10)))
            .collect();
        let prune: HashSet<Signature> = level.iter().cloned().collect();
        let serial = crate::cores::generate_candidates(&level, &prune);
        let engine = Engine::new(MrConfig::default());
        let parallel = generate_candidates_mr(&engine, &level, &prune, 0).unwrap();
        assert_eq!(serial, parallel);
        assert!(engine.cluster_metrics().num_jobs() >= 1);
    }

    #[test]
    fn proving_job_matches_serial_counts() {
        let candidates = vec![
            Signature::new(vec![iv(0, 0, 2)]),
            Signature::new(vec![iv(0, 0, 2), iv(1, 5, 9)]),
        ];
        let data: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let t = (i as f64 + 0.5) / 300.0;
                vec![t, 1.0 - t]
            })
            .collect();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 37,
            ..MrConfig::default()
        });
        let mr = proving_job(&engine, &candidates, &rows).unwrap();
        let serial = crate::support::count_supports_naive(&candidates, &rows);
        assert_eq!(mr, serial);
        // Cache bytes were charged.
        let metrics = engine.cluster_metrics();
        assert!(metrics.jobs()[0].broadcast_bytes > 0);
    }

    #[test]
    fn mr_coregen_equals_serial_coregen() {
        // Planted 2D cluster; MR and serial generation must agree on the
        // proven set and cores.
        let mut data = Vec::new();
        for i in 0..300 {
            let t = (i as f64 + 0.5) / 300.0;
            data.push(vec![0.11 + 0.08 * t, 0.56 + 0.08 * t, t]);
        }
        for i in 0..300 {
            let t = (i as f64 + 0.5) / 300.0;
            data.push(vec![t, (t * 7.0).fract(), (t * 13.0).fract()]);
        }
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let intervals = vec![iv(0, 1, 2), iv(1, 5, 6), iv(2, 0, 9)];
        let params = P3cParams {
            alpha_poisson: 1e-6,
            ..P3cParams::default()
        };
        let engine = Engine::new(MrConfig {
            split_size: 100,
            ..MrConfig::default()
        });
        let mr = generate_cluster_cores_mr(&engine, &intervals, &rows, &params).unwrap();
        let serial = crate::cores::generate_cluster_cores(&intervals, &rows, &params);
        let mut mr_proven = mr.proven.clone();
        let mut serial_proven = serial.proven.clone();
        mr_proven.sort_by(|a, b| a.0.cmp(&b.0));
        serial_proven.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(mr_proven, serial_proven);
        let mr_sigs: Vec<&Signature> = mr.cores.iter().map(|c| &c.signature).collect();
        let serial_sigs: Vec<&Signature> = serial.cores.iter().map(|c| &c.signature).collect();
        assert_eq!(mr_sigs, serial_sigs);
        assert!(!mr.batches.is_empty());
    }

    /// Three overlapping planted subspace clusters over 7 attributes, with
    /// nested relevant intervals, so Apriori runs several levels deep and
    /// candidate sets both grow and shrink across levels.
    fn layered_data() -> (Vec<Vec<f64>>, Vec<Interval>) {
        let mut state = 0x5eedu64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let clusters: [(&[usize], f64, usize); 3] = [
            (&[0, 1, 2, 3, 4], 0.2, 500),
            (&[2, 3, 4, 5, 6], 0.6, 400),
            (&[0, 1, 5, 6], 0.4, 300),
        ];
        let mut data = Vec::new();
        for &(attrs, at, size) in &clusters {
            for _ in 0..size {
                let mut row: Vec<f64> = (0..7).map(|_| unit()).collect();
                for &a in attrs {
                    row[a] = at + 0.1 * unit();
                }
                data.push(row);
            }
        }
        data.extend((0..800).map(|_| (0..7).map(|_| unit()).collect::<Vec<f64>>()));
        let mut intervals = Vec::new();
        for a in 0..7 {
            for (lo, hi) in [(2, 2), (1, 2), (2, 3), (6, 6), (5, 6), (4, 4), (3, 4)] {
                intervals.push(iv(a, lo, hi));
            }
        }
        (data, intervals)
    }

    #[test]
    fn bounded_collection_matches_serial_and_respects_the_stop_rule() {
        let (data, intervals) = layered_data();
        let rows: Vec<&[f64]> = data.iter().map(|r| r.as_slice()).collect();
        let engine = Engine::new(MrConfig {
            split_size: 300,
            ..MrConfig::default()
        });
        let default = P3cParams::default();
        let settings = [
            (0, default.max_candidates_per_level),
            (500, default.max_candidates_per_level),
            (default.t_c, default.max_candidates_per_level),
            (500, 400),
            (default.t_c, 400),
        ];
        let mut valve_fired = false;
        for (t_c, cap) in settings {
            let params = P3cParams {
                t_c,
                max_candidates_per_level: cap,
                alpha_poisson: 1e-6,
                ..default.clone()
            };
            let serial = crate::cores::generate_cluster_cores(&intervals, &rows, &params);
            let mr = generate_cluster_cores_mr(&engine, &intervals, &rows, &params).unwrap();
            let label = format!("t_c={t_c} cap={cap}");
            assert!(serial.stats.candidates_per_level.len() >= 4, "{label}");
            assert_eq!(mr.proven, serial.proven, "{label}");
            // Serial leaves expected supports to its caller; the proven
            // list already pins the cores' signatures and supports.
            assert_eq!(mr.cores.len(), serial.cores.len(), "{label}");
            assert_eq!(
                mr.stats.truncated_levels, serial.stats.truncated_levels,
                "{label}"
            );
            valve_fired |= serial.stats.truncated_levels > 0;

            // Replay every batch: no level after a batch's first may have
            // tripped the stop rule or crossed the valve when it joined.
            let sizes = &mr.stats.candidates_per_level;
            assert_eq!(mr.batches.iter().sum::<usize>(), sizes.len(), "{label}");
            let mut start = 0;
            for &len in &mr.batches {
                let levels = &sizes[start..start + len];
                let mut csum = levels[0];
                assert!(levels[0] <= cap, "{label}: {levels:?}");
                assert!(len == 1 || levels[0] <= t_c, "{label}: {levels:?}");
                for j in 1..len {
                    csum += levels[j];
                    let tripped = csum > t_c && levels[j] > levels[j - 1];
                    assert!(!tripped && levels[j] <= cap, "{label}: {levels:?}");
                }
                start += len;
            }
            if t_c == 0 {
                assert_eq!(mr.batches.len(), sizes.len(), "{label}");
            } else if cap == default.max_candidates_per_level {
                assert!(mr.batches.len() < sizes.len(), "{label}: {sizes:?}");
            }
        }
        assert!(valve_fired, "the small cap must truncate a serial level");
    }

    #[test]
    fn empty_intervals() {
        let rows: Vec<&[f64]> = vec![];
        let engine = Engine::with_defaults();
        let result = generate_cluster_cores_mr(&engine, &[], &rows, &P3cParams::default()).unwrap();
        assert!(result.cores.is_empty());
        assert!(result.batches.is_empty());
    }
}
