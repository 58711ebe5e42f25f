//! The P3C+-MR and P3C+-MR-Light drivers: chain the jobs of Sections
//! 5.1–5.7 (full) / Section 6 (Light) on a [`p3c_mapreduce::Engine`].

use crate::config::{BinRuleChoice, OutlierMethod, P3cParams};
use crate::cores::ClusterCore;
use crate::inspect::inspect_from_histograms;
use crate::mr::coregen::generate_cluster_cores_mr;
use crate::mr::em::{em_fit_mr, initialize_from_cores_mr};
use crate::mr::histogram::{histogram_job, iqr_job};
use crate::mr::inspect::{ai_histogram_job, tighten_job};
use crate::mr::outlier::{od_job_mcd, od_job_mvb, od_job_naive};
use crate::p3cplus::{P3cResult, PipelineStats};
use crate::relevance::relevant_intervals;
use p3c_dataset::{colseg, Clustering, ColumnSet, Dataset, ProjectedCluster, RowBlock};
use p3c_mapreduce::{Emitter, Engine, Mapper, MrError, SegmentedCodec};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The P3C+-MR algorithm (paper Section 5): every data-proportional step
/// is a MapReduce job on the supplied engine; job counts and shuffle
/// volumes are recorded in the engine's [`p3c_mapreduce::ClusterMetrics`].
pub struct P3cPlusMr<'e> {
    engine: &'e Engine,
    params: P3cParams,
}

impl<'e> P3cPlusMr<'e> {
    /// New MR pipeline over `engine` with validated parameters.
    pub fn new(engine: &'e Engine, params: P3cParams) -> Self {
        params.validate();
        Self { engine, params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// Clusters a normalized dataset through the full MR pipeline.
    pub fn cluster(&self, data: &Dataset) -> Result<P3cResult, MrError> {
        let rows = data.row_refs();
        let (cores, mut stats) = core_phase_mr(self.engine, &rows, data.len(), &self.params)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let arel: Vec<usize> = arel_of(&cores);

        // EM (init jobs + 2 jobs per iteration).
        let init = initialize_from_cores_mr(self.engine, &cores, &rows, &arel)?;
        let fit = em_fit_mr(
            self.engine,
            init,
            &rows,
            self.params.em_max_iters,
            self.params.em_tol,
        )?;
        stats.em_iterations = fit.iterations;
        let eval = Arc::new(fit.model.evaluator());

        // Outlier detection.
        let assignment = match self.params.outlier {
            OutlierMethod::Naive => od_job_naive(
                self.engine,
                Arc::clone(&eval),
                &rows,
                self.params.alpha_outlier,
                arel.len(),
            )?,
            OutlierMethod::Mvb => od_job_mvb(
                self.engine,
                Arc::clone(&eval),
                &rows,
                self.params.alpha_outlier,
                arel.len(),
            )?,
            OutlierMethod::Mcd => od_job_mcd(
                self.engine,
                Arc::clone(&eval),
                &rows,
                self.params.alpha_outlier,
                arel.len(),
                2,
            )?,
        };
        stats.outliers = assignment.iter().filter(|&&a| a == -1).count();

        // Attribute inspection (histogram job + driver-side marking).
        let k = cores.len();
        let items: Vec<(i64, &[f64])> = assignment
            .iter()
            .copied()
            .zip(rows.iter().copied())
            .collect();
        let mut member_counts = vec![0usize; k];
        for &a in &assignment {
            if a >= 0 {
                member_counts[a as usize] += 1;
            }
        }
        let bins_per_cluster: Vec<usize> = member_counts
            .iter()
            .map(|&m| self.params.bin_rule.to_rule().num_bins(m).max(1))
            .collect();
        let hists = ai_histogram_job(self.engine, &items, &bins_per_cluster)?;
        let mut attrs_per_cluster: Vec<Vec<usize>> = Vec::with_capacity(k);
        for (c, core) in cores.iter().enumerate() {
            let known = core.signature.attributes();
            let extra = inspect_from_histograms(&hists[c], member_counts[c], &known, &self.params);
            let mut attrs: BTreeSet<usize> = known;
            attrs.extend(extra.iter().map(|iv| iv.attr));
            attrs_per_cluster.push(attrs.into_iter().collect());
        }

        // Interval tightening job.
        let intervals = tighten_job(
            self.engine,
            "p3c-interval-tightening",
            &items,
            &attrs_per_cluster,
        )?;

        // Assemble.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut outliers = Vec::new();
        for (i, &a) in assignment.iter().enumerate() {
            if a < 0 {
                outliers.push(i);
            } else {
                members[a as usize].push(i);
            }
        }
        let clusters: Vec<ProjectedCluster> = (0..k)
            .map(|c| {
                ProjectedCluster::new(
                    members[c].clone(),
                    attrs_per_cluster[c].iter().copied().collect(),
                    intervals[c].clone(),
                )
            })
            .collect();
        Ok(P3cResult {
            clustering: Clustering::new(clusters, outliers),
            cores,
            stats,
        })
    }
}

/// The P3C+-MR-Light algorithm (paper Section 6): skips EM and outlier
/// detection; support-set membership defines the clusters, and attribute
/// inspection uses only points belonging to exactly one cluster core.
pub struct P3cPlusMrLight<'e> {
    engine: &'e Engine,
    params: P3cParams,
}

impl<'e> P3cPlusMrLight<'e> {
    /// New MR-Light pipeline over `engine` with validated parameters.
    pub fn new(engine: &'e Engine, params: P3cParams) -> Self {
        params.validate();
        Self { engine, params }
    }

    /// The pipeline's parameters.
    pub fn params(&self) -> &P3cParams {
        &self.params
    }

    /// Runs the MR-Light pipeline (no EM refinement) on `data`.
    pub fn cluster(&self, data: &Dataset) -> Result<P3cResult, MrError> {
        let rows = data.row_refs();
        let (cores, mut stats) = core_phase_mr(self.engine, &rows, data.len(), &self.params)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let k = cores.len();

        // Membership job: m′(x) = the cores whose support set contains x.
        let memberships = membership_job(self.engine, &cores, &rows)?;
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut unique_label: Vec<i64> = vec![-1; rows.len()];
        let mut outliers = Vec::new();
        for (i, containing) in memberships.iter().enumerate() {
            if containing.is_empty() {
                outliers.push(i);
                continue;
            }
            for &c in containing {
                members[c as usize].push(i);
            }
            if let [only] = containing.as_slice() {
                unique_label[i] = *only as i64;
            }
        }
        stats.outliers = outliers.len();

        // AI over the uniquely-assigned points (Section 6's histogram).
        let unique_items: Vec<(i64, &[f64])> = unique_label
            .iter()
            .copied()
            .zip(rows.iter().copied())
            .collect();
        let unique_counts: Vec<usize> = (0..k)
            .map(|c| unique_label.iter().filter(|&&l| l == c as i64).count())
            .collect();
        let bins_per_cluster: Vec<usize> = unique_counts
            .iter()
            .map(|&m| self.params.bin_rule.to_rule().num_bins(m).max(1))
            .collect();
        let hists = ai_histogram_job(self.engine, &unique_items, &bins_per_cluster)?;
        let mut core_attrs: Vec<Vec<usize>> = Vec::with_capacity(k);
        let mut ai_attrs: Vec<Vec<usize>> = Vec::with_capacity(k);
        for (c, core) in cores.iter().enumerate() {
            let known = core.signature.attributes();
            let extra = inspect_from_histograms(&hists[c], unique_counts[c], &known, &self.params);
            core_attrs.push(known.iter().copied().collect());
            ai_attrs.push(extra.iter().map(|iv| iv.attr).collect());
        }

        // Tightening: core attributes over the full support sets
        // (multi-membership), AI attributes over the unique members.
        let support_items: Vec<(i64, &[f64])> = memberships
            .iter()
            .enumerate()
            .flat_map(|(i, containing)| containing.iter().map(move |&c| (c as i64, i)))
            .map(|(c, i)| (c, rows[i]))
            .collect();
        let core_intervals = tighten_job(
            self.engine,
            "p3c-light-tighten-core",
            &support_items,
            &core_attrs,
        )?;
        let any_ai = ai_attrs.iter().any(|a| !a.is_empty());
        let ai_intervals = if any_ai {
            tighten_job(
                self.engine,
                "p3c-light-tighten-ai",
                &unique_items,
                &ai_attrs,
            )?
        } else {
            vec![Vec::new(); k]
        };

        let clusters: Vec<ProjectedCluster> = (0..k)
            .map(|c| {
                let mut attrs: BTreeSet<usize> = core_attrs[c].iter().copied().collect();
                attrs.extend(ai_attrs[c].iter().copied());
                let mut intervals = core_intervals[c].clone();
                intervals.extend(ai_intervals[c].iter().copied());
                ProjectedCluster::new(members[c].clone(), attrs, intervals)
            })
            .collect();
        Ok(P3cResult {
            clustering: Clustering::new(clusters, outliers),
            cores,
            stats,
        })
    }
}

/// Histogram job → relevant intervals → MR core generation → redundancy
/// filter: the phase shared by both MR variants.
fn core_phase_mr(
    engine: &Engine,
    rows: &[&[f64]],
    n: usize,
    params: &P3cParams,
) -> Result<(Vec<ClusterCore>, PipelineStats), MrError> {
    let mut stats = PipelineStats::default();
    let d = rows.first().map_or(0, |r| r.len());
    // Per-attribute bin counts; the exact-IQR rule adds one quartile job.
    let bins_per_attr: Vec<usize> = match params.bin_rule {
        BinRuleChoice::FreedmanDiaconisIqr => {
            let quartiles = iqr_job(engine, rows)?;
            quartiles
                .into_iter()
                .map(|(q1, q3)| crate::p3cplus::iqr_bins(n, q3 - q1))
                .collect()
        }
        _ => vec![params.bin_rule.to_rule().num_bins(n).max(1); d],
    };
    let hists = histogram_job(engine, rows, &bins_per_attr)?;
    stats.bins = hists.bins;
    let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
    stats.relevant_intervals = intervals.len();
    let gen = generate_cluster_cores_mr(engine, &intervals, rows, params)?;
    stats.core_gen = gen.stats.clone();
    // Same proven-set redundancy filter as the serial pipeline, fed
    // from the MR coregen's (identically ordered) proven list and
    // support table, so MR cores stay byte-identical to serial.
    let mut cores = gen.cores;
    if params.use_redundancy_filter {
        let mut kept = crate::redundancy::filter_redundant_proven(&gen.proven, &gen.table, n);
        crate::cores::attach_expected_supports(&mut kept, n);
        stats.redundancy_removed = cores.len().saturating_sub(kept.len());
        cores = kept;
    }
    stats.cores = cores.len();
    Ok((cores, stats))
}

/// Map-only membership job for the Light variant: for each point the list
/// of cluster cores whose support set contains it.
fn membership_job(
    engine: &Engine,
    cores: &[ClusterCore],
    rows: &[&[f64]],
) -> Result<Vec<Vec<u32>>, MrError> {
    struct MembershipMapper {
        cores: Arc<Vec<ClusterCore>>,
    }
    impl<'a> Mapper<&'a [f64], (), Vec<u32>> for MembershipMapper {
        fn map(&self, row: &&'a [f64], out: &mut Emitter<(), Vec<u32>>) {
            let containing: Vec<u32> = self
                .cores
                .iter()
                .enumerate()
                .filter(|(_, core)| core.signature.contains(row))
                .map(|(c, _)| c as u32)
                .collect();
            out.emit((), containing);
        }
    }
    let cache = cores.iter().map(|c| 4 + c.signature.len() * 32).sum();
    let result = engine.run_map_only_with_cache(
        "p3c-light-membership",
        rows,
        cache,
        &MembershipMapper {
            cores: Arc::new(cores.to_vec()),
        },
    )?;
    Ok(result.output)
}

/// Whole-buffer codec for spilling a [`RowBlock`]: `u64` LE row and
/// attribute counts, then the flat row-major values as `f64` LE. Kept as
/// the baseline the `experiments codec` microbench compares
/// [`row_block_seg_codec`] against.
pub fn row_block_codec() -> p3c_mapreduce::DatasetCodec<RowBlock> {
    fn encode(block: &RowBlock) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 8 * block.as_slice().len());
        out.extend_from_slice(&(block.len() as u64).to_le_bytes());
        out.extend_from_slice(&(block.dim() as u64).to_le_bytes());
        for v in block.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
    fn decode(bytes: &[u8]) -> RowBlock {
        let mut take8 = {
            let mut at = 0usize;
            move |buf: &[u8]| -> [u8; 8] {
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[at..at + 8]);
                at += 8;
                b
            }
        };
        let n = u64::from_le_bytes(take8(bytes)) as usize;
        let d = u64::from_le_bytes(take8(bytes)) as usize;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            data.push(f64::from_le_bytes(take8(bytes)));
        }
        RowBlock::new(n, d, data)
    }
    p3c_mapreduce::DatasetCodec { encode, decode }
}

/// Segmented columnar codec for spilling a [`RowBlock`]: a tiny `(n, d)`
/// header plus one independently-encoded segment per attribute column
/// (XOR-delta + byte-shuffle + zero-RLE, see `p3c_dataset::colseg`), so
/// a reader can reload just the columns it scans as a [`ColumnSet`]
/// through [`p3c_mapreduce::DatasetStore::get_columns`].
pub fn row_block_seg_codec() -> SegmentedCodec<RowBlock, Vec<f64>, ColumnSet> {
    fn decode_segment(bytes: &[u8], _j: usize, _header: &[u8]) -> Vec<f64> {
        colseg::decode_column(bytes)
    }
    fn project(block: &RowBlock, attrs: &[usize]) -> ColumnSet {
        ColumnSet::from_block(block, attrs)
    }
    SegmentedCodec {
        num_segments: RowBlock::dim,
        encode_header: colseg::block_header,
        encode_segment: colseg::encode_block_column,
        decode_segment,
        assemble_view: colseg::assemble_column_set,
        assemble_full: colseg::assemble_block,
        project,
    }
}

fn arel_of(cores: &[ClusterCore]) -> Vec<usize> {
    cores
        .iter()
        .flat_map(|c| c.signature.attributes())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

fn empty_result(n: usize, stats: PipelineStats) -> P3cResult {
    P3cResult {
        clustering: Clustering::new(Vec::new(), (0..n).collect()),
        cores: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_datagen::{generate, SyntheticSpec};
    use p3c_eval::e4sc;
    use p3c_mapreduce::MrConfig;

    fn spec(n: usize, k: usize, noise: f64, seed: u64) -> SyntheticSpec {
        SyntheticSpec {
            n,
            d: 12,
            num_clusters: k,
            noise_fraction: noise,
            max_cluster_dims: 5,
            seed,
            ..SyntheticSpec::default()
        }
    }

    fn engine() -> Engine {
        Engine::new(MrConfig {
            split_size: 512,
            num_reducers: 4,
            ..MrConfig::default()
        })
    }

    #[test]
    fn mr_full_pipeline_recovers_clusters() {
        let data = generate(&spec(3000, 3, 0.05, 11));
        let eng = engine();
        let result = P3cPlusMr::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        assert_eq!(
            result.clustering.num_clusters(),
            3,
            "stats: {:?}",
            result.stats
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.6, "E4SC = {q}");
        // The pipeline must have run a realistic number of jobs.
        let jobs = eng.cluster_metrics().num_jobs();
        assert!(jobs >= 8, "only {jobs} jobs recorded");
    }

    #[test]
    fn mr_light_pipeline_recovers_clusters() {
        let data = generate(&spec(3000, 3, 0.1, 5));
        let eng = engine();
        let result = P3cPlusMrLight::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        assert_eq!(
            result.clustering.num_clusters(),
            3,
            "stats: {:?}",
            result.stats
        );
        let q = e4sc(&result.clustering, &data.ground_truth);
        assert!(q > 0.7, "E4SC = {q}");
    }

    #[test]
    fn light_runs_fewer_jobs_than_full() {
        let data = generate(&spec(2000, 3, 0.1, 7));
        let eng_full = engine();
        let eng_light = engine();
        P3cPlusMr::new(&eng_full, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        P3cPlusMrLight::new(&eng_light, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let full_jobs = eng_full.cluster_metrics().num_jobs();
        let light_jobs = eng_light.cluster_metrics().num_jobs();
        assert!(
            light_jobs < full_jobs,
            "light {light_jobs} vs full {full_jobs} jobs"
        );
    }

    #[test]
    fn mr_light_matches_serial_light_cores() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let eng = engine();
        let mr = P3cPlusMrLight::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let serial = crate::p3cplus::P3cPlusLight::new(P3cParams::default()).cluster(&data.dataset);
        let mr_sigs: Vec<String> = mr.cores.iter().map(|c| c.signature.to_string()).collect();
        let serial_sigs: Vec<String> = serial
            .cores
            .iter()
            .map(|c| c.signature.to_string())
            .collect();
        assert_eq!(mr_sigs, serial_sigs);
        // And the clusterings agree point-for-point.
        assert_eq!(
            mr.clustering.clusters.len(),
            serial.clustering.clusters.len()
        );
        for (a, b) in mr
            .clustering
            .clusters
            .iter()
            .zip(&serial.clustering.clusters)
        {
            assert_eq!(a.points, b.points);
            assert_eq!(a.attributes, b.attributes);
        }
        assert_eq!(mr.clustering.outliers, serial.clustering.outliers);
    }

    #[test]
    fn exact_iqr_binning_mr_matches_serial() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let params = P3cParams {
            bin_rule: crate::config::BinRuleChoice::FreedmanDiaconisIqr,
            ..P3cParams::default()
        };
        let eng = Engine::new(MrConfig {
            split_size: 100_000,
            ..MrConfig::default()
        });
        // With one split the MR quartile job computes exact quartiles, so
        // MR and serial pipelines must agree on the cores.
        let mr = P3cPlusMrLight::new(&eng, params.clone())
            .cluster(&data.dataset)
            .unwrap();
        let serial = crate::p3cplus::P3cPlusLight::new(params).cluster(&data.dataset);
        let mr_sigs: Vec<String> = mr.cores.iter().map(|c| c.signature.to_string()).collect();
        let serial_sigs: Vec<String> = serial
            .cores
            .iter()
            .map(|c| c.signature.to_string())
            .collect();
        assert_eq!(mr_sigs, serial_sigs);
        // The ledger shows the extra quartile job first.
        assert_eq!(eng.cluster_metrics().jobs()[0].job_name, "p3c-iqr");
    }

    #[test]
    fn empty_data_mr() {
        let ds = p3c_dataset::Dataset::from_rows(vec![]);
        let eng = engine();
        let result = P3cPlusMr::new(&eng, P3cParams::default())
            .cluster(&ds)
            .unwrap();
        assert_eq!(result.clustering.num_clusters(), 0);
    }

    #[test]
    fn fault_injected_pipeline_still_correct() {
        let data = generate(&spec(2000, 2, 0.05, 3));
        let clean_engine = engine();
        let faulty_engine = Engine::new(MrConfig {
            split_size: 512,
            fault: Some(p3c_mapreduce::FaultPlan::new(0.2, 99)),
            max_attempts: 20,
            ..MrConfig::default()
        });
        let clean = P3cPlusMrLight::new(&clean_engine, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let faulty = P3cPlusMrLight::new(&faulty_engine, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        assert_eq!(clean.clustering, faulty.clustering);
        let failed: u64 = faulty_engine
            .cluster_metrics()
            .jobs()
            .iter()
            .map(|j| j.failed_attempts)
            .sum();
        assert!(failed > 0, "fault plan never struck");
    }

    #[test]
    fn pipeline_surfaces_exhausted_faults() {
        let data = generate(&spec(1000, 2, 0.05, 3));
        let eng = Engine::new(MrConfig {
            split_size: 512,
            fault: Some(p3c_mapreduce::FaultPlan::new(1.0, 5)),
            max_attempts: 2,
            ..MrConfig::default()
        });
        // Every map attempt fails, so the first job exhausts its retries;
        // the pipeline must return (not hang) with the task failure.
        let err = P3cPlusMr::new(&eng, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap_err();
        assert!(
            matches!(err, MrError::TaskFailed { attempts: 2, .. }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn speculative_pipeline_matches_and_launches_backups() {
        let data = generate(&spec(1500, 2, 0.05, 17));
        // Every primary attempt straggles, and there are more worker
        // threads (6) than map tasks (1500 rows / 512 = 3), so idle
        // workers are guaranteed to launch backup attempts while the
        // primaries sleep — the test cannot pass vacuously.
        let mk = |speculative: bool| {
            Engine::new(MrConfig {
                split_size: 512,
                threads: 6,
                straggler: Some(p3c_mapreduce::fault::StragglerPlan::new(1.0, 150, 7)),
                speculative,
                ..MrConfig::default()
            })
        };
        let base_engine = mk(false);
        let spec_engine = mk(true);
        let base = P3cPlusMrLight::new(&base_engine, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let speculated = P3cPlusMrLight::new(&spec_engine, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        // Backup attempts must not change the output...
        assert_eq!(base.clustering, speculated.clustering);
        // ...and the straggler plan must actually have triggered some.
        let backups: u64 = spec_engine
            .cluster_metrics()
            .jobs()
            .iter()
            .map(|j| j.speculative_attempts)
            .sum();
        assert!(backups > 0, "no speculative attempts launched");
    }
}
