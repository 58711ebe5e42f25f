//! The P3C+-MR and P3C+-MR-Light drivers: chain the jobs of Sections
//! 5.1–5.7 (full) / Section 6 (Light) on a [`p3c_mapreduce::Engine`].

use crate::config::{BinRuleChoice, OutlierMethod, P3cParams};
use crate::cores::ClusterCore;
use crate::inspect::inspect_from_histograms;
use crate::mr::coregen::generate_cluster_cores_mr;
use crate::mr::em::{em_fit_mr, initialize_from_cores_mr, MrEmFit};
use crate::mr::histogram::{
    assemble_histograms, histogram_job, histogram_shard_job_projected, iqr_job,
};
use crate::mr::inspect::{ai_histogram_job, tighten_job};
use crate::mr::outlier::{od_job_mcd, od_job_mvb, od_job_naive};
use crate::p3cplus::{P3cResult, PipelineStats};
use crate::relevance::relevant_intervals;
use crate::types::{Interval, Signature};
use p3c_dataset::{
    colseg, AttrInterval, Clustering, ColumnSet, Dataset, ProjectedCluster, RowBlock,
};
use p3c_mapreduce::{
    take_dataset, DagError, DagScheduler, DatasetHandle, DatasetStore, Emitter, Engine, JobGraph,
    JobKind, JobNode, Mapper, MrError, NodeCtx, SchedulerChoice, SegmentedCodec,
};
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

    /// Clusters through the chosen scheduler: [`SchedulerChoice::Serial`]
    /// chains the jobs as [`Self::cluster`] does, [`SchedulerChoice::Dag`]
    /// runs them as job graphs with materialized datasets.
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<P3cResult, MrError> {
        match scheduler {
            SchedulerChoice::Serial => self.cluster(data),
            SchedulerChoice::Dag => self.cluster_dag(data),
        }
    }

    /// The full pipeline on the DAG scheduler. Two graphs run back to
    /// back — `p3c-core` (concurrent histogram shards feeding core
    /// generation) and `p3c-model` (the EM → outlier → inspection →
    /// tightening chain) — with the row set cached once in a
    /// [`DatasetStore`] instead of re-shipped into every job. The
    /// clustering is byte-identical to [`Self::cluster`].
    pub fn cluster_dag(&self, data: &Dataset) -> Result<P3cResult, MrError> {
        let store = DatasetStore::new();
        let rows_ds = seed_rows(&store, data);
        let d = data.row_refs().first().map_or(0, |r| r.len());
        let (cores, mut stats) =
            core_phase_dag(self.engine, &store, &rows_ds, data.len(), d, &self.params)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let arel: Vec<usize> = arel_of(&cores);
        let k = cores.len();

        let cores_ds: DatasetHandle<Vec<ClusterCore>> = DatasetHandle::new("cores");
        let fit_ds: DatasetHandle<MrEmFit> = DatasetHandle::new("em-fit");
        let assign_ds: DatasetHandle<Vec<i64>> = DatasetHandle::new("assignment");
        let attrs_ds: DatasetHandle<Vec<Vec<usize>>> = DatasetHandle::new("attrs-per-cluster");
        let intervals_ds: DatasetHandle<Vec<Vec<AttrInterval>>> = DatasetHandle::new("intervals");

        let mut graph = JobGraph::new("p3c-model");
        graph.add(
            JobNode::new("em", JobKind::MapReduce, {
                let (rows_ds, cores_ds, fit_ds) =
                    (rows_ds.clone(), cores_ds.clone(), fit_ds.clone());
                let arel = arel.clone();
                let (max_iters, tol) = (self.params.em_max_iters, self.params.em_tol);
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let cores = ctx.fetch(&cores_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let init = initialize_from_cores_mr(ctx.engine, &cores, &refs, &arel)?;
                    let fit = em_fit_mr(ctx.engine, init, &refs, max_iters, tol)?;
                    ctx.put(&fit_ds, fit, 1024);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&cores_ds)
            .output(&fit_ds),
        );
        graph.add(
            JobNode::new("outlier-detection", JobKind::MapReduce, {
                let (rows_ds, fit_ds, assign_ds) =
                    (rows_ds.clone(), fit_ds.clone(), assign_ds.clone());
                let (method, alpha, arel_len) =
                    (self.params.outlier, self.params.alpha_outlier, arel.len());
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let fit = ctx.fetch(&fit_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let eval = Arc::new(fit.model.evaluator());
                    let assignment = match method {
                        OutlierMethod::Naive => {
                            od_job_naive(ctx.engine, eval, &refs, alpha, arel_len)?
                        }
                        OutlierMethod::Mvb => od_job_mvb(ctx.engine, eval, &refs, alpha, arel_len)?,
                        OutlierMethod::Mcd => {
                            od_job_mcd(ctx.engine, eval, &refs, alpha, arel_len, 2)?
                        }
                    };
                    let bytes = 8 * assignment.len();
                    ctx.put(&assign_ds, assignment, bytes);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&fit_ds)
            .output(&assign_ds),
        );
        graph.add(
            JobNode::new("attribute-inspection", JobKind::MapReduce, {
                let (rows_ds, assign_ds, cores_ds, attrs_ds) = (
                    rows_ds.clone(),
                    assign_ds.clone(),
                    cores_ds.clone(),
                    attrs_ds.clone(),
                );
                let params = self.params.clone();
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let assignment = ctx.fetch(&assign_ds)?;
                    let cores = ctx.fetch(&cores_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let k = cores.len();
                    let items: Vec<(i64, &[f64])> = assignment
                        .iter()
                        .copied()
                        .zip(refs.iter().copied())
                        .collect();
                    let mut member_counts = vec![0usize; k];
                    for &a in assignment.iter() {
                        if a >= 0 {
                            member_counts[a as usize] += 1;
                        }
                    }
                    let bins_per_cluster: Vec<usize> = member_counts
                        .iter()
                        .map(|&m| params.bin_rule.to_rule().num_bins(m).max(1))
                        .collect();
                    let hists = ai_histogram_job(ctx.engine, &items, &bins_per_cluster)?;
                    let mut attrs_per_cluster: Vec<Vec<usize>> = Vec::with_capacity(k);
                    for (c, core) in cores.iter().enumerate() {
                        let known = core.signature.attributes();
                        let extra =
                            inspect_from_histograms(&hists[c], member_counts[c], &known, &params);
                        let mut attrs: BTreeSet<usize> = known;
                        attrs.extend(extra.iter().map(|iv| iv.attr));
                        attrs_per_cluster.push(attrs.into_iter().collect());
                    }
                    ctx.put(&attrs_ds, attrs_per_cluster, 16 * k);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&assign_ds)
            .input(&cores_ds)
            .output(&attrs_ds),
        );
        graph.add(
            JobNode::new("interval-tightening", JobKind::MapReduce, {
                let (rows_ds, assign_ds, attrs_ds, intervals_ds) = (
                    rows_ds.clone(),
                    assign_ds.clone(),
                    attrs_ds.clone(),
                    intervals_ds.clone(),
                );
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let assignment = ctx.fetch(&assign_ds)?;
                    let attrs = ctx.fetch(&attrs_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let items: Vec<(i64, &[f64])> = assignment
                        .iter()
                        .copied()
                        .zip(refs.iter().copied())
                        .collect();
                    let intervals =
                        tighten_job(ctx.engine, "p3c-interval-tightening", &items, &attrs)?;
                    let bytes = 32 * attrs.len();
                    ctx.put(&intervals_ds, intervals, bytes);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&assign_ds)
            .input(&attrs_ds)
            .output(&intervals_ds),
        );

        DagScheduler::new(self.engine)
            .run(&graph, &store)
            .map_err(DagError::into_mr)?;

        // `MrEmFit` is not `Clone`; read the iteration count through the
        // store's `Arc` instead of taking the dataset out.
        let fit = store.get(&fit_ds).map_err(|e| MrError::Dag {
            node: "<driver>".to_string(),
            message: e.to_string(),
        })?;
        stats.em_iterations = fit.iterations;
        let assignment: Vec<i64> = take_dataset(&store, &assign_ds)?;
        let attrs_per_cluster: Vec<Vec<usize>> = take_dataset(&store, &attrs_ds)?;
        let intervals: Vec<Vec<AttrInterval>> = take_dataset(&store, &intervals_ds)?;
        stats.outliers = assignment.iter().filter(|&&a| a == -1).count();

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

    /// Clusters through the chosen scheduler (see [`P3cPlusMr::cluster_with`]).
    pub fn cluster_with(
        &self,
        data: &Dataset,
        scheduler: SchedulerChoice,
    ) -> Result<P3cResult, MrError> {
        match scheduler {
            SchedulerChoice::Serial => self.cluster(data),
            SchedulerChoice::Dag => self.cluster_dag(data),
        }
    }

    /// The Light pipeline on the DAG scheduler: the shared `p3c-core`
    /// graph, then a `p3c-light-model` graph where attribute inspection
    /// and core-interval tightening run concurrently off the membership
    /// job's output. Byte-identical to [`Self::cluster`].
    pub fn cluster_dag(&self, data: &Dataset) -> Result<P3cResult, MrError> {
        let store = DatasetStore::new();
        let rows_ds = seed_rows(&store, data);
        let d = data.row_refs().first().map_or(0, |r| r.len());
        let (cores, mut stats) =
            core_phase_dag(self.engine, &store, &rows_ds, data.len(), d, &self.params)?;
        if cores.is_empty() {
            return Ok(empty_result(data.len(), stats));
        }
        let k = cores.len();

        let cores_ds: DatasetHandle<Vec<ClusterCore>> = DatasetHandle::new("cores");
        let memberships_ds: DatasetHandle<Vec<Vec<u32>>> = DatasetHandle::new("memberships");
        let ai_attrs_ds: DatasetHandle<Vec<Vec<usize>>> = DatasetHandle::new("ai-attrs");
        let core_intervals_ds: DatasetHandle<Vec<Vec<AttrInterval>>> =
            DatasetHandle::new("core-intervals");
        let ai_intervals_ds: DatasetHandle<Vec<Vec<AttrInterval>>> =
            DatasetHandle::new("ai-intervals");

        let mut graph = JobGraph::new("p3c-light-model");
        graph.add(
            JobNode::new("membership", JobKind::MapOnly, {
                let (rows_ds, cores_ds, memberships_ds) =
                    (rows_ds.clone(), cores_ds.clone(), memberships_ds.clone());
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let cores = ctx.fetch(&cores_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let memberships = membership_job(ctx.engine, &cores, &refs)?;
                    let bytes = memberships.iter().map(|m| 8 + 4 * m.len()).sum();
                    ctx.put(&memberships_ds, memberships, bytes);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&cores_ds)
            .output(&memberships_ds),
        );
        graph.add(
            JobNode::new("attribute-inspection", JobKind::MapReduce, {
                let (rows_ds, memberships_ds, cores_ds, ai_attrs_ds) = (
                    rows_ds.clone(),
                    memberships_ds.clone(),
                    cores_ds.clone(),
                    ai_attrs_ds.clone(),
                );
                let params = self.params.clone();
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let memberships = ctx.fetch(&memberships_ds)?;
                    let cores = ctx.fetch(&cores_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let k = cores.len();
                    let unique_label = unique_labels(&memberships);
                    let unique_items: Vec<(i64, &[f64])> = unique_label
                        .iter()
                        .copied()
                        .zip(refs.iter().copied())
                        .collect();
                    let unique_counts: Vec<usize> = (0..k)
                        .map(|c| unique_label.iter().filter(|&&l| l == c as i64).count())
                        .collect();
                    let bins_per_cluster: Vec<usize> = unique_counts
                        .iter()
                        .map(|&m| params.bin_rule.to_rule().num_bins(m).max(1))
                        .collect();
                    let hists = ai_histogram_job(ctx.engine, &unique_items, &bins_per_cluster)?;
                    let mut ai_attrs: Vec<Vec<usize>> = Vec::with_capacity(k);
                    for (c, core) in cores.iter().enumerate() {
                        let known = core.signature.attributes();
                        let extra =
                            inspect_from_histograms(&hists[c], unique_counts[c], &known, &params);
                        ai_attrs.push(extra.iter().map(|iv| iv.attr).collect());
                    }
                    ctx.put(&ai_attrs_ds, ai_attrs, 16 * k);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&memberships_ds)
            .input(&cores_ds)
            .output(&ai_attrs_ds),
        );
        graph.add(
            JobNode::new("tighten-core", JobKind::MapReduce, {
                let (rows_ds, memberships_ds, cores_ds, core_intervals_ds) = (
                    rows_ds.clone(),
                    memberships_ds.clone(),
                    cores_ds.clone(),
                    core_intervals_ds.clone(),
                );
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let memberships = ctx.fetch(&memberships_ds)?;
                    let cores = ctx.fetch(&cores_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let core_attrs: Vec<Vec<usize>> = cores
                        .iter()
                        .map(|c| c.signature.attributes().into_iter().collect())
                        .collect();
                    let support_items: Vec<(i64, &[f64])> = memberships
                        .iter()
                        .enumerate()
                        .flat_map(|(i, containing)| containing.iter().map(move |&c| (c as i64, i)))
                        .map(|(c, i)| (c, refs[i]))
                        .collect();
                    let intervals = tighten_job(
                        ctx.engine,
                        "p3c-light-tighten-core",
                        &support_items,
                        &core_attrs,
                    )?;
                    let bytes = 32 * core_attrs.len();
                    ctx.put(&core_intervals_ds, intervals, bytes);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&memberships_ds)
            .input(&cores_ds)
            .output(&core_intervals_ds),
        );
        graph.add(
            JobNode::new("tighten-ai", JobKind::MapReduce, {
                let (rows_ds, memberships_ds, ai_attrs_ds, ai_intervals_ds) = (
                    rows_ds.clone(),
                    memberships_ds.clone(),
                    ai_attrs_ds.clone(),
                    ai_intervals_ds.clone(),
                );
                move |ctx: &NodeCtx| {
                    let rows = ctx.fetch(&rows_ds)?;
                    let memberships = ctx.fetch(&memberships_ds)?;
                    let ai_attrs = ctx.fetch(&ai_attrs_ds)?;
                    let refs: Vec<&[f64]> = rows.row_refs();
                    let k = ai_attrs.len();
                    let any_ai = ai_attrs.iter().any(|a| !a.is_empty());
                    let intervals = if any_ai {
                        let unique_label = unique_labels(&memberships);
                        let unique_items: Vec<(i64, &[f64])> = unique_label
                            .iter()
                            .copied()
                            .zip(refs.iter().copied())
                            .collect();
                        tighten_job(ctx.engine, "p3c-light-tighten-ai", &unique_items, &ai_attrs)?
                    } else {
                        vec![Vec::new(); k]
                    };
                    ctx.put(&ai_intervals_ds, intervals, 32 * k);
                    Ok(())
                }
            })
            .input(&rows_ds)
            .input(&memberships_ds)
            .input(&ai_attrs_ds)
            .output(&ai_intervals_ds),
        );

        DagScheduler::new(self.engine)
            .run(&graph, &store)
            .map_err(DagError::into_mr)?;

        let memberships: Vec<Vec<u32>> = take_dataset(&store, &memberships_ds)?;
        let ai_attrs: Vec<Vec<usize>> = take_dataset(&store, &ai_attrs_ds)?;
        let core_intervals: Vec<Vec<AttrInterval>> = take_dataset(&store, &core_intervals_ds)?;
        let ai_intervals: Vec<Vec<AttrInterval>> = take_dataset(&store, &ai_intervals_ds)?;

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut outliers = Vec::new();
        for (i, containing) in memberships.iter().enumerate() {
            if containing.is_empty() {
                outliers.push(i);
                continue;
            }
            for &c in containing {
                members[c as usize].push(i);
            }
        }
        stats.outliers = outliers.len();
        let core_attrs: Vec<Vec<usize>> = cores
            .iter()
            .map(|c| c.signature.attributes().into_iter().collect())
            .collect();
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

/// Legacy whole-buffer codec for spilling a [`RowBlock`]: `u64` LE row
/// and attribute counts, then the flat row-major values as `f64` LE. The
/// pipelines seed rows with [`row_block_seg_codec`] instead; this is kept
/// as the baseline the `experiments codec` microbench compares against.
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
/// partially-relevant jobs can reload just the columns they scan as a
/// [`ColumnSet`] through [`p3c_mapreduce::DatasetStore::get_columns`].
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

/// Loads the row set into the dataset store once for a whole DAG
/// pipeline (the serial drivers re-ship it into every job) as one
/// contiguous [`RowBlock`]; spillable so a memory-budgeted store can
/// stage it to the block store — in segmented columnar form, so
/// partially-relevant nodes reload only their columns — and reload.
fn seed_rows(store: &DatasetStore, data: &Dataset) -> DatasetHandle<RowBlock> {
    let handle: DatasetHandle<RowBlock> = DatasetHandle::new("rows");
    let block = RowBlock::from(data.clone());
    let bytes = 16 + 8 * block.as_slice().len();
    store.put_segmented(&handle, block, bytes, row_block_seg_codec());
    handle
}

/// Row views over a projected [`ColumnSet`]: the flat buffer holds the
/// `n × width` projection row-major; with zero width (an empty
/// projection) every row is the empty slice, keeping record counts — and
/// thus job metrics — identical to a full-width scan.
fn projected_refs(flat: &[f64], width: usize, n: usize) -> Vec<&[f64]> {
    if width == 0 {
        vec![&[] as &[f64]; n]
    } else {
        flat.chunks_exact(width).collect()
    }
}

/// Attributes constrained by at least one relevant interval, sorted —
/// the projection the core-generation phase actually reads.
fn relevant_attrs(intervals: &[Interval]) -> Vec<usize> {
    intervals
        .iter()
        .map(|iv| iv.attr)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Rewrites interval attributes into positions within the sorted
/// projection `attrs`. The remap is strictly monotone, so every ordering
/// decision downstream (signature sorts, prefix buckets, joins) is
/// preserved and the projected run is step-for-step identical.
fn project_intervals(intervals: &[Interval], attrs: &[usize]) -> Vec<Interval> {
    intervals
        .iter()
        .map(|iv| {
            let attr = attrs
                .binary_search(&iv.attr)
                .expect("interval attr in projection");
            Interval { attr, ..*iv }
        })
        .collect()
}

/// Maps core signatures back from projected positions to global
/// attribute indices — the inverse of [`project_intervals`].
fn unproject_cores(cores: &mut [ClusterCore], attrs: &[usize]) {
    for core in cores.iter_mut() {
        let intervals = core
            .signature
            .intervals()
            .iter()
            .map(|iv| Interval {
                attr: attrs[iv.attr],
                ..*iv
            })
            .collect();
        core.signature = Signature::new(intervals);
    }
}

/// The core-generation phase as a job graph named `p3c-core`: histogram
/// shards over disjoint attribute ranges run concurrently against the
/// cached row set, and their partial counts merge into exactly the
/// histograms the single serial job builds (per-attribute counts are
/// reduced per split in split order, so the merge is bit-exact). The
/// bin-count dataset is pre-seeded for uniform rules and produced by a
/// quartile node under the exact-IQR rule.
/// Partial histogram counts of one shard: `(attribute, bin counts)`.
type HistParts = Vec<(usize, Vec<f64>)>;

fn core_phase_dag(
    engine: &Engine,
    store: &DatasetStore,
    rows_ds: &DatasetHandle<RowBlock>,
    n: usize,
    d: usize,
    params: &P3cParams,
) -> Result<(Vec<ClusterCore>, PipelineStats), MrError> {
    let bins_ds: DatasetHandle<Vec<usize>> = DatasetHandle::new("bins");
    let cores_ds: DatasetHandle<Vec<ClusterCore>> = DatasetHandle::new("cores");
    let stats_ds: DatasetHandle<PipelineStats> = DatasetHandle::new("core-stats");

    let mut graph = JobGraph::new("p3c-core");
    match params.bin_rule {
        BinRuleChoice::FreedmanDiaconisIqr => {
            graph.add(
                JobNode::new("p3c-iqr", JobKind::MapReduce, {
                    let (rows_ds, bins_ds) = (rows_ds.clone(), bins_ds.clone());
                    move |ctx: &NodeCtx| {
                        let rows = ctx.fetch(&rows_ds)?;
                        let refs: Vec<&[f64]> = rows.row_refs();
                        let quartiles = iqr_job(ctx.engine, &refs)?;
                        let bins: Vec<usize> = quartiles
                            .into_iter()
                            .map(|(q1, q3)| crate::p3cplus::iqr_bins(n, q3 - q1))
                            .collect();
                        let bytes = 8 * bins.len();
                        ctx.put(&bins_ds, bins, bytes);
                        Ok(())
                    }
                })
                .input(rows_ds)
                .output(&bins_ds),
            );
        }
        _ => {
            // Uniform rules need no data pass; seeding the bin counts up
            // front makes every histogram shard a source node, so they
            // all become ready at once and overlap maximally.
            let bins = vec![params.bin_rule.to_rule().num_bins(n).max(1); d];
            store.put(&bins_ds, bins, 8 * d.max(1));
        }
    }

    let num_shards = d.clamp(1, 4);
    let chunk = d.div_ceil(num_shards).max(1);
    let mut part_handles: Vec<DatasetHandle<HistParts>> = Vec::with_capacity(num_shards);
    for s in 0..num_shards {
        let (lo, hi) = (s * chunk, ((s + 1) * chunk).min(d));
        let parts_ds: DatasetHandle<HistParts> = DatasetHandle::new(format!("hist-parts-{s}"));
        graph.add(
            JobNode::new(format!("hist-shard-{s}"), JobKind::MapReduce, {
                let (rows_ds, bins_ds, parts_ds) =
                    (rows_ds.clone(), bins_ds.clone(), parts_ds.clone());
                move |ctx: &NodeCtx| {
                    let bins = ctx.fetch(&bins_ds)?;
                    // Projection pushdown: decode only this shard's
                    // attribute columns from the (possibly spilled) rows.
                    let attrs: Vec<usize> = (lo..hi).collect();
                    let cols: Arc<ColumnSet> = ctx.fetch_columns(&rows_ds, &attrs)?;
                    let flat = cols.projected_rows();
                    let refs = projected_refs(&flat, cols.width(), cols.len());
                    let parts = histogram_shard_job_projected(
                        ctx.engine,
                        &refs,
                        &bins,
                        lo..hi,
                        ctx.node_name(),
                    )?;
                    let bytes = parts.iter().map(|(_, c)| 16 + 8 * c.len()).sum();
                    ctx.put(&parts_ds, parts, bytes);
                    Ok(())
                }
            })
            .input(rows_ds)
            .input(&bins_ds)
            .output(&parts_ds),
        );
        part_handles.push(parts_ds);
    }

    graph.add({
        let mut node = JobNode::new("coregen", JobKind::MapReduce, {
            let (rows_ds, bins_ds, cores_ds, stats_ds) = (
                rows_ds.clone(),
                bins_ds.clone(),
                cores_ds.clone(),
                stats_ds.clone(),
            );
            let part_handles = part_handles.clone();
            let params = params.clone();
            move |ctx: &NodeCtx| {
                let bins = ctx.fetch(&bins_ds)?;
                let mut parts: HistParts = Vec::new();
                for h in &part_handles {
                    parts.extend(ctx.fetch(h)?.iter().cloned());
                }
                let hists = assemble_histograms(&bins, parts);
                let mut stats = PipelineStats {
                    bins: hists.bins,
                    ..PipelineStats::default()
                };
                let intervals = relevant_intervals(&hists.histograms, params.alpha_chi2);
                stats.relevant_intervals = intervals.len();
                // Projection pushdown: candidate proving only ever tests the
                // relevant attributes, so fetch just those columns and
                // run core generation in the projected attribute space.
                let arel = relevant_attrs(&intervals);
                let cols: Arc<ColumnSet> = ctx.fetch_columns(&rows_ds, &arel)?;
                let flat = cols.projected_rows();
                let refs = projected_refs(&flat, cols.width(), cols.len());
                let projected = project_intervals(&intervals, &arel);
                let gen = generate_cluster_cores_mr(ctx.engine, &projected, &refs, &params)?;
                stats.core_gen = gen.stats.clone();
                // The proven list and support table are keyed by
                // projected-space signatures, so the redundancy filter
                // runs *before* the cores are unprojected back to
                // dataset attribute ids. (Eq. 7 expected supports are
                // width-only and unaffected by the attribute remap.)
                let mut cores = gen.cores;
                if params.use_redundancy_filter {
                    let n_rows = refs.len();
                    let mut kept =
                        crate::redundancy::filter_redundant_proven(&gen.proven, &gen.table, n_rows);
                    crate::cores::attach_expected_supports(&mut kept, n_rows);
                    stats.redundancy_removed = cores.len().saturating_sub(kept.len());
                    cores = kept;
                }
                unproject_cores(&mut cores, &arel);
                stats.cores = cores.len();
                let bytes = 64 + 128 * cores.len();
                ctx.put(&cores_ds, cores, bytes);
                ctx.put(&stats_ds, stats, 64);
                Ok(())
            }
        })
        .input(rows_ds)
        .input(&bins_ds)
        .output(&cores_ds)
        .output(&stats_ds);
        for h in &part_handles {
            node = node.input(h);
        }
        node
    });

    DagScheduler::new(engine)
        .run(&graph, store)
        .map_err(DagError::into_mr)?;
    let cores: Vec<ClusterCore> = take_dataset(store, &cores_ds)?;
    let stats: PipelineStats = take_dataset(store, &stats_ds)?;
    Ok((cores, stats))
}

/// Label of each point when it belongs to exactly one core, else -1 —
/// the Light variant's unique-membership view, shared by two DAG nodes.
fn unique_labels(memberships: &[Vec<u32>]) -> Vec<i64> {
    memberships
        .iter()
        .map(|containing| match containing.as_slice() {
            [only] => *only as i64,
            _ => -1,
        })
        .collect()
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
    fn dag_full_pipeline_matches_serial_byte_for_byte() {
        let data = generate(&spec(3000, 3, 0.05, 11));
        let eng_serial = engine();
        let eng_dag = engine();
        let serial = P3cPlusMr::new(&eng_serial, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let dag = P3cPlusMr::new(&eng_dag, P3cParams::default())
            .cluster_with(&data.dataset, SchedulerChoice::Dag)
            .unwrap();
        assert_eq!(dag.clustering, serial.clustering);
        assert_eq!(dag.cores, serial.cores);
        assert_eq!(dag.stats.em_iterations, serial.stats.em_iterations);
        // The core graph overlapped its histogram shards and re-used the
        // cached row set across nodes.
        let metrics = eng_dag.cluster_metrics();
        let runs = metrics.dag_runs();
        let core_run = runs.iter().find(|r| r.dag_name == "p3c-core").unwrap();
        assert!(
            core_run.concurrency_high_water >= 2,
            "no overlap: high water {}",
            core_run.concurrency_high_water
        );
        assert!(
            core_run.cache_hits >= 2,
            "rows not re-used: {} hits",
            core_run.cache_hits
        );
        let shards = core_run
            .nodes
            .iter()
            .filter(|n| n.node.starts_with("hist-shard-"))
            .count();
        assert!(shards >= 2, "expected >= 2 histogram shards, got {shards}");
        assert!(runs.iter().any(|r| r.dag_name == "p3c-model"));
    }

    #[test]
    fn dag_light_pipeline_matches_serial_byte_for_byte() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let eng_serial = engine();
        let eng_dag = engine();
        let serial = P3cPlusMrLight::new(&eng_serial, P3cParams::default())
            .cluster(&data.dataset)
            .unwrap();
        let dag = P3cPlusMrLight::new(&eng_dag, P3cParams::default())
            .cluster_with(&data.dataset, SchedulerChoice::Dag)
            .unwrap();
        assert_eq!(dag.clustering, serial.clustering);
        assert_eq!(dag.cores, serial.cores);
        let metrics = eng_dag.cluster_metrics();
        let model_run = metrics
            .dag_runs()
            .iter()
            .find(|r| r.dag_name == "p3c-light-model")
            .cloned()
            .unwrap();
        // Membership, inspection, both tightenings — one execution each.
        assert_eq!(model_run.total_executions, 4);
        assert!(model_run.node("membership").is_some());
    }

    #[test]
    fn dag_iqr_rule_adds_a_quartile_node() {
        let data = generate(&spec(2500, 3, 0.1, 13));
        let params = P3cParams {
            bin_rule: crate::config::BinRuleChoice::FreedmanDiaconisIqr,
            ..P3cParams::default()
        };
        let eng_serial = Engine::new(MrConfig {
            split_size: 100_000,
            ..MrConfig::default()
        });
        let eng_dag = Engine::new(MrConfig {
            split_size: 100_000,
            ..MrConfig::default()
        });
        let serial = P3cPlusMrLight::new(&eng_serial, params.clone())
            .cluster(&data.dataset)
            .unwrap();
        let dag = P3cPlusMrLight::new(&eng_dag, params)
            .cluster_dag(&data.dataset)
            .unwrap();
        assert_eq!(dag.clustering, serial.clustering);
        let metrics = eng_dag.cluster_metrics();
        let runs = metrics.dag_runs();
        let core_run = runs.iter().find(|r| r.dag_name == "p3c-core").unwrap();
        assert!(
            core_run.node("p3c-iqr").is_some(),
            "quartile node missing from the DAG"
        );
    }

    #[test]
    fn empty_data_dag() {
        let ds = p3c_dataset::Dataset::from_rows(vec![]);
        let eng = engine();
        let result = P3cPlusMr::new(&eng, P3cParams::default())
            .cluster_dag(&ds)
            .unwrap();
        assert_eq!(result.clustering.num_clusters(), 0);
    }

    #[test]
    fn dag_pipeline_surfaces_exhausted_faults() {
        let data = generate(&spec(1000, 2, 0.05, 3));
        let eng = Engine::new(MrConfig {
            split_size: 512,
            fault: Some(p3c_mapreduce::FaultPlan::new(1.0, 5)),
            max_attempts: 2,
            ..MrConfig::default()
        });
        // Every map attempt fails, so the first DAG node exhausts its
        // engine-level retries on both node attempts; the scheduler must
        // return (not hang) with the underlying task failure.
        let err = P3cPlusMr::new(&eng, P3cParams::default())
            .cluster_dag(&data.dataset)
            .unwrap_err();
        assert!(
            matches!(err, MrError::TaskFailed { attempts: 2, .. }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn dag_fault_injected_pipeline_still_correct() {
        let data = generate(&spec(2000, 2, 0.05, 3));
        let clean_engine = engine();
        let faulty_engine = Engine::new(MrConfig {
            split_size: 512,
            fault: Some(p3c_mapreduce::FaultPlan::new(0.2, 99)),
            max_attempts: 20,
            ..MrConfig::default()
        });
        let clean = P3cPlusMrLight::new(&clean_engine, P3cParams::default())
            .cluster_dag(&data.dataset)
            .unwrap();
        let faulty = P3cPlusMrLight::new(&faulty_engine, P3cParams::default())
            .cluster_dag(&data.dataset)
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
