//! An in-process MapReduce execution engine — the Hadoop stand-in for the
//! P3C+-MR reproduction.
//!
//! The paper implements P3C+ as a sequence of Hadoop jobs. This crate
//! recreates the programming model and the observable behaviour of such a
//! cluster inside one process:
//!
//! * **Programming model** — [`Mapper`], [`Reducer`] and [`Combiner`]
//!   traits with an [`Emitter`] context ([`api`]); mappers may override
//!   [`Mapper::map_split`] to use the whole input split (the paper's MVB
//!   mapper does exactly that in its cleanup phase).
//! * **Execution** — [`Engine`] chunks input into splits, runs map tasks on
//!   a thread pool, hash-partitions and sort-merges the intermediate pairs
//!   into `num_reducers` groups and runs the reduce tasks in parallel
//!   ([`engine`]).
//! * **Fault tolerance** — deterministic, seedable fault injection with
//!   task re-execution ([`fault`]), mirroring Hadoop's retry semantics.
//! * **Distributed cache** — a broadcast-cost-accounted side channel for
//!   shipping candidate sets and RSSC bitmaps to every mapper ([`cache`]).
//! * **Metrics** — per-job record/byte counters and wall-clock phases
//!   ([`metrics`]); these drive the runtime/I/O figures of the evaluation.
//! * **Block storage** — a tiny "HDFS-lite" ([`blockstore`]) used by the
//!   examples to stage datasets as replicated blocks.
//! * **Datasets** — a budgeted, spilling [`DatasetStore`] of named
//!   values ([`dataset`]) that backs the incremental [`ClusterService`].
//! * **Distributed backends** — a [`Backend`] seam over the shuffle data
//!   plane ([`distrib`]): the in-process engine, an in-process shuffle
//!   service, and a multi-process backend whose spawned workers serve
//!   partitions over a checksummed TCP frame protocol with worker
//!   respawn and map re-execution on loss.
//!
//! # Example
//!
//! A word-length count: the mapper emits `(length, 1)` per word, the
//! engine splits the input, shuffles by key and reduces each group, and
//! the job's counters land in the engine's metrics ledger. The P3C+-MR
//! pipelines chain jobs like this one, each feeding the next.
//!
//! ```
//! use p3c_mapreduce::{Emitter, Engine, Mapper, MrConfig, Reducer};
//!
//! struct LenMapper;
//! impl Mapper<String, usize, u64> for LenMapper {
//!     fn map(&self, word: &String, out: &mut Emitter<usize, u64>) {
//!         out.emit(word.len(), 1);
//!     }
//! }
//! struct SumReducer;
//! impl Reducer<usize, u64, (usize, u64)> for SumReducer {
//!     fn reduce(&self, key: &usize, values: Vec<u64>, out: &mut Vec<(usize, u64)>) {
//!         out.push((*key, values.into_iter().sum()));
//!     }
//! }
//!
//! let engine = Engine::new(MrConfig {
//!     split_size: 2,
//!     ..MrConfig::default()
//! });
//! let words: Vec<String> =
//!     ["map", "reduce", "shuffle", "ox", "fox"].iter().map(|s| s.to_string()).collect();
//! let res = engine.run("wordlen", &words, &LenMapper, &SumReducer).unwrap();
//!
//! let mut counts = res.output;
//! counts.sort();
//! assert_eq!(counts, vec![(2, 1), (3, 2), (6, 1), (7, 1)]);
//! let top = counts.iter().max_by_key(|&&(len, n)| (n, len)).map(|p| p.0);
//! assert_eq!(top, Some(3)); // two words of length 3
//!
//! let ledger = engine.cluster_metrics();
//! assert_eq!(ledger.num_jobs(), 1);
//! assert_eq!(ledger.jobs()[0].map_tasks, 3); // 5 words in splits of 2
//! assert_eq!(ledger.jobs()[0].map_input_records, 5);
//! ```
#![warn(missing_docs)]

pub mod api;
pub mod blockstore;
pub mod cache;
pub mod dataset;
pub mod distrib;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod metrics;
pub mod pool;
pub mod service;
pub mod sync;
pub mod weight;

pub use api::{Combiner, Emitter, Mapper, Reducer};
pub use blockstore::BlockStore;
pub use cache::DistributedCache;
pub use dataset::{
    DatasetCodec, DatasetError, DatasetHandle, DatasetStore, DatasetStoreStats, SegmentedCodec,
};
pub use distrib::{
    Backend, BackendChoice, BackendError, LocalBackend, MapOutputTracker, ProcessBackend,
    ShuffleManager, Wire,
};
pub use engine::{stable_partition, Engine, JobOutput, MrConfig, MrError};
pub use fault::FaultPlan;
pub use metrics::{ClusterMetrics, JobMetrics};
pub use pool::{parallel_for_blocks, parallel_for_blocks_with, resolve_threads, run_workers};
pub use service::{ClusterService, ServiceError, ServiceMetrics, Tenant};
pub use weight::Weighable;
