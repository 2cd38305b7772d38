//! The single-process test bed and the workload sizes.

use std::sync::Arc;

use connector::DefaultSource;
use mppdb::{Cluster, ClusterConfig};
use sparklet::{SparkConf, SparkContext};

/// Database nodes of the bed (the paper's 4:8 cluster).
pub const DB_NODES: usize = 4;
/// Engine nodes of the bed.
pub const ENGINE_NODES: usize = 8;

/// Cores the host offers; the engine never runs more task threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Database cluster plus engine context with the connector registered.
pub struct Bed {
    pub db: Arc<Cluster>,
    pub ctx: SparkContext,
}

impl Bed {
    pub fn new(db_config: ClusterConfig) -> Bed {
        let db = Cluster::new(ClusterConfig {
            node_count: DB_NODES,
            ..db_config
        });
        let ctx = SparkContext::new(SparkConf {
            nodes: ENGINE_NODES,
            thread_cap: nproc(),
            ..SparkConf::default()
        });
        DefaultSource::register(&ctx, Arc::clone(&db));
        Bed { db, ctx }
    }

    /// Drop the cost-model event logs both sides keep, so long runs do
    /// not grow memory. Called between units, outside timed regions.
    pub fn clear_recorders(&self) {
        self.db.recorder().clear();
        self.ctx.recorder().clear();
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] is
/// the smoke-test size.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Engine partitions of every DataFrame and V2S load.
    pub partitions: usize,
    /// `s2v_bulk`: rows × FLOAT columns of the Overwrite save.
    pub s2v_rows: usize,
    pub s2v_cols: usize,
    /// `s2v_bulk`: rows of each Append save.
    pub s2v_append_rows: usize,
    /// Appends between resets of the Append target.
    pub s2v_appends_per_reset: usize,
    /// `v2s_scan`, `sql_analytics`: rows and FLOAT columns of the fact
    /// table (plus the `pct` BIGINT column).
    pub fact_rows: usize,
    pub fact_cols: usize,
    /// `stream_trickle`: micro-batches per cycle and rows per batch.
    pub stream_batches: usize,
    pub stream_batch_rows: usize,
    /// Micro-batches of the untimed warm-up cycle.
    pub stream_warmup_batches: usize,
    /// Repetitions of each layer probe.
    pub probe_reps: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            partitions: 8,
            s2v_rows: 20_000,
            s2v_cols: 100,
            s2v_append_rows: 5_000,
            s2v_appends_per_reset: 4,
            fact_rows: 100_000,
            fact_cols: 20,
            stream_batches: 200,
            stream_batch_rows: 1_500,
            stream_warmup_batches: 8,
            probe_reps: 15,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            partitions: 4,
            s2v_rows: 400,
            s2v_cols: 8,
            s2v_append_rows: 100,
            s2v_appends_per_reset: 2,
            fact_rows: 2_000,
            fact_cols: 6,
            stream_batches: 6,
            stream_batch_rows: 50,
            stream_warmup_batches: 2,
            probe_reps: 3,
        }
    }
}
