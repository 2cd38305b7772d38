//! One experiment module per table/figure of the paper's Sec. 4.

pub mod fig10_v2s_vs_jdbc;
pub mod fig11_s2v_vs_jdbc;
pub mod fig12_vs_hdfs;
pub mod fig6_parallelism;
pub mod fig7_data_scaling;
pub mod fig8_cluster_scaling;
pub mod fig9_dimensionality;
pub mod pushdown;
pub mod rebalance;
pub mod stream;
pub mod table2_resources;
pub mod table3_dataset_d2;
pub mod table4_vs_copy;

use common::{Row, Schema};
use netsim::record::Event;
use sparklet::{Options, SaveMode};

use crate::fabric::TestBed;

/// Default lab-scale D1 row count (volumes scale linearly, so only the
/// per-partition structure needs to be realistic).
pub const LAB_D1_ROWS: usize = 8_000;

/// Save rows into `table` through S2V (overwrite) and return the
/// recorded events of the save alone.
pub fn run_s2v_save(
    bed: &TestBed,
    schema: Schema,
    rows: Vec<Row>,
    table: &str,
    partitions: usize,
) -> Vec<Event> {
    let df = bed.dataframe(schema, rows, partitions);
    bed.clear_recorders();
    df.write()
        .format(connector::DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("host", 0)
                .with("table", table)
                .with("numPartitions", partitions),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .expect("S2V save");
    bed.db.recorder().drain()
}

/// Populate `table` (quietly) so a read experiment has a source.
pub fn seed_table(bed: &TestBed, schema: Schema, rows: Vec<Row>, table: &str) {
    let df = bed.dataframe(schema, rows, bed.compute_nodes);
    df.write()
        .format(connector::DEFAULT_SOURCE)
        .options(
            Options::new()
                .with("host", 0)
                .with("table", table)
                .with("numPartitions", bed.db_nodes * 4),
        )
        .mode(SaveMode::Overwrite)
        .save()
        .expect("seeding save");
    bed.clear_recorders();
}

/// Load `table` through V2S with `partitions` and return the events.
pub fn run_v2s_load(bed: &TestBed, table: &str, partitions: usize) -> Vec<Event> {
    bed.clear_recorders();
    let df = bed
        .ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", table)
        .option("numPartitions", partitions)
        .load()
        .expect("V2S relation");
    let rows = df.collect().expect("V2S load");
    assert!(!rows.is_empty(), "load produced no rows");
    bed.db.recorder().drain()
}

/// Serializes the experiment tests. Each asserts on `obs::global()`
/// counter deltas or on model timings of real task schedules, and an
/// experiment running beside it in the same test process pollutes both.
#[cfg(test)]
pub(crate) mod serial {
    use std::sync::OnceLock;

    use parking_lot::{Mutex, MutexGuard};

    /// Hold the experiment lock for the rest of the calling test.
    pub(crate) fn hold() -> MutexGuard<'static, ()> {
        static EXPERIMENTS: OnceLock<Mutex<()>> = OnceLock::new();
        let experiments = EXPERIMENTS.get_or_init(|| Mutex::new(()));
        experiments.lock()
    }
}
