//! Fig. 12 — connector I/O vs the engine's native DFS read/write.
//!
//! Paper: a second 4-node cluster runs HDFS (like the database, not
//! co-located with the engine). Reading columnar files from the DFS is
//! ~30% faster than V2S (blind block streams vs consistent epoch-pinned
//! queries); writing to the DFS lands within a few percent of S2V —
//! the headline that the database can serve as durable DataFrame
//! storage in HDFS's place.

use netsim::record::Event;
use sparklet::{Options, SaveMode};

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

fn dfs_write(bed: &TestBed, partitions: usize) -> Vec<Event> {
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let df = bed.dataframe(schema, rows, partitions);
    bed.clear_recorders();
    df.write()
        .format(baselines::DFS_FORMAT)
        .options(Options::new().with("path", "/bench/fig12"))
        .mode(SaveMode::Overwrite)
        .save()
        .expect("DFS write");
    bed.dfs.as_ref().expect("bed has DFS").recorder().drain()
}

fn dfs_read(bed: &TestBed) -> Vec<Event> {
    bed.clear_recorders();
    let df = bed
        .ctx
        .read()
        .format(baselines::DFS_FORMAT)
        .option("path", "/bench/fig12")
        .load()
        .expect("DFS relation");
    df.collect().expect("DFS read");
    bed.dfs.as_ref().expect("bed has DFS").recorder().drain()
}

/// Returns `(report, (v2s, s2v, dfs_read, dfs_write))` seconds.
pub fn run() -> (Vec<ReportRow>, (f64, f64, f64, f64)) {
    // The paper's two 4:8 clusters: one database, one DFS.
    let bed = TestBed::new(4, 8).with_dfs(4, 256 << 10);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale()).with_dfs(4);

    let s2v_events = run_s2v_save(&bed, schema.clone(), rows.clone(), "fig12", 128);
    let s2v = simulate(&s2v_events, &params).seconds;
    let v2s_events = run_v2s_load(&bed, "fig12", 32);
    let v2s = simulate(&v2s_events, &params).seconds;

    let write_events = dfs_write(&bed, 64);
    let write = simulate(&write_events, &params).seconds;
    let read_events = dfs_read(&bed);
    let read = simulate(&read_events, &params).seconds;

    let report = vec![
        ReportRow::new("V2S read", Some(497.0), v2s),
        ReportRow::new("DFS read", Some(343.0), read),
        ReportRow::new("S2V write", Some(252.0), s2v),
        ReportRow::new("DFS write", None, write),
    ];
    (report, (v2s, s2v, read, write))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_read_faster_write_comparable() {
        let _serial = crate::experiments::serial::hold();
        let (_, (v2s, s2v, read, write)) = run();
        // DFS read beats V2S by roughly the paper's ~30% (we accept
        // 10–50% faster).
        let speedup = v2s / read;
        assert!((1.1..2.0).contains(&speedup), "read speedup {speedup}");
        // DFS write and S2V land in the same ballpark (within 40%).
        let ratio = write / s2v;
        assert!((0.6..1.4).contains(&ratio), "write/S2V {ratio}");
    }
}
