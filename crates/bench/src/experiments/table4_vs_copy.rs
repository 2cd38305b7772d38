//! Table 4 — S2V vs the database's native bulk-load COPY.
//!
//! Paper: the CSV file is split into parts distributed across the
//! database nodes' local disks and COPYed in parallel; the best time
//! (238 s at 8 parts, two per node) edges out S2V's best (252 s at 128
//! partitions) by ~6%.

use common::csv;
use mppdb::{CopyOptions, CopySource};
use netsim::record::{Event, NodeRef};

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

/// Run a parallel COPY of the D1 CSV split into `parts` file parts
/// distributed round-robin over the nodes; returns the recorded events.
fn run_parallel_copy(bed: &TestBed, csv_text: &str, parts: usize, table: &str) -> Vec<Event> {
    {
        let mut s = bed.db.connect(0).unwrap();
        s.execute(&format!("DROP TABLE IF EXISTS {table}")).unwrap();
        let cols: Vec<String> = (0..100).map(|i| format!("c{i} FLOAT")).collect();
        s.execute(&format!("CREATE TABLE {table} ({})", cols.join(", ")))
            .unwrap();
    }
    bed.clear_recorders();
    let lines: Vec<&str> = csv_text.lines().collect();
    let per_part = lines.len().div_ceil(parts);
    for (part, chunk) in lines.chunks(per_part).enumerate() {
        let node = part % bed.db_nodes;
        let text = chunk.join("\n");
        let mut session = bed.db.connect(node).unwrap();
        session.set_task_tag(Some(part as u64));
        // The part is read from the node's local data disk.
        bed.db.recorder().work(
            Some(part as u64),
            NodeRef::Db(node),
            "local_disk_read",
            chunk.len() as u64,
            text.len() as u64,
        );
        session
            .copy(
                table,
                CopySource::Csv {
                    text,
                    delimiter: ',',
                },
                CopyOptions::default(),
            )
            .expect("COPY part");
    }
    bed.db.recorder().drain()
}

pub const PART_SWEEP: &[usize] = &[4, 8, 16, 32];

/// Returns `(report, s2v_best, copy per part-count)`.
pub fn run(sweep: &[usize]) -> (Vec<ReportRow>, f64, Vec<(usize, f64)>) {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    // S2V's best configuration (Fig. 6: 128 partitions).
    let s2v_events = run_s2v_save(&bed, schema.clone(), rows.clone(), "table4_s2v", 128);
    let s2v = simulate(&s2v_events, &params).seconds;

    let csv_text = csv::encode_rows(&rows, ',');
    let mut report = vec![ReportRow::new("S2V (128 partitions)", Some(252.0), s2v)];
    let mut sweep_out = Vec::new();
    for &parts in sweep {
        let events = run_parallel_copy(&bed, &csv_text, parts, "table4_copy");
        let secs = simulate(&events, &params).seconds;
        let paper = if parts == 8 { Some(238.0) } else { None };
        report.push(ReportRow::new(
            format!("COPY {parts:>2} parts"),
            paper,
            secs,
        ));
        sweep_out.push((parts, secs));
    }
    (report, s2v, sweep_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_best_edges_out_s2v() {
        let _serial = crate::experiments::serial::hold();
        let (_, s2v, sweep) = run(&[4, 8, 16]);
        let best_copy = sweep.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min);
        // COPY's best beats S2V, but only modestly (the paper's ~6%;
        // we accept up to 30%).
        assert!(best_copy < s2v, "COPY {best_copy} vs S2V {s2v}");
        assert!(best_copy > s2v * 0.7, "COPY {best_copy} vs S2V {s2v}");
        // 4 parts underuse the cluster.
        let four = sweep.iter().find(|(p, _)| *p == 4).unwrap().1;
        assert!(four > best_copy * 1.3, "COPY@4 {four} vs best {best_copy}");
    }
}
