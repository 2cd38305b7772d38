//! Fig. 11 — saving with S2V vs the JDBC default source at small row
//! counts, plus the 1M-row extrapolation of Sec. 4.7.1.
//!
//! Paper: at a single row the fixed costs show (S2V 5 s — protocol
//! table setup/teardown — vs JDBC 3 s); from 1K rows up S2V's COPY path
//! wins decisively; at 1M rows S2V takes 19 s while the INSERT-based
//! JDBC save ran over 3 hours before being stopped.

use netsim::record::Event;
use sparklet::{Options, SaveMode};

use crate::datasets;
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

fn save_s2v(bed: &TestBed, rows: usize, table: &str) -> Vec<Event> {
    let (schema, data) = datasets::d1(rows, 100, 42);
    let df = bed.dataframe(schema, data, 1);
    bed.clear_recorders();
    // The connector repartitions per its numPartitions option (the
    // paper's bulk best practice); the JDBC source below cannot — it
    // writes with the DataFrame's own partitioning.
    let partitions = (rows / 1_000).clamp(1, 16);
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

fn save_jdbc(bed: &TestBed, rows: usize, table: &str) -> Vec<Event> {
    let (schema, data) = datasets::d1(rows, 100, 43);
    let df = bed.dataframe(schema, data, 1);
    bed.clear_recorders();
    df.write()
        .format(baselines::JDBC_FORMAT)
        .options(Options::new().with("host", 0).with("dbtable", table))
        .mode(SaveMode::Overwrite)
        .save()
        .expect("JDBC save");
    bed.db.recorder().drain()
}

/// `(rows, lab rows)` — the 1M point runs at reduced lab scale.
pub const ROW_POINTS: &[(u64, usize)] = &[
    (1, 1),
    (1_000, 1_000),
    (10_000, 10_000),
    (1_000_000, 10_000),
];

fn paper_s2v(rows: u64) -> Option<f64> {
    match rows {
        1 => Some(5.0),
        1_000_000 => Some(19.0),
        _ => None,
    }
}

fn paper_jdbc(rows: u64) -> Option<f64> {
    match rows {
        1 => Some(3.0),
        // ">3 hours, stopped": report the 3-hour floor.
        1_000_000 => Some(3.0 * 3600.0),
        _ => None,
    }
}

pub fn run() -> (Vec<ReportRow>, Vec<(u64, f64, f64)>) {
    let bed = TestBed::new(4, 8);
    let mut report = Vec::new();
    let mut series = Vec::new();
    for &(paper_rows, lab_rows) in ROW_POINTS {
        let scale = paper_rows as f64 / lab_rows as f64;
        let params = SimParams::new(4, 8, scale);
        let s2v = simulate(&save_s2v(&bed, lab_rows, "fig11_s2v"), &params).seconds;
        let jdbc = simulate(&save_jdbc(&bed, lab_rows, "fig11_jdbc"), &params).seconds;
        report.push(ReportRow::new(
            format!("S2V  {paper_rows:>8} rows"),
            paper_s2v(paper_rows),
            s2v,
        ));
        report.push(ReportRow::new(
            format!("JDBC {paper_rows:>8} rows"),
            paper_jdbc(paper_rows),
            jdbc,
        ));
        series.push((paper_rows, s2v, jdbc));
    }
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_at_one_row_and_divergence_at_bulk() {
        let _serial = crate::experiments::serial::hold();
        let (_, series) = run();
        let (_, s2v_1, jdbc_1) = series[0];
        // One row shows fixed costs, a few seconds each, with S2V's
        // protocol tables making it the slower one.
        assert!((2.0..12.0).contains(&s2v_1), "S2V@1 {s2v_1}");
        assert!((0.5..6.0).contains(&jdbc_1), "JDBC@1 {jdbc_1}");
        assert!(s2v_1 > jdbc_1, "S2V {s2v_1} vs JDBC {jdbc_1}");
        // From 1K rows S2V wins.
        let (_, s2v_1k, jdbc_1k) = series[1];
        assert!(s2v_1k < jdbc_1k, "1K: S2V {s2v_1k} vs JDBC {jdbc_1k}");
        // At 1M rows: S2V tens of seconds, JDBC hours.
        let (_, s2v_1m, jdbc_1m) = series[3];
        assert!(s2v_1m < 60.0, "S2V@1M {s2v_1m}");
        assert!(jdbc_1m > 3.0 * 3600.0, "JDBC@1M {jdbc_1m}");
    }
}
