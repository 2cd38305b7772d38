//! Fig. 10 — loading with V2S vs the JDBC default source, with and
//! without filter pushdown (5% selectivity).
//!
//! Paper: with the filter pushed down both collapse to a small fraction
//! of the full-load time and perform comparably; without pushdown V2S
//! is ~4× faster because every JDBC range query funnels through the
//! single configured host node.

use common::Expr;
use netsim::record::Event;

use crate::datasets::{self, specs};
use crate::experiments::{seed_table, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

fn load_v2s(bed: &TestBed, filter: Option<Expr>) -> Vec<Event> {
    bed.clear_recorders();
    let mut df = bed
        .ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", "fig10")
        .option("numPartitions", 32)
        .load()
        .expect("V2S relation");
    if let Some(f) = filter {
        df = df.filter(f).expect("filter");
    }
    df.collect().expect("V2S load");
    bed.db.recorder().drain()
}

fn load_jdbc(bed: &TestBed, filter: Option<Expr>) -> Vec<Event> {
    bed.clear_recorders();
    let mut df = bed
        .ctx
        .read()
        .format(baselines::JDBC_FORMAT)
        .option("host", 0)
        .option("dbtable", "fig10")
        .option("partitionColumn", "pct")
        .option("lowerBound", 0)
        .option("upperBound", 99)
        .option("numPartitions", 32)
        .load()
        .expect("JDBC relation");
    if let Some(f) = filter {
        df = df.filter(f).expect("filter");
    }
    df.collect().expect("JDBC load");
    bed.db.recorder().drain()
}

/// Returns report rows plus
/// `(v2s_push, jdbc_push, v2s_full, jdbc_full)` seconds.
pub fn run() -> (Vec<ReportRow>, (f64, f64, f64, f64)) {
    let bed = TestBed::new(4, 8);
    // D1 plus the integer column of Sec. 4.7.1 for range partitioning
    // and the 5%-selectivity predicate.
    let (schema, rows) = datasets::d1_with_int_column(LAB_D1_ROWS, 100, 42);
    seed_table(&bed, schema, rows, "fig10");
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    let pushdown = || Expr::col("pct").lt(Expr::lit(5i64));

    let v2s_push = simulate(&load_v2s(&bed, Some(pushdown())), &params).seconds;
    let jdbc_push = simulate(&load_jdbc(&bed, Some(pushdown())), &params).seconds;
    let v2s_full = simulate(&load_v2s(&bed, None), &params).seconds;
    let jdbc_full = simulate(&load_jdbc(&bed, None), &params).seconds;

    let report = vec![
        ReportRow::new("V2S, 5% pushdown", None, v2s_push),
        ReportRow::new("JDBC, 5% pushdown", None, jdbc_push),
        ReportRow::new("V2S, no pushdown", Some(497.0), v2s_full),
        ReportRow::new("JDBC, no pushdown", None, jdbc_full),
    ];
    (report, (v2s_push, jdbc_push, v2s_full, jdbc_full))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushdown_collapses_and_v2s_wins_4x_without() {
        let _serial = crate::experiments::serial::hold();
        let (_, (v2s_push, jdbc_push, v2s_full, jdbc_full)) = run();
        // Pushdown shrinks both loads dramatically.
        assert!(v2s_push < v2s_full / 4.0, "{v2s_push} vs {v2s_full}");
        assert!(jdbc_push < jdbc_full / 4.0, "{jdbc_push} vs {jdbc_full}");
        // With pushdown the two land in the same order of magnitude
        // (the paper calls them "similar"; our model keeps a residual
        // funnel penalty for JDBC because its 5% result set still exits
        // through a single host NIC — see EXPERIMENTS.md).
        assert!(jdbc_push / v2s_push < 8.0, "{jdbc_push} vs {v2s_push}");
        // Without pushdown: the paper's ~4× (we accept 2.5–6×).
        let gain = jdbc_full / v2s_full;
        assert!((2.5..6.0).contains(&gain), "V2S gain {gain}");
    }
}
