//! The reference checks accept correct results and reject corrupted
//! ones, both as functions and inside a running workload.

use common::agg::aggregate_rows;
use common::{row, Row, Value};
use perfbench::bed::Scale;
use perfbench::check;
use perfbench::meter::Meter;
use perfbench::workloads::{agg_request, WorkloadName, FACT};

#[test]
fn counts_and_sums() {
    assert!(check::count("t", 5, 5).is_ok());
    assert!(check::count("t", 4, 5).is_err());
    assert!(check::close("s", 1000.0 + 1e-8, 1000.0).is_ok());
    assert!(check::close("s", 1000.001, 1000.0).is_err());
}

#[test]
fn checksum_is_order_free_and_bit_exact() {
    let rows = vec![row![1i64, 0.5], row![2i64, 0.25], row![3i64, 0.125]];
    let mut shuffled = rows.clone();
    shuffled.reverse();
    let sum = check::checksum(&rows);
    assert!(check::rows_checksum("load", &shuffled, 3, sum).is_ok());

    let mut corrupted = rows.clone();
    corrupted[1].set(1, Value::Float64(f64::from_bits(0.25f64.to_bits() + 1)));
    assert!(check::rows_checksum("load", &corrupted, 3, sum).is_err());
    let mut duplicated = rows.clone();
    duplicated[2] = duplicated[0].clone();
    assert!(check::rows_checksum("load", &duplicated, 3, sum).is_err());
    assert!(check::rows_checksum("load", &rows[..2], 3, sum).is_err());
}

fn reference() -> (Vec<Row>, Vec<Row>) {
    let (schema, rows) = bench::datasets::d1_with_int_column(500, 3, 9);
    let selected: Vec<Row> = rows
        .into_iter()
        .filter(|r| r.get(0).as_i64().unwrap() < 5)
        .collect();
    let (_, want) = aggregate_rows(&schema, &selected, &agg_request()).unwrap();
    (selected, want)
}

#[test]
fn aggregate_check_rejects_a_corrupted_result() {
    let (_, want) = reference();
    assert!(want.len() > 1);
    let mut reordered = want.clone();
    reordered.reverse();
    assert!(check::agg_rows("agg", reordered, &want, 1).is_ok());

    let mut wrong_count = want.clone();
    let c = wrong_count[0].get(1).as_i64().unwrap();
    wrong_count[0].set(1, Value::Int64(c + 1));
    assert!(check::agg_rows("agg", wrong_count, &want, 1).is_err());

    let mut wrong_sum = want.clone();
    let s = wrong_sum[0].get(2).as_f64().unwrap();
    wrong_sum[0].set(2, Value::Float64(s * 1.001));
    assert!(check::agg_rows("agg", wrong_sum, &want, 1).is_err());

    assert!(check::agg_rows("agg", want[1..].to_vec(), &want, 1).is_err());
}

#[test]
fn score_check_is_exact() {
    let want = vec![0.25, 0.5, 0.75];
    assert!(check::scores("md", vec![0.75, 0.25, 0.5], &want).is_ok());
    assert!(check::scores("md", vec![0.75, 0.25, 0.5000000001], &want).is_err());
    assert!(check::scores("md", vec![0.75, 0.25], &want).is_err());
}

/// Corrupting the stored table makes the next round's V2S checks fail,
/// which the meter counts against the run.
#[test]
fn corrupted_table_fails_the_round() {
    let mut workload = WorkloadName::V2sScan.setup(5, &Scale::tiny());
    let mut clean = Meter::new(false);
    workload.round(&mut clean);
    assert_eq!(clean.failed, 0, "{:?}", clean.failures);

    let mut session = workload.bed().db.connect(0).unwrap();
    session
        .execute(&format!("DELETE FROM {FACT} WHERE pct = 1"))
        .unwrap();
    let mut meter = Meter::new(false);
    workload.round(&mut meter);
    assert_eq!(
        meter.failed, 2,
        "load and pushdown both mismatch: {:?}",
        meter.failures
    );
    assert_eq!(meter.attempted, 2);
}

#[test]
fn corrupted_model_scores_fail_the_round() {
    let mut workload = WorkloadName::SqlAnalytics.setup(6, &Scale::tiny());
    let mut session = workload.bed().db.connect(0).unwrap();
    session
        .execute(&format!("UPDATE {FACT} SET c0 = c0 + 1 WHERE pct = 3"))
        .unwrap();
    let mut meter = Meter::new(false);
    workload.round(&mut meter);
    assert_eq!(
        meter.failed, 2,
        "SQL SUM(c0) and scores both change: {:?}",
        meter.failures
    );
}
