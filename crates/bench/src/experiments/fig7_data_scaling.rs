//! Fig. 7 — data scalability: execution time vs row count (log-log).
//!
//! Paper: both directions scale linearly in rows from 1M to 1000M on
//! the 4:8 cluster. S2V is somewhat slower than V2S at small sizes (its
//! protocol-table setup/teardown dominates), then crosses over and is
//! faster at large sizes. Anchor: S2V at 1M rows takes 19 s (Sec.
//! 4.7.1 mentions it against the JDBC comparison).

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

pub const ROW_SWEEP: &[u64] = &[1_000_000, 10_000_000, 100_000_000, 1_000_000_000];

/// Paper anchors.
fn paper_v2s(rows: u64) -> Option<f64> {
    match rows {
        100_000_000 => Some(497.0),
        _ => None,
    }
}

fn paper_s2v(rows: u64) -> Option<f64> {
    match rows {
        1_000_000 => Some(19.0),
        100_000_000 => Some(252.0),
        _ => None,
    }
}

pub fn run(sweep: &[u64]) -> (Vec<ReportRow>, Vec<(u64, f64, f64)>) {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);

    // The functional run is identical for every size; only the scale
    // factor changes (V2S at its practical 32 partitions, S2V at 128 —
    // the Fig. 6 best-practice values the paper reuses here).
    let s2v_events = run_s2v_save(&bed, schema.clone(), rows.clone(), "fig7", 128);
    let v2s_events = run_v2s_load(&bed, "fig7", 32);

    let mut report = Vec::new();
    let mut series = Vec::new();
    for &paper_rows in sweep {
        let spec = specs::d1_rows(paper_rows, LAB_D1_ROWS as u64);
        let v2s = simulate(&v2s_events, &SimParams::new(4, 8, spec.scale())).seconds;
        let s2v = simulate(&s2v_events, &SimParams::new(4, 8, spec.scale())).seconds;
        let label_rows = paper_rows / 1_000_000;
        report.push(ReportRow::new(
            format!("V2S {label_rows:>5}M rows"),
            paper_v2s(paper_rows),
            v2s,
        ));
        report.push(ReportRow::new(
            format!("S2V {label_rows:>5}M rows"),
            paper_s2v(paper_rows),
            s2v,
        ));
        series.push((paper_rows, v2s, s2v));
    }
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_scaling_with_crossover() {
        let _serial = crate::experiments::serial::hold();
        let (_, series) = run(&[1_000_000, 100_000_000, 1_000_000_000]);
        let (r0, v0, s0) = series[0];
        let (r1, v1, s1) = series[1];
        let (r2, v2, s2) = series[2];
        assert_eq!((r0, r1, r2), (1_000_000, 100_000_000, 1_000_000_000));
        // Linearity: 10x rows within [5x, 15x] time at the large end.
        assert!(v2 / v1 > 5.0 && v2 / v1 < 15.0, "V2S {v1} → {v2}");
        assert!(s2 / s1 > 5.0 && s2 / s1 < 15.0, "S2V {s1} → {s2}");
        // At 1M rows S2V's fixed costs make it the slower direction...
        assert!(s0 > v0, "1M rows: S2V {s0} vs V2S {v0}");
        // ...and at 100M+ the crossover has happened.
        assert!(s1 < v1, "100M rows: S2V {s1} vs V2S {v1}");
        assert!(s2 < v2);
    }
}
