//! Fig. 6 — V2S and S2V execution time vs number of partitions.
//!
//! Paper: a bowl shape for both directions on the 4:8 cluster with D1.
//! V2S's best is 475 s at 128 partitions (497 s at 32, which the paper
//! recommends in practice); S2V's best is 252 s at 128. Four partitions
//! starve the network; 256 pay per-connection overhead (every query
//! rescans the node's segment to hash-filter it).

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

/// Paper anchor points (seconds) where Sec. 4.2 states them.
fn paper_v2s(partitions: usize) -> Option<f64> {
    match partitions {
        32 => Some(497.0),
        128 => Some(475.0),
        _ => None,
    }
}

fn paper_s2v(partitions: usize) -> Option<f64> {
    match partitions {
        128 => Some(252.0),
        _ => None,
    }
}

pub const PARTITION_SWEEP: &[usize] = &[4, 8, 16, 32, 64, 128, 256];

/// Run the sweep; returns (report rows, (v2s secs, s2v secs) per point).
pub fn run(sweep: &[usize]) -> (Vec<ReportRow>, Vec<(usize, f64, f64)>) {
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);

    let mut report = Vec::new();
    let mut series = Vec::new();
    for &partitions in sweep {
        // S2V at this parallelism.
        let events = run_s2v_save(&bed, schema.clone(), rows.clone(), "fig6", partitions);
        let s2v = simulate(&events, &SimParams::new(4, 8, spec.scale())).seconds;

        // V2S over the data that S2V just landed.
        let events = run_v2s_load(&bed, "fig6", partitions);
        let v2s = simulate(&events, &SimParams::new(4, 8, spec.scale())).seconds;

        report.push(ReportRow::new(
            format!("V2S {partitions:>3} partitions"),
            paper_v2s(partitions),
            v2s,
        ));
        report.push(ReportRow::new(
            format!("S2V {partitions:>3} partitions"),
            paper_s2v(partitions),
            s2v,
        ));
        series.push((partitions, v2s, s2v));
    }
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bowl_shape_holds() {
        let _serial = crate::experiments::serial::hold();
        // A cheap sweep still exhibits the paper's qualitative claims.
        let (_, series) = run(&[4, 32, 256]);
        let v2s: Vec<f64> = series.iter().map(|(_, v, _)| *v).collect();
        let s2v: Vec<f64> = series.iter().map(|(_, _, s)| *s).collect();
        // Too little parallelism is the worst case for both.
        assert!(
            v2s[0] > v2s[1] * 1.5,
            "V2S@4 {} vs V2S@32 {}",
            v2s[0],
            v2s[1]
        );
        assert!(
            s2v[0] > s2v[1] * 1.5,
            "S2V@4 {} vs S2V@32 {}",
            s2v[0],
            s2v[1]
        );
        // Excessive parallelism costs more than the sweet spot.
        assert!(v2s[2] > v2s[1], "V2S@256 {} vs V2S@32 {}", v2s[2], v2s[1]);
    }

    #[test]
    fn near_paper_anchors() {
        let _serial = crate::experiments::serial::hold();
        let (_, series) = run(&[32, 128]);
        let (_, v2s32, _) = series[0];
        let (_, v2s128, s2v128) = series[1];
        // Within 30% of the paper's stated values.
        assert!((v2s32 / 497.0 - 1.0).abs() < 0.3, "V2S@32 {v2s32}");
        assert!((v2s128 / 475.0 - 1.0).abs() < 0.35, "V2S@128 {v2s128}");
        assert!((s2v128 / 252.0 - 1.0).abs() < 0.35, "S2V@128 {s2v128}");
    }
}
