//! Fig. 8 — cluster scalability: 2:4, 4:8, 8:16 clusters with data
//! doubled alongside (fixed data per node).
//!
//! Paper: a slight (<10%) degradation per doubling; partitions scale
//! with the cluster (V2S 16/32/64, S2V 64/128/256).

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

/// `(db nodes, compute nodes, paper rows, v2s partitions, s2v partitions)`
pub const CLUSTER_SWEEP: &[(usize, usize, u64, usize, usize)] = &[
    (2, 4, 100_000_000, 16, 64),
    (4, 8, 200_000_000, 32, 128),
    (8, 16, 400_000_000, 64, 256),
];

pub fn run(
    sweep: &[(usize, usize, u64, usize, usize)],
) -> (Vec<ReportRow>, Vec<(usize, f64, f64)>) {
    let mut report = Vec::new();
    let mut series = Vec::new();
    for &(db_nodes, compute_nodes, paper_rows, v2s_parts, s2v_parts) in sweep {
        let bed = TestBed::new(db_nodes, compute_nodes);
        let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
        let spec = specs::d1_rows(paper_rows, LAB_D1_ROWS as u64);

        let s2v_events = run_s2v_save(&bed, schema.clone(), rows.clone(), "fig8", s2v_parts);
        let s2v = simulate(
            &s2v_events,
            &SimParams::new(db_nodes, compute_nodes, spec.scale()),
        )
        .seconds;

        let v2s_events = run_v2s_load(&bed, "fig8", v2s_parts);
        let v2s = simulate(
            &v2s_events,
            &SimParams::new(db_nodes, compute_nodes, spec.scale()),
        )
        .seconds;

        report.push(ReportRow::new(
            format!("V2S {db_nodes}:{compute_nodes} cluster"),
            None,
            v2s,
        ));
        report.push(ReportRow::new(
            format!("S2V {db_nodes}:{compute_nodes} cluster"),
            None,
            s2v,
        ));
        series.push((db_nodes, v2s, s2v));
    }
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_flat_scaling_per_doubling() {
        let _serial = crate::experiments::serial::hold();
        let (_, series) = run(CLUSTER_SWEEP);
        for pair in series.windows(2) {
            let (n0, v0, s0) = pair[0];
            let (n1, v1, s1) = pair[1];
            assert_eq!(n1, n0 * 2);
            // Data per node is fixed: each doubling may degrade only
            // mildly (the paper reports <10%; we allow 20% headroom).
            assert!(v1 / v0 < 1.2, "V2S {v0} → {v1}");
            assert!(s1 / s0 < 1.2, "S2V {s0} → {s1}");
            // And it must not mysteriously speed up either.
            assert!(v1 / v0 > 0.8);
            assert!(s1 / s0 > 0.8);
        }
    }
}
