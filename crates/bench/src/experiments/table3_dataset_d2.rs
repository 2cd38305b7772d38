//! Table 3 — performance on dataset D2 (1.46B tweet rows).
//!
//! Paper: V2S 378 s (faster than its D1 490 s: small textual rows ship
//! densely), S2V 386 s (slower than its D1 252 s: 14.6× more rows pay
//! the per-row Avro costs).

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

pub const LAB_D2_ROWS: usize = 40_000;

pub fn run() -> (Vec<ReportRow>, (f64, f64)) {
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d2(LAB_D2_ROWS, 42);
    let spec = specs::d2_full(LAB_D2_ROWS as u64);

    let s2v_events = run_s2v_save(&bed, schema.clone(), rows.clone(), "table3", 128);
    let s2v = simulate(&s2v_events, &SimParams::new(4, 8, spec.scale())).seconds;

    let v2s_events = run_v2s_load(&bed, "table3", 32);
    let v2s = simulate(&v2s_events, &SimParams::new(4, 8, spec.scale())).seconds;

    let report = vec![
        ReportRow::new("V2S dataset D2", Some(378.0), v2s),
        ReportRow::new("S2V dataset D2", Some(386.0), s2v),
    ];
    (report, (v2s, s2v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig6_parallelism;

    #[test]
    fn d2_flips_the_direction_ranking() {
        let _serial = crate::experiments::serial::hold();
        let (_, (v2s_d2, s2v_d2)) = run();
        // Near the paper's absolute numbers (generous bound).
        assert!((v2s_d2 / 378.0 - 1.0).abs() < 0.4, "V2S D2 {v2s_d2}");
        assert!((s2v_d2 / 386.0 - 1.0).abs() < 0.4, "S2V D2 {s2v_d2}");

        // The flip (paper Sec. 4.6): V2S is *faster* on D2 than on D1,
        // while S2V is *slower* on D2 than on D1.
        let (_, d1) = fig6_parallelism::run(&[32, 128]);
        let v2s_d1 = d1[0].1;
        let s2v_d1 = d1[1].2;
        assert!(v2s_d2 < v2s_d1, "V2S: D2 {v2s_d2} vs D1 {v2s_d1}");
        assert!(s2v_d2 > s2v_d1, "S2V: D2 {s2v_d2} vs D1 {s2v_d1}");
    }
}
