//! Fig. 9 — data dimensionality: the same 10,000M cells shaped as
//! 100 cols × 100M rows vs 1 col × 10,000M rows.
//!
//! Paper: the 1-column shape is significantly slower for both
//! directions — there is a fixed per-row overhead (result-set row
//! framing for V2S; Avro row encode in the engine and per-row parse in
//! the database for S2V).

use crate::datasets::{self, specs};
use crate::experiments::{run_s2v_save, run_v2s_load, LAB_D1_ROWS};
use crate::fabric::TestBed;
use crate::model::{simulate, SimParams};
use crate::report::ReportRow;

/// Shapes: `(label, columns, paper rows, lab rows)`. Cells are constant.
pub const SHAPES: &[(&str, usize, u64, usize)] = &[
    ("100 cols x 100M rows", 100, 100_000_000, LAB_D1_ROWS),
    ("1 col x 10000M rows", 1, 10_000_000_000, LAB_D1_ROWS * 100),
];

pub fn run() -> (Vec<ReportRow>, Vec<(&'static str, f64, f64)>) {
    let mut report = Vec::new();
    let mut series = Vec::new();
    for &(label, cols, paper_rows, lab_rows) in SHAPES {
        let bed = TestBed::new(4, 8);
        let (schema, rows) = datasets::d1(lab_rows, cols, 42);
        let spec = specs::d1_rows(paper_rows, lab_rows as u64);

        let s2v_events = run_s2v_save(&bed, schema.clone(), rows.clone(), "fig9", 128);
        let s2v = simulate(&s2v_events, &SimParams::new(4, 8, spec.scale())).seconds;

        let v2s_events = run_v2s_load(&bed, "fig9", 32);
        let v2s = simulate(&v2s_events, &SimParams::new(4, 8, spec.scale())).seconds;

        let paper_v2s = if cols == 100 { Some(497.0) } else { None };
        let paper_s2v = if cols == 100 { Some(252.0) } else { None };
        report.push(ReportRow::new(format!("V2S {label}"), paper_v2s, v2s));
        report.push(ReportRow::new(format!("S2V {label}"), paper_s2v, s2v));
        series.push((label, v2s, s2v));
    }
    (report, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_column_shape_is_slower_for_both_directions() {
        let _serial = crate::experiments::serial::hold();
        let (_, series) = run();
        let (_, v2s_wide, s2v_wide) = series[0];
        let (_, v2s_tall, s2v_tall) = series[1];
        assert!(
            v2s_tall > v2s_wide * 1.1,
            "V2S wide {v2s_wide} vs tall {v2s_tall}"
        );
        assert!(
            s2v_tall > s2v_wide * 1.3,
            "S2V wide {s2v_wide} vs tall {s2v_tall}"
        );
        // The S2V penalty is the larger one (its per-row costs are
        // bigger — the paper's Avro framing argument).
        assert!(s2v_tall / s2v_wide > v2s_tall / v2s_wide * 0.9);
    }
}
