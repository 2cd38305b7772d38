//! Ablation (DESIGN.md §5): the S2V final commit in overwrite and in
//! append mode. Both publish the staging table into the target as one
//! metadata-only move charged as one rename, so both model to the same
//! time; the append-mode copy Sec. 5 discusses belonged to the 2016
//! connector.

use bench::datasets::{self, specs};
use bench::experiments::LAB_D1_ROWS;
use bench::report::{self, ReportRow};
use bench::{simulate, SimParams, TestBed};
use sparklet::{Options, SaveMode};

fn main() {
    let before = report::begin();
    let bed = TestBed::new(4, 8);
    let (schema, rows) = datasets::d1(LAB_D1_ROWS, 100, 42);
    let spec = specs::d1_100m(LAB_D1_ROWS as u64);
    let params = SimParams::new(4, 8, spec.scale());

    let mut out = Vec::new();
    for (label, mode) in [
        ("overwrite (publish + retire old rows)", SaveMode::Overwrite),
        ("append (publish)", SaveMode::Append),
    ] {
        let df = bed.dataframe(schema.clone(), rows.clone(), 128);
        bed.clear_recorders();
        df.write()
            .format(connector::DEFAULT_SOURCE)
            .options(
                Options::new()
                    .with("host", 0)
                    .with("table", "modal_target")
                    .with("numPartitions", 128),
            )
            .mode(mode)
            .save()
            .unwrap();
        let secs = simulate(&bed.db.recorder().drain(), &params).seconds;
        out.push(ReportRow::new(label, None, secs));
    }
    report::publish(
        "ablation_savemode",
        "Ablation — S2V final-commit mode",
        &out,
        &before,
    );
    println!("(modeled; both modes publish staging without copying rows)");
}
