//! Per-layer metrics of a traced run.
//!
//! Two sources:
//!
//! * deltas of the counters, timers and span families the program
//!   already emits, taken over the traced units only (the collector is
//!   off everywhere else), and normalised per traced unit, per S2V job
//!   or per row;
//! * *layer probes*: the benchmark times direct calls into one layer's
//!   public functions on the workload's own data, with the collector
//!   off.
//!
//! Span families overlap (`retry.attempt` spans are siblings, not
//! parents, of the work they time), so span metrics are inclusive
//! family sums. No self time is derived by subtracting one family from
//! another.

use std::time::Instant;

use avrolite::{AvroSchema, Codec, Reader, Writer};
use common::Row;
use mppdb::catalog::{Segmentation, TableDef};
use mppdb::{CopyOptions, CopySource, QuerySpec};
use obs::Snapshot;
use pmml::Evaluator;

use crate::bed::{Bed, Scale};
use crate::check;
use crate::meter::Meter;
use crate::stats::median;
use crate::workloads::{self, ProbeInputs, Workload};
use crate::Metric;

/// Every per-layer metric, in report order, with its unit. The traced
/// run prints exactly these.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.tasks_per_partition", "ratio"),
    ("sched.speculative_tasks", "count"),
    ("sched.task_busy_ms", "ms"),
    ("sched.empty_job_ms_p50", "ms"),
    ("sched.empty_job4_ms_p50", "ms"),
    ("avro.encode_us_per_row", "us"),
    ("avro.decode_us_per_row", "us"),
    ("avro.bytes_per_row", "bytes"),
    ("copy.us_per_row", "us"),
    ("copy.busy_ms", "ms"),
    ("copy.rows_per_loaded_row", "ratio"),
    ("stats.build_ms", "ms"),
    ("s2v.job_ms", "ms"),
    ("s2v.setup_ms", "ms"),
    ("s2v.phase1_ms", "ms"),
    ("s2v.phase2_ms", "ms"),
    ("s2v.phase3_ms", "ms"),
    ("s2v.phase4_ms", "ms"),
    ("s2v.phase5_ms", "ms"),
    ("s2v.finalize_ms", "ms"),
    ("s2v.teardown_ms", "ms"),
    ("s2v.phase5_share", "ratio"),
    ("db.txn_abort_share", "ratio"),
    ("sql.stmt_us_p50", "us"),
    ("sql.rows_examined", "count"),
    ("pushdown.rows_examined", "count"),
    ("scan.batch_us_per_row", "us"),
    ("scan.materialize_us_per_row", "us"),
    ("scan.rows_examined_per_row_returned", "ratio"),
    ("scan.values_decoded", "count"),
    ("scan.rows_skipped_share", "ratio"),
    ("v2s.piece_ms", "ms"),
    ("v2s.bytes_per_row", "bytes"),
    ("agg.pushdown.partials_merged", "count"),
    ("agg.pushdown.stats_answered", "count"),
    ("tm.rows_moved", "count"),
    ("tm.rows_merged_per_row_ingested", "ratio"),
    ("storage.ros_containers_end", "count"),
    ("scan.rows_examined_per_probe", "count"),
    ("pmml.predict_us_per_row", "us"),
    ("md.udf_us_per_row", "us"),
    ("md.predictions", "count"),
    ("obs.trace_overhead_share", "ratio"),
    ("alloc.count_per_row", "count"),
    ("alloc.bytes_per_row", "bytes"),
    ("cpu_per_wall", "ratio"),
];

/// Counter, span-family and timer deltas between two snapshots.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        at(self.after).saturating_sub(at(self.before)) as f64
    }

    /// `(count, summed µs)` of a span family.
    fn spans(&self, name: &str) -> (f64, f64) {
        let Some(after) = self.after.histos.get(name) else {
            return (0.0, 0.0);
        };
        let h = match self.before.histos.get(name) {
            Some(before) => after.since(before),
            None => after.clone(),
        };
        (h.count() as f64, h.sum() as f64)
    }

    fn timer_us(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.timers.get(name).map(|t| t.sum_us).unwrap_or(0);
        at(self.after).saturating_sub(at(self.before)) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median wall time of `reps` calls, ms. The first call is a warm-up
/// and is not timed.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Probe values, by metric name.
#[derive(Default)]
struct Probes {
    empty_job8_ms: f64,
    empty_job4_ms: f64,
    encode_us_per_row: f64,
    decode_us_per_row: f64,
    avro_bytes_per_row: f64,
    copy_us_per_row: f64,
    sql_stmt_us: f64,
    sql_rows_examined: f64,
    pushdown_rows_examined: f64,
    scan_batch_us_per_row: f64,
    scan_materialize_us_per_row: f64,
    predict_us_per_row: f64,
    ros_containers: f64,
}

const COPY_PROBE_TABLE: &str = "perf_copy_probe";
const SQL_PROBE_TABLE: &str = "perf_protocol_probe";
/// Rows of the protocol-shaped probe table (about a job's task count).
const SQL_PROBE_ROWS: i64 = 16;

fn run_probes(
    bed: &Bed,
    input: &ProbeInputs<'_>,
    seed: u64,
    scale: &Scale,
    m: &mut Meter,
) -> Probes {
    let reps = scale.probe_reps;
    let mut p = Probes::default();

    // Scheduler: a trivial job's fixed cost.
    for (parts, slot) in [(8usize, &mut p.empty_job8_ms), (4, &mut p.empty_job4_ms)] {
        let rdd = bed
            .ctx
            .parallelize((0..parts as u64).collect::<Vec<u64>>(), parts);
        *slot = time_ms(reps * 2, || {
            if let Err(e) = bed.ctx.run_job(&rdd, |_, items| Ok(items.len())) {
                m.verify_extra(Err(format!("empty job: {e}")));
            }
        });
    }

    // Avro encode/decode and COPY of one partition of the workload's rows.
    let rows = input.partition;
    let n = rows.len().max(1) as f64;
    let avro_schema = AvroSchema::from_schema("perfbench", input.schema);
    let encode = || -> Result<Vec<u8>, String> {
        let mut w = Writer::new(avro_schema.clone(), Codec::Rle);
        for r in rows {
            w.write_row(r).map_err(|e| e.to_string())?;
        }
        Ok(w.finish())
    };
    let bytes = match encode() {
        Ok(b) => b,
        Err(e) => {
            m.verify_extra(Err(format!("avro encode probe: {e}")));
            return p;
        }
    };
    p.avro_bytes_per_row = bytes.len() as f64 / n;
    p.encode_us_per_row = time_ms(reps, || drop(std::hint::black_box(encode()))) * 1e3 / n;
    let decode = || -> Result<Vec<Row>, String> {
        Ok(Reader::new(&bytes).map_err(|e| e.to_string())?.read_all())
    };
    m.verify_extra(match decode() {
        Ok(decoded) if decoded.as_slice() == rows => Ok(()),
        Ok(_) => Err("avro decode probe: rows differ from the encoded partition".into()),
        Err(e) => Err(format!("avro decode probe: {e}")),
    });
    p.decode_us_per_row = time_ms(reps, || drop(std::hint::black_box(decode()))) * 1e3 / n;
    p.copy_us_per_row = copy_probe(bed, input, &bytes, reps, m) * 1e3 / n;

    p.sql_stmt_us = sql_stmt_probe(bed, reps, m) * 1e3;
    if input.table == workloads::FACT {
        (p.sql_rows_examined, p.pushdown_rows_examined) =
            rows_examined_probe(bed, scale.partitions, m);
    }

    // Scan: a full scan kept columnar, and the same scan materialized.
    let spec = QuerySpec::scan(input.table);
    let scanned = bed
        .db
        .connect(0)
        .and_then(|mut s| s.query_batched(&spec))
        .map(|r| r.num_rows())
        .unwrap_or(0)
        .max(1) as f64;
    let mut session = bed.db.connect(0).expect("node 0 is up");
    let mut batched = Vec::new();
    let mut materialized = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let ok = session.query_batched(&spec).is_ok();
        batched.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let ok = ok && session.query(&spec).is_ok();
        materialized.push(t0.elapsed().as_secs_f64() * 1e6);
        if !ok {
            m.verify_extra(Err(format!("scan probe on {} failed", input.table)));
        }
    }
    let batch_us = median(&batched).unwrap_or(0.0);
    p.scan_batch_us_per_row = batch_us / scanned;
    p.scan_materialize_us_per_row = (median(&materialized).unwrap_or(0.0) - batch_us) / scanned;

    if !input.features.is_empty() {
        let evaluator = Evaluator::from_document(&workloads::model(seed)).expect("model evaluates");
        let per_pass = time_ms(reps, || {
            for f in input.features {
                std::hint::black_box(evaluator.predict(f).ok());
            }
        });
        p.predict_us_per_row = per_pass * 1e3 / input.features.len() as f64;
    }

    p.ros_containers = bed
        .db
        .table_stats(input.table)
        .map(|nodes| nodes.iter().map(|s| s.ros_containers).sum::<usize>() as f64)
        .unwrap_or(0.0);
    p
}

/// Median ms of one `COPY ... FROM avro DIRECT` of the encoded
/// partition into a scratch table shaped like the workload's rows.
fn copy_probe(bed: &Bed, input: &ProbeInputs<'_>, bytes: &[u8], reps: usize, m: &mut Meter) -> f64 {
    let first = input.schema.field(0).name.clone();
    let created = TableDef::new(
        COPY_PROBE_TABLE,
        input.schema.clone(),
        Segmentation::ByHash(vec![first]),
    )
    .and_then(|def| bed.db.create_table(def));
    if let Err(e) = created {
        m.verify_extra(Err(format!("copy probe table: {e}")));
        return 0.0;
    }
    let want = input.partition.len() as u64;
    let mut session = bed.db.connect(0).expect("node 0 is up");
    let mut samples = Vec::new();
    for _ in 0..reps.max(1) + 1 {
        let source = CopySource::Avro(bytes.to_vec());
        let t0 = Instant::now();
        let result = session.copy(COPY_PROBE_TABLE, source, CopyOptions::default());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        m.verify_extra(
            result
                .map_err(|e| e.to_string())
                .and_then(|r| check::count("copy probe", r.loaded, want)),
        );
    }
    samples.remove(0);
    if let Err(e) = bed.db.drop_table(COPY_PROBE_TABLE) {
        m.verify_extra(Err(format!("drop copy probe table: {e}")));
    }
    median(&samples).unwrap_or(0.0)
}

/// Median ms of one protocol-shaped statement: a point SELECT and a
/// point UPDATE on a small unsegmented table, timed as a pair and
/// halved.
fn sql_stmt_probe(bed: &Bed, reps: usize, m: &mut Meter) -> f64 {
    let mut session = bed.db.connect(0).expect("node 0 is up");
    let created = session
        .execute(&format!(
            "CREATE TABLE {SQL_PROBE_TABLE} (k BIGINT, v BIGINT) UNSEGMENTED ALL NODES"
        ))
        .and_then(|_| {
            session.insert(
                SQL_PROBE_TABLE,
                (0..SQL_PROBE_ROWS).map(|k| common::row![k, 0i64]).collect(),
            )
        });
    if let Err(e) = created {
        m.verify_extra(Err(format!("sql probe table: {e}")));
        return 0.0;
    }
    let mut samples = Vec::new();
    for i in 0..(reps * 4).max(1) as i64 {
        let k = i % SQL_PROBE_ROWS;
        let t0 = Instant::now();
        let select = session.execute(&format!("SELECT v FROM {SQL_PROBE_TABLE} WHERE k = {k}"));
        let update = session.execute(&format!(
            "UPDATE {SQL_PROBE_TABLE} SET v = v + 1 WHERE k = {k}"
        ));
        samples.push(t0.elapsed().as_secs_f64() * 1e3 / 2.0);
        if let Err(e) = select.and(update) {
            m.verify_extra(Err(format!("sql probe: {e}")));
        }
    }
    if let Err(e) = bed.db.drop_table(SQL_PROBE_TABLE) {
        m.verify_extra(Err(format!("drop sql probe table: {e}")));
    }
    median(&samples).unwrap_or(0.0)
}

/// `scan.rows_examined` of one run of the grouped aggregate through
/// SQL and through V2S pushdown.
fn rows_examined_probe(bed: &Bed, partitions: usize, m: &mut Meter) -> (f64, f64) {
    let examined = || obs::global().counter_value("scan.rows_examined");
    obs::global().set_enabled(true);
    let c0 = examined();
    let sql = workloads::sql_rows(bed, &workloads::agg_sql())
        .map(drop)
        .map_err(|e| e.to_string());
    let c1 = examined();
    let pushdown = workloads::v2s_pushdown(bed, partitions)
        .map(drop)
        .map_err(|e| e.to_string());
    let c2 = examined();
    obs::global().set_enabled(false);
    m.verify_extra(sql.and(pushdown));
    ((c1 - c0) as f64, (c2 - c1) as f64)
}

/// Compute every [`PER_LAYER`] metric.
pub fn per_layer(
    workload: &dyn Workload,
    meter: &mut Meter,
    before: &Snapshot,
    after: &Snapshot,
    seed: u64,
    scale: &Scale,
) -> Vec<Metric> {
    let d = Delta { before, after };
    let units = (meter.traced_units() as f64).max(1.0);
    let per_unit = |x: f64| x / units;
    let input = workload.probe_inputs();
    let probes = run_probes(workload.bed(), &input, seed, scale, meter);

    let launched = d.counter("sched.tasks_launched");
    let speculative = d.counter("sched.speculative_tasks");
    let partitions = launched - speculative - d.counter("sched.task_retries");
    let (jobs, job_us) = d.spans("s2v.job");
    let s2v_ms = |family: &str| ratio(d.spans(family).1 / 1e3, jobs);
    let loaded = d.counter("s2v.rows_loaded");
    let examined = d.counter("scan.rows_examined");
    let skipped = d.counter("scan.rows_skipped");
    let returned: u64 = meter.ops.values().map(|s| s.traced_returned).sum();
    let probe_ops = meter.ops.get("probe");
    // Scoring time per scored row (the rows `features` holds), from the
    // untraced runs only, like the predict probe it is compared with.
    let md_us_per_row = meter
        .ops
        .get("md_score")
        .filter(|_| !input.features.is_empty())
        .map(|s| median(&s.untraced_ms).unwrap_or(0.0) * 1e3 / input.features.len() as f64);
    let cost = meter.untraced_cost;
    let overhead = match (
        median(&meter.traced_unit_ms),
        median(&meter.untraced_unit_ms),
    ) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };

    let values: Vec<(&str, f64)> = vec![
        ("sched.tasks_per_partition", ratio(launched, partitions)),
        ("sched.speculative_tasks", per_unit(speculative)),
        (
            "sched.task_busy_ms",
            per_unit(d.spans("sched.task").1 / 1e3),
        ),
        ("sched.empty_job_ms_p50", probes.empty_job8_ms),
        ("sched.empty_job4_ms_p50", probes.empty_job4_ms),
        ("avro.encode_us_per_row", probes.encode_us_per_row),
        ("avro.decode_us_per_row", probes.decode_us_per_row),
        ("avro.bytes_per_row", probes.avro_bytes_per_row),
        ("copy.us_per_row", probes.copy_us_per_row),
        ("copy.busy_ms", per_unit(d.spans("db.copy").1 / 1e3)),
        (
            "copy.rows_per_loaded_row",
            ratio(d.counter("db.copy_rows"), loaded),
        ),
        (
            "stats.build_ms",
            per_unit(d.timer_us("stats.build_us") / 1e3),
        ),
        ("s2v.job_ms", ratio(job_us / 1e3, jobs)),
        ("s2v.setup_ms", s2v_ms(obs::names::S2V_SETUP)),
        ("s2v.phase1_ms", s2v_ms("s2v.phase1")),
        ("s2v.phase2_ms", s2v_ms("s2v.phase2")),
        ("s2v.phase3_ms", s2v_ms("s2v.phase3")),
        ("s2v.phase4_ms", s2v_ms("s2v.phase4")),
        ("s2v.phase5_ms", s2v_ms("s2v.phase5")),
        ("s2v.finalize_ms", s2v_ms(obs::names::S2V_FINALIZE)),
        ("s2v.teardown_ms", s2v_ms("s2v.teardown")),
        ("s2v.phase5_share", ratio(d.spans("s2v.phase5").1, job_us)),
        (
            "db.txn_abort_share",
            ratio(d.counter("db.txn_abort"), d.counter("db.txn_begin")),
        ),
        ("sql.stmt_us_p50", probes.sql_stmt_us),
        ("sql.rows_examined", probes.sql_rows_examined),
        ("pushdown.rows_examined", probes.pushdown_rows_examined),
        ("scan.batch_us_per_row", probes.scan_batch_us_per_row),
        (
            "scan.materialize_us_per_row",
            probes.scan_materialize_us_per_row,
        ),
        (
            "scan.rows_examined_per_row_returned",
            ratio(examined, returned as f64),
        ),
        (
            "scan.values_decoded",
            per_unit(d.counter("scan.values_decoded")),
        ),
        (
            "scan.rows_skipped_share",
            ratio(skipped, examined + skipped),
        ),
        (
            "v2s.piece_ms",
            per_unit(d.spans(obs::names::V2S_PIECE).1 / 1e3),
        ),
        (
            "v2s.bytes_per_row",
            ratio(d.counter("v2s.bytes"), d.counter("v2s.rows")),
        ),
        (
            "agg.pushdown.partials_merged",
            per_unit(d.counter("agg.pushdown.partials_merged")),
        ),
        (
            "agg.pushdown.stats_answered",
            per_unit(d.counter("agg.pushdown.stats_answered")),
        ),
        ("tm.rows_moved", per_unit(d.counter("tm.rows_moved"))),
        (
            "tm.rows_merged_per_row_ingested",
            ratio(d.counter("tm.rows_merged"), loaded),
        ),
        ("storage.ros_containers_end", probes.ros_containers),
        (
            "scan.rows_examined_per_probe",
            probe_ops.map_or(0.0, |s| {
                ratio(s.traced_rows_examined as f64, s.traced as f64)
            }),
        ),
        ("pmml.predict_us_per_row", probes.predict_us_per_row),
        (
            "md.udf_us_per_row",
            md_us_per_row.map_or(0.0, |md| md - probes.predict_us_per_row),
        ),
        ("md.predictions", per_unit(d.counter("md.predictions"))),
        ("obs.trace_overhead_share", overhead),
        (
            "alloc.count_per_row",
            ratio(cost.allocs as f64, cost.rows as f64),
        ),
        (
            "alloc.bytes_per_row",
            ratio(cost.alloc_bytes as f64, cost.rows as f64),
        ),
        ("cpu_per_wall", ratio(cost.cpu_s, cost.wall_s)),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    values
        .into_iter()
        .zip(PER_LAYER)
        .map(|((name, value), &(listed, unit))| {
            debug_assert_eq!(name, listed);
            Metric {
                name: listed,
                value,
                unit,
            }
        })
        .collect()
}
