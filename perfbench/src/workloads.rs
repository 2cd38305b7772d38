//! The four closed-loop workloads. Each is driven by one client thread
//! that issues its next operation only after the previous one returns.
//! Inputs come from the seed alone; references for every result check
//! are computed here at set-up, outside any timed region.

use common::agg::{aggregate_rows, AggCall, AggFunc, AggRequest};
use common::{row, DataType, Expr, Row, Schema, Value};
use connector::s2v::FINAL_STATUS_TABLE;
use connector::{ConnectorOptions, ModelDeployment, SaveReport, SaveRequest, StreamWriter};
use mppdb::{ClusterConfig, QuerySpec};
use pmml::{
    Evaluator, MiningFunction, NormalizationMethod, PmmlDocument, PmmlModel, RegressionModel,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparklet::{DataFrame, SaveMode, SparkResult};

use crate::bed::{Bed, Scale, DB_NODES};
use crate::check;
use crate::meter::Meter;

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    S2vBulk,
    V2sScan,
    SqlAnalytics,
    StreamTrickle,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::S2vBulk,
        WorkloadName::V2sScan,
        WorkloadName::SqlAnalytics,
        WorkloadName::StreamTrickle,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::S2vBulk => "s2v_bulk",
            WorkloadName::V2sScan => "v2s_scan",
            WorkloadName::SqlAnalytics => "sql_analytics",
            WorkloadName::StreamTrickle => "stream_trickle",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.as_str() == name)
    }

    /// Build the workload: bed, generated inputs, preload and
    /// references. This is what `setup_s` times.
    pub fn setup(self, seed: u64, scale: &Scale) -> Box<dyn Workload> {
        match self {
            WorkloadName::S2vBulk => Box::new(S2vBulk::setup(seed, scale)),
            WorkloadName::V2sScan => Box::new(V2sScan {
                fact: Fact::setup(seed, scale, false),
            }),
            WorkloadName::SqlAnalytics => Box::new(SqlAnalytics {
                fact: Fact::setup(seed, scale, true),
            }),
            WorkloadName::StreamTrickle => Box::new(StreamTrickle::setup(seed, scale)),
        }
    }
}

/// What the layer probes run on: one engine partition's worth of the
/// workload's own rows, the table the workload reads or writes, and
/// model feature vectors where the workload scores.
pub struct ProbeInputs<'a> {
    pub schema: &'a Schema,
    pub partition: &'a [Row],
    pub table: &'a str,
    pub features: &'a [Vec<f64>],
}

pub trait Workload {
    /// Operation kinds reported as `primary_ms_p50` and
    /// `secondary_ms_p50`.
    fn kinds(&self) -> (&'static str, &'static str);
    /// Operation kinds whose rows and time make up `rows_per_s`.
    fn throughput_kinds(&self) -> Vec<&'static str> {
        let (primary, secondary) = self.kinds();
        vec![primary, secondary]
    }
    /// The run loop stops only after a whole number of these rounds.
    fn rounds_per_block(&self) -> usize {
        1
    }
    fn bed(&self) -> &Bed;
    /// Untimed warm-up: the same work as a round, at most as long.
    fn warmup(&mut self, m: &mut Meter);
    fn round(&mut self, m: &mut Meter);
    fn probe_inputs(&self) -> ProbeInputs<'_>;
}

fn save(bed: &Bed, df: &DataFrame, table: &str, mode: SaveMode) -> Result<SaveReport, String> {
    let opts = ConnectorOptions::builder(table)
        .num_partitions(df.num_partitions().map_err(|e| e.to_string())?)
        .build()
        .map_err(|e| e.to_string())?;
    SaveRequest::new(&bed.ctx, &bed.db, df, &opts)
        .mode(mode)
        .submit()
        .map_err(|e| e.to_string())
}

/// `COUNT(*)` and `SUM(column)` of a table, read through the database.
fn count_and_sum(bed: &Bed, table: &str, column: &str) -> Result<(u64, f64), String> {
    let spec = QuerySpec::scan(table).aggregate(AggRequest::new(
        &[],
        vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, column)],
    ));
    let result = bed
        .db
        .connect(0)
        .and_then(|mut s| s.query(&spec))
        .map_err(|e| e.to_string())?;
    let row = result
        .into_rows()
        .into_iter()
        .next()
        .ok_or("aggregate returned no row")?;
    let count = row.get(0).as_i64().map_err(|e| e.to_string())? as u64;
    let sum = match row.get(1) {
        Value::Null => 0.0,
        v => v.as_f64().map_err(|e| e.to_string())?,
    };
    Ok((count, sum))
}

fn table_check(bed: &Bed, table: &str, rows: u64, sum_c0: f64) -> check::Check {
    let (count, sum) = count_and_sum(bed, table, "c0")?;
    check::count(table, count, rows)?;
    check::close(&format!("{table} SUM(c0)"), sum, sum_c0)
}

/// Drop whichever of `tables` exist (untimed bookkeeping between
/// rounds); a failure counts against the run.
fn drop_tables(bed: &Bed, tables: &[&str], m: &mut Meter) {
    for table in tables {
        if bed.db.has_table(table) {
            if let Err(e) = bed.db.drop_table(table) {
                m.verify_extra(Err(format!("drop {table}: {e}")));
            }
        }
    }
}

/// Finished jobs the S2V final-status table holds at the start of every
/// block. The protocol looks each job up in it by name, so its size is
/// part of the workload.
pub const PRIOR_JOBS: usize = 1_000;

/// Untimed: recreate the S2V final-status table (with the connector's
/// own definition) holding exactly [`PRIOR_JOBS`] finished jobs. The
/// connector keeps a row per job forever, so left alone the table would
/// grow with run length; a fixed, non-empty size keeps the per-job
/// lookups measured at a stated size.
fn reset_final_status(bed: &Bed, m: &mut Meter) {
    drop_tables(bed, &[FINAL_STATUS_TABLE], m);
    let jobs: Vec<String> = (0..PRIOR_JOBS)
        .map(|i| format!("('perfbench_prior_{i:05}', 0.0, 'finished')"))
        .collect();
    let reset = bed.db.connect(0).and_then(|mut s| {
        s.execute(&format!(
            "CREATE TABLE {FINAL_STATUS_TABLE} \
             (job_name VARCHAR NOT NULL, failed_pct FLOAT, status VARCHAR) \
             UNSEGMENTED ALL NODES"
        ))?;
        s.execute(&format!(
            "INSERT INTO {FINAL_STATUS_TABLE} VALUES {}",
            jobs.join(", ")
        ))
    });
    m.verify_extra(
        reset
            .map(drop)
            .map_err(|e| format!("reset {FINAL_STATUS_TABLE}: {e}")),
    );
}

fn sum_col(rows: &[Row], col: usize) -> f64 {
    rows.iter()
        .map(|r| r.get(col).as_f64().unwrap_or(0.0))
        .sum()
}

fn first_partition(rows: &[Row], partitions: usize) -> Vec<Row> {
    rows[..rows.len().div_ceil(partitions.max(1))].to_vec()
}

// ---------------------------------------------------------------- s2v_bulk

const S2V_OVERWRITE: &str = "s2v_overwrite";
const S2V_APPEND: &str = "s2v_append";

/// Bulk S2V: one Overwrite save of the whole D1-shaped input, then one
/// Append save of a smaller input into a second table. Both tables are
/// reset every few rounds (see [`S2vBulk::reset`]), so the Append
/// target never grows past the Overwrite size.
pub struct S2vBulk {
    bed: Bed,
    schema: Schema,
    overwrite_df: DataFrame,
    append_df: DataFrame,
    overwrite_rows: u64,
    append_rows: u64,
    overwrite_sum: f64,
    append_sum: f64,
    appends_per_reset: usize,
    round: usize,
    partition: Vec<Row>,
    features: Vec<Vec<f64>>,
}

impl S2vBulk {
    fn setup(seed: u64, scale: &Scale) -> S2vBulk {
        let bed = Bed::new(ClusterConfig::default());
        let (schema, rows) = bench::datasets::d1(scale.s2v_rows, scale.s2v_cols, seed);
        let (_, append) =
            bench::datasets::d1(scale.s2v_append_rows, scale.s2v_cols, seed ^ 0x5eed_a99e);
        let partition = first_partition(&rows, scale.partitions);
        let features = partition
            .iter()
            .map(|r| {
                r.values()[..4.min(r.len())]
                    .iter()
                    .map(|v| v.as_f64().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let overwrite_sum = sum_col(&rows, 0);
        let append_sum = sum_col(&append, 0);
        let overwrite_rows = rows.len() as u64;
        let append_rows = append.len() as u64;
        let overwrite_df = bed
            .ctx
            .create_dataframe(rows, schema.clone(), scale.partitions)
            .expect("generated rows match their schema");
        let append_df = bed
            .ctx
            .create_dataframe(append, schema.clone(), scale.partitions)
            .expect("generated rows match their schema");
        S2vBulk {
            bed,
            schema,
            overwrite_df,
            append_df,
            overwrite_rows,
            append_rows,
            overwrite_sum,
            append_sum,
            appends_per_reset: scale.s2v_appends_per_reset,
            round: 0,
            partition,
            features,
        }
    }

    /// Untimed: drop both targets, reset the S2V final-status table to
    /// [`PRIOR_JOBS`] rows, then prime the Overwrite target with one
    /// save, so every timed Overwrite replaces an existing table.
    /// Overwrite keeps the replaced rows as deleted rows, so without the
    /// reset the table (and the process) would grow with run length.
    fn reset(&self, m: &mut Meter) {
        drop_tables(&self.bed, &[S2V_OVERWRITE, S2V_APPEND], m);
        reset_final_status(&self.bed, m);
        let primed = save(
            &self.bed,
            &self.overwrite_df,
            S2V_OVERWRITE,
            SaveMode::Overwrite,
        );
        m.verify_extra(primed.and_then(|report| self.overwrite_check(&report)));
        self.bed.clear_recorders();
    }

    fn overwrite_check(&self, report: &SaveReport) -> check::Check {
        let n = self.overwrite_rows;
        check::count("Overwrite rows_loaded", report.rows_loaded, n)?;
        table_check(&self.bed, S2V_OVERWRITE, n, self.overwrite_sum)
    }
}

impl Workload for S2vBulk {
    fn kinds(&self) -> (&'static str, &'static str) {
        ("overwrite", "append")
    }

    fn rounds_per_block(&self) -> usize {
        self.appends_per_reset
    }

    fn bed(&self) -> &Bed {
        &self.bed
    }

    fn warmup(&mut self, m: &mut Meter) {
        self.round(m);
        self.round = 0;
    }

    fn round(&mut self, m: &mut Meter) {
        let depth = self.round % self.appends_per_reset;
        if depth == 0 {
            self.reset(m);
        }
        m.begin_unit();
        let (bed, n) = (&self.bed, self.overwrite_rows);
        if let Some(report) = m.op("overwrite", n, || {
            save(bed, &self.overwrite_df, S2V_OVERWRITE, SaveMode::Overwrite)
        }) {
            m.verify(self.overwrite_check(&report));
        }
        let (a, k) = (self.append_rows, depth as u64 + 1);
        if let Some(report) = m.op("append", a, || {
            save(bed, &self.append_df, S2V_APPEND, SaveMode::Append)
        }) {
            m.verify(
                check::count("Append rows_loaded", report.rows_loaded, a)
                    .and_then(|()| table_check(bed, S2V_APPEND, a * k, self.append_sum * k as f64)),
            );
        }
        m.end_unit();
        self.round += 1;
        bed.clear_recorders();
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            schema: &self.schema,
            partition: &self.partition,
            table: S2V_OVERWRITE,
            features: &self.features,
        }
    }
}

// ------------------------------------------------------- the fact table

/// Table the read workloads query.
pub const FACT: &str = "fact";
/// `pct` bound of the aggregate query (~5% of rows).
pub const AGG_PCT: i64 = 5;
/// `pct` bound of the scoring query (~20% of rows).
pub const MD_PCT: i64 = 20;
/// Name of the deployed logistic model.
pub const MODEL: &str = "perf_logit";

/// The grouped aggregate both read paths answer.
pub fn agg_request() -> AggRequest {
    AggRequest::new(
        &["pct"],
        vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, "c0")],
    )
}

/// [`agg_request`] with its filter, as SQL.
pub fn agg_sql() -> String {
    format!("SELECT pct, COUNT(*), SUM(c0) FROM {FACT} WHERE pct < {AGG_PCT} GROUP BY pct")
}

pub fn md_sql() -> String {
    format!(
        "SELECT PMMLPredict(c0, c1, c2, c3 USING PARAMETERS model_name='{MODEL}') \
         FROM {FACT} WHERE pct < {MD_PCT}"
    )
}

fn agg_filter() -> Expr {
    Expr::col("pct").lt(Expr::lit(AGG_PCT))
}

/// A seeded logistic regression over `c0..c3`.
pub fn model(seed: u64) -> PmmlDocument {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00d3_1a5e);
    let coefficients = (0..4)
        .map(|i| (format!("c{i}"), rng.random_range(-2.0..2.0)))
        .collect();
    PmmlDocument::new(
        MODEL,
        "perfbench",
        PmmlModel::Regression(RegressionModel {
            function: MiningFunction::Classification,
            normalization: NormalizationMethod::Logit,
            intercept: rng.random_range(-1.0..1.0),
            coefficients,
            target: "label".into(),
        }),
    )
}

/// The preloaded fact table with every reference the read workloads
/// check against.
struct Fact {
    bed: Bed,
    schema: Schema,
    rows: u64,
    partitions: usize,
    checksum: u64,
    agg_reference: Vec<Row>,
    partition: Vec<Row>,
    /// `c0..c3` of the rows the scoring query selects.
    features: Vec<Vec<f64>>,
    scores: Vec<f64>,
}

impl Fact {
    fn setup(seed: u64, scale: &Scale, deploy_model: bool) -> Fact {
        let bed = Bed::new(ClusterConfig::default());
        let (schema, rows) =
            bench::datasets::d1_with_int_column(scale.fact_rows, scale.fact_cols, seed);
        let pct = |r: &Row| r.get(0).as_i64().unwrap_or(i64::MAX);
        let selected: Vec<Row> = rows.iter().filter(|r| pct(r) < AGG_PCT).cloned().collect();
        let (_, agg_reference) = aggregate_rows(&schema, &selected, &agg_request())
            .expect("reference aggregate over generated rows");
        let features: Vec<Vec<f64>> = rows
            .iter()
            .filter(|r| pct(r) < MD_PCT)
            .map(|r| (1..5).map(|i| r.get(i).as_f64().unwrap_or(0.0)).collect())
            .collect();
        let partition = first_partition(&rows, scale.partitions);
        let checksum = check::checksum(&rows);
        let n = rows.len() as u64;
        let df = bed
            .ctx
            .create_dataframe(rows, schema.clone(), scale.partitions)
            .expect("generated rows match their schema");
        let report = save(&bed, &df, FACT, SaveMode::Overwrite).expect("fact preload");
        assert_eq!(report.rows_loaded, n, "fact preload row count");
        let mut scores = Vec::new();
        if deploy_model {
            let doc = model(seed);
            ModelDeployment::new(std::sync::Arc::clone(&bed.db))
                .and_then(|md| md.deploy_pmml_model(&doc, true))
                .expect("model deploys");
            let evaluator = Evaluator::from_document(&doc).expect("model evaluates");
            scores = features
                .iter()
                .map(|f| evaluator.predict(f).expect("reference score"))
                .collect();
        }
        bed.clear_recorders();
        Fact {
            bed,
            schema,
            rows: n,
            partitions: scale.partitions,
            checksum,
            agg_reference,
            partition,
            features,
            scores,
        }
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            schema: &self.schema,
            partition: &self.partition,
            table: FACT,
            features: &self.features,
        }
    }
}

/// Open the fact table through V2S (the connector's read path).
pub fn v2s_load(bed: &Bed, partitions: usize) -> SparkResult<DataFrame> {
    bed.ctx
        .read()
        .format(connector::DEFAULT_SOURCE)
        .option("host", 0)
        .option("table", FACT)
        .option("numPartitions", partitions)
        .load()
}

/// The aggregate through V2S with filter and partial-aggregate
/// pushdown.
pub fn v2s_pushdown(bed: &Bed, partitions: usize) -> SparkResult<Vec<Row>> {
    let request = agg_request();
    v2s_load(bed, partitions)?
        .filter(agg_filter())?
        .agg(
            &request
                .group_by
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            request.calls,
        )?
        .collect()
}

/// Run one SQL SELECT and return its rows.
pub fn sql_rows(bed: &Bed, sql: &str) -> Result<Vec<Row>, mppdb::DbError> {
    Ok(bed.db.connect(0)?.execute(sql)?.rows()?.into_rows())
}

// ---------------------------------------------------------------- v2s_scan

/// V2S reads: a full load collected to the client, then the grouped
/// aggregate with filter and aggregate pushdown.
pub struct V2sScan {
    fact: Fact,
}

impl Workload for V2sScan {
    fn kinds(&self) -> (&'static str, &'static str) {
        ("load", "pushdown")
    }

    fn bed(&self) -> &Bed {
        &self.fact.bed
    }

    fn warmup(&mut self, m: &mut Meter) {
        self.round(m);
    }

    fn round(&mut self, m: &mut Meter) {
        let f = &self.fact;
        let parts = f.partitions;
        m.begin_unit();
        if let Some(rows) = m.op("load", f.rows, || v2s_load(&f.bed, parts)?.collect()) {
            m.returned(rows.len() as u64);
            m.verify(check::rows_checksum("V2S load", &rows, f.rows, f.checksum));
        }
        if let Some(rows) = m.op("pushdown", f.rows, || v2s_pushdown(&f.bed, parts)) {
            m.returned(rows.len() as u64);
            m.verify(check::agg_rows(
                "pushdown aggregate",
                rows,
                &f.agg_reference,
                1,
            ));
        }
        m.end_unit();
        f.bed.clear_recorders();
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        self.fact.probe_inputs()
    }
}

// ----------------------------------------------------------- sql_analytics

/// In-database analytics: the same grouped aggregate through SQL, then
/// in-database model scoring with `PMMLPredict`.
pub struct SqlAnalytics {
    fact: Fact,
}

impl Workload for SqlAnalytics {
    fn kinds(&self) -> (&'static str, &'static str) {
        ("sql_agg", "md_score")
    }

    fn bed(&self) -> &Bed {
        &self.fact.bed
    }

    fn warmup(&mut self, m: &mut Meter) {
        self.round(m);
    }

    fn round(&mut self, m: &mut Meter) {
        let f = &self.fact;
        m.begin_unit();
        if let Some(rows) = m.op("sql_agg", f.rows, || sql_rows(&f.bed, &agg_sql())) {
            m.returned(rows.len() as u64);
            m.verify(check::agg_rows("SQL aggregate", rows, &f.agg_reference, 1));
        }
        if let Some(rows) = m.op("md_score", f.rows, || sql_rows(&f.bed, &md_sql())) {
            m.returned(rows.len() as u64);
            let got: Result<Vec<f64>, _> = rows.iter().map(|r| r.get(0).as_f64()).collect();
            m.verify(match got {
                Ok(got) => check::scores("PMMLPredict scores", got, &f.scores),
                Err(e) => Err(format!("PMMLPredict returned a non-number: {e}")),
            });
        }
        m.end_unit();
        f.bed.clear_recorders();
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        self.fact.probe_inputs()
    }
}

// ---------------------------------------------------------- stream_trickle

/// Table the stream writes.
pub const STREAM_TABLE: &str = "stream_fact";

/// Streaming S2V on the WOS path: one cycle opens the stream with
/// Overwrite, appends every micro-batch (each one an exactly-once COPY
/// job) and finishes. The table is dropped before each cycle, so the
/// Overwrite creates it afresh. After each batch a narrow count probe over the
/// first batch's ids runs on a rotating node.
pub struct StreamTrickle {
    bed: Bed,
    schema: Schema,
    opts: ConnectorOptions,
    batches: Vec<Vec<Row>>,
    batch_rows: usize,
    warmup_batches: usize,
    features: Vec<Vec<f64>>,
}

impl StreamTrickle {
    fn setup(seed: u64, scale: &Scale) -> StreamTrickle {
        // Commit-path auto-moveout off: the writer's own mover pass
        // after each flush is the only WOS→ROS motion.
        let bed = Bed::new(ClusterConfig {
            moveout_threshold: usize::MAX,
            ..ClusterConfig::default()
        });
        let schema = Schema::from_pairs(&[("id", DataType::Int64), ("val", DataType::Float64)]);
        let opts = ConnectorOptions::builder(STREAM_TABLE)
            .num_partitions(DB_NODES)
            .copy_direct(false)
            .stream(scale.stream_batch_rows, 600_000)
            .mover_enabled(true)
            .build()
            .expect("valid stream options");
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = scale.stream_batch_rows;
        let batches = (0..scale.stream_batches)
            .map(|seq| {
                (0..rows)
                    .map(|i| row![(seq * rows + i) as i64, rng.random_range(0.0..1000.0)])
                    .collect()
            })
            .collect();
        StreamTrickle {
            bed,
            schema,
            opts,
            batches,
            batch_rows: rows,
            warmup_batches: scale.stream_warmup_batches,
            features: Vec::new(),
        }
    }

    fn cycle(&mut self, m: &mut Meter, batches: usize) {
        let (bed, rows) = (&self.bed, self.batch_rows as u64);
        let probe = QuerySpec::scan(STREAM_TABLE)
            .filter(Expr::col("id").lt(Expr::lit(rows as i64)))
            .count();
        // Every cycle starts from the same state: Overwrite keeps the
        // previous cycle's rows as deleted rows, and the final-status
        // table gains a row per micro-batch, so both would otherwise
        // grow with run length.
        drop_tables(bed, &[STREAM_TABLE], m);
        reset_final_status(bed, m);
        m.begin_unit();
        let Some(mut writer) = m.op("open", 0, || {
            StreamWriter::open(
                &bed.ctx,
                &bed.db,
                self.schema.clone(),
                &self.opts,
                SaveMode::Overwrite,
            )
        }) else {
            m.end_unit();
            return;
        };
        for seq in 0..batches {
            if seq > 0 {
                m.begin_unit();
            }
            let batch = self.batches[seq].clone();
            if let Some(flushed) = m.op("commit", rows, || writer.append_rows(batch)) {
                m.verify(check::count("micro-batches flushed", flushed, 1));
            }
            let node = seq % DB_NODES;
            if let Some(result) = m.op("probe", 0, || bed.db.connect(node)?.query(&probe)) {
                m.returned(result.count);
                m.verify(check::count("stream probe", result.count, rows));
            }
            if seq + 1 < batches {
                m.end_unit();
                bed.clear_recorders();
            }
        }
        let total = batches as u64 * rows;
        if let Some(report) = m.op("finish", 0, || writer.finish()) {
            m.verify(check::count(
                "stream rows_loaded",
                report.rows_loaded,
                total,
            ));
        }
        m.end_unit();
        let end = bed
            .db
            .connect(0)
            .and_then(|mut s| s.query(&QuerySpec::scan(STREAM_TABLE).count()))
            .map_err(|e| e.to_string())
            .and_then(|r| check::count("stream cycle-end count", r.count, total));
        m.verify_extra(end);
        bed.clear_recorders();
    }
}

impl Workload for StreamTrickle {
    fn kinds(&self) -> (&'static str, &'static str) {
        ("commit", "probe")
    }

    fn throughput_kinds(&self) -> Vec<&'static str> {
        vec!["open", "commit", "finish"]
    }

    fn bed(&self) -> &Bed {
        &self.bed
    }

    fn warmup(&mut self, m: &mut Meter) {
        let n = self.warmup_batches.min(self.batches.len());
        self.cycle(m, n);
    }

    fn round(&mut self, m: &mut Meter) {
        let n = self.batches.len();
        self.cycle(m, n);
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            schema: &self.schema,
            partition: self.batches.first().map(Vec::as_slice).unwrap_or(&[]),
            table: STREAM_TABLE,
            features: &self.features,
        }
    }
}
