//! Seeded differential test of the SQL lowering. A single-table SELECT
//! on a base table runs on the pushdown scan (a `QuerySpec` predicate
//! plus an `AggRequest`, or a filtered narrow projection). It must agree
//! with two oracles that never see the lowering:
//! - the same SELECT over `CREATE VIEW v AS SELECT * FROM t`, which
//!   takes the SQL row path;
//! - `common::agg::aggregate_rows` over the table's rows, filtered by
//!   the same predicate.
//!
//! Column names and types must be equal, rows equal as multisets, and
//! when a query fails it must fail with the same kind of error on every
//! path. Float inputs are small multiples of 0.25, so every SUM and AVG
//! is exact whatever order the partials merge in.

use std::mem::{discriminant, Discriminant};
use std::sync::{Arc, Mutex, MutexGuard};

use common::agg::{aggregate_rows, AggCall, AggFunc, AggRequest};
use common::{DataType, Expr, Field, Row, Schema, Value};
use mppdb::udf::UdfParams;
use mppdb::{Cluster, ClusterConfig, DbError, DbResult, QueryResult, ScalarUdf, Session};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The tests read process-wide scan counters; run them one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const DTYPES: [DataType; 3] = [DataType::Int64, DataType::Float64, DataType::Varchar];

fn random_value(rng: &mut StdRng, dtype: DataType) -> Value {
    if rng.random_bool(0.15) {
        return Value::Null;
    }
    match dtype {
        DataType::Int64 => Value::Int64(rng.random_range(-5..6)),
        DataType::Float64 => Value::Float64(rng.random_range(-16..17) as f64 * 0.25),
        _ => Value::Varchar(format!("s{}", rng.random_range(0..5))),
    }
}

/// A random table `t` (2–4 columns, 0–150 rows, some in ROS containers
/// and some still in the WOS) and the view `v` over it.
fn random_table(rng: &mut StdRng, k_safety: usize) -> (Arc<Cluster>, Schema, Vec<Row>) {
    let cluster = Cluster::new(ClusterConfig {
        node_count: 3,
        k_safety,
        ..ClusterConfig::default()
    });
    let ncols = rng.random_range(2..5);
    let schema = Schema::new(
        (0..ncols)
            .map(|i| Field::new(format!("c{i}"), DTYPES[rng.random_range(0..3)]))
            .collect(),
    );
    let columns: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.dtype.sql_name()))
        .collect();
    let segmentation = if rng.random_bool(0.25) {
        "UNSEGMENTED ALL NODES"
    } else {
        "SEGMENTED BY HASH(c0) ALL NODES"
    };
    let nrows = match rng.random_range(0..5) {
        0 => 0,
        1 => rng.random_range(1..4),
        _ => rng.random_range(20..150),
    };
    let rows: Vec<Row> = (0..nrows)
        .map(|_| {
            Row::new(
                schema
                    .fields()
                    .iter()
                    .map(|f| random_value(rng, f.dtype))
                    .collect(),
            )
        })
        .collect();
    let mut s = cluster.connect(0).unwrap();
    s.execute(&format!(
        "CREATE TABLE t ({}) {segmentation}",
        columns.join(", ")
    ))
    .unwrap();
    s.execute("CREATE VIEW v AS SELECT * FROM t").unwrap();
    let split = rng.random_range(0..rows.len() + 1);
    if split > 0 {
        s.insert("t", rows[..split].to_vec()).unwrap();
        cluster.moveout_all();
    }
    if split < rows.len() {
        s.insert("t", rows[split..].to_vec()).unwrap();
    }
    (cluster, schema, rows)
}

/// A predicate that can never fail to evaluate: comparisons against
/// same-typed literals, NULL tests, LIKE, and their AND/OR/NOT.
fn random_predicate(rng: &mut StdRng, schema: &Schema, depth: usize) -> Expr {
    if depth > 0 && rng.random_bool(0.4) {
        let l = random_predicate(rng, schema, depth - 1);
        return match rng.random_range(0..3) {
            0 => l.and(random_predicate(rng, schema, depth - 1)),
            1 => l.or(random_predicate(rng, schema, depth - 1)),
            _ => Expr::Not(Box::new(l)),
        };
    }
    let f = schema.field(rng.random_range(0..schema.len()));
    let col = Expr::col(f.name.as_str());
    match rng.random_range(0..6) {
        0 => Expr::IsNull(Box::new(col)),
        1 => Expr::IsNotNull(Box::new(col)),
        2 if f.dtype == DataType::Varchar => Expr::Like {
            expr: Box::new(col),
            pattern: format!("s{}%", rng.random_range(0..5)),
        },
        _ => {
            let lit = match random_value(rng, f.dtype) {
                Value::Null => random_value(rng, f.dtype),
                v => v,
            };
            match rng.random_range(0..4) {
                0 => col.lt(Expr::lit(lit)),
                1 => col.gt_eq(Expr::lit(lit)),
                2 => col.eq(Expr::lit(lit)),
                _ => col.lt_eq(Expr::lit(lit)),
            }
        }
    }
}

/// One generated aggregate query: its SQL text (with `{table}` to
/// fill in) and the same query as an `AggRequest` plus the position of
/// each select item in the request's output row.
struct AggQuery {
    sql: String,
    filter: Option<Expr>,
    request: AggRequest,
    item_columns: Vec<usize>,
}

fn random_call(rng: &mut StdRng, schema: &Schema) -> AggCall {
    let f = schema.field(rng.random_range(0..schema.len()));
    let numeric = f.dtype != DataType::Varchar;
    match rng.random_range(0..7) {
        0 => AggCall::count_star(),
        1 => AggCall::new(AggFunc::Count, f.name.as_str()),
        // SUM/AVG over a VARCHAR column now and then: a type error that
        // every path must raise alike.
        2 if numeric || rng.random_bool(0.15) => AggCall::new(AggFunc::Sum, f.name.as_str()),
        3 if numeric || rng.random_bool(0.15) => AggCall::new(AggFunc::Avg, f.name.as_str()),
        4 => AggCall::new(AggFunc::Min, f.name.as_str()),
        5 => AggCall::new(AggFunc::Max, f.name.as_str()),
        _ => AggCall::count_star(),
    }
}

fn random_agg_query(rng: &mut StdRng, schema: &Schema) -> AggQuery {
    let mut group_by: Vec<String> = Vec::new();
    for _ in 0..rng.random_range(0..3) {
        let name = schema.field(rng.random_range(0..schema.len())).name.clone();
        if !group_by.contains(&name) {
            group_by.push(name);
        }
    }
    let calls: Vec<AggCall> = (0..rng.random_range(1..4))
        .map(|_| random_call(rng, schema))
        .collect();
    // Items: every group column and every call, in a random order, some
    // of them aliased.
    let mut items: Vec<(String, usize)> = group_by
        .iter()
        .enumerate()
        .map(|(i, g)| (g.clone(), i))
        .chain(calls.iter().enumerate().map(|(i, c)| {
            let arg = c.column.as_deref().unwrap_or("*");
            (
                format!("{}({arg})", c.func.sql_name().to_uppercase()),
                group_by.len() + i,
            )
        }))
        .collect();
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..i + 1));
    }
    let rendered: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, (text, _))| {
            if rng.random_bool(0.3) {
                format!("{text} AS a{i}")
            } else {
                text.clone()
            }
        })
        .collect();
    let filter = match rng.random_range(0..5) {
        0 => None,
        // Fully filtered: no row survives.
        1 => Some(
            Expr::IsNull(Box::new(Expr::col("c0"))).and(Expr::IsNotNull(Box::new(Expr::col("c0")))),
        ),
        _ => Some(random_predicate(rng, schema, 2)),
    };
    let mut sql = format!("SELECT {} FROM {{table}}", rendered.join(", "));
    if let Some(f) = &filter {
        sql.push_str(&format!(" WHERE {}", f.to_sql()));
    }
    if !group_by.is_empty() {
        sql.push_str(&format!(" GROUP BY {}", group_by.join(", ")));
    }
    AggQuery {
        sql,
        filter,
        request: AggRequest { group_by, calls },
        item_columns: items.iter().map(|(_, c)| *c).collect(),
    }
}

/// Rows sorted by their debug rendering, for multiset comparison.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    rows
}

fn types(schema: &Schema) -> Vec<DataType> {
    schema.fields().iter().map(|f| f.dtype).collect()
}

/// The kind of an error, for cross-path comparison: the database error
/// variant and, for a data error, the shared layer's variant.
fn kind(e: &DbError) -> (Discriminant<DbError>, Option<Discriminant<common::Error>>) {
    let inner = match e {
        DbError::Data(inner) => Some(discriminant(inner)),
        _ => None,
    };
    (discriminant(e), inner)
}

fn run(s: &mut Session, sql: &str) -> DbResult<QueryResult> {
    s.execute(sql)?.rows()
}

fn plan(s: &mut Session, sql: &str) -> String {
    run(s, &format!("EXPLAIN {sql}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn lowered_aggregates_match_the_row_path_and_the_reference() {
    let _serial = serial();
    let mut checked = 0;
    let mut failed = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = (seed % 2) as usize;
        let (cluster, schema, rows) = random_table(&mut rng, k);
        let mut s = cluster.connect(0).unwrap();
        for _ in 0..8 {
            let q = random_agg_query(&mut rng, &schema);
            let lowered_sql = q.sql.replace("{table}", "t");
            let view_sql = q.sql.replace("{table}", "v");
            let tag = format!("seed {seed} k={k}: {lowered_sql}");

            // Both statements plan the way the test means them to.
            assert!(
                plan(&mut s, &lowered_sql).contains("group key(s) [pushed down to storage]"),
                "{tag}"
            );
            assert!(plan(&mut s, &view_sql).contains("[row path]"), "{tag}");

            let lowered = run(&mut s, &lowered_sql);
            let row_path = run(&mut s, &view_sql);
            let filtered: Vec<Row> = match &q.filter {
                Some(f) => {
                    let bound = f.bind(&schema).unwrap();
                    rows.iter()
                        .filter(|r| bound.matches(r).unwrap())
                        .cloned()
                        .collect()
                }
                None => rows.clone(),
            };
            let reference = aggregate_rows(&schema, &filtered, &q.request);

            match (lowered, row_path, reference) {
                (Ok(l), Ok(r), Ok((ref_schema, ref_rows))) => {
                    assert_eq!(l.schema.column_names(), r.schema.column_names(), "{tag}");
                    assert_eq!(types(&l.schema), types(&r.schema), "{tag}");
                    let ref_types: Vec<DataType> = q
                        .item_columns
                        .iter()
                        .map(|&c| ref_schema.field(c).dtype)
                        .collect();
                    assert_eq!(types(&l.schema), ref_types, "{tag}");
                    let ref_rows: Vec<Row> = ref_rows
                        .iter()
                        .map(|row| {
                            Row::new(q.item_columns.iter().map(|&c| row.get(c).clone()).collect())
                        })
                        .collect();
                    let l_rows = sorted(l.rows);
                    assert_eq!(l_rows, sorted(r.rows), "{tag}");
                    assert_eq!(l_rows, sorted(ref_rows), "{tag}");
                    assert_eq!(l.count as usize, l_rows.len(), "{tag}");
                    checked += 1;
                }
                (Err(l), Err(r), Err(reference)) => {
                    assert_eq!(kind(&l), kind(&r), "{tag}: {l} vs {r}");
                    assert_eq!(
                        kind(&l),
                        kind(&DbError::Data(reference.clone())),
                        "{tag}: {l} vs {reference}"
                    );
                    failed += 1;
                }
                (l, r, reference) => panic!(
                    "{tag}: paths disagree: lowered {:?}, row path {:?}, reference {:?}",
                    l.map(|x| x.rows),
                    r.map(|x| x.rows),
                    reference.map(|x| x.1)
                ),
            }
        }
    }
    assert!(checked > 250, "only {checked} queries compared");
    assert!(failed > 0, "no error case was generated");
}

/// Projections, aliases and expressions over a base table push down a
/// narrow scan and must return what the row path returns.
#[test]
fn lowered_projections_match_the_row_path() {
    let _serial = serial();
    let shapes = [
        "SELECT * FROM {table} WHERE c0 IS NOT NULL",
        "SELECT c1, c0 FROM {table} WHERE c0 IS NULL OR c1 IS NOT NULL",
        "SELECT c0 AS x FROM {table}",
        "SELECT c1 IS NULL, c0 FROM {table} WHERE NOT (c0 IS NULL)",
        "SELECT c0, c1 FROM {table} ORDER BY 1 LIMIT 5",
        "SELECT 7 AS k, {table}.c1 FROM {table} WHERE {table}.c0 IS NOT NULL",
    ];
    for seed in 100..112u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cluster, _, _) = random_table(&mut rng, (seed % 2) as usize);
        let mut s = cluster.connect(0).unwrap();
        for shape in shapes {
            let lowered = run(&mut s, &shape.replace("{table}", "t")).unwrap();
            let row_path = run(&mut s, &shape.replace("{table}", "v")).unwrap();
            let tag = format!("seed {seed}: {shape}");
            assert_eq!(
                lowered.schema.column_names(),
                row_path.schema.column_names(),
                "{tag}"
            );
            if shape.contains("ORDER BY") {
                // Ties make the order of equal keys path-dependent;
                // compare the sort keys.
                let keys = |r: &QueryResult| -> Vec<Value> {
                    r.rows.iter().map(|row| row.get(0).clone()).collect()
                };
                assert_eq!(keys(&lowered), keys(&row_path), "{tag}");
            } else {
                assert_eq!(sorted(lowered.rows), sorted(row_path.rows), "{tag}");
            }
        }
    }
}

/// A deterministic stand-in for `PMMLPredict`: a linear score of its
/// arguments.
struct Score;

impl ScalarUdf for Score {
    fn name(&self) -> &str {
        "score"
    }

    fn eval(&self, args: &[Value], _params: &UdfParams) -> DbResult<Value> {
        let mut total = 0.0;
        for (i, a) in args.iter().enumerate() {
            total += (i + 1) as f64 * a.as_f64().map_err(DbError::Data)?;
        }
        Ok(Value::Float64(total))
    }
}

/// The in-database scoring shape: a UDF over a few columns of a wide
/// table, filtered. Lowered, the scan decodes only the filter and the
/// UDF's argument columns, yet returns the same rows and scores.
#[test]
fn udf_projection_decodes_only_referenced_columns() {
    let _serial = serial();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.register_udf(Arc::new(Score));
    let mut s = cluster.connect(0).unwrap();
    let cols: Vec<String> = (0..12).map(|i| format!("f{i} FLOAT")).collect();
    s.execute(&format!(
        "CREATE TABLE wide (pct INT, {}) SEGMENTED BY HASH(pct) ALL NODES",
        cols.join(", ")
    ))
    .unwrap();
    s.execute("CREATE VIEW wide_v AS SELECT * FROM wide")
        .unwrap();
    let rows: Vec<Row> = (0..2_000i64)
        .map(|i| {
            let mut values = vec![Value::Int64(i % 100)];
            values.extend((0..12).map(|c| Value::Float64((i * (c + 1) % 17) as f64 * 0.5)));
            Row::new(values)
        })
        .collect();
    s.insert("wide", rows.clone()).unwrap();
    cluster.moveout_all();

    let sql = "SELECT score(f0, f1, f2 USING PARAMETERS model_name='m') AS s, pct \
               FROM {table} WHERE pct < 20";
    let decoded = || obs::global().counter_value("scan.values_decoded");
    obs::global().set_enabled(true);
    let before = decoded();
    let lowered = run(&mut s, &sql.replace("{table}", "wide")).unwrap();
    let lowered_decoded = decoded() - before;
    let before = decoded();
    let row_path = run(&mut s, &sql.replace("{table}", "wide_v")).unwrap();
    let row_path_decoded = decoded() - before;

    let expected: Vec<Row> = rows
        .iter()
        .filter(|r| r.get(0).as_i64().unwrap() < 20)
        .map(|r| {
            let f = |c: usize| r.get(c + 1).as_f64().unwrap();
            Row::new(vec![
                Value::Float64(f(0) + 2.0 * f(1) + 3.0 * f(2)),
                r.get(0).clone(),
            ])
        })
        .collect();
    assert_eq!(lowered.rows.len(), 400);
    assert_eq!(lowered.schema.column_names(), vec!["s", "pct"]);
    assert_eq!(sorted(lowered.rows), sorted(expected.clone()));
    assert_eq!(sorted(row_path.rows), sorted(expected));
    // The row path decodes all 13 columns of all 2,000 rows; the lowered
    // scan decodes at most `pct` to filter (runs may decode once), then
    // `pct`, f0..f2 of the 400 survivors.
    assert_eq!(row_path_decoded, 13 * 2_000);
    assert!(
        lowered_decoded > 0 && lowered_decoded <= 2_000 + 4 * 400,
        "{lowered_decoded}"
    );
    assert!(plan(&mut s, &sql.replace("{table}", "wide"))
        .contains("projection: 4 referenced column(s) [pushed down to storage]"));
}
