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
//!
//! The rest pins what binding a statement once guarantees: bind errors
//! that do not depend on the data, static output types, nested UDF
//! slots with one `udf_eval` event per statement, and one integer
//! overflow error on every evaluation path.

use std::mem::{discriminant, Discriminant};
use std::sync::{Arc, Mutex, MutexGuard};

use common::agg::{aggregate_rows, AggCall, AggFunc, AggRequest};
use common::expr::BinaryOp;
use common::{DataType, Expr, Field, Row, Schema, Value};
use mppdb::udf::UdfParams;
use mppdb::{
    Cluster, ClusterConfig, DbError, DbResult, QueryResult, QuerySpec, ScalarUdf, Session,
};
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
/// arguments, NULL when one of them is.
struct Score;

impl ScalarUdf for Score {
    fn name(&self) -> &str {
        "score"
    }

    fn eval(&self, args: &[Value], _params: &UdfParams) -> DbResult<Value> {
        if args.iter().any(Value::is_null) {
            return Ok(Value::Null);
        }
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

/// A random scalar over the table's numeric columns: all five
/// arithmetic operators and unary minus over columns and small
/// non-negative literals (or NULL). Division and remainder by zero
/// fail; every path must fail alike.
fn random_scalar(rng: &mut StdRng, numeric: &[&str], depth: usize) -> Expr {
    if depth > 0 && rng.random_bool(0.6) {
        let l = random_scalar(rng, numeric, depth - 1);
        if rng.random_bool(0.15) {
            return Expr::Neg(Box::new(l));
        }
        let ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Mod,
        ];
        let op = ops[rng.random_range(0..ops.len())];
        return Expr::binary(l, op, random_scalar(rng, numeric, depth - 1));
    }
    match rng.random_range(0..10) {
        0 => Expr::lit(Value::Null),
        1 | 2 => Expr::lit(rng.random_range(0..4i64)),
        3 => Expr::lit(rng.random_range(0..8) as f64 * 0.25),
        _ if numeric.is_empty() => Expr::lit(1i64),
        _ => Expr::col(numeric[rng.random_range(0..numeric.len())]),
    }
}

/// Expression items and arithmetic WHEREs over a base table run on the
/// lowered items path (a filtered narrow scan, items bound over its
/// columns); the same SELECT over the view binds over every column on
/// the row path. Names, static types and rows, or the kind of error,
/// must agree.
#[test]
fn lowered_expression_items_match_the_row_path() {
    let _serial = serial();
    let (mut checked, mut failed) = (0, 0);
    for seed in 200..230u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (cluster, schema, _) = random_table(&mut rng, (seed % 2) as usize);
        let numeric: Vec<&str> = schema
            .fields()
            .iter()
            .filter(|f| f.dtype != DataType::Varchar)
            .map(|f| f.name.as_str())
            .collect();
        let mut s = cluster.connect(0).unwrap();
        for _ in 0..8 {
            let mut items: Vec<String> = (0..rng.random_range(1..4))
                .map(|i| format!("{} AS e{i}", random_scalar(&mut rng, &numeric, 2).to_sql()))
                .collect();
            if rng.random_bool(0.5) {
                items.push(schema.field(0).name.clone());
            }
            let mut sql = format!("SELECT {} FROM {{table}}", items.join(", "));
            match rng.random_range(0..3) {
                0 => {}
                1 => sql.push_str(&format!(
                    " WHERE {}",
                    random_predicate(&mut rng, &schema, 1).to_sql()
                )),
                _ => {
                    let l = random_scalar(&mut rng, &numeric, 2);
                    let r = random_scalar(&mut rng, &numeric, 1);
                    sql.push_str(&format!(" WHERE {}", l.gt_eq(r).to_sql()));
                }
            }
            let lowered_sql = sql.replace("{table}", "t");
            let view_sql = sql.replace("{table}", "v");
            let tag = format!("seed {seed}: {lowered_sql}");
            assert!(
                plan(&mut s, &lowered_sql)
                    .contains("referenced column(s) [pushed down to storage]"),
                "{tag}"
            );
            assert!(plan(&mut s, &view_sql).contains("[row path]"), "{tag}");
            match (run(&mut s, &lowered_sql), run(&mut s, &view_sql)) {
                (Ok(l), Ok(r)) => {
                    assert_eq!(l.schema.column_names(), r.schema.column_names(), "{tag}");
                    assert_eq!(types(&l.schema), types(&r.schema), "{tag}");
                    assert_eq!(sorted(l.rows), sorted(r.rows), "{tag}");
                    checked += 1;
                }
                (Err(l), Err(r)) => {
                    assert_eq!(kind(&l), kind(&r), "{tag}: {l} vs {r}");
                    failed += 1;
                }
                (l, r) => panic!(
                    "{tag}: paths disagree: lowered {:?}, row path {:?}",
                    l.map(|x| x.rows),
                    r.map(|x| x.rows)
                ),
            }
        }
    }
    assert!(checked > 120, "only {checked} queries compared");
    assert!(failed > 0, "no error case was generated");
}

/// Unknown columns and functions, and aggregates in scalar positions,
/// fail when the statement binds: the same error on an empty and a
/// non-empty relation, base table or view.
#[test]
fn bind_errors_do_not_depend_on_the_data() {
    let _serial = serial();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.register_udf(Arc::new(Score));
    let mut s = cluster.connect(0).unwrap();
    for t in ["e", "f"] {
        s.execute(&format!(
            "CREATE TABLE {t} (a INT, x FLOAT) SEGMENTED BY HASH(a) ALL NODES"
        ))
        .unwrap();
        s.execute(&format!("CREATE VIEW {t}v AS SELECT * FROM {t}"))
            .unwrap();
    }
    s.execute("INSERT INTO f VALUES (1, 0.5), (2, 1.5)")
        .unwrap();
    let queries = [
        "SELECT nosuch FROM {t}",
        "SELECT a, x * nosuch FROM {t}",
        "SELECT nofunc(a) FROM {t}",
        "SELECT score(nofunc(a)) FROM {t}",
        "SELECT SUM(nosuch) FROM {t}",
        "SELECT a, COUNT(nofunc(x)) FROM {t} GROUP BY a",
        "SELECT a FROM {t} WHERE nosuch > 1",
        "SELECT a FROM {t} WHERE SUM(a) > 1",
        "SELECT a, score(COUNT(*)) FROM {t}",
        "SELECT a + 1 FROM {t} GROUP BY a + nosuch",
        "SELECT p.a FROM {t} p JOIN {t} q ON p.a < q.nosuch",
    ];
    for q in queries {
        let errors: Vec<String> = ["e", "f", "ev", "fv"]
            .iter()
            .map(|t| match run(&mut s, &q.replace("{t}", t)) {
                Ok(r) => panic!("{q} over {t} returned {:?}", r.rows),
                Err(e) => e.to_string(),
            })
            .collect();
        assert!(errors.iter().all(|e| e == &errors[0]), "{q}: {errors:?}");
    }
}

/// Output types come from the expressions, not from the values: an
/// all-NULL expression column keeps its type on the row path, on the
/// lowered items path and in row-path aggregates. Only a UDF result
/// and a bare NULL are typed by their values.
#[test]
fn expression_items_have_static_types() {
    let _serial = serial();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.register_udf(Arc::new(Score));
    let mut s = cluster.connect(0).unwrap();
    s.execute("CREATE TABLE n (a INT, x FLOAT, s VARCHAR) SEGMENTED BY HASH(a) ALL NODES")
        .unwrap();
    s.execute("CREATE VIEW nv AS SELECT * FROM n").unwrap();
    s.execute("INSERT INTO n VALUES (NULL, NULL, 'k'), (NULL, NULL, NULL)")
        .unwrap();
    let sql = "SELECT a * 2, x + a, a / 2, -a, a % 3, a > 1, s LIKE 'k%', NULL, \
               score(x), score(a) + 1 FROM {t}";
    let expected = [
        DataType::Int64,
        DataType::Float64,
        DataType::Float64,
        DataType::Int64,
        DataType::Int64,
        DataType::Boolean,
        DataType::Boolean,
        // A bare NULL and UDF results over NULL inputs: no value, VARCHAR.
        DataType::Varchar,
        DataType::Varchar,
        DataType::Varchar,
    ];
    assert!(plan(&mut s, &sql.replace("{t}", "n")).contains("[pushed down to storage]"));
    for t in ["n", "nv"] {
        let r = run(&mut s, &sql.replace("{t}", t)).unwrap();
        assert_eq!(types(&r.schema), expected, "{t}");
        assert_eq!(r.rows.len(), 2);
    }
    // Row-path aggregate: expression keys and arguments.
    let r = run(
        &mut s,
        "SELECT a + 1, SUM(a * 2), MIN(x + 1), AVG(a), COUNT(*) FROM nv GROUP BY a + 1",
    )
    .unwrap();
    assert_eq!(
        types(&r.schema),
        [
            DataType::Int64,
            DataType::Int64,
            DataType::Float64,
            DataType::Float64,
            DataType::Int64
        ]
    );
    assert_eq!(
        r.rows,
        vec![Row::new(vec![
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Int64(2)
        ])]
    );
    // Without FROM, and with a UDF value to type by.
    let r = run(&mut s, "SELECT 1 + 2, 2 * 0.5, score(2.0) AS k").unwrap();
    assert_eq!(
        types(&r.schema),
        [DataType::Int64, DataType::Float64, DataType::Float64]
    );
    assert_eq!(
        r.rows,
        vec![Row::new(vec![
            Value::Int64(3),
            Value::Float64(1.0),
            Value::Float64(2.0)
        ])]
    );
}

/// The number of `udf_eval` work events the statement recorded, and
/// their summed row counts.
fn udf_eval_events(cluster: &Cluster) -> (usize, u64) {
    let mut events = 0;
    let mut rows = 0;
    for e in cluster.recorder().drain() {
        if let netsim::record::EventKind::Work {
            label: "udf_eval",
            rows: n,
            ..
        } = e.kind
        {
            events += 1;
            rows += n;
        }
    }
    (events, rows)
}

/// A nested UDF call inside an arithmetic item binds its inner call to
/// an earlier slot; both paths score alike, and each statement records
/// one `udf_eval` event counting every invocation.
#[test]
fn nested_udf_items_score_alike_and_record_one_event() {
    let _serial = serial();
    let cluster = Cluster::new(ClusterConfig::default());
    cluster.register_udf(Arc::new(Score));
    let mut s = cluster.connect(0).unwrap();
    s.execute(
        "CREATE TABLE m (k INT, f0 FLOAT, f1 FLOAT, f2 FLOAT) SEGMENTED BY HASH(k) ALL NODES",
    )
    .unwrap();
    s.execute("CREATE VIEW mv AS SELECT * FROM m").unwrap();
    let rows: Vec<Row> = (0..300i64)
        .map(|i| {
            Row::new(vec![
                Value::Int64(i),
                Value::Float64((i % 7) as f64 * 0.5),
                Value::Float64((i % 5) as f64),
                Value::Float64((i % 3) as f64 * 0.25),
            ])
        })
        .collect();
    s.insert("m", rows.clone()).unwrap();
    cluster.moveout_all();

    let sql = "SELECT k, score(score(f0, f1), f2) * 2 + k AS s FROM {t} WHERE k % 3 = 0";
    let expected: Vec<Row> = rows
        .iter()
        .filter(|r| r.get(0).as_i64().unwrap() % 3 == 0)
        .map(|r| {
            let f = |c: usize| r.get(c).as_f64().unwrap();
            let inner = f(1) + 2.0 * f(2);
            let k = r.get(0).as_i64().unwrap();
            Row::new(vec![
                Value::Int64(k),
                Value::Float64((inner + 2.0 * f(3)) * 2.0 + k as f64),
            ])
        })
        .collect();
    assert!(plan(&mut s, &sql.replace("{t}", "m"))
        .contains("projection: 4 referenced column(s) [pushed down to storage]"));
    for t in ["m", "mv"] {
        cluster.recorder().clear();
        let r = run(&mut s, &sql.replace("{t}", t)).unwrap();
        assert_eq!(r.schema.column_names(), vec!["k", "s"]);
        assert_eq!(types(&r.schema), [DataType::Int64, DataType::Float64]);
        assert_eq!(sorted(r.rows), sorted(expected.clone()), "{t}");
        // 100 rows scored, two calls each.
        assert_eq!(udf_eval_events(&cluster), (1, 200), "{t}");
    }
    // A UDF in the WHERE and in the items: still one event.
    cluster.recorder().clear();
    let r = run(&mut s, "SELECT score(f1) FROM m WHERE score(k) < 30").unwrap();
    assert_eq!(r.rows.len(), 30);
    assert_eq!(udf_eval_events(&cluster), (1, 330));
}

/// Integer `+ - *` and unary minus that leave BIGINT raise one
/// "numeric overflow" error on every evaluation path, and `MIN % -1`
/// is 0 everywhere.
#[test]
fn integer_overflow_is_one_error_on_every_path() {
    let _serial = serial();
    let cluster = Cluster::new(ClusterConfig::default());
    let mut s = cluster.connect(0).unwrap();
    s.execute("CREATE TABLE o (id INT, c INT) SEGMENTED BY HASH(id) ALL NODES")
        .unwrap();
    s.execute("CREATE VIEW ov AS SELECT * FROM o").unwrap();
    s.insert(
        "o",
        (0..40i64)
            .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(i)]))
            .collect(),
    )
    .unwrap();
    s.insert(
        "o",
        vec![Row::new(vec![Value::Int64(40), Value::Int64(i64::MIN)])],
    )
    .unwrap();
    cluster.moveout_all();

    let overflow = |e: DbError| {
        let text = e.to_string();
        assert!(
            matches!(e, DbError::Data(common::Error::Eval(_))) && text.contains("numeric overflow"),
            "{text}"
        );
        text
    };
    for pred in ["c - 1 < 0", "-c > 0", "c * 2 < 0", "c + -1 < 0"] {
        let lowered = overflow(run(&mut s, &format!("SELECT id FROM o WHERE {pred}")).unwrap_err());
        assert!(plan(&mut s, &format!("SELECT id FROM o WHERE {pred}"))
            .contains("[pushed down to storage]"));
        let row_path =
            overflow(run(&mut s, &format!("SELECT id FROM ov WHERE {pred}")).unwrap_err());
        assert_eq!(row_path, lowered, "{pred}");
    }
    let spec = |pred: Expr| QuerySpec::scan("o").filter(pred);
    let c_minus_1 =
        Expr::binary(Expr::col("c"), BinaryOp::Sub, Expr::lit(1i64)).lt(Expr::lit(0i64));
    let queried = overflow(s.query(&spec(c_minus_1.clone())).unwrap_err());
    let unskipped = overflow(s.query(&spec(c_minus_1).without_skipping()).unwrap_err());
    assert_eq!(queried, unskipped);
    assert_eq!(
        queried,
        overflow(run(&mut s, "SELECT id FROM o WHERE c - 1 < 0").unwrap_err())
    );

    for t in ["o", "ov"] {
        let r = run(&mut s, &format!("SELECT c % -1 FROM {t} WHERE id = 40")).unwrap();
        assert_eq!(r.rows, vec![Row::new(vec![Value::Int64(0)])], "{t}");
        overflow(run(&mut s, &format!("SELECT -c FROM {t}")).unwrap_err());
    }
}
