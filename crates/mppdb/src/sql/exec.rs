//! SQL statement execution.

use std::sync::Arc;

use common::agg::{AggCall, AggFunc, AggRequest, GroupedAccs};
use common::expr::BinaryOp;
use common::{DataType, Expr, Field, Row, Schema, Value};
use netsim::record::NodeRef;

use crate::catalog::{Segmentation, TableDef};
use crate::cluster::Cluster;
use crate::error::{DbError, DbResult};
use crate::query::{apply_spec_to_rows, QueryResult, QuerySpec};
use crate::session::Session;
use crate::sql::ast::{
    is_aggregate_name, ExprAst, OrderTarget, SegmentationClause, SelectItem, SelectStmt, Statement,
    TableRef,
};
use crate::udf::{ScalarUdf, UdfParams};

/// Result of executing one SQL statement.
#[derive(Debug, Clone)]
pub enum SqlResult {
    /// SELECT output.
    Rows(QueryResult),
    /// DML row count.
    Affected(u64),
    /// DDL / transaction control.
    Ok,
}

impl SqlResult {
    /// The rows of a SELECT result; errors for non-SELECT statements.
    pub fn rows(self) -> DbResult<QueryResult> {
        match self {
            SqlResult::Rows(r) => Ok(r),
            other => Err(DbError::Execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    pub fn affected(self) -> DbResult<u64> {
        match self {
            SqlResult::Affected(n) => Ok(n),
            SqlResult::Rows(r) => Ok(r.count),
            SqlResult::Ok => Ok(0),
        }
    }
}

/// Maximum view-in-view nesting.
const MAX_VIEW_DEPTH: usize = 16;

/// Describe a SELECT's plan (EXPLAIN) as one text row per plan line.
fn explain_select(session: &mut Session, select: &SelectStmt) -> DbResult<QueryResult> {
    let cluster = session.cluster();
    let epoch = session.resolve_epoch(select.at_epoch)?;
    let mut lines: Vec<String> = Vec::new();
    lines.push(format!("epoch: {epoch} (pinned snapshot)"));

    // The same lowering execution uses, so the plan cannot disagree
    // with what runs.
    let lowered = lower_select(cluster, select);
    const PUSHED: &str = "[pushed down to storage]";

    if let Some(from) = &select.from {
        let name = &from.table;
        if crate::system::is_system_table(name) {
            lines.push(format!("scan: system table {name}"));
        } else if cluster.catalog.read().view(name).is_some() {
            lines.push(format!(
                "scan: view {name} (executed at epoch {epoch}; synthetic row ranges available)"
            ));
        } else {
            let def = cluster.table_def(name)?;
            if def.is_segmented() {
                let map = cluster.segment_map();
                lines.push(format!(
                    "scan: table {} over {} hash segments (map v{}, locality-aware node-local ranges)",
                    def.name,
                    map.segments().len(),
                    map.version()
                ));
                for (s, seg) in map.segments().iter().enumerate() {
                    lines.push(format!(
                        "  segment {s} on node {}: [{:016x}, {})",
                        seg.owner,
                        seg.range.start,
                        seg.range
                            .end
                            .map(|e| format!("{e:016x}"))
                            .unwrap_or_else(|| "2^64".into())
                    ));
                }
            } else {
                lines.push(format!(
                    "scan: unsegmented table {} (served from the session's local replica)",
                    def.name
                ));
            }
        }
    } else {
        lines.push("scan: none (constant select)".to_string());
    }

    for join in &select.joins {
        lines.push(format!(
            "join: {} ON {:?} (hash join on simple equality, else nested loop)",
            join.table.table, join.on
        ));
    }
    if select.predicate.is_some() {
        match lowered.as_ref().and_then(|l| l.spec().predicate.as_ref()) {
            Some(e) => lines.push(format!("filter: {} {PUSHED}", e.to_sql())),
            None => lines.push("filter: [row path] evaluated per row in the executor".into()),
        }
    }
    let (keys, items) = (select.group_by.len(), select.items.len());
    lines.push(match &lowered {
        Some(Lowered::Aggregate { .. }) => {
            format!("aggregate: {keys} group key(s) {PUSHED}, {items} output item(s)")
        }
        None if is_aggregating(select) => {
            format!("aggregate: {keys} group key(s) [row path], {items} output item(s)")
        }
        Some(Lowered::Columns(_)) => format!("projection: {PUSHED}"),
        Some(Lowered::Items { spec, .. }) => format!(
            "projection: {} referenced column(s) {PUSHED}; items evaluated in the executor",
            spec.projection.as_ref().map_or(0, Vec::len)
        ),
        None => "projection: [row path] evaluated in the executor".to_string(),
    });
    if !select.order_by.is_empty() {
        lines.push(format!("sort: {} key(s)", select.order_by.len()));
    }
    if let Some(limit) = select.limit {
        lines.push(format!("limit: {limit}"));
    }

    let schema = Schema::from_pairs(&[("plan", DataType::Varchar)]);
    let rows: Vec<Row> = lines
        .into_iter()
        .map(|l| Row::new(vec![Value::Varchar(l)]))
        .collect();
    Ok(QueryResult {
        count: rows.len() as u64,
        schema,
        rows,
        epoch,
        batch: None,
    })
}

pub(crate) fn execute_statement(session: &mut Session, stmt: Statement) -> DbResult<SqlResult> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            segmentation,
            if_not_exists,
            temp,
        } => {
            if if_not_exists && session.cluster().has_table(&name) {
                return Ok(SqlResult::Ok);
            }
            let schema = Schema::new(
                columns
                    .into_iter()
                    .map(|c| Field {
                        name: c.name,
                        dtype: c.dtype,
                        nullable: !c.not_null,
                    })
                    .collect(),
            );
            let seg = match segmentation {
                SegmentationClause::Default => Segmentation::ByHash(vec![]),
                SegmentationClause::ByHash(cols) => Segmentation::ByHash(cols),
                SegmentationClause::Unsegmented => Segmentation::Unsegmented,
            };
            let mut def = TableDef::new(name, schema, seg)?;
            if temp {
                def = def.temp();
            }
            session.cluster().create_table(def)?;
            Ok(SqlResult::Ok)
        }
        Statement::DropTable { name, if_exists } => match session.cluster().drop_table(&name) {
            Ok(()) => Ok(SqlResult::Ok),
            Err(DbError::UnknownTable(_)) if if_exists => Ok(SqlResult::Ok),
            Err(e) => Err(e),
        },
        Statement::CreateView { name, select } => {
            session.cluster().create_view(&name, select)?;
            Ok(SqlResult::Ok)
        }
        Statement::DropView { name } => {
            session.cluster().drop_view(&name)?;
            Ok(SqlResult::Ok)
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => execute_insert(session, &table, columns, rows),
        Statement::InsertSelect { table, select } => {
            let def = session.cluster().table_def(&table)?;
            let result = execute_select(session, &select, 0)?;
            if !def.schema.compatible_with(&result.schema) {
                return Err(DbError::Execution(format!(
                    "INSERT SELECT: query schema {} incompatible with table {}",
                    result.schema, def.schema
                )));
            }
            let n = session.insert(&table, result.rows)?;
            Ok(SqlResult::Affected(n))
        }
        Statement::Update {
            table,
            assignments,
            predicate,
        } => execute_update(session, &table, assignments, predicate),
        Statement::Delete { table, predicate } => {
            let def = session.cluster().table_def(&table)?;
            let pred = predicate.map(|p| bind_dml(&def, &p)).transpose()?;
            let n = session.with_txn(|cluster, txn, node, tag| {
                cluster.delete_where(txn, node, tag, &table, pred.as_ref())
            })?;
            Ok(SqlResult::Affected(n))
        }
        Statement::Select(select) => Ok(SqlResult::Rows(execute_select(session, &select, 0)?)),
        Statement::Explain(select) => Ok(SqlResult::Rows(explain_select(session, &select)?)),
        Statement::Begin => {
            session.begin()?;
            Ok(SqlResult::Ok)
        }
        Statement::Commit => {
            session.commit()?;
            Ok(SqlResult::Ok)
        }
        Statement::Rollback => {
            session.rollback()?;
            Ok(SqlResult::Ok)
        }
    }
}

fn execute_insert(
    session: &mut Session,
    table: &str,
    columns: Option<Vec<String>>,
    value_rows: Vec<Vec<ExprAst>>,
) -> DbResult<SqlResult> {
    let def = session.cluster().table_def(table)?;
    // Map provided columns to schema ordinals.
    let target_idx: Vec<usize> = match &columns {
        Some(cols) => cols
            .iter()
            .map(|c| def.schema.index_of(c))
            .collect::<Result<Vec<_>, _>>()
            .map_err(DbError::Data)?,
        None => (0..def.schema.len()).collect(),
    };
    // VALUES expressions see no columns: each row binds over an empty
    // scope and evaluates once.
    let no_columns = Scope { cols: Vec::new() };
    let mut udf_calls = 0;
    let mut evaluated = Vec::new();
    let mut rows = Vec::with_capacity(value_rows.len());
    for exprs in value_rows {
        if exprs.len() != target_idx.len() {
            return Err(DbError::Execution(format!(
                "INSERT has {} values for {} columns",
                exprs.len(),
                target_idx.len()
            )));
        }
        RowExprs::bind(&no_columns, session.cluster(), &exprs)?.eval(
            &mut Row::default(),
            &mut evaluated,
            &mut udf_calls,
        )?;
        let mut values = vec![Value::Null; def.schema.len()];
        for (value, &idx) in evaluated.drain(..).zip(&target_idx) {
            values[idx] = value;
        }
        rows.push(Row::new(values));
    }
    record_udf_calls(session, udf_calls);
    let n = session.insert(table, rows)?;
    Ok(SqlResult::Affected(n))
}

/// Bind a DML predicate or SET expression on `def`'s table: a storage
/// expression over the table's ordinals, which may call no function.
fn bind_dml(def: &TableDef, ast: &ExprAst) -> DbResult<Expr> {
    let scope = Scope::from_schema(Some(&def.name), &def.schema);
    Binder::new(&scope, Target::Storage)
        .bind(ast)?
        .bind(&def.schema)
        .map_err(DbError::Data)
}

fn execute_update(
    session: &mut Session,
    table: &str,
    assignments: Vec<(String, ExprAst)>,
    predicate: Option<ExprAst>,
) -> DbResult<SqlResult> {
    let def = session.cluster().table_def(table)?;
    let pred = predicate.map(|p| bind_dml(&def, &p)).transpose()?;
    let assigns: Vec<(usize, Expr)> = assignments
        .iter()
        .map(|(col, e)| {
            let idx = def.schema.index_of(col).map_err(DbError::Data)?;
            Ok((idx, bind_dml(&def, e)?))
        })
        .collect::<DbResult<Vec<_>>>()?;

    let n = session.with_txn(|cluster, txn, node, tag| {
        cluster.lock_table(txn, table, crate::txn::LockMode::Exclusive)?;
        // Collect the matched primary rows before deleting them.
        let as_of = cluster.current_epoch();
        let mut updated: Vec<Row> = Vec::new();
        // Read each logical row from its first *live* holder — the same
        // attribution `delete_where` uses — so the read and delete sides
        // agree even when nodes are down.
        for row in cluster.scan_primary_live(&def, as_of, Some(txn.id))? {
            let matched = match &pred {
                Some(p) => p.matches(&row).map_err(DbError::Data)?,
                None => true,
            };
            if !matched {
                continue;
            }
            let mut values = row.into_values();
            let original = Row::new(values.clone());
            for (idx, expr) in &assigns {
                values[*idx] = expr.eval(&original).map_err(DbError::Data)?;
            }
            updated.push(Row::new(values));
        }
        let deleted = cluster.delete_where(txn, node, tag, table, pred.as_ref())?;
        debug_assert_eq!(deleted as usize, updated.len());
        cluster.insert_rows(txn, node, tag, table, updated, false)?;
        Ok(deleted)
    })?;
    Ok(SqlResult::Affected(n))
}

// ----- SELECT ------------------------------------------------------

/// Column scope for name resolution over a (possibly joined) row.
struct Scope {
    /// `(qualifier, column name, data type)` per position.
    cols: Vec<(Option<String>, String, DataType)>,
}

impl Scope {
    fn from_schema(alias: Option<&str>, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| (alias.map(str::to_string), f.name.clone(), f.dtype))
                .collect(),
        }
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> DbResult<usize> {
        let mut hits = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (q, n, _))| {
                n.eq_ignore_ascii_case(name)
                    && match qualifier {
                        Some(want) => q
                            .as_deref()
                            .is_some_and(|have| have.eq_ignore_ascii_case(want)),
                        None => true,
                    }
            })
            .map(|(i, _)| i);
        match (hits.next(), hits.next()) {
            (None, _) => Err(DbError::Execution(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            (Some(i), None) => Ok(i),
            (Some(_), Some(_)) => Err(DbError::Execution(format!(
                "ambiguous column reference {name}"
            ))),
        }
    }

    /// The position `expr` names when it is a bare column of the scope.
    fn column(&self, expr: &ExprAst) -> Option<usize> {
        match expr {
            ExprAst::Column { qualifier, name } => self.resolve(qualifier.as_deref(), name).ok(),
            _ => None,
        }
    }

    /// The scope's name for `expr` when it is a bare column.
    fn column_name(&self, expr: &ExprAst) -> Option<String> {
        self.column(expr).map(|i| self.cols[i].1.clone())
    }

    /// Whether `a` and `b` are the same column of the scope.
    fn same_column(&self, a: &ExprAst, b: &ExprAst) -> bool {
        self.column(a).is_some_and(|c| self.column(b) == Some(c))
    }

    fn schema(&self) -> Schema {
        Schema::new(
            self.cols
                .iter()
                .map(|(_, name, dtype)| Field::new(name.clone(), *dtype))
                .collect(),
        )
    }
}

fn is_aggregating(select: &SelectStmt) -> bool {
    !select.group_by.is_empty()
        || select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
}

// ----- binding -------------------------------------------------------

/// What a [`Binder`] binds for.
#[derive(Clone, Copy)]
enum Target<'a> {
    /// The row path: a column binds to its scope ordinal
    /// ([`Expr::ColumnIdx`]), and a UDF call, resolved in the cluster's
    /// registry, to a slot ordinal past the scope's columns.
    Rows(&'a Cluster),
    /// A storage predicate or DML expression: a column binds to the
    /// table's column name ([`Expr::Column`], which EXPLAIN prints), and
    /// no function may be called.
    Storage,
}

/// A UDF call resolved once per statement. Per row its value fills the
/// slot after the scope's columns and the slots bound before it, which
/// its arguments (nested calls) may read.
struct UdfSlot {
    udf: Arc<dyn ScalarUdf>,
    args: Vec<Expr>,
    params: UdfParams,
}

/// The SQL layer's one AST walker: binds [`ExprAst`]s over a [`Scope`]
/// into shared [`Expr`]s once per statement. Unknown columns and
/// functions, and aggregates in scalar positions, fail here, before any
/// row is read.
struct Binder<'a> {
    scope: &'a Scope,
    target: Target<'a>,
    slots: Vec<UdfSlot>,
}

impl<'a> Binder<'a> {
    fn new(scope: &'a Scope, target: Target<'a>) -> Binder<'a> {
        Binder {
            scope,
            target,
            slots: Vec::new(),
        }
    }

    fn bind(&mut self, ast: &ExprAst) -> DbResult<Expr> {
        Ok(match ast {
            ExprAst::Column { qualifier, name } => {
                let i = self.scope.resolve(qualifier.as_deref(), name)?;
                match self.target {
                    Target::Rows(_) => Expr::ColumnIdx(i),
                    Target::Storage => Expr::Column(self.scope.cols[i].1.clone()),
                }
            }
            ExprAst::Literal(v) => Expr::Literal(v.clone()),
            ExprAst::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.bind(left)?),
                op: *op,
                right: Box::new(self.bind(right)?),
            },
            ExprAst::Not(e) => Expr::Not(Box::new(self.bind(e)?)),
            ExprAst::Neg(e) => Expr::Neg(Box::new(self.bind(e)?)),
            ExprAst::IsNull(e) => Expr::IsNull(Box::new(self.bind(e)?)),
            ExprAst::IsNotNull(e) => Expr::IsNotNull(Box::new(self.bind(e)?)),
            ExprAst::Like { expr, pattern } => Expr::Like {
                expr: Box::new(self.bind(expr)?),
                pattern: pattern.clone(),
            },
            ExprAst::FuncCall {
                name,
                args,
                parameters,
            } => {
                let Target::Rows(cluster) = self.target else {
                    return Err(DbError::Execution(format!(
                        "function {name} cannot be lowered to a storage predicate"
                    )));
                };
                if is_aggregate_name(name) {
                    return Err(DbError::Execution(format!(
                        "aggregate {name} not allowed here"
                    )));
                }
                let udf = cluster
                    .udf(name)
                    .ok_or_else(|| DbError::Udf(format!("unknown function: {name}")))?;
                let args = self.bind_all(args)?;
                self.slots.push(UdfSlot {
                    udf,
                    args,
                    params: UdfParams::new(parameters),
                });
                Expr::ColumnIdx(self.scope.cols.len() + self.slots.len() - 1)
            }
            ExprAst::Star => return Err(DbError::Execution("* is not a scalar expression".into())),
        })
    }

    fn bind_all(&mut self, asts: &[ExprAst]) -> DbResult<Vec<Expr>> {
        asts.iter().map(|a| self.bind(a)).collect()
    }

    /// `exprs`, bound by this binder, as expressions evaluated per row.
    fn finish(self, exprs: Vec<Expr>) -> RowExprs {
        RowExprs {
            width: self.scope.cols.len(),
            slots: self.slots,
            exprs,
        }
    }
}

/// Expressions bound once per statement over rows `width` columns wide,
/// plus the UDF calls they read as slots past those columns.
struct RowExprs {
    width: usize,
    slots: Vec<UdfSlot>,
    exprs: Vec<Expr>,
}

impl RowExprs {
    /// Bind `asts` for the row path over `scope`.
    fn bind(scope: &Scope, cluster: &Cluster, asts: &[ExprAst]) -> DbResult<RowExprs> {
        let mut binder = Binder::new(scope, Target::Rows(cluster));
        let exprs = binder.bind_all(asts)?;
        Ok(binder.finish(exprs))
    }

    /// Evaluate the expressions over `row` into `out`. The UDF slots
    /// are filled first, in bind order, so a nested call's value is in
    /// place before the call that reads it; `row` is then cut back to
    /// its own columns. Adds the UDF invocations to `udf_calls`.
    fn eval(&self, row: &mut Row, out: &mut Vec<Value>, udf_calls: &mut u64) -> DbResult<()> {
        for slot in &self.slots {
            out.clear();
            for arg in &slot.args {
                out.push(arg.eval(row).map_err(DbError::Data)?);
            }
            row.push(slot.udf.eval(out, &slot.params)?);
        }
        *udf_calls += self.slots.len() as u64;
        out.clear();
        for e in &self.exprs {
            out.push(e.eval(row).map_err(DbError::Data)?);
        }
        row.truncate(self.width);
        Ok(())
    }

    /// Whether the one bound predicate is TRUE on `row` (NULL and FALSE
    /// are both rejected, as in SQL WHERE).
    fn holds(&self, row: &mut Row, out: &mut Vec<Value>, udf_calls: &mut u64) -> DbResult<bool> {
        self.eval(row, out, udf_calls)?;
        Ok(matches!(out[0], Value::Boolean(true)))
    }

    /// Keep the rows on which the one bound predicate holds.
    fn filter(&self, rows: Vec<Row>, udf_calls: &mut u64) -> DbResult<Vec<Row>> {
        let mut kept = Vec::with_capacity(rows.len());
        let mut out = Vec::new();
        for mut row in rows {
            if self.holds(&mut row, &mut out, udf_calls)? {
                kept.push(row);
            }
        }
        Ok(kept)
    }

    /// Narrow the input to the columns the expressions read, rebinding
    /// them to positions in that list; returns the list as scope
    /// ordinals in first-use order.
    fn narrow(&mut self) -> Vec<usize> {
        let mut used = Vec::new();
        for e in self.slots.iter().flat_map(|s| &s.args).chain(&self.exprs) {
            e.referenced_indices(&mut used);
        }
        used.retain(|&i| i < self.width);
        let (width, narrowed) = (self.width, used.len());
        let map = |i: usize| {
            used.iter()
                .position(|&u| u == i)
                .unwrap_or_else(|| i - width + narrowed)
        };
        let slot_args = self.slots.iter_mut().flat_map(|s| &mut s.args);
        for e in slot_args.chain(&mut self.exprs) {
            e.map_indices(&map);
        }
        self.width = narrowed;
        used
    }
}

/// The SELECT items of a non-aggregating query, bound once: one
/// expression and output name per item.
struct Items {
    exprs: RowExprs,
    names: Vec<String>,
}

impl Items {
    fn bind(items: &[SelectItem], scope: &Scope, cluster: &Cluster) -> DbResult<Items> {
        let mut binder = Binder::new(scope, Target::Rows(cluster));
        let mut exprs = Vec::with_capacity(items.len());
        let mut names = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Execution(
                    "SELECT * cannot be mixed with expressions".into(),
                ));
            };
            exprs.push(binder.bind(expr)?);
            names.push(output_name(expr, alias.as_deref(), i));
        }
        Ok(Items {
            exprs: binder.finish(exprs),
            names,
        })
    }

    /// Evaluate the items over `rows`, whose columns `input` describes.
    fn project(
        &self,
        input: &Schema,
        rows: Vec<Row>,
        epoch: u64,
        udf_calls: &mut u64,
    ) -> DbResult<QueryResult> {
        let mut out_rows = Vec::with_capacity(rows.len());
        let mut values = Vec::new();
        for mut row in rows {
            self.exprs.eval(&mut row, &mut values, udf_calls)?;
            out_rows.push(Row::new(std::mem::take(&mut values)));
        }
        let types = self.exprs.exprs.iter().map(|e| static_type(e, input));
        Ok(QueryResult {
            count: out_rows.len() as u64,
            schema: output_schema(&self.names, types, &out_rows),
            rows: out_rows,
            epoch,
            batch: None,
        })
    }
}

/// The static type of a bound expression over `input`, when it has one.
fn static_type(expr: &Expr, input: &Schema) -> Option<DataType> {
    expr.result_type(input).ok().flatten()
}

/// The output schema: each column's static type, else (a UDF result, a
/// bare NULL) its first non-NULL value's, else VARCHAR.
fn output_schema(
    names: &[String],
    types: impl IntoIterator<Item = Option<DataType>>,
    rows: &[Row],
) -> Schema {
    let fields = names
        .iter()
        .zip(types)
        .enumerate()
        .map(|(i, (name, dtype))| {
            let dtype = dtype
                .or_else(|| rows.iter().find_map(|r| r.get(i).data_type()))
                .unwrap_or(DataType::Varchar);
            Field::new(name.clone(), dtype)
        })
        .collect();
    Schema::new(fields)
}

fn record_udf_calls(session: &Session, udf_calls: u64) {
    if udf_calls > 0 {
        // One event per statement; the cost model's rate is per call.
        session.cluster().recorder().work(
            session.task_tag(),
            NodeRef::Db(session.node()),
            "udf_eval",
            udf_calls,
            0,
        );
    }
}

// ----- lowering --------------------------------------------------------

/// A single-table SELECT on a base table, lowered onto the pushdown
/// scan by [`lower_select`].
enum Lowered {
    /// A grouped or global aggregate folded inside the scan. Output
    /// column `i` is column `columns[i]` of the scan's
    /// [`AggRequest::output_schema`] row, renamed `names[i]`.
    Aggregate {
        spec: QuerySpec,
        columns: Vec<usize>,
        names: Vec<String>,
    },
    /// A filtered scan of the selected plain columns; its output is the
    /// result.
    Columns(QuerySpec),
    /// A filtered scan of only the columns the items read; the bound
    /// items (expressions, UDF calls) are evaluated on its rows.
    Items { spec: QuerySpec, items: Items },
}

impl Lowered {
    fn spec(&self) -> &QuerySpec {
        match self {
            Lowered::Aggregate { spec, .. }
            | Lowered::Columns(spec)
            | Lowered::Items { spec, .. } => spec,
        }
    }
}

/// Lower a single-table SELECT on a base table onto the pushdown scan,
/// binding its columns against the table schema once:
/// - an aggregate whose GROUP BY keys are bare columns and whose items
///   are group columns or aggregates of bare columns becomes a
///   [`QuerySpec`] predicate plus [`AggRequest`];
/// - any other SELECT becomes a filtered scan of the columns it needs.
///
/// `None` keeps the row path: no FROM, joins, views, system tables, a
/// WHERE that is not a storage predicate, expression GROUP BY keys or
/// aggregate arguments, or aggregates inside expressions. Nothing is
/// reported here; the row path raises any error the query has.
fn lower_select(cluster: &Cluster, select: &SelectStmt) -> Option<Lowered> {
    let from = select.from.as_ref()?;
    if !select.joins.is_empty()
        || crate::system::is_system_table(&from.table)
        || cluster.catalog.read().view(&from.table).is_some()
    {
        return None;
    }
    let def = cluster.table_def(&from.table).ok()?;
    let scope = Scope::from_schema(
        Some(from.alias.as_deref().unwrap_or(&from.table)),
        &def.schema,
    );
    let mut spec = QuerySpec::scan(from.table.as_str());
    spec.as_of_epoch = select.at_epoch;
    if let Some(p) = &select.predicate {
        spec.predicate = Some(Binder::new(&scope, Target::Storage).bind(p).ok()?);
    }
    if is_aggregating(select) {
        lower_aggregate(select, &scope, spec)
    } else {
        lower_projection(select, &scope, cluster, spec)
    }
}

fn lower_aggregate(select: &SelectStmt, scope: &Scope, mut spec: QuerySpec) -> Option<Lowered> {
    let group_by = select
        .group_by
        .iter()
        .map(|g| scope.column_name(g))
        .collect::<Option<Vec<_>>>()?;
    let plan = AggPlan::new(select, scope).ok()?;
    // Only COUNT(*) and aggregates of bare columns fold in the scan.
    let mut calls = plan
        .calls
        .iter()
        .map(|&(func, arg)| match arg {
            None => Some(AggCall::count_star()),
            Some(a) => Some(AggCall::new(func, scope.column_name(a)?)),
        })
        .collect::<Option<Vec<_>>>()?;
    // The scan folds at least one call; a GROUP BY without aggregates
    // reads only the keys and ignores it.
    if calls.is_empty() {
        calls.push(AggCall::count_star());
    }
    spec.aggregate = Some(AggRequest { group_by, calls });
    Some(Lowered::Aggregate {
        spec,
        columns: plan.columns,
        names: plan.names,
    })
}

fn lower_projection(
    select: &SelectStmt,
    scope: &Scope,
    cluster: &Cluster,
    mut spec: QuerySpec,
) -> Option<Lowered> {
    // Without ORDER BY the scan can stop at the limit.
    let limit = select.limit.filter(|_| select.order_by.is_empty());
    if let [SelectItem::Star] = select.items.as_slice() {
        spec.limit = limit;
        return Some(Lowered::Columns(spec));
    }
    let plain: Option<Vec<String>> = select
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Expr { expr, alias: None } => scope.column_name(expr),
            _ => None,
        })
        .collect();
    if let Some(columns) = plain {
        spec.projection = Some(columns);
        spec.limit = limit;
        return Some(Lowered::Columns(spec));
    }
    let mut items = Items::bind(&select.items, scope, cluster).ok()?;
    let read = items.exprs.narrow();
    spec.projection = Some(read.iter().map(|&i| scope.cols[i].1.clone()).collect());
    Some(Lowered::Items { spec, items })
}

pub(crate) fn execute_select(
    session: &mut Session,
    select: &SelectStmt,
    depth: usize,
) -> DbResult<QueryResult> {
    if depth > MAX_VIEW_DEPTH {
        return Err(DbError::Execution("view nesting too deep".into()));
    }
    let epoch = session.resolve_epoch(select.at_epoch)?;
    if select.from.is_none() && select.items.contains(&SelectItem::Star) {
        return Err(DbError::Execution("SELECT * requires FROM".into()));
    }

    let mut udf_calls = 0;
    let mut result = match lower_select(session.cluster(), select) {
        Some(Lowered::Aggregate {
            spec,
            columns,
            names,
        }) => {
            let r = session.query(&spec)?;
            let schema = Schema::new(
                columns
                    .iter()
                    .zip(names)
                    .map(|(&c, name)| Field::new(name, r.schema.field(c).dtype))
                    .collect(),
            );
            let rows: Vec<Row> = r
                .rows
                .iter()
                .map(|row| Row::new(columns.iter().map(|&c| row.get(c).clone()).collect()))
                .collect();
            QueryResult {
                count: rows.len() as u64,
                schema,
                rows,
                epoch: r.epoch,
                batch: None,
            }
        }
        Some(Lowered::Columns(spec)) => session.query(&spec)?,
        Some(Lowered::Items { spec, items }) => {
            let r = session.query(&spec)?;
            items.project(&r.schema, r.rows, r.epoch, &mut udf_calls)?
        }
        None => execute_row_path(session, select, epoch, depth, &mut udf_calls)?,
    };
    record_udf_calls(session, udf_calls);

    apply_order_by(&mut result, &select.order_by)?;
    if let Some(limit) = select.limit {
        result.rows.truncate(limit as usize);
        result.count = result.rows.len() as u64;
    }
    Ok(result)
}

/// The row path, for what [`lower_select`] does not lower: materialize
/// the base relation(s) (one empty row without FROM), join, then bind
/// the WHERE and the items once and evaluate them row by row.
fn execute_row_path(
    session: &mut Session,
    select: &SelectStmt,
    epoch: u64,
    depth: usize,
    udf_calls: &mut u64,
) -> DbResult<QueryResult> {
    let (mut rows, mut scope) = match &select.from {
        Some(from) => load_relation(session, from, select.at_epoch, depth)?,
        None => (vec![Row::default()], Scope { cols: Vec::new() }),
    };
    for join in &select.joins {
        let (right_rows, right_scope) =
            load_relation(session, &join.table, select.at_epoch, depth)?;
        rows = execute_join(
            session.cluster(),
            rows,
            &scope,
            right_rows,
            &right_scope,
            &join.on,
            udf_calls,
        )?;
        scope.cols.extend(right_scope.cols);
    }

    let cluster = session.cluster();
    let predicate = match &select.predicate {
        Some(p) => Some(RowExprs::bind(&scope, cluster, std::slice::from_ref(p))?),
        None => None,
    };
    let filter = |rows: Vec<Row>, udf_calls: &mut u64| match &predicate {
        Some(p) => p.filter(rows, udf_calls),
        None => Ok(rows),
    };
    if is_aggregating(select) {
        let aggregate = Aggregate::bind(select, &scope, cluster)?;
        aggregate.run(filter(rows, udf_calls)?, epoch, udf_calls)
    } else if let [SelectItem::Star] = select.items.as_slice() {
        let rows = filter(rows, udf_calls)?;
        Ok(QueryResult {
            count: rows.len() as u64,
            schema: scope.schema(),
            rows,
            epoch,
            batch: None,
        })
    } else {
        let items = Items::bind(&select.items, &scope, cluster)?;
        items.project(&scope.schema(), filter(rows, udf_calls)?, epoch, udf_calls)
    }
}

/// Sort the output rows by the ORDER BY keys (output-column names or
/// 1-based positions; SQL semantics: NULLs sort last ascending).
fn apply_order_by(
    result: &mut QueryResult,
    order_by: &[crate::sql::ast::OrderKey],
) -> DbResult<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let mut keys = Vec::with_capacity(order_by.len());
    for k in order_by {
        let idx = match &k.key {
            OrderTarget::Column(name) => result.schema.index_of(name).map_err(DbError::Data)?,
            OrderTarget::Position(p) => {
                if *p == 0 || *p > result.schema.len() {
                    return Err(DbError::Execution(format!(
                        "ORDER BY position {p} out of range"
                    )));
                }
                p - 1
            }
        };
        keys.push((idx, k.descending));
    }
    result.rows.sort_by(|a, b| {
        for &(idx, descending) in &keys {
            let (va, vb) = (a.get(idx), b.get(idx));
            // NULLs sort last in either direction.
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => {
                    let cmp = va.sql_cmp(vb).unwrap_or(std::cmp::Ordering::Equal);
                    if descending {
                        cmp.reverse()
                    } else {
                        cmp
                    }
                }
            };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// The stored select of view `name`, pinned to `at_epoch` unless the
/// view pins its own epoch; `None` if `name` is not a view.
fn view_select(session: &Session, name: &str, at_epoch: Option<u64>) -> Option<SelectStmt> {
    let mut select = session.cluster().catalog.read().view(name)?.select.clone();
    select.at_epoch = select.at_epoch.or(at_epoch);
    Some(select)
}

/// Load a table or view as rows plus a resolution scope.
fn load_relation(
    session: &mut Session,
    table: &TableRef,
    at_epoch: Option<u64>,
    depth: usize,
) -> DbResult<(Vec<Row>, Scope)> {
    let r = match view_select(session, &table.table, at_epoch) {
        Some(vsel) => execute_select(session, &vsel, depth + 1)?,
        None => {
            let mut spec = QuerySpec::scan(table.table.as_str());
            spec.as_of_epoch = at_epoch;
            session.query(&spec)?
        }
    };
    let qualifier = table.alias.as_deref().unwrap_or(&table.table);
    Ok((r.rows, Scope::from_schema(Some(qualifier), &r.schema)))
}

/// Inner join. Uses a hash join when the ON clause is a simple equality
/// of one left and one right column; else a nested loop that evaluates
/// the ON clause, bound once, per pair of rows.
fn execute_join(
    cluster: &Cluster,
    left: Vec<Row>,
    left_scope: &Scope,
    right: Vec<Row>,
    right_scope: &Scope,
    on: &ExprAst,
    udf_calls: &mut u64,
) -> DbResult<Vec<Row>> {
    // `l.col = r.col`, in either orientation: hash join.
    if let ExprAst::Binary {
        left: a,
        op: BinaryOp::Eq,
        right: b,
    } = on
    {
        let sides =
            |l: &ExprAst, r: &ExprAst| Some((left_scope.column(l)?, right_scope.column(r)?));
        if let Some((li, ri)) = sides(a, b).or_else(|| sides(b, a)) {
            return Ok(hash_join(left, li, right, ri));
        }
    }

    let combined = Scope {
        cols: [left_scope.cols.as_slice(), &right_scope.cols].concat(),
    };
    let on = RowExprs::bind(&combined, cluster, std::slice::from_ref(on))?;
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    for l in &left {
        for r in &right {
            let mut row = Row::new([l.values(), r.values()].concat());
            if on.holds(&mut row, &mut scratch, udf_calls)? {
                out.push(row);
            }
        }
    }
    Ok(out)
}

fn hash_join(left: Vec<Row>, li: usize, right: Vec<Row>, ri: usize) -> Vec<Row> {
    use std::collections::HashMap;
    let mut index: HashMap<String, Vec<&Row>> = HashMap::new();
    for r in &right {
        let key = r.get(ri);
        if key.is_null() {
            continue; // NULL never joins
        }
        index.entry(join_key(key)).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in &left {
        let key = l.get(li);
        if key.is_null() {
            continue;
        }
        if let Some(matches) = index.get(&join_key(key)) {
            for r in matches {
                let mut values = l.values().to_vec();
                values.extend_from_slice(r.values());
                out.push(Row::new(values));
            }
        }
    }
    out
}

fn join_key(v: &Value) -> String {
    // Int64 and Float64 compare equal cross-type in SQL; normalize
    // integral values to one spelling.
    match v {
        Value::Int64(i) => format!("n:{}", *i as f64),
        Value::Float64(f) => format!("n:{f}"),
        Value::Boolean(b) => format!("b:{b}"),
        Value::Varchar(s) => format!("s:{s}"),
        Value::Null => unreachable!("nulls filtered before keying"),
    }
}

// ----- aggregation ---------------------------------------------------

/// Split an aggregate call into its function and argument (`None` for
/// `COUNT(*)`); errors when `expr` is not an aggregate call.
fn split_agg_call(expr: &ExprAst) -> DbResult<(AggFunc, Option<&ExprAst>)> {
    if let ExprAst::FuncCall { name, args, .. } = expr {
        if let Some(func) = AggFunc::from_sql_name(name) {
            return match args.as_slice() {
                [ExprAst::Star] if func == AggFunc::Count => Ok((func, None)),
                [arg] => Ok((func, Some(arg))),
                _ => Err(DbError::Execution(format!(
                    "{name} takes exactly one argument"
                ))),
            };
        }
    }
    Err(DbError::Execution(format!(
        "select item must be a grouping expression or an aggregate: {expr:?}"
    )))
}

/// The aggregate items of a SELECT, analysed once for both paths: the
/// aggregate calls (argument `None` for `COUNT(*)`), and per item its
/// output name and the column of the finalized `group keys ++ calls`
/// row it reads.
struct AggPlan<'a> {
    calls: Vec<(AggFunc, Option<&'a ExprAst>)>,
    columns: Vec<usize>,
    names: Vec<String>,
}

impl<'a> AggPlan<'a> {
    /// Errors when an item is neither a group key nor an aggregate
    /// call; an item is a group key when it is one, or the same column
    /// of `scope`.
    fn new(select: &'a SelectStmt, scope: &Scope) -> DbResult<AggPlan<'a>> {
        let keys = select.group_by.len();
        let mut plan = AggPlan {
            calls: Vec::new(),
            columns: Vec::with_capacity(select.items.len()),
            names: Vec::with_capacity(select.items.len()),
        };
        for (i, item) in select.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Execution(
                    "SELECT * cannot be combined with GROUP BY".into(),
                ));
            };
            plan.names.push(output_name(expr, alias.as_deref(), i));
            let key = select
                .group_by
                .iter()
                .position(|g| g == expr || scope.same_column(g, expr));
            plan.columns.push(match key {
                Some(k) => k,
                None => {
                    plan.calls.push(split_agg_call(expr)?);
                    keys + plan.calls.len() - 1
                }
            });
        }
        Ok(plan)
    }
}

/// Row-path aggregation (joins, views, expression keys or arguments),
/// bound once: the GROUP BY keys and then the aggregate arguments as
/// one set of row expressions, folded per row into the grouped
/// accumulators of [`common::agg`] that the scan folds into.
struct Aggregate {
    funcs: Vec<AggFunc>,
    keys: usize,
    exprs: RowExprs,
    /// Per output column: the finalized row's column it reads, its name
    /// and its static type.
    columns: Vec<usize>,
    names: Vec<String>,
    types: Vec<Option<DataType>>,
}

impl Aggregate {
    fn bind(select: &SelectStmt, scope: &Scope, cluster: &Cluster) -> DbResult<Aggregate> {
        let AggPlan {
            calls,
            columns,
            names,
        } = AggPlan::new(select, scope)?;
        let mut binder = Binder::new(scope, Target::Rows(cluster));
        let mut exprs = binder.bind_all(&select.group_by)?;
        for (_, arg) in &calls {
            exprs.push(match arg {
                Some(a) => binder.bind(a)?,
                // COUNT(*) counts every row.
                None => Expr::Literal(Value::Int64(1)),
            });
        }
        let keys = select.group_by.len();
        let input = scope.schema();
        let types = columns
            .iter()
            .map(|&c| match c.checked_sub(keys).map(|k| calls[k].0) {
                Some(AggFunc::Count) => Some(DataType::Int64),
                Some(AggFunc::Avg) => Some(DataType::Float64),
                // Keys, and SUM/MIN/MAX, have their input's type.
                _ => static_type(&exprs[c], &input),
            })
            .collect();
        Ok(Aggregate {
            funcs: calls.iter().map(|(f, _)| *f).collect(),
            keys,
            exprs: binder.finish(exprs),
            columns,
            names,
            types,
        })
    }

    fn run(&self, rows: Vec<Row>, epoch: u64, udf_calls: &mut u64) -> DbResult<QueryResult> {
        let mut accs = GroupedAccs::new(self.funcs.clone());
        let mut values = Vec::new();
        for mut row in rows {
            self.exprs.eval(&mut row, &mut values, udf_calls)?;
            let (key, args) = values.split_at(self.keys);
            for (v, acc) in args.iter().zip(accs.entry(key).iter_mut()) {
                acc.update(v).map_err(DbError::Data)?;
            }
        }
        if self.keys == 0 {
            accs.ensure_global_group();
        }
        let out_rows: Vec<Row> = accs
            .finalize_rows()
            .iter()
            .map(|r| Row::new(self.columns.iter().map(|&c| r.get(c).clone()).collect()))
            .collect();
        Ok(QueryResult {
            count: out_rows.len() as u64,
            schema: output_schema(&self.names, self.types.iter().copied(), &out_rows),
            rows: out_rows,
            epoch,
            batch: None,
        })
    }
}

fn output_name(expr: &ExprAst, alias: Option<&str>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        ExprAst::Column { name, .. } => name.clone(),
        ExprAst::FuncCall { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{idx}"),
    }
}

/// Scan a view through the programmatic query API: execute the stored
/// select, then apply the spec's synthetic row range, filter,
/// projection, count, and limit (paper Sec. 3.1.1's view loading).
pub(crate) fn execute_view_scan(session: &mut Session, spec: &QuerySpec) -> DbResult<QueryResult> {
    if spec.hash_range.is_some() {
        return Err(DbError::Execution(format!(
            "hash ranges do not apply to view {}; use row ranges",
            spec.table
        )));
    }
    let vsel = view_select(session, &spec.table, spec.as_of_epoch)
        .ok_or_else(|| DbError::UnknownTable(spec.table.clone()))?;
    let base = execute_select(session, &vsel, 1)?;
    apply_spec_to_rows(base.schema, base.rows, spec, base.epoch)
}
