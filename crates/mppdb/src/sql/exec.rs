//! SQL statement execution.

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
use crate::udf::UdfParams;

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
            let pred = predicate
                .map(|p| lower_scalar(&p).and_then(|e| e.bind(&def.schema).map_err(DbError::Data)))
                .transpose()?;
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
    let mut rows = Vec::with_capacity(value_rows.len());
    for exprs in value_rows {
        if exprs.len() != target_idx.len() {
            return Err(DbError::Execution(format!(
                "INSERT has {} values for {} columns",
                exprs.len(),
                target_idx.len()
            )));
        }
        let mut values = vec![Value::Null; def.schema.len()];
        for (expr, &idx) in exprs.iter().zip(&target_idx) {
            values[idx] = eval_const(expr)?;
        }
        rows.push(Row::new(values));
    }
    let n = session.insert(table, rows)?;
    Ok(SqlResult::Affected(n))
}

fn execute_update(
    session: &mut Session,
    table: &str,
    assignments: Vec<(String, ExprAst)>,
    predicate: Option<ExprAst>,
) -> DbResult<SqlResult> {
    let def = session.cluster().table_def(table)?;
    let pred = predicate
        .map(|p| lower_scalar(&p).and_then(|e| e.bind(&def.schema).map_err(DbError::Data)))
        .transpose()?;
    let assigns: Vec<(usize, Expr)> = assignments
        .iter()
        .map(|(col, e)| {
            let idx = def.schema.index_of(col).map_err(DbError::Data)?;
            let expr = lower_scalar(e)?.bind(&def.schema).map_err(DbError::Data)?;
            Ok((idx, expr))
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
}

fn is_aggregating(select: &SelectStmt) -> bool {
    !select.group_by.is_empty()
        || select.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
}

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
    /// A filtered scan of only the columns the items reference; the
    /// items (expressions, UDF calls) are evaluated on its rows, with
    /// columns qualified by `qualifier`.
    Items { spec: QuerySpec, qualifier: String },
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

/// Resolves a SELECT's column references against one table's schema.
struct TableBinder<'a> {
    schema: &'a Schema,
    /// What columns may be qualified with: the alias, else the table.
    qualifier: &'a str,
}

impl TableBinder<'_> {
    /// The schema's name for `expr` when it is a bare column of the
    /// table.
    fn column(&self, expr: &ExprAst) -> Option<String> {
        let ExprAst::Column { qualifier, name } = expr else {
            return None;
        };
        if qualifier
            .as_deref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(self.qualifier))
        {
            return None;
        }
        let idx = self.schema.index_of(name).ok()?;
        Some(self.schema.field(idx).name.clone())
    }

    /// Add the schema names of the columns `expr` references to `out`;
    /// `None` if one is not a column of the table or `expr` holds `*`.
    fn referenced(&self, expr: &ExprAst, out: &mut Vec<String>) -> Option<()> {
        match expr {
            ExprAst::Column { .. } => {
                let column = self.column(expr)?;
                if !out.contains(&column) {
                    out.push(column);
                }
            }
            ExprAst::Literal(_) => {}
            ExprAst::Binary { left, right, .. } => {
                self.referenced(left, out)?;
                self.referenced(right, out)?;
            }
            ExprAst::Not(e) | ExprAst::Neg(e) | ExprAst::IsNull(e) | ExprAst::IsNotNull(e) => {
                self.referenced(e, out)?
            }
            ExprAst::Like { expr, .. } => self.referenced(expr, out)?,
            ExprAst::FuncCall { args, .. } => {
                for a in args {
                    self.referenced(a, out)?;
                }
            }
            ExprAst::Star => return None,
        }
        Some(())
    }

    /// Whether `a` and `b` are the same column of the table.
    fn same_column(&self, a: &ExprAst, b: &ExprAst) -> bool {
        self.column(a).is_some_and(|c| self.column(b) == Some(c))
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
    let binder = TableBinder {
        schema: &def.schema,
        qualifier: from.alias.as_deref().unwrap_or(&from.table),
    };
    let mut spec = QuerySpec::scan(from.table.as_str());
    spec.as_of_epoch = select.at_epoch;
    if let Some(p) = &select.predicate {
        let pred = lower_scalar_qualified(p, Some(binder.qualifier)).ok()?;
        pred.bind(binder.schema).ok()?;
        spec.predicate = Some(pred);
    }
    if is_aggregating(select) {
        lower_aggregate(select, &binder, spec)
    } else {
        lower_projection(select, &binder, spec)
    }
}

fn lower_aggregate(
    select: &SelectStmt,
    binder: &TableBinder<'_>,
    mut spec: QuerySpec,
) -> Option<Lowered> {
    let group_by = select
        .group_by
        .iter()
        .map(|g| binder.column(g))
        .collect::<Option<Vec<_>>>()?;
    let plan = AggPlan::new(select, |a, b| binder.same_column(a, b)).ok()?;
    // Only COUNT(*) and aggregates of bare columns fold in the scan.
    let mut calls = plan
        .calls
        .iter()
        .map(|&(func, arg)| match arg {
            None => Some(AggCall::count_star()),
            Some(a) => Some(AggCall::new(func, binder.column(a)?)),
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
    binder: &TableBinder<'_>,
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
            SelectItem::Expr { expr, alias: None } => binder.column(expr),
            _ => None,
        })
        .collect();
    if let Some(columns) = plain {
        spec.projection = Some(columns);
        spec.limit = limit;
        return Some(Lowered::Columns(spec));
    }
    let mut referenced = Vec::new();
    for item in &select.items {
        let SelectItem::Expr { expr, .. } = item else {
            return None;
        };
        binder.referenced(expr, &mut referenced)?;
    }
    spec.projection = Some(referenced);
    Some(Lowered::Items {
        spec,
        qualifier: binder.qualifier.to_string(),
    })
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

    // SELECT without FROM: constant expressions, one row.
    let Some(from) = &select.from else {
        let mut values = Vec::new();
        let mut names = Vec::new();
        for (i, item) in select.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Execution("SELECT * requires FROM".into()));
            };
            values.push(eval_const(expr)?);
            names.push(output_name(expr, alias.as_deref(), i));
        }
        let schema = infer_schema(&names, std::slice::from_ref(&Row::new(values.clone())));
        return Ok(QueryResult {
            schema,
            rows: vec![Row::new(values)],
            count: 1,
            epoch,
            batch: None,
        });
    };

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
        Some(Lowered::Items { spec, qualifier }) => {
            let r = session.query(&spec)?;
            let scope = Scope::from_schema(Some(&qualifier), &r.schema);
            project_rows(session, &select.items, &scope, r.rows, r.epoch)?
        }
        None => execute_row_path(session, select, from, epoch, depth)?,
    };

    apply_order_by(&mut result, &select.order_by)?;
    if let Some(limit) = select.limit {
        result.rows.truncate(limit as usize);
        result.count = result.rows.len() as u64;
    }
    Ok(result)
}

/// The row path, for what [`lower_select`] does not lower: materialize
/// the base relation(s), join, then filter and aggregate or project row
/// by row.
fn execute_row_path(
    session: &mut Session,
    select: &SelectStmt,
    from: &TableRef,
    epoch: u64,
    depth: usize,
) -> DbResult<QueryResult> {
    let (mut rows, mut scope) = load_relation(
        session,
        &from.table,
        from.alias.as_deref(),
        select.at_epoch,
        depth,
    )?;

    for join in &select.joins {
        let (right_rows, right_scope) = load_relation(
            session,
            &join.table.table,
            join.table.alias.as_deref(),
            select.at_epoch,
            depth,
        )?;
        rows = execute_join(session, rows, &scope, right_rows, &right_scope, &join.on)?;
        scope.cols.extend(right_scope.cols);
    }

    if let Some(pred) = &select.predicate {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if matches!(eval_ast(session, pred, &scope, &row)?, Value::Boolean(true)) {
                kept.push(row);
            }
        }
        rows = kept;
    }

    if is_aggregating(select) {
        aggregate_scoped(session, select, &scope, rows, epoch)
    } else {
        project_rows(session, &select.items, &scope, rows, epoch)
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
    name: &str,
    alias: Option<&str>,
    at_epoch: Option<u64>,
    depth: usize,
) -> DbResult<(Vec<Row>, Scope)> {
    if let Some(vsel) = view_select(session, name, at_epoch) {
        let r = execute_select(session, &vsel, depth + 1)?;
        let scope = Scope::from_schema(alias.or(Some(name)), &r.schema);
        return Ok((r.rows, scope));
    }
    let mut spec = QuerySpec::scan(name);
    spec.as_of_epoch = at_epoch;
    let r = session.query(&spec)?;
    let scope = Scope::from_schema(alias.or(Some(name)), &r.schema);
    Ok((r.rows, scope))
}

/// Inner join. Uses a hash join when the ON clause is a simple equality
/// of one left and one right column; falls back to a nested loop.
fn execute_join(
    session: &mut Session,
    left: Vec<Row>,
    left_scope: &Scope,
    right: Vec<Row>,
    right_scope: &Scope,
    on: &ExprAst,
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

    // Nested loop with full ON evaluation.
    let combined_scope = Scope {
        cols: [left_scope.cols.as_slice(), &right_scope.cols].concat(),
    };
    let mut out = Vec::new();
    for l in &left {
        for r in &right {
            let mut values = l.values().to_vec();
            values.extend_from_slice(r.values());
            let row = Row::new(values);
            if matches!(
                eval_ast(session, on, &combined_scope, &row)?,
                Value::Boolean(true)
            ) {
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
    /// call; `same_column` says whether two expressions are one column.
    fn new(
        select: &'a SelectStmt,
        same_column: impl Fn(&ExprAst, &ExprAst) -> bool,
    ) -> DbResult<AggPlan<'a>> {
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
                .position(|g| g == expr || same_column(g, expr));
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

/// Row-path aggregation (joins, views, expression keys or arguments):
/// the grouped accumulators of [`common::agg`] that the scan folds
/// into, fed by evaluating every key and argument per row. An item's
/// type is static when it is a bare column, COUNT, AVG, or SUM/MIN/MAX
/// of a bare column, as on the lowered path; otherwise it comes from
/// the values.
fn aggregate_scoped(
    session: &mut Session,
    select: &SelectStmt,
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    let same_column =
        |a: &ExprAst, b: &ExprAst| scope.column(a).is_some_and(|c| scope.column(b) == Some(c));
    let AggPlan {
        calls,
        columns,
        names,
    } = AggPlan::new(select, same_column)?;
    let column_type = |e: &ExprAst| scope.column(e).map(|c| scope.cols[c].2);
    let keys = select.group_by.len();
    let dtypes = columns.iter().map(|&c| match c.checked_sub(keys) {
        None => column_type(&select.group_by[c]),
        Some(k) => match calls[k] {
            (AggFunc::Count, _) => Some(DataType::Int64),
            (AggFunc::Avg, _) => Some(DataType::Float64),
            (_, arg) => arg.and_then(column_type),
        },
    });

    let mut accs = GroupedAccs::new(calls.iter().map(|(f, _)| *f).collect());
    let mut key = Vec::with_capacity(select.group_by.len());
    for row in &rows {
        key.clear();
        for g in &select.group_by {
            key.push(eval_ast(session, g, scope, row)?);
        }
        let group = accs.entry(&key);
        for ((_, arg), acc) in calls.iter().zip(group.iter_mut()) {
            let v = match arg {
                Some(a) => eval_ast(session, a, scope, row)?,
                None => Value::Int64(1),
            };
            acc.update(&v).map_err(DbError::Data)?;
        }
    }
    if select.group_by.is_empty() {
        accs.ensure_global_group();
    }

    let out_rows: Vec<Row> = accs
        .finalize_rows()
        .iter()
        .map(|r| Row::new(columns.iter().map(|&c| r.get(c).clone()).collect()))
        .collect();
    let inferred = infer_schema(&names, &out_rows);
    let schema = Schema::new(
        inferred
            .fields()
            .iter()
            .zip(dtypes)
            .map(|(f, dtype)| Field::new(f.name.clone(), dtype.unwrap_or(f.dtype)))
            .collect(),
    );
    Ok(QueryResult {
        count: out_rows.len() as u64,
        schema,
        rows: out_rows,
        epoch,
        batch: None,
    })
}

// ----- projection ----------------------------------------------------

fn project_rows(
    session: &mut Session,
    items: &[SelectItem],
    scope: &Scope,
    rows: Vec<Row>,
    epoch: u64,
) -> DbResult<QueryResult> {
    // Pure `SELECT *`.
    if let [SelectItem::Star] = items {
        let schema = Schema::new(
            scope
                .cols
                .iter()
                .map(|(_, name, dtype)| Field::new(name.clone(), *dtype))
                .collect(),
        );
        return Ok(QueryResult {
            count: rows.len() as u64,
            schema,
            rows,
            epoch,
            batch: None,
        });
    }
    let mut exprs = Vec::with_capacity(items.len());
    let mut names = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(DbError::Execution(
                "SELECT * cannot be mixed with expressions".into(),
            ));
        };
        exprs.push(expr);
        names.push(output_name(expr, alias.as_deref(), i));
    }
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut values = Vec::with_capacity(exprs.len());
        for expr in &exprs {
            values.push(eval_ast(session, expr, scope, row)?);
        }
        out_rows.push(Row::new(values));
    }
    let schema = infer_schema(&names, &out_rows);
    Ok(QueryResult {
        count: out_rows.len() as u64,
        schema,
        rows: out_rows,
        epoch,
        batch: None,
    })
}

// ----- expression evaluation ------------------------------------------

/// Lower an AST expression to a shared [`Expr`] (no UDFs, no
/// aggregates, no qualifiers). Errors when the expression isn't a pure
/// scalar over unqualified columns.
pub(crate) fn lower_scalar(ast: &ExprAst) -> DbResult<Expr> {
    lower_scalar_qualified(ast, None)
}

/// Like [`lower_scalar`] but strips a known table alias off qualified
/// column references.
fn lower_scalar_qualified(ast: &ExprAst, alias: Option<&str>) -> DbResult<Expr> {
    Ok(match ast {
        ExprAst::Column { qualifier, name } => match qualifier {
            None => Expr::Column(name.clone()),
            Some(q) if alias.is_some_and(|a| a.eq_ignore_ascii_case(q)) => {
                Expr::Column(name.clone())
            }
            Some(q) => {
                return Err(DbError::Execution(format!(
                    "cannot lower qualified column {q}.{name}"
                )))
            }
        },
        ExprAst::Literal(v) => Expr::Literal(v.clone()),
        ExprAst::Binary { left, op, right } => Expr::Binary {
            left: Box::new(lower_scalar_qualified(left, alias)?),
            op: *op,
            right: Box::new(lower_scalar_qualified(right, alias)?),
        },
        ExprAst::Not(e) => Expr::Not(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::Neg(e) => Expr::Neg(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::IsNull(e) => Expr::IsNull(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::IsNotNull(e) => Expr::IsNotNull(Box::new(lower_scalar_qualified(e, alias)?)),
        ExprAst::Like { expr, pattern } => Expr::Like {
            expr: Box::new(lower_scalar_qualified(expr, alias)?),
            pattern: pattern.clone(),
        },
        ExprAst::FuncCall { name, .. } => {
            return Err(DbError::Execution(format!(
                "function {name} cannot be lowered to a storage predicate"
            )))
        }
        ExprAst::Star => return Err(DbError::Execution("* is not a scalar expression".into())),
    })
}

/// Evaluate a constant expression (no column references).
fn eval_const(expr: &ExprAst) -> DbResult<Value> {
    let lowered = lower_scalar(expr)?;
    let empty_schema = Schema::new(vec![]);
    let bound = lowered.bind(&empty_schema).map_err(|_| {
        DbError::Execution("expression must be constant (no column references)".into())
    })?;
    bound.eval(&Row::new(vec![])).map_err(DbError::Data)
}

/// Evaluate an AST expression over a scoped row; handles UDF calls.
fn eval_ast(session: &mut Session, expr: &ExprAst, scope: &Scope, row: &Row) -> DbResult<Value> {
    match expr {
        ExprAst::Column { qualifier, name } => {
            let idx = scope.resolve(qualifier.as_deref(), name)?;
            Ok(row.get(idx).clone())
        }
        ExprAst::Literal(v) => Ok(v.clone()),
        ExprAst::Binary { left, op, right } => {
            // Reuse the shared evaluator by building a tiny bound tree.
            let l = eval_ast(session, left, scope, row)?;
            let r = eval_ast(session, right, scope, row)?;
            let e = Expr::Binary {
                left: Box::new(Expr::Literal(l)),
                op: *op,
                right: Box::new(Expr::Literal(r)),
            };
            e.eval(&Row::new(vec![])).map_err(DbError::Data)
        }
        ExprAst::Not(e) => {
            let v = eval_ast(session, e, scope, row)?;
            Expr::Not(Box::new(Expr::Literal(v)))
                .eval(&Row::new(vec![]))
                .map_err(DbError::Data)
        }
        ExprAst::Neg(e) => {
            let v = eval_ast(session, e, scope, row)?;
            Expr::Neg(Box::new(Expr::Literal(v)))
                .eval(&Row::new(vec![]))
                .map_err(DbError::Data)
        }
        ExprAst::IsNull(e) => Ok(Value::Boolean(eval_ast(session, e, scope, row)?.is_null())),
        ExprAst::IsNotNull(e) => Ok(Value::Boolean(!eval_ast(session, e, scope, row)?.is_null())),
        ExprAst::Like { expr, pattern } => {
            let v = eval_ast(session, expr, scope, row)?;
            Expr::Like {
                expr: Box::new(Expr::Literal(v)),
                pattern: pattern.clone(),
            }
            .eval(&Row::new(vec![]))
            .map_err(DbError::Data)
        }
        ExprAst::FuncCall {
            name,
            args,
            parameters,
        } => {
            if is_aggregate_name(name) {
                return Err(DbError::Execution(format!(
                    "aggregate {name} not allowed here"
                )));
            }
            let udf = session
                .cluster()
                .udf(name)
                .ok_or_else(|| DbError::Udf(format!("unknown function: {name}")))?;
            let arg_values: Vec<Value> = args
                .iter()
                .map(|a| eval_ast(session, a, scope, row))
                .collect::<DbResult<_>>()?;
            let params = UdfParams::new(parameters);
            let out = udf.eval(&arg_values, &params)?;
            session.cluster().recorder().work(
                session.task_tag(),
                NodeRef::Db(session.node()),
                "udf_eval",
                1,
                0,
            );
            Ok(out)
        }
        ExprAst::Star => Err(DbError::Execution("* is not a scalar expression".into())),
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

/// Infer an output schema from names and the first rows' value types.
fn infer_schema(names: &[String], rows: &[Row]) -> Schema {
    let fields = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let dtype = rows
                .iter()
                .find_map(|r| r.get(i).data_type())
                .unwrap_or(DataType::Varchar);
            Field::new(name.clone(), dtype)
        })
        .collect();
    Schema::new(fields)
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
