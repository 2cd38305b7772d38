//! Shared aggregate vocabulary and semantics: the one aggregate
//! implementation.
//!
//! Every engine path evaluates the five SQL aggregates — COUNT, SUM,
//! MIN, MAX, AVG — through the accumulators here: node-side in `mppdb`
//! (the scan's partial aggregates, which SQL GROUP BYs on base tables
//! lower onto), the SQL row path (joins, views, expression keys), and
//! driver-side in `sparklet` (the materialize-then-aggregate fallback,
//! and the merge of per-piece partials). Keeping the accumulator here
//! guarantees the pushed-down and the materialized plans compute
//! byte-identical answers, which the differential tests pin.
//!
//! Semantics: aggregates ignore NULL inputs (except `COUNT(*)`), `SUM`
//! stays `Int64` while every input is an integer and widens to
//! `Float64` otherwise, `AVG` is always `Float64`, and any aggregate
//! over zero non-null inputs is NULL (`COUNT` is 0). Integer `SUM`
//! (and count) arithmetic is checked: a running total that leaves the
//! `BIGINT` range fails with a "numeric overflow" [`Error::Eval`] in
//! every build profile, whether it overflows while folding rows or
//! while merging partials.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};

/// The aggregate functions the engines can push down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// The aggregate a SQL function name denotes (case-insensitive).
    pub fn from_sql_name(name: &str) -> Option<AggFunc> {
        [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]
        .into_iter()
        .find(|f| f.sql_name().eq_ignore_ascii_case(name))
    }

    /// How many values this aggregate's partial state occupies on the
    /// wire. AVG ships as (sum, count) so partials merge exactly.
    pub fn partial_width(&self) -> usize {
        match self {
            AggFunc::Avg => 2,
            _ => 1,
        }
    }
}

/// One aggregate call: a function plus its input column. `column` is
/// `None` only for `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCall {
    pub func: AggFunc,
    pub column: Option<String>,
}

impl AggCall {
    pub fn count_star() -> AggCall {
        AggCall {
            func: AggFunc::Count,
            column: None,
        }
    }

    pub fn new(func: AggFunc, column: impl Into<String>) -> AggCall {
        AggCall {
            func,
            column: Some(column.into()),
        }
    }

    /// The output column name, e.g. `sum(price)` or `count(*)`.
    pub fn output_name(&self) -> String {
        format!(
            "{}({})",
            self.func.sql_name(),
            self.column.as_deref().unwrap_or("*")
        )
    }

    pub fn validate(&self) -> Result<()> {
        if self.column.is_none() && self.func != AggFunc::Count {
            return Err(Error::Eval(format!(
                "{}(*) is not a valid aggregate",
                self.func.sql_name()
            )));
        }
        Ok(())
    }
}

/// An aggregation request: grouping columns plus aggregate calls.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AggRequest {
    pub group_by: Vec<String>,
    pub calls: Vec<AggCall>,
}

impl AggRequest {
    pub fn new(group_by: &[&str], calls: Vec<AggCall>) -> AggRequest {
        AggRequest {
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            calls,
        }
    }

    pub fn validate(&self) -> Result<()> {
        if self.calls.is_empty() {
            return Err(Error::Eval("aggregation needs at least one call".into()));
        }
        for c in &self.calls {
            c.validate()?;
        }
        Ok(())
    }

    /// Schema of the finalized output: group columns, then one column
    /// per call.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        let mut fields = Vec::new();
        for g in &self.group_by {
            fields.push(input.field(input.index_of(g)?).clone());
        }
        for c in &self.calls {
            let dtype = match c.func {
                AggFunc::Count => DataType::Int64,
                AggFunc::Avg => DataType::Float64,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    input
                        .field(input.index_of(c.column.as_deref().unwrap_or(""))?)
                        .dtype
                }
            };
            fields.push(Field::new(c.output_name(), dtype));
        }
        Ok(Schema::new(fields))
    }

    /// Schema of the partial-state rows shipped between engine layers:
    /// group columns, then `partial_width` values per call (AVG ships
    /// its running sum and count separately).
    pub fn partial_schema(&self, input: &Schema) -> Result<Schema> {
        let mut fields = Vec::new();
        for g in &self.group_by {
            fields.push(input.field(input.index_of(g)?).clone());
        }
        for c in &self.calls {
            match c.func {
                AggFunc::Avg => {
                    fields.push(Field::new(
                        format!("{}.sum", c.output_name()),
                        DataType::Float64,
                    ));
                    fields.push(Field::new(
                        format!("{}.count", c.output_name()),
                        DataType::Int64,
                    ));
                }
                AggFunc::Count => fields.push(Field::new(c.output_name(), DataType::Int64)),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    let dtype = input
                        .field(input.index_of(c.column.as_deref().unwrap_or(""))?)
                        .dtype;
                    fields.push(Field::new(c.output_name(), dtype));
                }
            }
        }
        Ok(Schema::new(fields))
    }
}

/// Running state for one aggregate call within one group.
#[derive(Debug, Clone, PartialEq)]
pub enum Acc {
    Count(i64),
    /// `Int64` while every input was an integer, `Float64` after the
    /// first float; `None` until the first non-null input.
    Sum(Option<Value>),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg {
        sum: f64,
        count: i64,
    },
}

impl Acc {
    pub fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold one input value in. `COUNT(*)` passes a non-null dummy;
    /// callers handle the star case by never passing NULL for it.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match self {
            Acc::Count(n) => *n = checked_count(*n, 1)?,
            Acc::Sum(state) => *state = Some(sum_values(state.as_ref(), v)?),
            Acc::Min(best) => {
                let take = match best.as_ref() {
                    None => true,
                    Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Less),
                };
                if take {
                    *best = Some(v.clone());
                }
            }
            Acc::Max(best) => {
                let take = match best.as_ref() {
                    None => true,
                    Some(b) => v.sql_cmp(b) == Some(std::cmp::Ordering::Greater),
                };
                if take {
                    *best = Some(v.clone());
                }
            }
            Acc::Avg { sum, count } => {
                *sum += v.as_f64()?;
                *count = checked_count(*count, 1)?;
            }
        }
        Ok(())
    }

    /// Fold `n` identical non-null inputs in at once (RLE runs,
    /// zone-map answers). Equivalent to `n` calls to [`Acc::update`].
    pub fn update_repeated(&mut self, v: &Value, n: u64) -> Result<()> {
        if v.is_null() || n == 0 {
            return Ok(());
        }
        match self {
            Acc::Count(c) => *c = checked_count(*c, count_of(n)?)?,
            // `n` equal integers fold as one wide multiply-add: the total
            // of a run of same-sign addends leaves the BIGINT range
            // exactly when some one-by-one prefix would.
            Acc::Sum(state @ (None | Some(Value::Int64(_)))) if matches!(v, Value::Int64(_)) => {
                let base = match state {
                    Some(Value::Int64(a)) => *a as i128,
                    _ => 0,
                };
                let total = (v.as_i64()? as i128)
                    .checked_mul(n as i128)
                    .and_then(|run| run.checked_add(base))
                    .and_then(|t| i64::try_from(t).ok())
                    .ok_or_else(sum_overflow)?;
                *state = Some(Value::Int64(total));
            }
            Acc::Sum(_) => {
                for _ in 0..n {
                    self.update(v)?;
                }
            }
            Acc::Min(_) | Acc::Max(_) => self.update(v)?,
            Acc::Avg { sum, count } => {
                *sum += v.as_f64()? * n as f64;
                *count = checked_count(*count, count_of(n)?)?;
            }
        }
        Ok(())
    }

    /// Merge another partial state for the same call into this one.
    pub fn merge(&mut self, other: &Acc) -> Result<()> {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a = checked_count(*a, *b)?,
            (Acc::Sum(a), Acc::Sum(b)) => {
                if let Some(v) = b {
                    *a = Some(sum_values(a.as_ref(), v)?);
                }
            }
            (Acc::Min(a), Acc::Min(b)) => {
                if let Some(v) = b {
                    let take = match a.as_ref() {
                        None => true,
                        Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Less),
                    };
                    if take {
                        *a = Some(v.clone());
                    }
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                if let Some(v) = b {
                    let take = match a.as_ref() {
                        None => true,
                        Some(cur) => v.sql_cmp(cur) == Some(std::cmp::Ordering::Greater),
                    };
                    if take {
                        *a = Some(v.clone());
                    }
                }
            }
            (Acc::Avg { sum: a, count: ac }, Acc::Avg { sum: b, count: bc }) => {
                *a += b;
                *ac = checked_count(*ac, *bc)?;
            }
            _ => return Err(Error::Eval("mismatched aggregate partials".into())),
        }
        Ok(())
    }

    /// Serialize the partial state ([`AggFunc::partial_width`] values).
    pub fn to_partial(&self, out: &mut Vec<Value>) {
        match self {
            Acc::Count(n) => out.push(Value::Int64(*n)),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => out.push(v.clone().unwrap_or(Value::Null)),
            Acc::Avg { sum, count } => {
                if *count == 0 {
                    out.push(Value::Null);
                } else {
                    out.push(Value::Float64(*sum));
                }
                out.push(Value::Int64(*count));
            }
        }
    }

    /// Rebuild a partial state from its wire values.
    pub fn from_partial(func: AggFunc, values: &[Value]) -> Result<Acc> {
        let arity_err = || Error::Eval("truncated aggregate partial".into());
        match func {
            AggFunc::Count => Ok(Acc::Count(values.first().ok_or_else(arity_err)?.as_i64()?)),
            AggFunc::Sum => Ok(Acc::Sum(non_null(values.first().ok_or_else(arity_err)?))),
            AggFunc::Min => Ok(Acc::Min(non_null(values.first().ok_or_else(arity_err)?))),
            AggFunc::Max => Ok(Acc::Max(non_null(values.first().ok_or_else(arity_err)?))),
            AggFunc::Avg => {
                let sum = values.first().ok_or_else(arity_err)?;
                let count = values.get(1).ok_or_else(arity_err)?.as_i64()?;
                Ok(Acc::Avg {
                    sum: if sum.is_null() { 0.0 } else { sum.as_f64()? },
                    count,
                })
            }
        }
    }

    /// Finalize into the output value.
    pub fn finalize(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int64(*n),
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
        }
    }
}

/// The error an integer SUM raises when its total leaves BIGINT.
fn sum_overflow() -> Error {
    Error::Eval("numeric overflow: SUM exceeds the BIGINT range".into())
}

fn count_overflow() -> Error {
    Error::Eval("numeric overflow: COUNT exceeds the BIGINT range".into())
}

/// `acc + v` under SUM's typing: integers add checked, anything else
/// widens to `Float64`. A non-numeric input is a type error.
fn sum_values(acc: Option<&Value>, v: &Value) -> Result<Value> {
    Ok(match (acc, v) {
        (None, Value::Int64(i)) => Value::Int64(*i),
        (None, _) => Value::Float64(v.as_f64()?),
        (Some(Value::Int64(a)), Value::Int64(b)) => {
            Value::Int64(a.checked_add(*b).ok_or_else(sum_overflow)?)
        }
        (Some(a), _) => Value::Float64(a.as_f64()? + v.as_f64()?),
    })
}

fn checked_count(a: i64, b: i64) -> Result<i64> {
    a.checked_add(b).ok_or_else(count_overflow)
}

fn count_of(n: u64) -> Result<i64> {
    i64::try_from(n).map_err(|_| count_overflow())
}

fn non_null(v: &Value) -> Option<Value> {
    if v.is_null() {
        None
    } else {
        Some(v.clone())
    }
}

/// Grouped accumulator table. Groups appear in first-seen order, which
/// is deterministic for a deterministic input order. Groups are found
/// through a hash index over each key's normalised encoding
/// ([`encode_key`]), so a lookup costs the same with 5 groups or with
/// the tens of thousands a SQL GROUP BY can produce.
#[derive(Debug, Clone, Default)]
pub struct GroupedAccs {
    funcs: Vec<AggFunc>,
    groups: Vec<(Vec<Value>, Vec<Acc>)>,
    /// Normalised key encoding → position in `groups`.
    index: HashMap<Vec<u8>, usize>,
    /// Reused encoding buffer: a lookup that finds its group allocates
    /// nothing.
    scratch: Vec<u8>,
}

impl GroupedAccs {
    pub fn new(funcs: Vec<AggFunc>) -> GroupedAccs {
        GroupedAccs {
            funcs,
            ..GroupedAccs::default()
        }
    }

    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// The accumulator row for `key`, created on first sight (the key
    /// is cloned only then). Every key of one table has the same arity:
    /// the request's GROUP BY width.
    pub fn entry(&mut self, key: &[Value]) -> &mut Vec<Acc> {
        // A global aggregate has one group: every key is empty.
        if key.is_empty() && !self.groups.is_empty() {
            return &mut self.groups[0].1;
        }
        self.scratch.clear();
        encode_key(key, &mut self.scratch);
        let slot = match self.index.get(self.scratch.as_slice()) {
            Some(&slot) => slot,
            None => {
                let slot = self.groups.len();
                self.index.insert(self.scratch.clone(), slot);
                let accs = self.funcs.iter().map(|f| Acc::new(*f)).collect();
                self.groups.push((key.to_vec(), accs));
                slot
            }
        };
        &mut self.groups[slot].1
    }

    /// Merge another table (same funcs, same group-key arity) in.
    pub fn merge(&mut self, other: &GroupedAccs) -> Result<()> {
        for (key, accs) in &other.groups {
            let mine = self.entry(key);
            for (a, b) in mine.iter_mut().zip(accs) {
                a.merge(b)?;
            }
        }
        Ok(())
    }

    /// A global (no GROUP BY) aggregate over zero rows still yields one
    /// output row; call this before finalizing/serializing when the
    /// request has no grouping columns.
    pub fn ensure_global_group(&mut self) {
        if self.groups.is_empty() {
            self.entry(&[]);
        }
    }

    /// Serialize every group to partial-state rows.
    pub fn to_partial_rows(&self) -> Vec<Row> {
        self.groups
            .iter()
            .map(|(key, accs)| {
                let mut values = key.clone();
                for a in accs {
                    a.to_partial(&mut values);
                }
                Row::new(values)
            })
            .collect()
    }

    /// Absorb one partial-state row produced by [`to_partial_rows`]
    /// with `key_width` leading group columns.
    pub fn absorb_partial_row(&mut self, row: &Row, key_width: usize) -> Result<()> {
        let values = row.values();
        if values.len() < key_width {
            return Err(Error::Eval("truncated aggregate partial row".into()));
        }
        let mut at = key_width;
        let mut incoming = Vec::with_capacity(self.funcs.len());
        for f in &self.funcs {
            let w = f.partial_width();
            if values.len() < at + w {
                return Err(Error::Eval("truncated aggregate partial row".into()));
            }
            incoming.push(Acc::from_partial(*f, &values[at..at + w])?);
            at += w;
        }
        let mine = self.entry(&values[..key_width]);
        for (a, b) in mine.iter_mut().zip(&incoming) {
            a.merge(b)?;
        }
        Ok(())
    }

    /// Finalize every group to output rows.
    pub fn finalize_rows(&self) -> Vec<Row> {
        self.groups
            .iter()
            .map(|(key, accs)| {
                let mut values = key.clone();
                values.extend(accs.iter().map(|a| a.finalize()));
                Row::new(values)
            })
            .collect()
    }
}

/// Append `key`'s normalised encoding to `out`: per value a type tag,
/// then its bytes. Two keys group together exactly when their
/// encodings are equal: values of different types never do, `-0.0`
/// and `0.0` share one encoding (they compare equal), every NaN shares
/// one encoding (so NaN keys form one group rather than one group per
/// row), and strings carry their length so multi-column keys cannot
/// alias one another.
fn encode_key(key: &[Value], out: &mut Vec<u8>) {
    for v in key {
        match v {
            Value::Null => out.push(0),
            Value::Boolean(b) => out.extend_from_slice(&[1, u8::from(*b)]),
            Value::Int64(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float64(f) => {
                let bits = if f.is_nan() {
                    f64::NAN.to_bits()
                } else if *f == 0.0 {
                    0
                } else {
                    f.to_bits()
                };
                out.push(3);
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Value::Varchar(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u64).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Materialized (row-at-a-time) aggregation: the reference plan the
/// pushdown differentials compare against, and the fallback for data
/// sources without aggregate pushdown.
pub fn aggregate_rows(
    schema: &Schema,
    rows: &[Row],
    request: &AggRequest,
) -> Result<(Schema, Vec<Row>)> {
    request.validate()?;
    let key_idx: Vec<usize> = request
        .group_by
        .iter()
        .map(|g| schema.index_of(g))
        .collect::<Result<_>>()?;
    let col_idx: Vec<Option<usize>> = request
        .calls
        .iter()
        .map(|c| c.column.as_deref().map(|n| schema.index_of(n)).transpose())
        .collect::<Result<_>>()?;
    let mut table = GroupedAccs::new(request.calls.iter().map(|c| c.func).collect());
    let mut key = Vec::with_capacity(key_idx.len());
    for row in rows {
        key.clear();
        key.extend(key_idx.iter().map(|&i| row.get(i).clone()));
        let accs = table.entry(&key);
        for (acc, idx) in accs.iter_mut().zip(&col_idx) {
            match idx {
                Some(i) => acc.update(row.get(*i))?,
                None => acc.update(&Value::Int64(1))?,
            }
        }
    }
    if request.group_by.is_empty() {
        table.ensure_global_group();
    }
    Ok((request.output_schema(schema)?, table.finalize_rows()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("grp", DataType::Varchar),
            ("n", DataType::Int64),
            ("x", DataType::Float64),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            row!["a", 1i64, 2.0],
            row!["b", 2i64, Value::Null],
            row!["a", Value::Null, 4.0],
            row!["b", 4i64, 0.5],
        ]
    }

    #[test]
    fn global_aggregates_match_sql_semantics() {
        let req = AggRequest::new(
            &[],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Count, "n"),
                AggCall::new(AggFunc::Sum, "n"),
                AggCall::new(AggFunc::Min, "x"),
                AggCall::new(AggFunc::Max, "n"),
                AggCall::new(AggFunc::Avg, "x"),
            ],
        );
        let (out_schema, out) = aggregate_rows(&schema(), &rows(), &req).unwrap();
        assert_eq!(
            out_schema.column_names(),
            vec!["count(*)", "count(n)", "sum(n)", "min(x)", "max(n)", "avg(x)"]
        );
        assert_eq!(out.len(), 1);
        let r = &out[0];
        assert_eq!(r.get(0), &Value::Int64(4));
        assert_eq!(r.get(1), &Value::Int64(3));
        assert_eq!(r.get(2), &Value::Int64(7), "all-int SUM stays Int64");
        assert_eq!(r.get(3), &Value::Float64(0.5));
        assert_eq!(r.get(4), &Value::Int64(4));
        assert_eq!(r.get(5), &Value::Float64(6.5 / 3.0));
    }

    #[test]
    fn zero_rows_yield_one_null_group() {
        let req = AggRequest::new(
            &[],
            vec![AggCall::count_star(), AggCall::new(AggFunc::Sum, "n")],
        );
        let (_, out) = aggregate_rows(&schema(), &[], &req).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0), &Value::Int64(0));
        assert_eq!(out[0].get(1), &Value::Null);
    }

    #[test]
    fn grouped_aggregation_first_seen_order() {
        let req = AggRequest::new(&["grp"], vec![AggCall::new(AggFunc::Sum, "n")]);
        let (_, out) = aggregate_rows(&schema(), &rows(), &req).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get(0), &Value::Varchar("a".into()));
        assert_eq!(out[0].get(1), &Value::Int64(1));
        assert_eq!(out[1].get(0), &Value::Varchar("b".into()));
        assert_eq!(out[1].get(1), &Value::Int64(6));
    }

    #[test]
    fn partial_roundtrip_merges_exactly() {
        let req = AggRequest::new(
            &["grp"],
            vec![
                AggCall::count_star(),
                AggCall::new(AggFunc::Avg, "x"),
                AggCall::new(AggFunc::Sum, "n"),
            ],
        );
        let funcs: Vec<AggFunc> = req.calls.iter().map(|c| c.func).collect();
        let all = rows();
        // Split the input into two "pieces", aggregate each, ship
        // partial rows, merge, finalize.
        let mut merged = GroupedAccs::new(funcs.clone());
        for piece in all.chunks(2) {
            let mut t = GroupedAccs::new(funcs.clone());
            for row in piece {
                let accs = t.entry(&[row.get(0).clone()]);
                accs[0].update(&Value::Int64(1)).unwrap();
                accs[1].update(row.get(2)).unwrap();
                accs[2].update(row.get(1)).unwrap();
            }
            for prow in t.to_partial_rows() {
                merged.absorb_partial_row(&prow, 1).unwrap();
            }
        }
        let direct = aggregate_rows(&schema(), &all, &req).unwrap().1;
        assert_eq!(merged.finalize_rows(), direct);
    }

    #[test]
    fn sum_widens_on_mixed_inputs_and_repeats_match_updates() {
        let mut a = Acc::new(AggFunc::Sum);
        a.update(&Value::Int64(3)).unwrap();
        a.update(&Value::Float64(1.5)).unwrap();
        assert_eq!(a.finalize(), Value::Float64(4.5));

        let mut one_by_one = Acc::new(AggFunc::Avg);
        let mut repeated = Acc::new(AggFunc::Avg);
        for _ in 0..5 {
            one_by_one.update(&Value::Float64(2.0)).unwrap();
        }
        repeated.update_repeated(&Value::Float64(2.0), 5).unwrap();
        assert_eq!(one_by_one.finalize(), repeated.finalize());
    }

    /// Reference grouping: a linear scan comparing keys under the same
    /// normalisation the index uses, independent of any hashing.
    fn reference_groups(keys: &[Value]) -> Vec<(Value, i64)> {
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Float64(x), Value::Float64(y)) => (x.is_nan() && y.is_nan()) || x == y,
            _ => a == b,
        };
        let mut out: Vec<(Value, i64)> = Vec::new();
        for k in keys {
            match out.iter_mut().find(|(g, _)| same(g, k)) {
                Some((_, n)) => *n += 1,
                None => out.push((k.clone(), 1)),
            }
        }
        out
    }

    #[test]
    fn hash_index_matches_reference_grouping_over_20k_keys() {
        // 20k distinct integer and float keys, each seen twice, plus
        // NULL, NaN (several bit patterns), -0.0/0.0 and string keys.
        let mut keys: Vec<Value> = Vec::new();
        for round in 0..2 {
            for i in 0..10_000i64 {
                keys.push(Value::Int64(i * 7919 % 10_007));
                keys.push(Value::Float64((i as f64 + 0.5) / 3.0));
            }
            keys.push(Value::Null);
            keys.push(Value::Float64(f64::NAN));
            keys.push(Value::Float64(-f64::NAN));
            keys.push(Value::Float64(f64::from_bits(f64::NAN.to_bits() | 1)));
            keys.push(Value::Float64(if round == 0 { -0.0 } else { 0.0 }));
            keys.push(Value::Varchar(format!("k{round}")));
            keys.push(Value::Varchar(String::new()));
        }
        let mut table = GroupedAccs::new(vec![AggFunc::Count]);
        for k in &keys {
            table.entry(std::slice::from_ref(k))[0]
                .update(&Value::Int64(1))
                .unwrap();
        }
        let got: Vec<(Value, i64)> = table
            .finalize_rows()
            .into_iter()
            .map(|r| (r.get(0).clone(), r.get(1).as_i64().unwrap()))
            .collect();
        let want = reference_groups(&keys);
        assert_eq!(got.len(), 20_000 + 6, "one group per distinct key");
        assert_eq!(got.len(), want.len());
        for ((gk, gn), (wk, wn)) in got.iter().zip(&want) {
            let same_key = match (gk, wk) {
                (Value::Float64(a), Value::Float64(b)) => a.to_bits() == b.to_bits(),
                _ => gk == wk,
            };
            assert!(same_key && gn == wn, "{gk:?}×{gn} vs {wk:?}×{wn}");
        }
        let nan_group = got
            .iter()
            .find(|(k, _)| matches!(k, Value::Float64(f) if f.is_nan()));
        assert_eq!(nan_group.map(|g| g.1), Some(6), "every NaN in one group");
    }

    #[test]
    fn multi_column_keys_do_not_alias() {
        let mut table = GroupedAccs::new(vec![AggFunc::Count]);
        for key in [
            vec![Value::Varchar("ab".into()), Value::Varchar("c".into())],
            vec![Value::Varchar("a".into()), Value::Varchar("bc".into())],
            vec![Value::Int64(1), Value::Null],
            vec![Value::Null, Value::Int64(1)],
            vec![Value::Int64(1), Value::Float64(1.0)],
        ] {
            table.entry(&key);
        }
        assert_eq!(table.len(), 5);
    }

    fn is_overflow<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(r, Err(Error::Eval(ref m)) if m.contains("numeric overflow"))
    }

    #[test]
    fn integer_sum_overflow_is_an_error_on_every_path() {
        let mut a = Acc::new(AggFunc::Sum);
        a.update(&Value::Int64(i64::MAX)).unwrap();
        assert!(is_overflow(a.update(&Value::Int64(1))));

        let mut r = Acc::new(AggFunc::Sum);
        assert!(is_overflow(
            r.update_repeated(&Value::Int64(i64::MAX / 2 + 1), 2)
        ));
        let mut r = Acc::new(AggFunc::Sum);
        r.update(&Value::Int64(i64::MIN)).unwrap();
        // A run that brings the total back into range never overflowed
        // one addend at a time either.
        r.update_repeated(&Value::Int64(i64::MAX), 1).unwrap();
        assert_eq!(r.finalize(), Value::Int64(-1));
        assert!(is_overflow(r.update_repeated(&Value::Int64(i64::MIN), 1)));

        let mut x = Acc::new(AggFunc::Sum);
        x.update(&Value::Int64(i64::MIN)).unwrap();
        let mut y = Acc::new(AggFunc::Sum);
        y.update(&Value::Int64(-1)).unwrap();
        assert!(is_overflow(x.merge(&y)));

        let mut c = Acc::Count(i64::MAX);
        assert!(is_overflow(c.update(&Value::Int64(1))));
        // Float sums keep IEEE semantics.
        let mut f = Acc::new(AggFunc::Sum);
        f.update(&Value::Float64(f64::MAX)).unwrap();
        f.update(&Value::Float64(f64::MAX)).unwrap();
        assert_eq!(f.finalize(), Value::Float64(f64::INFINITY));
    }

    #[test]
    fn repeated_integer_sums_match_one_by_one_updates() {
        for (v, n) in [(3i64, 5u64), (-7, 11), (0, 4), (i64::MAX, 1)] {
            let mut one_by_one = Acc::new(AggFunc::Sum);
            let mut repeated = Acc::new(AggFunc::Sum);
            one_by_one.update(&Value::Int64(10)).unwrap();
            repeated.update(&Value::Int64(10)).unwrap();
            let step = (0..n).try_for_each(|_| one_by_one.update(&Value::Int64(v)));
            let run = repeated.update_repeated(&Value::Int64(v), n);
            assert_eq!(step.is_ok(), run.is_ok(), "{v}×{n}");
            if run.is_ok() {
                assert_eq!(one_by_one.finalize(), repeated.finalize(), "{v}×{n}");
            }
        }
    }

    #[test]
    fn invalid_calls_are_rejected() {
        assert!(AggCall {
            func: AggFunc::Sum,
            column: None
        }
        .validate()
        .is_err());
        assert!(AggRequest::new(&[], vec![]).validate().is_err());
        let mut c = Acc::new(AggFunc::Count);
        let s = Acc::new(AggFunc::Sum);
        assert!(c.merge(&s).is_err(), "mismatched partials must not merge");
    }
}
