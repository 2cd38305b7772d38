//! Materialized tuples.

use crate::value::Value;

/// A materialized tuple: one value per schema column.
///
/// Rows are the unit of transfer between the engines; the connectors
/// account for their [`wire_size`](Row::wire_size) when charging the
/// network cost model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Replace the value at `idx` in place (vectorized scans reuse one
    /// scratch row across a batch instead of allocating per row).
    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Append a value past the schema's columns (the SQL row path
    /// appends computed UDF results for the expressions that read them).
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Drop every value past the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.values.truncate(len);
    }

    /// Project the row onto the given column ordinals.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Project an owned row by moving the selected values out instead of
    /// cloning them. Falls back to cloning when an ordinal repeats
    /// (`SELECT a, a` style projections).
    pub fn into_projected(self, indices: &[usize]) -> Row {
        let has_dup = indices
            .iter()
            .enumerate()
            .any(|(k, i)| indices[..k].contains(i));
        if has_dup {
            return self.project(indices);
        }
        let mut values: Vec<Option<Value>> = self.values.into_iter().map(Some).collect();
        Row::new(
            indices
                .iter()
                .map(|&i| values[i].take().expect("unique projection ordinal"))
                .collect(),
        )
    }

    /// Total approximate wire size of the row in bytes.
    pub fn wire_size(&self) -> usize {
        self.values.iter().map(Value::wire_size).sum()
    }

    /// Approximate textual (delimited) wire size: value texts plus one
    /// delimiter per column and a ~10-byte per-row message header (the
    /// fixed per-row overhead behind the paper's Fig. 9).
    pub fn text_wire_size(&self) -> usize {
        self.values.iter().map(Value::text_wire_size).sum::<usize>() + self.values.len() + 10
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Row {
        Row::new(iter.into_iter().collect())
    }
}

/// Build a [`Row`] from a list of expressions convertible to [`Value`].
///
/// ```
/// use common::{row, Value};
/// let r = row![1i64, 2.5f64, "abc"];
/// assert_eq!(r.get(0), &Value::Int64(1));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_reorders_and_duplicates() {
        let r = row![1i64, 2i64, 3i64];
        let p = r.project(&[2, 0, 0]);
        assert_eq!(
            p.values(),
            &[Value::Int64(3), Value::Int64(1), Value::Int64(1)]
        );
    }

    #[test]
    fn wire_size_sums_values() {
        let r = row![1i64, "abcd"];
        assert_eq!(r.wire_size(), 8 + 8);
    }

    #[test]
    fn row_macro_builds_expected_types() {
        let r = row![true, 7i64, 1.5f64, "s"];
        assert_eq!(r.get(0), &Value::Boolean(true));
        assert_eq!(r.get(1), &Value::Int64(7));
        assert_eq!(r.get(2), &Value::Float64(1.5));
        assert_eq!(r.get(3), &Value::Varchar("s".into()));
    }
}
