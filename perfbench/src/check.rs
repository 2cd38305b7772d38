//! Result checks against references computed at set-up from the
//! generated inputs. Each check returns `Err(reason)` on a mismatch;
//! the run loop counts it as a failed operation.
//!
//! Float sums are compared with a relative tolerance because the
//! database, the pushdown merge and the reference add the same values
//! in different orders. Everything else — counts, row contents, model
//! scores — must match exactly.

use common::{Row, Value};

pub type Check = Result<(), String>;

/// Relative tolerance for float sums accumulated in different orders.
pub const SUM_REL_TOL: f64 = 1e-9;

pub fn count(what: &str, got: u64, want: u64) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got} rows, want {want}"))
    }
}

/// `got` equals `want` within [`SUM_REL_TOL`] (relative to `want`).
pub fn close(what: &str, got: f64, want: f64) -> Check {
    let scale = want.abs().max(1.0);
    if (got - want).abs() <= SUM_REL_TOL * scale {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

fn mix(h: u64, word: u64) -> u64 {
    // FNV-1a over the word's bytes.
    word.to_le_bytes()
        .iter()
        .fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn value_word(v: &Value) -> u64 {
    match v {
        Value::Null => 0x9e37_79b9_7f4a_7c15,
        Value::Boolean(b) => *b as u64 + 1,
        Value::Int64(i) => *i as u64,
        Value::Float64(f) => f.to_bits(),
        Value::Varchar(s) => s
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| mix(h, b as u64)),
    }
}

/// Hash of one row's exact contents (column order matters).
fn row_hash(row: &Row) -> u64 {
    row.values()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| mix(h, value_word(v)))
}

/// Order-independent checksum of a row multiset: the wrapping sum of
/// the row hashes. Bit-exact, so any changed, lost or duplicated row
/// shows.
pub fn checksum(rows: &[Row]) -> u64 {
    rows.iter()
        .fold(0u64, |acc, r| acc.wrapping_add(row_hash(r)))
}

pub fn rows_checksum(what: &str, rows: &[Row], want_rows: u64, want_sum: u64) -> Check {
    count(what, rows.len() as u64, want_rows)?;
    let got = checksum(rows);
    if got == want_sum {
        Ok(())
    } else {
        Err(format!("{what}: row checksum {got:#x}, want {want_sum:#x}"))
    }
}

fn sort_by_key(rows: &mut [Row], key_width: usize) {
    rows.sort_by(|a, b| {
        a.values()[..key_width]
            .iter()
            .zip(&b.values()[..key_width])
            .map(|(x, y)| x.sql_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Grouped aggregate output equals the reference: same groups, exact
/// keys and integer aggregates, float aggregates within tolerance.
pub fn agg_rows(what: &str, mut got: Vec<Row>, want: &[Row], key_width: usize) -> Check {
    count(
        &format!("{what} groups"),
        got.len() as u64,
        want.len() as u64,
    )?;
    let mut want = want.to_vec();
    sort_by_key(&mut got, key_width);
    sort_by_key(&mut want, key_width);
    for (g, w) in got.iter().zip(&want) {
        if g.len() != w.len() {
            return Err(format!("{what}: row width {} vs {}", g.len(), w.len()));
        }
        for (i, (gv, wv)) in g.values().iter().zip(w.values()).enumerate() {
            match (gv, wv) {
                (Value::Float64(a), Value::Float64(b)) => {
                    close(&format!("{what} col {i}"), *a, *b)?
                }
                (a, b) if a == b => {}
                (a, b) => return Err(format!("{what} col {i}: got {a:?}, want {b:?}")),
            }
        }
    }
    Ok(())
}

/// Model scores equal the reference scores exactly, as multisets (the
/// database returns rows in no particular order).
pub fn scores(what: &str, mut got: Vec<f64>, want: &[f64]) -> Check {
    count(what, got.len() as u64, want.len() as u64)?;
    let mut want = want.to_vec();
    got.sort_by(f64::total_cmp);
    want.sort_by(f64::total_cmp);
    match got
        .iter()
        .zip(&want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("{what}: score {} vs reference {}", got[i], want[i])),
    }
}
