//! Equality indexes: the access path of a keyed statement.
//!
//! A statement whose first test of a row is `col = literal` (or
//! `literal = col`) only has to read the rows that can pass it. Each
//! table keeps one lazily built [`EqIndex`] per column a statement has
//! keyed on ([`Keys`]): nothing is built at `CREATE`, load or `INSERT`;
//! the first keyed lookup builds it, and the engine's DML keeps it up to
//! date from then on (`INSERT` appends, `UPDATE` re-files the rows whose
//! key changed, `DELETE` removes and renumbers). Whatever else can change
//! a table's rows — `ROLLBACK`, `Database::table_mut`, DDL — drops its
//! indexes, and the next lookup builds them again.
//!
//! The index only narrows *which* rows are read. It hands out row
//! numbers in table order, and the caller runs every predicate, the
//! equality included, on each row it reads, with the same comparison a
//! scan makes. So a keyed statement returns the scan's rows in the
//! scan's order. The rows it skips are rows on which the equality is
//! FALSE or NULL without error; the index stands for a scan only when it
//! can prove that for every row it skips. It cannot when a stored key
//! would make the comparison fail: a value of another type class than
//! the literal, a NaN, a row too short to have the column. The caller
//! then scans, and the scan raises the error it always did.

use std::ops::Range;
use std::sync::OnceLock;

use crate::ast::{BinOp, Expr};
use crate::schema::Row;
use crate::value::Value;

/// A statement that changes more keys than this rebuilds the index
/// instead of re-filing or renumbering row by row.
const BULK: usize = 16;

/// What a value files as. Two non-NULL values compare without error
/// exactly when they are of one class and neither is NaN.
enum Key {
    /// NULL: equal to nothing.
    Null,
    /// A class (numbers 0, text 1, booleans 2) and a hash that values
    /// equal under `=` share.
    Filed(usize, u64),
    /// NaN, or no value at all: comparing it fails.
    Blocked,
}

fn key(v: Option<&Value>) -> Key {
    // `=` compares an int with a float as `f64`s, and -0.0 equals 0.0.
    let number = |f: f64| Key::Filed(0, if f == 0.0 { 0 } else { f.to_bits() });
    match v {
        Some(Value::Null) => Key::Null,
        Some(Value::Int(i)) => number(*i as f64),
        Some(Value::Float(f)) if !f.is_nan() => number(*f),
        Some(Value::Str(s)) => Key::Filed(1, llmdm_rt::hash::fnv1a_str(s)),
        Some(Value::Bool(b)) => Key::Filed(2, u64::from(*b)),
        Some(Value::Float(_)) | None => Key::Blocked,
    }
}

/// `slot = literal` or `literal = slot`: the slot's position and the
/// literal.
fn equality(e: &Expr) -> Option<(usize, &Value)> {
    match e {
        Expr::Binary { op: BinOp::Eq, left, right } => match (&**left, &**right) {
            (Expr::Slot { index, .. }, Expr::Literal(v))
            | (Expr::Literal(v), Expr::Slot { index, .. }) => Some((*index, v)),
            _ => None,
        },
        _ => None,
    }
}

/// One column's rows, chained by the hash of their key: each bucket is a
/// chain of row numbers in ascending order. Three flat arrays, built in a
/// constant number of allocations; rows are numbered, never copied.
#[derive(Clone)]
pub(crate) struct EqIndex {
    /// Rows per class of non-NULL key (see [`Key::Filed`]).
    classes: [usize; 3],
    /// Rows whose key is NULL.
    nulls: usize,
    /// Rows whose key is [`Key::Blocked`].
    blocked: usize,
    /// log₂ of the number of buckets.
    bits: u32,
    /// Per bucket, its first and last row number + 1 (0: empty).
    chains: Vec<[u32; 2]>,
    /// Per row, the number + 1 of the next row in its bucket (0: none,
    /// or the row is not filed).
    next: Vec<u32>,
}

impl std::fmt::Debug for EqIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EqIndex({} rows, {} buckets)", self.next.len(), self.chains.len())
    }
}

impl EqIndex {
    /// Index column `col` of `rows`.
    fn build(rows: &[Row], col: usize) -> EqIndex {
        let bits = rows.len().max(16).next_power_of_two().trailing_zeros();
        let mut ix = EqIndex {
            classes: [0; 3],
            nulls: 0,
            blocked: 0,
            bits,
            chains: vec![[0; 2]; 1 << bits],
            next: vec![0; rows.len()],
        };
        for (i, row) in rows.iter().enumerate() {
            ix.file(i, row.get(col));
        }
        ix
    }

    fn bucket(&self, h: u64) -> usize {
        (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.bits)) as usize
    }

    /// Count row `i`'s key and, unless it is NULL or blocked, link the row
    /// into its bucket at its place in row order.
    fn file(&mut self, i: usize, v: Option<&Value>) {
        let (class, h) = match key(v) {
            Key::Null => return self.nulls += 1,
            Key::Blocked => return self.blocked += 1,
            Key::Filed(class, h) => (class, h),
        };
        self.classes[class] += 1;
        let b = self.bucket(h);
        let me = i as u32 + 1;
        let [first, last] = self.chains[b];
        if last < me {
            // The usual case: a row past every row filed so far.
            match last {
                0 => self.chains[b][0] = me,
                _ => self.next[last as usize - 1] = me,
            }
            self.chains[b][1] = me;
            return;
        }
        let (mut prev, mut at) = (0, first);
        while at < me {
            (prev, at) = (at, self.next[at as usize - 1]);
        }
        self.next[i] = at;
        match prev {
            0 => self.chains[b][0] = me,
            _ => self.next[prev as usize - 1] = me,
        }
    }

    /// Take row `i`, whose key is `v`, back out: the inverse of
    /// [`EqIndex::file`].
    fn unfile(&mut self, i: usize, v: Option<&Value>) {
        let (class, h) = match key(v) {
            Key::Null => return self.nulls -= 1,
            Key::Blocked => return self.blocked -= 1,
            Key::Filed(class, h) => (class, h),
        };
        self.classes[class] -= 1;
        let b = self.bucket(h);
        let me = i as u32 + 1;
        let (mut prev, mut at) = (0, self.chains[b][0]);
        while at != me {
            debug_assert!(at != 0, "row {i} is not in its bucket");
            (prev, at) = (at, self.next[at as usize - 1]);
        }
        let after = std::mem::take(&mut self.next[i]);
        match prev {
            0 => self.chains[b][0] = after,
            _ => self.next[prev as usize - 1] = after,
        }
        if self.chains[b][1] == me {
            self.chains[b][1] = prev;
        }
    }

    /// The rows in which `= lit` can hold, ascending; `None` when some
    /// row the index would skip could make the comparison fail.
    /// `null_decides`: a row whose key is NULL is settled by the
    /// equality's NULL (a fused scan predicate, a lone `WHERE`). A
    /// conjunct of an `AND` that goes on to evaluate its other side on
    /// NULL is not, so there a NULL key or literal means a scan.
    fn lookup(&self, lit: &Value, null_decides: bool) -> Option<Chain<'_>> {
        if self.blocked > 0 {
            return None;
        }
        let none = Chain { next: &self.next, at: 0 };
        match key(Some(lit)) {
            Key::Null => null_decides.then_some(none),
            Key::Blocked => None,
            Key::Filed(class, h) => {
                let mixed = (0..3).any(|c| c != class && self.classes[c] > 0);
                if mixed || (!null_decides && self.nulls > 0) {
                    return None;
                }
                Some(Chain { next: &self.next, at: self.chains[self.bucket(h)][0] })
            }
        }
    }
}

/// The row numbers of one bucket, ascending.
pub(crate) struct Chain<'a> {
    next: &'a [u32],
    at: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let i = self.at.checked_sub(1)? as usize;
        self.at = self.next[i];
        Some(i)
    }
}

/// The rows a statement reads, in table order: all of them, or the
/// chain of an index on `column`.
pub(crate) enum Access<'a> {
    /// A full scan.
    Scan(Range<usize>),
    /// An index's candidates for the statement's equality on `column`.
    Key { column: usize, chain: Chain<'a> },
}

impl Iterator for Access<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Access::Scan(rows) => rows.next(),
            Access::Key { chain, .. } => chain.next(),
        }
    }
}

/// A table's equality indexes: one slot per column, empty until a
/// statement keys on the column.
#[derive(Debug, Clone)]
pub(crate) struct Keys(Box<[OnceLock<EqIndex>]>);

impl Keys {
    /// No index yet over any of `columns` columns.
    pub(crate) fn new(columns: usize) -> Keys {
        Keys((0..columns).map(|_| OnceLock::new()).collect())
    }

    /// Drop every index: the rows changed in a way DML did not report.
    pub(crate) fn clear(&mut self) {
        self.0.iter_mut().for_each(|slot| drop(slot.take()));
    }

    /// How to read `rows` for a statement whose first test of a row is
    /// `first` (see [`EqIndex::lookup`] for `null_decides`). Keying on a
    /// column for the first time indexes it.
    pub(crate) fn access<'a>(
        &'a self,
        rows: &'a [Row],
        first: Option<&Expr>,
        null_decides: bool,
    ) -> Access<'a> {
        let keyed = first.and_then(equality).and_then(|(column, lit)| {
            let index = self.0.get(column)?.get_or_init(|| EqIndex::build(rows, column));
            Some(Access::Key { column, chain: index.lookup(lit, null_decides)? })
        });
        keyed.unwrap_or(Access::Scan(0..rows.len()))
    }

    fn built(&mut self) -> impl Iterator<Item = (usize, &mut EqIndex)> {
        self.0.iter_mut().enumerate().filter_map(|(col, slot)| Some((col, slot.get_mut()?)))
    }

    /// `rows[from..]` were appended.
    pub(crate) fn inserted(&mut self, rows: &[Row], from: usize) {
        for (col, index) in self.built() {
            if rows.len() > index.chains.len() {
                // Past one row per bucket: rebuild at twice the size.
                *index = EqIndex::build(rows, col);
                continue;
            }
            index.next.resize(rows.len(), 0);
            for (i, row) in rows.iter().enumerate().skip(from) {
                index.file(i, row.get(col));
            }
        }
    }

    /// Each `(i, old)` of `old` was overwritten by `rows[i]`.
    pub(crate) fn updated(&mut self, rows: &[Row], old: &[(usize, Row)]) {
        for (col, index) in self.built() {
            let changed = |&&(i, ref was): &&(usize, Row)| !matches!((was.get(col), rows[i].get(col)), (Some(a), Some(b)) if a.bit_eq(b));
            if old.iter().filter(changed).nth(BULK).is_some() {
                *index = EqIndex::build(rows, col);
                continue;
            }
            for (i, was) in old.iter().filter(changed) {
                index.unfile(*i, was.get(col));
                index.file(*i, rows[*i].get(col));
            }
        }
    }

    /// The rows of `removed`, each at its ascending pre-delete number,
    /// were deleted; `rows` is what is left.
    pub(crate) fn deleted(&mut self, rows: &[Row], removed: &[(usize, Row)]) {
        for (col, index) in self.built() {
            if removed.len() > BULK {
                *index = EqIndex::build(rows, col);
                continue;
            }
            for (i, row) in removed {
                index.unfile(*i, row.get(col));
            }
            // Highest first, so each pass shifts numbers that are still
            // the pre-delete ones above the row it removes.
            for &(i, _) in removed.iter().rev() {
                index.next.remove(i);
                let gone = i as u32 + 1;
                let shift = |link: &mut u32| *link -= u32::from(*link > gone);
                index.next.iter_mut().for_each(shift);
                index.chains.iter_mut().flatten().for_each(shift);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(keys: &[Value]) -> Vec<Row> {
        keys.iter().map(|k| vec![k.clone()]).collect()
    }

    /// The rows `= lit` holds in, by a scan.
    fn scan(rows: &[Row], lit: &Value) -> Vec<usize> {
        (0..rows.len()).filter(|&i| rows[i][0].sql_cmp(lit).is_some_and(|o| o.is_eq())).collect()
    }

    /// The matching rows among the index's candidates.
    fn probe(index: &EqIndex, rows: &[Row], lit: &Value) -> Option<Vec<usize>> {
        let chain = index.lookup(lit, true)?;
        let candidates: Vec<usize> = chain.collect();
        assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{candidates:?}");
        Some(
            candidates
                .into_iter()
                .filter(|&i| rows[i][0].sql_cmp(lit).is_some_and(|o| o.is_eq()))
                .collect(),
        )
    }

    #[test]
    fn candidates_are_the_scans_rows_in_order_through_dml() {
        let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        let mut table = rows(&ints(&[5, 3, 5, 1, 5, 3]));
        let mut keys = Keys::new(1);
        let eq =
            |k: i64| Expr::bin(BinOp::Eq, Expr::Slot { index: 0, name: "k".into() }, Expr::lit(k));
        assert!(matches!(keys.access(&table, Some(&eq(5)), true), Access::Key { column: 0, .. }));
        let check = |keys: &Keys, table: &[Row]| {
            let index = keys.0[0].get().expect("built");
            for k in [0, 1, 3, 5, 7, -0] {
                let lit = Value::Int(k);
                assert_eq!(probe(index, table, &lit), Some(scan(table, &lit)), "{k} in {table:?}");
            }
            assert_eq!(probe(index, table, &Value::Float(5.0)), Some(scan(table, &Value::Int(5))));
        };
        check(&keys, &table);
        table.extend(rows(&ints(&[3, 7])));
        keys.inserted(&table, 6);
        check(&keys, &table);
        let old = vec![(0, std::mem::replace(&mut table[0], vec![Value::Int(7)]))];
        keys.updated(&table, &old);
        check(&keys, &table);
        let removed = vec![(1, table.remove(1)), (3, table.remove(2))];
        keys.deleted(&table, &removed);
        check(&keys, &table);
        // Past one row per bucket, an insert rebuilds at twice the size.
        let from = table.len();
        table.extend(rows(&ints(&(0..40).collect::<Vec<_>>())));
        keys.inserted(&table, from);
        check(&keys, &table);
    }

    #[test]
    fn a_key_the_literal_cannot_be_compared_with_means_a_scan() {
        let lookup = |stored: Vec<Value>, lit: Value, null_decides: bool| {
            EqIndex::build(&rows(&stored), 0).lookup(&lit, null_decides).map(Iterator::count)
        };
        let (one, text, nan) = (Value::Int(1), Value::Str("a".into()), Value::Float(f64::NAN));
        assert_eq!(lookup(vec![one.clone(), Value::Null], one.clone(), true), Some(1));
        assert_eq!(lookup(vec![one.clone(), Value::Null], Value::Null, true), Some(0));
        assert_eq!(lookup(vec![one.clone(), text.clone()], one.clone(), true), None);
        assert_eq!(lookup(vec![one.clone(), nan.clone()], one.clone(), true), None);
        assert_eq!(lookup(vec![one.clone()], nan, true), None);
        assert_eq!(lookup(vec![text.clone()], Value::Bool(true), true), None);
        // Inside a larger AND a NULL key evaluates the other conjuncts.
        assert_eq!(lookup(vec![one.clone(), Value::Null], one.clone(), false), None);
        assert_eq!(lookup(vec![one.clone()], Value::Null, false), None);
        assert_eq!(lookup(vec![one.clone()], one, false), Some(1));
        // A row without the column fails any comparison.
        assert!(EqIndex::build(&[vec![]], 0).lookup(&text, true).is_none());
    }

    #[test]
    fn zero_and_negative_zero_share_a_bucket() {
        let index = EqIndex::build(&rows(&[Value::Float(-0.0), Value::Int(0)]), 0);
        assert_eq!(index.lookup(&Value::Float(0.0), true).map(Iterator::count), Some(2));
    }
}
