//! Runtime values with SQL semantics.
//!
//! `Value` implements SQL's three-valued logic at the comparison level:
//! any comparison involving `Null` yields "unknown", which the engine
//! represents as `None` from [`Value::sql_cmp`] and treats as *false* in
//! filter predicates (matching SQLite/standard behaviour for WHERE).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single SQL value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL (unknown)
    /// or the types are incomparable. Ints and floats compare numerically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality under three-valued logic (`None` = unknown).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Total order for sorting / grouping: NULLs first, then by type
    /// class, then by value. This is a *deterministic engine order*, not
    /// SQL comparison — used by ORDER BY (NULLS FIRST, SQLite default)
    /// and result-set canonicalisation.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Float(_) => 1,
                Text(_) => 2,
                Bool(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => class(self).cmp(&class(other)),
        }
    }

    /// Key for hashing/equality in GROUP BY and result multiset
    /// comparison. Floats are bucketed to 9 decimal places so that values
    /// equal up to accumulation error in aggregates compare equal (the
    /// tolerance BIRD's EX comparison effectively applies).
    pub fn group_key(&self) -> GroupKey {
        match self.key() {
            GroupKey::Null => GroupKey::Null,
            GroupKey::Int(i) => GroupKey::Int(i),
            GroupKey::FloatBits(b) => GroupKey::FloatBits(b),
            GroupKey::FloatExact(b) => GroupKey::FloatExact(b),
            GroupKey::Text(s) => GroupKey::Text(s.to_owned()),
        }
    }

    /// [`Value::group_key`] with the text borrowed: the same equality,
    /// without copying the string. Joins, grouping, DISTINCT and EX
    /// comparison hash this form.
    pub(crate) fn key(&self) -> GroupKey<&str> {
        /// 2^63: the scaled floats in `[-2^63, 2^63)` convert to `i64`
        /// exactly; beyond it `as` would saturate and merge them.
        const I64_SPAN: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Value::Null => GroupKey::Null,
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) => {
                let scaled = (*f * 1e9).round();
                if f.fract() == 0.0 && f.abs() < 9e15 {
                    // Integral floats group with their integer twins, so
                    // SUM(int) and equivalent float expressions agree.
                    GroupKey::Int(*f as i64)
                } else if (-I64_SPAN..I64_SPAN).contains(&scaled) {
                    GroupKey::FloatBits(scaled as i64)
                } else {
                    // Too large to bucket (|f| ≳ 9.2e9), infinite or NaN.
                    GroupKey::FloatExact(f.to_bits())
                }
            }
            Value::Text(s) => GroupKey::Text(s),
            Value::Bool(b) => GroupKey::Int(*b as i64),
        }
    }
}

/// Hashable, `Eq` projection of a [`Value`] (see [`Value::group_key`]).
/// The text is owned by default; inside the engine, joins, grouping and
/// EX comparison hash `GroupKey<&str>`, which borrows it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey<S = String> {
    Null,
    Int(i64),
    /// A non-integral float scaled by 1e9 and rounded.
    FloatBits(i64),
    /// The bits of a float that [`GroupKey::FloatBits`] cannot hold.
    FloatExact(u64),
    Text(S),
}

/// A row hashed and compared cell by cell through [`Value::key`]: the
/// borrowed twin of `Vec<GroupKey>`, built without copying any text.
/// Cells may be values or anything that borrows as one (`Cow<Value>`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowKey<'r, T>(pub &'r [T]);

impl<T: Borrow<Value>> Hash for RowKey<'_, T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for cell in self.0 {
            cell.borrow().key().hash(state);
        }
    }
}

impl<T: Borrow<Value>> PartialEq for RowKey<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.borrow().key() == b.borrow().key())
    }
}

impl<T: Borrow<Value>> Eq for RowKey<'_, T> {}

impl PartialEq for Value {
    /// Structural equality (NULL == NULL here): used by tests and result
    /// comparison, *not* by SQL predicates (those go through `sql_eq`).
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn text_comparison_is_lexicographic() {
        assert_eq!(
            Value::text("abc").sql_cmp(&Value::text("abd")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn incompatible_types_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::text("1")), None);
    }

    #[test]
    fn total_order_sorts_nulls_first() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn group_keys_unify_int_and_integral_float() {
        assert_eq!(Value::Int(3).group_key(), Value::Float(3.0).group_key());
        assert_ne!(Value::Float(3.5).group_key(), Value::Int(3).group_key());
    }

    #[test]
    fn group_keys_tolerate_float_jitter() {
        let a = Value::Float(0.333_333_333_1);
        let b = Value::Float(0.333_333_333_4);
        assert_eq!(a.group_key(), b.group_key());
    }

    #[test]
    fn group_keys_keep_large_floats_apart() {
        // Scaled by 1e9 these overflow i64; they used to saturate to one key.
        let a = Value::Float(1e10 + 0.5);
        let b = Value::Float(2e10 + 0.5);
        assert_ne!(a.group_key(), b.group_key());
        assert_eq!(a.group_key(), Value::Float(1e10 + 0.5).group_key());
        assert_eq!(
            a.group_key(),
            GroupKey::FloatExact((1e10f64 + 0.5).to_bits())
        );
        assert_ne!(
            Value::Float(f64::INFINITY).group_key(),
            Value::Float(f64::NEG_INFINITY).group_key()
        );
        // The largest scaled floats that still fit keep their buckets.
        assert!(matches!(
            Value::Float(9.2e9 + 0.5).group_key(),
            GroupKey::FloatBits(_)
        ));
    }

    #[test]
    fn borrowed_keys_have_group_key_equality() {
        let vals = [
            Value::Null,
            Value::Int(3),
            Value::Float(3.0),
            Value::Bool(true),
            Value::Int(1),
            Value::Float(0.1 + 0.2),
            Value::Float(0.3),
            Value::Float(1e10 + 0.5),
            Value::text("café"),
            Value::text("cafe"),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(
                    a.key() == b.key(),
                    a.group_key() == b.group_key(),
                    "{a} vs {b}"
                );
            }
        }
        assert_eq!(
            RowKey(&[Value::Int(3), Value::text("x")]),
            RowKey(&[Value::Float(3.0), Value::text("x")])
        );
        assert_ne!(
            RowKey(&[Value::Int(3)]),
            RowKey(&[Value::Int(3), Value::Null])
        );
    }

    #[test]
    fn display_quotes_text() {
        assert_eq!(Value::text("it's").to_string(), "'it''s'");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn structural_eq_counts_null_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }
}
