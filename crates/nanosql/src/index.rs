//! The one hasher and the one hash table of the runtime.
//!
//! Joins, GROUP BY, DISTINCT, aggregate DISTINCT and EX's multiset
//! comparison all find rows or values by [`Value::group_key`] equality,
//! and `simlm`'s token vocabulary finds token texts. Each hashes with
//! `KeyHasher`, a fixed word-at-a-time hash, and keeps its entries in
//! an [`Index`]: an open-addressing table of ids `0..n`, handed out in
//! insertion order, that stores only hashes and ids. The caller keeps
//! whatever the ids stand for (a build row, a group's first key cells,
//! an output row, a token's text) and decides equality, so a table
//! borrows no key and nothing built on it depends on hash order.
//!
//! The hasher has no per-process seed: the same key hashes the same on
//! every run and every host. Its keys come from the runtime's own
//! tables, statements and schema identifiers, not from a network peer.

use crate::value::{GroupKey, Value};
use std::borrow::Borrow;

/// FxHash-style word mixing with a murmur3 finaliser, so that both the
/// low bits (the table slot) and the whole word spread.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
        // The length keeps "a" + "" apart from "" + "a" in a row.
        self.word(bytes.len() as u64);
    }

    /// Mix in one value under group-key equality.
    pub(crate) fn value(&mut self, v: &Value) {
        match v.key() {
            GroupKey::Null => self.word(0),
            GroupKey::Int(i) => {
                self.word(1);
                self.word(i as u64);
            }
            GroupKey::FloatBits(b) => {
                self.word(2);
                self.word(b as u64);
            }
            GroupKey::FloatExact(b) => {
                self.word(3);
                self.word(b);
            }
            GroupKey::Text(s) => self.text(s),
        }
    }

    fn text(&mut self, s: &str) {
        self.word(4);
        self.bytes(s.as_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hash of one value under group-key equality.
pub(crate) fn hash_value(v: &Value) -> u64 {
    let mut h = KeyHasher::default();
    h.value(v);
    h.finish()
}

/// Hash of a text: the hash of the `Value::Text` holding it,
/// without building one.
#[inline]
pub fn hash_text(s: &str) -> u64 {
    let mut h = KeyHasher::default();
    h.text(s);
    h.finish()
}

/// Hash of a row under group-key equality, cell by cell.
pub(crate) fn hash_row<T: Borrow<Value>>(row: &[T]) -> u64 {
    let mut h = KeyHasher::default();
    for cell in row {
        h.value(cell.borrow());
    }
    h.finish()
}

/// Group-key equality of two rows, whatever their cells' types.
pub(crate) fn rows_eq<A: Borrow<Value>, B: Borrow<Value>>(a: &[A], b: &[B]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.borrow().key() == y.borrow().key())
}

/// A free slot.
const EMPTY: usize = usize::MAX;

/// Ids `0..len()` found by hash, linear probing, at most half full.
#[derive(Clone, Debug, Default)]
pub struct Index {
    /// `(hash, id)`; a power-of-two length, or none before the first
    /// insertion.
    slots: Vec<(u64, usize)>,
    len: usize,
}

impl Index {
    /// An index that takes `n` ids without growing.
    pub(crate) fn with_capacity(n: usize) -> Index {
        Index {
            slots: vec![(0, EMPTY); (2 * n).next_power_of_two().max(8)],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The id under `hash` that `eq` accepts.
    pub fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, EMPTY) => return None,
                (h, id) if h == hash && eq(id) => return Some(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The id under `hash` that `eq` accepts, and `false`; or else the
    /// next new id, now inserted, and `true`.
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(usize) -> bool,
    ) -> (usize, bool) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (_, EMPTY) => {
                    let id = self.len;
                    self.slots[i] = (hash, id);
                    self.len += 1;
                    return (id, true);
                }
                (h, id) if h == hash && eq(id) => return (id, false),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); size]);
        let mask = size - 1;
        for (hash, id) in old.into_iter().filter(|&(_, id)| id != EMPTY) {
            let mut i = hash as usize & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (hash, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_insertion_order_through_growth() {
        let mut index = Index::default();
        let keys: Vec<u64> = (0..100).map(|k| k * 7 % 31).collect();
        let mut distinct: Vec<u64> = Vec::new();
        for &k in &keys {
            // A constant hash for half the keys: equality alone must tell
            // them apart.
            let hash = if k % 2 == 0 { 42 } else { k };
            let (id, new) = index.find_or_insert(hash, |id| distinct[id] == k);
            if new {
                distinct.push(k);
            }
            assert_eq!(distinct[id], k);
        }
        assert_eq!(index.len(), 31);
        let mut first_seen = keys.clone();
        let mut seen = std::collections::HashSet::new();
        first_seen.retain(|k| seen.insert(*k));
        assert_eq!(distinct, first_seen);
        assert_eq!(index.find(42, |id| distinct[id] == 1000), None);
        assert_eq!(Index::default().find(0, |_| true), None);
    }

    #[test]
    fn hashes_follow_group_key_equality() {
        let row = |cells: &[Value]| hash_row(cells);
        assert_eq!(
            row(&[Value::Int(3), Value::text("x")]),
            row(&[Value::Float(3.0), Value::text("x")])
        );
        assert_eq!(hash_value(&Value::Bool(true)), hash_value(&Value::Int(1)));
        assert_eq!(
            hash_value(&Value::Float(0.1 + 0.2)),
            hash_value(&Value::Float(0.3))
        );
        assert_ne!(
            row(&[Value::text("a"), Value::text("")]),
            row(&[Value::text(""), Value::text("a")])
        );
        assert_ne!(hash_value(&Value::Null), hash_value(&Value::Int(0)));
        for s in ["", "a", "raceId", "a longer text than one word"] {
            assert_eq!(hash_text(s), hash_value(&Value::text(s)), "{s:?}");
        }
    }
}
