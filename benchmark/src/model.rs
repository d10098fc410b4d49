//! The sequential model the 1-worker KV sections are replayed on, off the
//! clock: a `BTreeMap` given the same generated requests in the same
//! order must return the same values and end in the same state.

use std::collections::BTreeMap;

use crate::surface::KvOp;

/// Marks "no value" in a result fold (planned values are ≤ 10^6).
const ABSENT: u64 = u64::MAX;

/// Folds one returned value into a running checksum (order-dependent).
#[inline]
pub fn fold(acc: u64, value: u64) -> u64 {
    (acc.rotate_left(7) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[inline]
pub fn fold_opt(acc: u64, value: Option<u64>) -> u64 {
    fold(acc, value.unwrap_or(ABSENT))
}

pub struct Model {
    map: BTreeMap<u64, u64>,
    /// Self-test hook: the next looked-up value is reported off by one.
    flip_next_get: bool,
}

impl Model {
    /// Every key of `0..key_space` present with `initial`, as
    /// `KvService::new` seeds it.
    pub fn seeded(key_space: u64, initial: u64) -> Model {
        Model {
            map: (0..key_space).map(|k| (k, initial)).collect(),
            flip_next_get: false,
        }
    }

    pub fn flip_one_expected_value(&mut self) {
        self.flip_next_get = true;
    }

    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// Applies `op` and folds what the service must have returned.
    pub fn apply(&mut self, acc: u64, op: &KvOp) -> u64 {
        match *op {
            KvOp::Get { key } => {
                let mut value = self.map.get(&key).copied();
                if self.flip_next_get && value.is_some() {
                    self.flip_next_get = false;
                    value = value.map(|v| v ^ 1);
                }
                fold_opt(acc, value)
            }
            KvOp::Put { key, value } => fold(acc, self.map.insert(key, value).is_none() as u64),
            KvOp::Delete { key } => fold_opt(acc, self.map.remove(&key)),
            KvOp::MultiGet { a, b } => {
                let acc = fold_opt(acc, self.map.get(&a).copied());
                fold_opt(acc, self.map.get(&b).copied())
            }
            // `KvWorker::transfer` with both accounts present.
            KvOp::Transfer { from, to, amount } => {
                let applied = match (self.map.get(&from).copied(), self.map.get(&to).copied()) {
                    (Some(have), Some(_)) if have >= amount => {
                        if from != to {
                            *self.map.get_mut(&from).expect("present") -= amount;
                            *self.map.get_mut(&to).expect("present") += amount;
                        }
                        true
                    }
                    _ => false,
                };
                fold(acc, applied as u64)
            }
        }
    }

    /// Keys on which `snapshot` (sorted by key) and the model disagree.
    pub fn differing_keys(&self, snapshot: &[(u64, u64)]) -> u64 {
        let mut differing = 0u64;
        let mut theirs = snapshot.iter().peekable();
        for (&k, &v) in &self.map {
            while theirs.peek().is_some_and(|&&(tk, _)| tk < k) {
                differing += 1;
                theirs.next();
            }
            match theirs.peek() {
                Some(&&(tk, tv)) if tk == k => {
                    differing += (tv != v) as u64;
                    theirs.next();
                }
                _ => differing += 1,
            }
        }
        differing + theirs.count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_follows_map_semantics_and_spots_differences() {
        let mut m = Model::seeded(4, 100);
        let mut acc = 0;
        acc = m.apply(acc, &KvOp::Put { key: 1, value: 5 });
        acc = m.apply(acc, &KvOp::Delete { key: 2 });
        acc = m.apply(acc, &KvOp::Get { key: 2 });
        let expected = fold_opt(fold_opt(fold(0, 0), Some(100)), None);
        assert_eq!(acc, expected);
        assert_eq!(m.len(), 3);
        assert_eq!(m.differing_keys(&[(0, 100), (1, 5), (3, 100)]), 0);
        assert_eq!(m.differing_keys(&[(0, 100), (1, 6), (2, 1), (3, 100)]), 2);
        assert_eq!(m.differing_keys(&[(1, 5)]), 2);
    }

    #[test]
    fn a_flipped_expected_value_changes_the_fold() {
        let (mut a, mut b) = (Model::seeded(2, 100), Model::seeded(2, 100));
        b.flip_one_expected_value();
        let op = KvOp::Get { key: 0 };
        assert_ne!(a.apply(0, &op), b.apply(0, &op));
        assert_eq!(
            a.apply(0, &op),
            b.apply(0, &op),
            "only one value is flipped"
        );
    }
}
