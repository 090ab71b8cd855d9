//! Column indexes over relation instances, by pool id.
//!
//! The deductive engines join a rule body left to right; by the time a
//! literal `P(t1, …, tn)` is reached, some `ti` is very often already
//! ground under the current bindings (the idiomatic rule orders, e.g.
//! transitive closure `T(x,z) ← E(x,y), T(y,z)`, ground the first
//! position, but programs are under no obligation to). An [`IdIndex`]
//! groups a relation's tuple rows by the pool id of one component, so
//! such literals probe a hash bucket instead of scanning the whole
//! relation — turning the inner join loop from O(|rel|) to O(matches).

use crate::database::Instance;
use crate::intern::{FxBuildHasher, ObjRef, Pool};
use crate::value::Value;
use std::collections::HashMap;

/// Column `col` of a row, when the row is a tuple of arity > `col`; a
/// row that is not a tuple (a bare object) has no columns.
pub fn nth_column(row: &Value, col: usize) -> Option<&Value> {
    row.as_tuple().and_then(|items| items.get(col))
}

/// Id buckets over one relation: for each indexed column, item id → the
/// ids of the rows holding that item there, in the order the rows were
/// added (a build adds them in canonical order). Buckets hold row ids,
/// never rows; a probe reads each row's items from the pool. Rows that
/// are not tuples are left out, since no literal matches them, and a
/// tuple too short for a column is left out of that column. The
/// maintenance engine keeps one over every column of each relation it
/// reads across a session's mutations; the DATALOG¬ and COL engines keep
/// one per column a coming round probes, updated by each round's commit.
/// The owner updates it at every mutation of the relation: nothing
/// checks it against the instance.
#[derive(Debug, Default)]
pub struct IdIndex {
    cols: Vec<HashMap<ObjRef, Vec<ObjRef>, FxBuildHasher>>,
    /// The one column indexed, when not every column is.
    only: Option<usize>,
}

impl IdIndex {
    /// Index every column of every row of `rel`, interning each row once.
    pub fn build(rel: &Instance) -> IdIndex {
        IdIndex::default().filled(rel)
    }

    /// Index column `col` of every row of `rel`.
    pub fn build_on(rel: &Instance, col: usize) -> IdIndex {
        let idx = IdIndex {
            cols: Vec::new(),
            only: Some(col),
        };
        idx.filled(rel)
    }

    fn filled(mut self, rel: &Instance) -> IdIndex {
        for row in rel.iter() {
            self.insert(Pool::global().intern_once(row));
        }
        self
    }

    /// Add the row with pool id `row`; the caller adds each row once.
    pub fn insert(&mut self, row: ObjRef) {
        let Some(items) = Pool::global().tuple_items(row) else {
            return;
        };
        if self.cols.len() < items.len() {
            self.cols.resize_with(items.len(), HashMap::default);
        }
        let only = self.only;
        for (col, (bucket, &item)) in self.cols.iter_mut().zip(items.iter()).enumerate() {
            if only.is_none_or(|c| c == col) {
                bucket.entry(item).or_default().push(row);
            }
        }
    }

    /// Drop the row with pool id `row`.
    pub fn remove(&mut self, row: ObjRef) {
        let Some(items) = Pool::global().tuple_items(row) else {
            return;
        };
        for (col, &item) in self.cols.iter_mut().zip(items.iter()) {
            let Some(bucket) = col.get_mut(&item) else {
                continue;
            };
            if let Some(at) = bucket.iter().position(|&r| r == row) {
                bucket.swap_remove(at);
            }
            if bucket.is_empty() {
                col.remove(&item);
            }
        }
    }

    /// The rows holding `item` in column `col`.
    pub fn probe(&self, col: usize, item: ObjRef) -> &[ObjRef] {
        self.cols
            .get(col)
            .and_then(|c| c.get(&item))
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, tuple};

    fn rel() -> Instance {
        Instance::from_rows([
            [atom(1), atom(10)],
            [atom(1), atom(11)],
            [atom(2), atom(20)],
        ])
    }

    fn id(v: &Value) -> ObjRef {
        Pool::global().intern(v)
    }

    #[test]
    fn probe_groups_by_first_column() {
        let idx = IdIndex::build_on(&rel(), 0);
        assert_eq!(idx.probe(0, id(&atom(1))).len(), 2);
        let row = tuple([atom(2), atom(20)]);
        assert_eq!(idx.probe(0, id(&atom(2))), &[id(&row)]);
        assert!(idx.probe(0, id(&atom(3))).is_empty());
        assert!(
            idx.probe(1, id(&atom(10))).is_empty(),
            "column 1 is not built"
        );
    }

    #[test]
    fn probe_on_second_column() {
        let mut inst = rel();
        inst.insert(tuple([atom(3), atom(10)]));
        let idx = IdIndex::build_on(&inst, 1);
        assert_eq!(idx.probe(1, id(&atom(10))).len(), 2);
        let row = tuple([atom(2), atom(20)]);
        assert_eq!(idx.probe(1, id(&atom(20))), &[id(&row)]);
        assert!(
            idx.probe(1, id(&atom(1))).is_empty(),
            "keys are column 1 items"
        );
    }

    #[test]
    fn non_tuple_rows_are_not_indexed() {
        let mut idx = IdIndex::default();
        idx.insert(id(&atom(5)));
        idx.insert(id(&Value::Tuple(vec![])));
        idx.insert(id(&Value::set_of([atom(5)])));
        assert!(idx.probe(0, id(&atom(5))).is_empty());
    }

    #[test]
    fn short_tuples_are_skipped_by_higher_columns() {
        let mut inst = Instance::from_rows([[atom(1), atom(2)]]);
        inst.insert(tuple([atom(9)])); // arity 1: no column 1
        let idx = IdIndex::build(&inst);
        assert_eq!(idx.probe(0, id(&atom(9))), &[id(&tuple([atom(9)]))]);
        assert_eq!(idx.probe(1, id(&atom(2))).len(), 1);
        assert!(idx.probe(1, id(&atom(9))).is_empty());
    }

    #[test]
    fn index_set_stays_in_sync_with_inserts() {
        let mut idx = IdIndex::build_on(&rel(), 0);
        // the owner notes each new row; buckets keep insertion order
        let row = tuple([atom(1), atom(12)]);
        idx.insert(id(&row));
        let bucket = idx.probe(0, id(&atom(1)));
        assert_eq!(bucket.len(), 3);
        assert_eq!(bucket[2], id(&row), "a noted row joins its bucket last");
        idx.remove(id(&row));
        idx.remove(id(&tuple([atom(2), atom(20)])));
        assert_eq!(idx.probe(0, id(&atom(1))).len(), 2);
        assert!(
            idx.probe(0, id(&atom(2))).is_empty(),
            "an emptied bucket goes"
        );
    }

    #[test]
    fn note_insert_updates_every_built_column() {
        let mut idx = IdIndex::build(&rel());
        idx.insert(id(&tuple([atom(7), atom(10)])));
        assert_eq!(idx.probe(0, id(&atom(7))).len(), 1);
        assert_eq!(idx.probe(1, id(&atom(10))).len(), 2);
    }
}
