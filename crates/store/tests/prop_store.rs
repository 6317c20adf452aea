//! Property-based tests for the persistence layer: WAL integrity under
//! arbitrary payloads and truncation points, and model-checking the typed
//! table against an in-memory `BTreeMap`.

use imcf_store::table::Table;
use imcf_store::wal::Wal;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Every valid record of `wal`, in order.
fn records(wal: &mut Wal) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    wal.replay(|payload| {
        out.push(payload.to_vec());
        ControlFlow::Continue(())
    })
    .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of payloads round-trips through the WAL, before and
    /// after reopen.
    #[test]
    fn wal_roundtrip(payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..20)) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("p.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            prop_assert_eq!(records(&mut wal), payloads.clone());
        }
        let mut wal = Wal::open(&path).unwrap();
        prop_assert_eq!(records(&mut wal), payloads);
    }

    /// Truncating the file at any byte keeps a prefix of the records: never
    /// garbage, never reordering, and the survivors are intact.
    #[test]
    fn wal_truncation_keeps_prefix(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..10),
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("t.wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let cut = (len as f64 * cut_fraction) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();

        let mut wal = Wal::open(&path).unwrap();
        let survivors = records(&mut wal);
        prop_assert!(survivors.len() <= payloads.len());
        for (s, p) in survivors.iter().zip(payloads.iter()) {
            prop_assert_eq!(s, p);
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    tag: String,
    value: f64,
}

/// Operations for model-checking the table.
#[derive(Debug, Clone)]
enum Op {
    Insert(String, f64),
    Update(usize, f64),
    Delete(usize),
    Snapshot,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ("[a-z]{1,6}", -100.0f64..100.0).prop_map(|(t, v)| Op::Insert(t, v)),
        (0usize..16, -100.0f64..100.0).prop_map(|(i, v)| Op::Update(i, v)),
        (0usize..16).prop_map(Op::Delete),
        Just(Op::Snapshot),
        Just(Op::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The WAL-backed table behaves exactly like a BTreeMap model under any
    /// operation sequence, including snapshots and reopens.
    #[test]
    fn table_matches_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let dir = tempfile::tempdir().unwrap();
        let mut table: Table<Row> = Table::open(dir.path(), "model").unwrap();
        let mut model: BTreeMap<u64, Row> = BTreeMap::new();
        let mut ids: Vec<u64> = Vec::new();

        for op in ops {
            match op {
                Op::Insert(tag, value) => {
                    let row = Row { tag, value };
                    let id = table.insert(row.clone()).unwrap();
                    prop_assert!(model.insert(id, row).is_none(), "id reuse");
                    ids.push(id);
                }
                Op::Update(idx, value) => {
                    if ids.is_empty() { continue; }
                    let id = ids[idx % ids.len()];
                    let exists = model.contains_key(&id);
                    let row = Row { tag: "updated".into(), value };
                    let result = table.update(id, row.clone());
                    prop_assert_eq!(result.is_ok(), exists);
                    if exists {
                        model.insert(id, row);
                    }
                }
                Op::Delete(idx) => {
                    if ids.is_empty() { continue; }
                    let id = ids[idx % ids.len()];
                    let exists = model.contains_key(&id);
                    let result = table.delete(id);
                    prop_assert_eq!(result.is_ok(), exists);
                    model.remove(&id);
                }
                Op::Snapshot => {
                    table.snapshot().unwrap();
                }
                Op::Reopen => {
                    drop(table);
                    table = Table::open(dir.path(), "model").unwrap();
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        let from_table: BTreeMap<u64, Row> = table.scan().map(|(id, r)| (id, r.clone())).collect();
        prop_assert_eq!(from_table, model);
    }
}
