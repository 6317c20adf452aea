//! # imcf-store — the embedded persistence layer
//!
//! The paper's prototype keeps user configurations and sensor readings in a
//! local MariaDB instance on the Raspberry Pi (§II-A). This crate provides
//! the equivalent storage substrate as an embedded, dependency-free engine:
//!
//! * [`wal::Wal`] — an append-only, CRC-checked log file with torn-tail
//!   recovery (one segment of a table's log);
//! * [`segment::SegmentedLog`] — the v2 log: numbered segments
//!   `<table>.wal.<seq>` with a fixed seal threshold, monotonic sequence
//!   numbers, and cross-segment torn-tail recovery;
//! * [`table::Table`] — a typed table of serde rows layered on the log,
//!   with an in-memory index, durable snapshots, and compaction fanned out
//!   over `imcf-pool` workers;
//! * [`commit::SharedTable`] — a multi-writer handle whose `sync()`
//!   batches concurrent callers into one fsync (group commit);
//! * [`store::Store`] — a directory of named tables, the unit the Local
//!   Controller opens at boot.
//!
//! Durability model: every mutation is appended to the log before the
//! in-memory index is updated; [`table::Table::snapshot`] /
//! [`table::Table::compact`] persist the full state (fsync before and
//! after the publishing rename) and then truncate the log. On open, a
//! table loads the snapshot (if any) and replays the log segments in
//! sequence order, discarding any torn record at the tail and every
//! segment past a torn one — the standard redo-log recovery discipline
//! extended across segment boundaries.
//!
//! Rows are encoded as JSON with serde_json's `float_roundtrip` feature
//! enabled: without it, `f64` fields can drift by one ulp across a
//! persist/recover cycle (caught by the `table_matches_model` property
//! test).

pub mod commit;
pub mod crc32;
pub mod segment;
pub mod store;
pub mod table;
pub mod wal;

pub use commit::SharedTable;
pub use segment::{SegmentConfig, SegmentedLog};
pub use store::{Store, StoreError};
pub use table::Table;
pub use wal::{Wal, WalOp};
