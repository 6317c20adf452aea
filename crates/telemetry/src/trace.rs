//! Deterministic causal tracing and the flight recorder.
//!
//! The metrics registry answers "how many commands were dropped?"; this
//! module answers "*why* was this command dropped?". A trace is a tree of
//! spans (with parent links) plus point events, all tagged with structured
//! attributes, assembled on one thread through a scoped current-span stack
//! and handed to the global [`FlightRecorder`] when the root guard drops.
//!
//! # Determinism contract
//!
//! Trace identity and timestamps contain no wall-clock reads and no RNG:
//!
//! * [`TraceId::derive`] mixes `(seed, tick, event_index)` through the same
//!   [`splitmix64`] finalizer `imcf-pool` uses for seed derivation, so the
//!   trace a worker produces for slot *i* is identified the same way
//!   regardless of which worker ran it or how many workers exist.
//! * Span ids are derived from the trace id and a per-trace sequence
//!   number, so ids are stable across runs.
//! * Timestamps are *virtual*: a per-trace logical clock that advances by
//!   one microsecond-unit per recorded event. Exported traces are
//!   therefore byte-identical across `--jobs N`, matching the imcf-pool
//!   determinism contract, while still rendering with sensible nesting in
//!   Chrome `about:tracing` / Perfetto.
//!
//! # Cost model
//!
//! Tracing is armed per thread by [`begin`], which itself no-ops unless
//! the recorder is enabled. With no active trace on the current thread,
//! [`span`]/[`point`] are one thread-local read and one branch — call
//! sites that build attribute strings should still gate on [`active`] to
//! avoid the allocations.

use crate::registry::locked;
use crate::Counter;
use serde::Serialize;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// SplitMix64 finalizer: a bijective avalanche mix. This is the canonical
/// copy of the helper `imcf-pool` uses for `derive_seed`; it lives here so
/// trace-id derivation and task-seed derivation share one definition.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identity of one trace tree. Derived, never random.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derives a trace id from the run seed, the scheduler tick (or slot
    /// hour) and an event index disambiguating multiple traces born on
    /// the same tick. Pure in its inputs.
    pub fn derive(seed: u64, tick: u64, event_index: u64) -> TraceId {
        TraceId(splitmix64(
            splitmix64(seed ^ splitmix64(tick)) ^ event_index,
        ))
    }

    /// Fixed-width lowercase hex rendering (16 digits).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses [`TraceId::to_hex`] output.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// One completed (or snapshotted) span.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// Span id, derived from the trace id and the span sequence number.
    pub id: u64,
    /// Parent span id; `None` for the root.
    pub parent: Option<u64>,
    /// Span name, e.g. `planner.plan_slot`.
    pub name: String,
    /// Virtual start timestamp (logical microseconds since trace begin).
    pub start_ts: u64,
    /// Virtual end timestamp; `None` only while the span is still open.
    pub end_ts: Option<u64>,
    /// Structured attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// One point (instant) event attached to the span that was current when
/// it fired.
#[derive(Debug, Clone, Serialize)]
pub struct PointRecord {
    /// Enclosing span id, if any span was open.
    pub span: Option<u64>,
    /// Event name, e.g. `firewall.verdict`.
    pub name: String,
    /// Virtual timestamp.
    pub ts: u64,
    /// Structured attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// A full trace tree: the unit retained by the [`FlightRecorder`].
#[derive(Debug, Clone, Serialize)]
pub struct TraceTree {
    /// Raw trace id (see [`TraceId::to_hex`]).
    pub trace_id: u64,
    /// Human label, e.g. `tick/42`.
    pub label: String,
    /// False for mid-flight snapshots taken by an anomaly trigger.
    pub complete: bool,
    /// All spans, in open order (root first).
    pub spans: Vec<SpanRecord>,
    /// All point events, in fire order.
    pub points: Vec<PointRecord>,
}

struct ActiveTrace {
    tree: TraceTree,
    clock: u64,
    next_span_seq: u64,
    stack: Vec<usize>,
}

impl ActiveTrace {
    fn open_span(&mut self, name: &str) -> usize {
        self.next_span_seq += 1;
        let id = splitmix64(self.tree.trace_id ^ self.next_span_seq);
        let parent = self.stack.last().map(|&i| self.tree.spans[i].id);
        let ts = self.clock;
        self.clock += 1;
        self.tree.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ts: ts,
            end_ts: None,
            attrs: Vec::new(),
        });
        spans_counter().inc();
        let idx = self.tree.spans.len() - 1;
        self.stack.push(idx);
        idx
    }

    fn close_span(&mut self, idx: usize) {
        if self.tree.spans[idx].end_ts.is_some() {
            return;
        }
        let ts = self.clock;
        self.clock += 1;
        self.tree.spans[idx].end_ts = Some(ts);
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        } else {
            self.stack.retain(|&i| i != idx);
        }
    }

    /// Clone of the tree with every open span closed at the current
    /// clock, for anomaly dumps taken mid-trace.
    fn snapshot(&self) -> TraceTree {
        let mut tree = self.tree.clone();
        let mut ts = self.clock;
        for idx in self.stack.iter().rev() {
            if tree.spans[*idx].end_ts.is_none() {
                tree.spans[*idx].end_ts = Some(ts);
                ts += 1;
            }
        }
        tree.complete = false;
        tree
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

fn spans_counter() -> &'static Counter {
    static SPANS: OnceLock<Counter> = OnceLock::new();
    SPANS.get_or_init(|| crate::global().counter("trace.spans"))
}

/// True when a trace is active on the current thread. Use this to gate
/// attribute-string construction at instrumentation sites.
pub fn active() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

/// Arms tracing on the current thread for the scope of the returned
/// guard. Returns an inert guard (and records nothing) when the recorder
/// is disabled or a trace is already active on this thread. The label
/// closure only runs when a trace actually starts.
pub fn begin(id: TraceId, label: impl FnOnce() -> String) -> TraceGuard {
    if !recorder().is_enabled() {
        return TraceGuard { active: false };
    }
    ACTIVE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_some() {
            return TraceGuard { active: false };
        }
        let label = label();
        let mut trace = ActiveTrace {
            tree: TraceTree {
                trace_id: id.0,
                label: label.clone(),
                complete: false,
                spans: Vec::new(),
                points: Vec::new(),
            },
            clock: 0,
            next_span_seq: 0,
            stack: Vec::new(),
        };
        trace.open_span(&label);
        *slot = Some(trace);
        TraceGuard { active: true }
    })
}

/// Opens a span under the current one. With no active trace this is a
/// no-op costing one thread-local read and one branch.
pub fn span(name: &str) -> TraceSpan {
    ACTIVE.with(|slot| match slot.borrow_mut().as_mut() {
        None => TraceSpan { idx: None },
        Some(t) => TraceSpan {
            idx: Some(t.open_span(name)),
        },
    })
}

/// Records a point event under the current span. No-op without an
/// active trace.
pub fn point(name: &str, attrs: &[(&str, &str)]) {
    ACTIVE.with(|slot| {
        if let Some(t) = slot.borrow_mut().as_mut() {
            let ts = t.clock;
            t.clock += 1;
            let span = t.stack.last().map(|&i| t.tree.spans[i].id);
            t.tree.points.push(PointRecord {
                span,
                name: name.to_string(),
                ts,
                attrs: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            });
        }
    });
}

/// Root guard returned by [`begin`]; completing it hands the tree to the
/// flight recorder.
#[must_use = "dropping the guard immediately ends the trace"]
pub struct TraceGuard {
    active: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        ACTIVE.with(|slot| {
            if let Some(mut t) = slot.borrow_mut().take() {
                while let Some(&idx) = t.stack.last() {
                    t.close_span(idx);
                }
                t.tree.complete = true;
                recorder().retain(t.tree);
            }
        });
    }
}

/// Scoped span guard returned by [`span`].
#[must_use = "dropping the guard immediately closes the span"]
pub struct TraceSpan {
    idx: Option<usize>,
}

impl TraceSpan {
    /// Attaches a structured attribute to this span.
    pub fn attr(&self, key: &str, value: &str) {
        let Some(idx) = self.idx else { return };
        ACTIVE.with(|slot| {
            if let Some(t) = slot.borrow_mut().as_mut() {
                if let Some(span) = t.tree.spans.get_mut(idx) {
                    span.attrs.push((key.to_string(), value.to_string()));
                }
            }
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        ACTIVE.with(|slot| {
            if let Some(t) = slot.borrow_mut().as_mut() {
                t.close_span(idx);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Completed traces retained by the recorder before the oldest is evicted.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Hard cap on dump files written per process, so a trigger storm (one
/// breaker opening every tick of a long soak) cannot fill the disk.
const MAX_DUMP_FILES: u64 = 32;

/// Summary row for one retained trace (the `GET /rest/traces` listing).
#[derive(Debug, Clone, Serialize)]
pub struct TraceSummary {
    /// Hex trace id, as accepted by `GET /rest/traces?id=`.
    pub trace_id: String,
    /// Trace label.
    pub label: String,
    /// Number of spans in the tree.
    pub spans: usize,
    /// Number of point events in the tree.
    pub points: usize,
    /// Whether the tree completed normally.
    pub complete: bool,
}

/// Bounded ring of completed trace trees plus the anomaly-dump machinery.
///
/// Disabled by default: when disabled, [`begin`] returns inert guards and
/// [`FlightRecorder::trigger`] is a single atomic load.
pub struct FlightRecorder {
    enabled: AtomicBool,
    traces: Mutex<VecDeque<TraceTree>>,
    dump_dir: Mutex<Option<PathBuf>>,
    dump_seq: AtomicU64,
}

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(FlightRecorder::new)
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder {
            enabled: AtomicBool::new(false),
            traces: Mutex::new(VecDeque::new()),
            dump_dir: Mutex::new(None),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// Arms or disarms trace retention. Tests that enable the recorder
    /// should leave it enabled rather than toggling it off, since the
    /// flag is process-global.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether tracing is armed.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Directory anomaly dumps are written to; `None` disables file dumps
    /// (triggers still count in `recorder.dumps`).
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        *locked(&self.dump_dir) = dir;
    }

    /// Drops every retained trace.
    pub fn clear(&self) {
        locked(&self.traces).clear();
        self.publish_depth(0);
    }

    fn publish_depth(&self, len: usize) {
        crate::global().gauge("recorder.traces").set(len as f64);
    }

    fn retain(&self, tree: TraceTree) {
        let len = {
            let mut ring = locked(&self.traces);
            if ring.len() >= DEFAULT_TRACE_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(tree);
            ring.len()
        };
        crate::global().counter("trace.completed").inc();
        self.publish_depth(len);
    }

    /// Snapshot of every retained trace, oldest first.
    pub fn traces(&self) -> Vec<TraceTree> {
        locked(&self.traces).iter().cloned().collect()
    }

    /// Listing rows for the API, oldest first.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        locked(&self.traces)
            .iter()
            .map(|t| TraceSummary {
                trace_id: TraceId(t.trace_id).to_hex(),
                label: t.label.clone(),
                spans: t.spans.len(),
                points: t.points.len(),
                complete: t.complete,
            })
            .collect()
    }

    /// The most recent retained trace with the given id.
    pub fn trace(&self, id: TraceId) -> Option<TraceTree> {
        locked(&self.traces)
            .iter()
            .rev()
            .find(|t| t.trace_id == id.0)
            .cloned()
    }

    /// Chrome-trace JSON of every retained trace, ordered by
    /// `(label, trace_id)` so the export is independent of completion
    /// order (and therefore of worker count).
    pub fn chrome_trace_json(&self) -> String {
        chrome_json(&self.sorted_trees(), None)
    }

    /// Chrome-trace JSON of the listed traces, in the order given (the
    /// most recent tree per id; missing ids are skipped).
    pub fn chrome_trace_json_for(&self, ids: &[TraceId]) -> String {
        let trees: Vec<TraceTree> = ids.iter().filter_map(|&id| self.trace(id)).collect();
        chrome_json(&trees, None)
    }

    fn sorted_trees(&self) -> Vec<TraceTree> {
        let mut by_key: BTreeMap<(String, u64), TraceTree> = BTreeMap::new();
        for tree in locked(&self.traces).iter() {
            by_key.insert((tree.label.clone(), tree.trace_id), tree.clone());
        }
        by_key.into_values().collect()
    }

    /// Anomaly trigger: counts the event and, when a dump directory is
    /// configured, writes a Chrome-trace JSON dump of every retained
    /// trace plus a snapshot of the trace active on the calling thread
    /// (the one the anomaly interrupted). Returns the dump path when a
    /// file was written. No-op while the recorder is disabled.
    pub fn trigger(&self, reason: &str) -> Option<PathBuf> {
        if !self.is_enabled() {
            return None;
        }
        crate::global()
            .counter_with("recorder.dumps", &[("trigger", reason)])
            .inc();
        let dir = locked(&self.dump_dir).clone()?;
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        if seq >= MAX_DUMP_FILES {
            return None;
        }
        let mut trees = self.sorted_trees();
        ACTIVE.with(|slot| {
            if let Some(t) = slot.borrow().as_ref() {
                trees.push(t.snapshot());
            }
        });
        let path = dir.join(format!("trace-dump-{seq:04}-{reason}.json"));
        std::fs::write(&path, chrome_json(&trees, Some(reason))).ok()?;
        Some(path)
    }
}

/// Installs a panic hook that fires the `panic` anomaly trigger before
/// delegating to the previous hook. Installs at most once per process.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            recorder().trigger("panic");
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------------

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn args_object(
    trace_hex: &str,
    span: Option<u64>,
    parent: Option<u64>,
    attrs: &[(String, String)],
) -> serde_json::Value {
    let mut fields: Vec<(String, serde_json::Value)> = vec![(
        "trace".to_string(),
        serde_json::Value::String(trace_hex.to_string()),
    )];
    if let Some(id) = span {
        fields.push(("span".to_string(), serde_json::Value::String(hex16(id))));
    }
    if let Some(id) = parent {
        fields.push(("parent".to_string(), serde_json::Value::String(hex16(id))));
    }
    for (k, v) in attrs {
        fields.push((k.clone(), serde_json::Value::String(v.clone())));
    }
    serde_json::Value::Object(fields)
}

fn chrome_events(tree: &TraceTree, tid: u64, out: &mut Vec<serde_json::Value>) {
    let trace_hex = TraceId(tree.trace_id).to_hex();
    let mut events: Vec<(u64, serde_json::Value)> = Vec::new();
    for span in &tree.spans {
        let end = span.end_ts.unwrap_or(span.start_ts + 1);
        let mut attrs = span.attrs.clone();
        if span.parent.is_none() {
            attrs.push(("label".to_string(), tree.label.clone()));
        }
        let value = serde_json::Value::Object(vec![
            ("name".to_string(), serde_json::to_value(&span.name)),
            ("cat".to_string(), serde_json::to_value("imcf")),
            ("ph".to_string(), serde_json::to_value("X")),
            ("ts".to_string(), serde_json::to_value(&span.start_ts)),
            (
                "dur".to_string(),
                serde_json::to_value(&end.saturating_sub(span.start_ts)),
            ),
            ("pid".to_string(), serde_json::to_value(&1u64)),
            ("tid".to_string(), serde_json::to_value(&tid)),
            (
                "args".to_string(),
                args_object(&trace_hex, Some(span.id), span.parent, &attrs),
            ),
        ]);
        events.push((span.start_ts, value));
    }
    for pt in &tree.points {
        let value = serde_json::Value::Object(vec![
            ("name".to_string(), serde_json::to_value(&pt.name)),
            ("cat".to_string(), serde_json::to_value("imcf")),
            ("ph".to_string(), serde_json::to_value("i")),
            ("ts".to_string(), serde_json::to_value(&pt.ts)),
            ("pid".to_string(), serde_json::to_value(&1u64)),
            ("tid".to_string(), serde_json::to_value(&tid)),
            ("s".to_string(), serde_json::to_value("t")),
            (
                "args".to_string(),
                args_object(&trace_hex, pt.span, None, &pt.attrs),
            ),
        ]);
        events.push((pt.ts, value));
    }
    // The per-trace virtual clock gives every record a distinct ts, so
    // this sort is total and the per-track order is strictly increasing.
    events.sort_by_key(|(ts, _)| *ts);
    out.extend(events.into_iter().map(|(_, v)| v));
}

fn chrome_json(trees: &[TraceTree], trigger: Option<&str>) -> String {
    let mut events = Vec::new();
    for (i, tree) in trees.iter().enumerate() {
        chrome_events(tree, i as u64 + 1, &mut events);
    }
    let mut fields = vec![("traceEvents".to_string(), serde_json::Value::Array(events))];
    if let Some(reason) = trigger {
        fields.push((
            "trigger".to_string(),
            serde_json::Value::String(reason.to_string()),
        ));
    }
    serde_json::to_string(&serde_json::Value::Object(fields)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enable() {
        recorder().set_enabled(true);
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::derive(7, 3, 0);
        assert_eq!(a, TraceId::derive(7, 3, 0));
        assert_ne!(a, TraceId::derive(7, 3, 1));
        assert_ne!(a, TraceId::derive(7, 4, 0));
        assert_ne!(a, TraceId::derive(8, 3, 0));
        assert_eq!(TraceId::from_hex(&a.to_hex()), Some(a));
        assert_eq!(TraceId::from_hex("not hex"), None);
    }

    #[test]
    fn spans_nest_with_parent_links_and_virtual_clock() {
        enable();
        let id = TraceId::derive(1, 1, 100);
        {
            let _t = begin(id, || "unit/nest".to_string());
            let outer = span("outer");
            outer.attr("k", "v");
            {
                let _inner = span("inner");
                point("evt", &[("x", "1")]);
            }
        }
        let tree = recorder().trace(id).unwrap();
        assert!(tree.complete);
        assert_eq!(tree.spans.len(), 3, "root + outer + inner");
        let root = &tree.spans[0];
        let outer = &tree.spans[1];
        let inner = &tree.spans[2];
        assert_eq!(root.parent, None);
        assert_eq!(outer.parent, Some(root.id));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.attrs, vec![("k".to_string(), "v".to_string())]);
        assert_eq!(tree.points.len(), 1);
        assert_eq!(tree.points[0].span, Some(inner.id));
        // Virtual clock: strictly increasing, starts at zero.
        assert_eq!(root.start_ts, 0);
        assert!(inner.start_ts < tree.points[0].ts);
        assert!(tree.points[0].ts < inner.end_ts.unwrap());
        assert!(inner.end_ts.unwrap() < outer.end_ts.unwrap());
        assert!(outer.end_ts.unwrap() < root.end_ts.unwrap());
    }

    #[test]
    fn identical_traces_are_byte_identical_regardless_of_thread() {
        enable();
        let id = TraceId::derive(9, 5, 7);
        let run = move || {
            let _t = begin(id, || "unit/xthread".to_string());
            let s = span("work");
            s.attr("n", "42");
            point("decision", &[("adopt", "yes")]);
            drop(s);
            drop(_t);
            recorder().chrome_trace_json_for(&[id])
        };
        let a = std::thread::spawn(run).join().unwrap();
        let b = run();
        assert_eq!(a, b, "same trace on different threads must export alike");
        assert!(a.contains("\"traceEvents\""));
    }

    #[test]
    fn no_op_paths_without_active_trace() {
        assert!(!active());
        let s = span("ignored");
        s.attr("k", "v");
        point("ignored", &[]);
        drop(s);
        assert!(!active());
    }

    #[test]
    fn begin_is_inert_while_disabled_or_nested() {
        enable();
        let id = TraceId::derive(2, 2, 2);
        let _outer = begin(id, || "unit/outer".to_string());
        assert!(active());
        // Nested begin must not clobber the active trace.
        let inner = begin(TraceId::derive(2, 2, 3), || "unit/inner".to_string());
        drop(inner);
        assert!(active(), "nested begin must leave the outer trace active");
    }

    #[test]
    fn chrome_export_round_trips_with_valid_schema() {
        enable();
        let id = TraceId::derive(11, 0, 0);
        {
            let _t = begin(id, || "unit/schema".to_string());
            let s = span("stage");
            point("mark", &[("why", "test")]);
            drop(s);
        }
        let json = recorder().chrome_trace_json_for(&[id]);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = value.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        assert!(events.len() >= 3, "root span + stage span + point");
        let mut last_ts_by_tid: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in events {
            let name = ev.get("name").and_then(|v| v.as_str()).unwrap();
            assert!(!name.is_empty());
            let ph = ev.get("ph").and_then(|v| v.as_str()).unwrap();
            assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
            let ts = match ev.get("ts").unwrap() {
                serde_json::Value::Number(n) => n.as_f64() as u64,
                other => panic!("ts must be a number, got {other:?}"),
            };
            let tid = match ev.get("tid").unwrap() {
                serde_json::Value::Number(n) => n.as_f64() as u64,
                other => panic!("tid must be a number, got {other:?}"),
            };
            assert!(ev.get("pid").is_some());
            if let Some(prev) = last_ts_by_tid.insert(tid, ts) {
                assert!(ts > prev, "timestamps must increase per track");
            }
        }
    }

    #[test]
    fn trigger_writes_perfetto_loadable_dump() {
        enable();
        let dir = tempfile::tempdir().unwrap();
        recorder().set_dump_dir(Some(dir.path().to_path_buf()));
        let id = TraceId::derive(21, 9, 0);
        let path = {
            let _t = begin(id, || "unit/dump".to_string());
            let _s = span("mid-flight");
            recorder().trigger("explicit").expect("dump path")
        };
        recorder().set_dump_dir(None);
        let text = std::fs::read_to_string(&path).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            value.get("trigger").and_then(|v| v.as_str()),
            Some("explicit")
        );
        let events = value.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        // The mid-flight snapshot of unit/dump must be part of the dump.
        assert!(events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("label"))
                .and_then(|v| v.as_str())
                == Some("unit/dump")
        }));
    }

    #[test]
    fn panic_hook_fires_dump_trigger() {
        enable();
        install_panic_hook();
        let before = crate::global()
            .counter_with("recorder.dumps", &[("trigger", "panic")])
            .get();
        let result = std::panic::catch_unwind(|| panic!("trace-test panic"));
        assert!(result.is_err());
        let after = crate::global()
            .counter_with("recorder.dumps", &[("trigger", "panic")])
            .get();
        assert!(after > before, "panic trigger must count a dump");
    }

    #[test]
    fn ring_is_bounded() {
        // A private recorder so the flood cannot evict traces other
        // concurrently running tests are about to read back.
        let local = FlightRecorder::new();
        for i in 0..(DEFAULT_TRACE_CAPACITY as u64 + 8) {
            local.retain(TraceTree {
                trace_id: i,
                label: format!("unit/ring/{i}"),
                complete: true,
                spans: Vec::new(),
                points: Vec::new(),
            });
        }
        assert_eq!(local.traces().len(), DEFAULT_TRACE_CAPACITY);
        // Oldest evicted first.
        assert_eq!(local.traces()[0].trace_id, 8);
    }
}
