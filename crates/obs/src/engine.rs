//! The observability engine: registry sampler, series store, range
//! queries, alert evaluation and window persistence.
//!
//! One [`ObsEngine`] instance sits next to a controller. Each call to
//! [`ObsEngine::observe`] snapshots the telemetry registry at a virtual
//! tick, delta-encodes every metric into its [`SeriesRing`] (histograms
//! expand into `:count`, `:sum` and `:le:<bound>` sub-series), evaluates
//! the alert rules, and every 64 samples appends each series' raw window
//! to the `tsdb` table and the engine state to `tsdb_meta`. Both logs only
//! append; a restart restores each series from its newest window and the
//! engine from its newest state row. Everything is keyed on the virtual
//! clock — no wall time — so the same tick sequence produces the same
//! series, the same alert transitions and the same persisted windows on
//! any worker layout.

use crate::alert::{self, AlertError, AlertExpr, AlertRule, AlertState, Transition};
use crate::series::{Point, SeriesKind, SeriesRing};
use imcf_store::{Change, Log};
use imcf_telemetry::{quantile_from_buckets, Counter, Gauge, MetricView, Registry};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Sample every N virtual ticks.
const INTERVAL_TICKS: u64 = 1;
/// Evicted raw points folded into one coarse block.
const DOWNSAMPLE_EVERY: usize = 8;
/// Coarse blocks retained per series.
const COARSE_CAPACITY: usize = 256;
/// Persist windows every N samples (an engine without a store directory
/// persists nothing).
const PERSIST_EVERY: u64 = 64;

/// Sampler tuning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Raw points retained per series.
    pub capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { capacity: 512 }
    }
}

/// One persisted raw window of a series (a row in the `tsdb` table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesWindow {
    pub series: String,
    pub kind: SeriesKind,
    pub start_tick: u64,
    pub end_tick: u64,
    /// Delta-encoded points as stored in the ring.
    pub points: Vec<Point>,
    /// Counter delta-encoding state, carried so a restart never double
    /// counts (`None` for gauges).
    pub last_raw: Option<f64>,
    pub base: f64,
}

/// Engine state persisted alongside windows (one row appended to the
/// `tsdb_meta` table per persist pass) so a restart resumes sampling and
/// alerting where the previous process stopped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsState {
    pub last_sample_tick: Option<u64>,
    pub samples: u64,
    /// Alert machine positions by rule name.
    pub alerts: Vec<(String, AlertState)>,
}

/// Why a query failed, mapped by the API layer onto 400/404.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Malformed parameters (unknown `fn`, bad number, gauge rate, ...).
    BadRequest(String),
    /// The series does not exist (yet).
    UnknownSeries(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::BadRequest(msg) => write!(f, "bad query: {msg}"),
            QueryError::UnknownSeries(series) => write!(f, "unknown series: {series}"),
        }
    }
}

impl std::error::Error for QueryError {}

struct RuleRuntime {
    rule: AlertRule,
    state: AlertState,
    last_value: Option<f64>,
    fired_count: u64,
    /// `"{series}:count"`, precomputed so per-tick evaluation of a rule
    /// whose series is absent (or a histogram shorthand) never allocates.
    count_key: String,
}

impl RuleRuntime {
    fn new(rule: AlertRule) -> RuleRuntime {
        let count_key = format!("{}:count", rule.expr.series());
        RuleRuntime {
            rule,
            state: AlertState::Inactive,
            last_value: None,
            fired_count: 0,
            count_key,
        }
    }
}

/// Registry handles the engine publishes into on every sample. Resolved
/// once and keyed by the registry's address: an engine observes one
/// registry for its lifetime, so steady-state ticks skip the name lookup
/// (which allocates a `MetricKey`) entirely.
struct SelfHandles {
    registry_addr: usize,
    samples: Counter,
    series: Gauge,
    evictions: Counter,
    firing: Gauge,
}

struct Storage {
    windows: Log<SeriesWindow>,
    meta: Log<ObsState>,
}

/// Counters the engine keeps about itself, surfaced via `imcf doctor`
/// and `obs_bench`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ObsStats {
    pub samples: u64,
    pub series: u64,
    pub evictions: u64,
    pub windows_persisted: u64,
    /// Always 0: persistence only appends. Kept while `benchmark/` reports
    /// it as `obs.windows_deleted`.
    pub windows_deleted: u64,
    pub storage_errors: u64,
    pub alert_transitions: u64,
    pub alerts_fired: u64,
}

/// The in-process time-series + alerting engine.
pub struct ObsEngine {
    config: ObsConfig,
    series: BTreeMap<String, SeriesRing>,
    /// Histogram bucket bounds by histogram series key, refreshed each
    /// sample (quantile queries need them to rebuild the distribution).
    bounds: BTreeMap<String, Vec<f64>>,
    rules: Vec<RuleRuntime>,
    last_sample_tick: Option<u64>,
    samples: u64,
    evictions_published: u64,
    stats: ObsStats,
    storage: Option<Storage>,
    self_handles: Option<SelfHandles>,
    /// Reused buffer of per-rule expression values (one slot per rule).
    eval_scratch: Vec<Option<f64>>,
    /// The alert edges of the latest `observe`, as (rule index, edge).
    edges: Vec<(usize, Transition)>,
}

/// Appends the `{k=v,...}` label suffix (nothing when unlabeled).
fn append_labels(key: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
}

/// Builds the full series key into a reusable scratch string: dotted
/// name, then the `:count` / `:sum` / `:le:<bound>` sub-series suffix,
/// then `{k=v,...}` when labeled — suffix before labels keeps the key
/// parseable by [`alert::base_metric`].
fn build_key(key: &mut String, name: &str, suffix: &str, labels: &[(String, String)]) {
    key.clear();
    key.push_str(name);
    key.push_str(suffix);
    append_labels(key, labels);
}

/// Formats an f64 bound the same way everywhere so bucket sub-series keys
/// are stable.
fn bound_token(bound: f64) -> String {
    format!("{bound}")
}

impl ObsEngine {
    /// An engine with no persistence.
    pub fn in_memory(config: ObsConfig, rules: Vec<AlertRule>) -> Result<ObsEngine, AlertError> {
        alert::validate_rules(&rules)?;
        Ok(ObsEngine {
            config,
            series: BTreeMap::new(),
            bounds: BTreeMap::new(),
            rules: rules.into_iter().map(RuleRuntime::new).collect(),
            last_sample_tick: None,
            samples: 0,
            evictions_published: 0,
            stats: ObsStats::default(),
            storage: None,
            self_handles: None,
            eval_scratch: Vec::new(),
            edges: Vec::new(),
        })
    }

    /// An engine persisting windows under `dir` (tables `tsdb` and
    /// `tsdb_meta`), restoring any previous state found there.
    pub fn open(
        dir: impl AsRef<Path>,
        config: ObsConfig,
        rules: Vec<AlertRule>,
    ) -> Result<ObsEngine, ObsOpenError> {
        let mut engine = ObsEngine::in_memory(config, rules).map_err(ObsOpenError::Rules)?;
        let store = |e: imcf_store::table::TableError| ObsOpenError::Store(e.to_string());

        // Fold each log as it replays, keeping only the newest row: each
        // series' ring is rebuilt from its newest window, the engine from
        // its newest state row. Deletes, which older stores wrote to drop
        // old windows, never touch the newest window.
        let mut newest: BTreeMap<String, SeriesWindow> = BTreeMap::new();
        let windows = Log::<SeriesWindow>::open(&dir, "tsdb", |change| {
            if let Change::Put(_, row) = change {
                match newest.get_mut(&row.series) {
                    Some(slot) => *slot = row,
                    None => {
                        newest.insert(row.series.clone(), row);
                    }
                }
            }
        })
        .map_err(store)?;
        for (series, row) in newest {
            let ring = SeriesRing::restore(
                row.kind,
                engine.config.capacity,
                DOWNSAMPLE_EVERY,
                COARSE_CAPACITY,
                row.points,
                row.last_raw,
                row.base,
            );
            engine.series.insert(series, ring);
        }

        let mut state = None;
        let meta = Log::<ObsState>::open(&dir, "tsdb_meta", |change| {
            if let Change::Put(_, row) = change {
                state = Some(row);
            }
        })
        .map_err(store)?;
        if let Some(state) = state {
            engine.last_sample_tick = state.last_sample_tick;
            engine.samples = state.samples;
            engine.stats.samples = state.samples;
            for (name, saved) in &state.alerts {
                if let Some(rt) = engine.rules.iter_mut().find(|rt| rt.rule.name == *name) {
                    rt.state = *saved;
                }
            }
        }

        engine.storage = Some(Storage { windows, meta });
        Ok(engine)
    }

    pub fn stats(&self) -> ObsStats {
        let mut stats = self.stats;
        stats.series = self.series.len() as u64;
        stats.evictions = self.total_evictions();
        stats
    }

    fn total_evictions(&self) -> u64 {
        self.series.values().map(|r| r.evictions()).sum()
    }

    /// The alert edges the latest [`ObsEngine::observe`] took, as
    /// `(rule name, edge)` in rule order. Every `observe` call clears them
    /// first, so the engine keeps no edge history; a caller that wants one
    /// collects it.
    pub fn edges(&self) -> impl Iterator<Item = (&str, Transition)> + '_ {
        self.edges
            .iter()
            .map(|&(rule, edge)| (self.rules[rule].rule.name.as_str(), edge))
    }

    /// The tick of the most recent sample.
    pub fn last_tick(&self) -> Option<u64> {
        self.last_sample_tick
    }

    /// All series keys, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.series.keys().cloned().collect()
    }

    /// Samples the registry at `tick` if the sampling interval has
    /// elapsed. Returns `true` when a sample was taken.
    pub fn observe(&mut self, tick: u64, registry: &Registry) -> bool {
        self.edges.clear();
        let due = match self.last_sample_tick {
            None => true,
            Some(last) => tick >= last.saturating_add(INTERVAL_TICKS),
        };
        if !due {
            return false;
        }
        self.bind_self_handles(registry);
        self.sample(tick, registry);
        self.evaluate_alerts(tick, registry);
        self.publish_self_metrics();
        self.samples += 1;
        self.stats.samples = self.samples;
        self.last_sample_tick = Some(tick);
        if self.samples.is_multiple_of(PERSIST_EVERY) {
            self.persist();
        }
        true
    }

    /// Pushes one reading into the ring for `key`, creating the ring
    /// (and only then owning the key string) on first sight. Steady-state
    /// ticks take the borrowed-lookup path — no allocation per series.
    fn push_sample(&mut self, key: &str, kind: SeriesKind, tick: u64, value: f64) {
        if let Some(ring) = self.series.get_mut(key) {
            ring.push(tick, value);
            return;
        }
        let mut ring = SeriesRing::new(
            kind,
            self.config.capacity,
            DOWNSAMPLE_EVERY,
            COARSE_CAPACITY,
        );
        ring.push(tick, value);
        self.series.insert(key.to_string(), ring);
    }

    /// Samples every registry metric through the allocation-free
    /// [`MetricView`] visitor. A single scratch string is reused for key
    /// building across the whole visit, so a steady-state sample costs
    /// ring pushes plus atomic loads — no snapshot vectors, no quantile
    /// digests, no per-series strings.
    fn sample(&mut self, tick: u64, registry: &Registry) {
        use std::fmt::Write as _;

        let mut scratch = String::new();
        registry.visit_metrics(|name, labels, view| match view {
            MetricView::Counter(total) => {
                build_key(&mut scratch, name, "", labels);
                self.push_sample(&scratch, SeriesKind::Counter, tick, total as f64);
            }
            MetricView::Gauge(value) => {
                build_key(&mut scratch, name, "", labels);
                self.push_sample(&scratch, SeriesKind::Gauge, tick, value);
            }
            MetricView::Histogram(h) => {
                build_key(&mut scratch, name, ":count", labels);
                self.push_sample(&scratch, SeriesKind::Counter, tick, h.count() as f64);
                build_key(&mut scratch, name, ":sum", labels);
                self.push_sample(&scratch, SeriesKind::Counter, tick, h.sum());
                build_key(&mut scratch, name, "", labels);
                if !self.bounds.contains_key(scratch.as_str()) {
                    self.bounds
                        .insert(scratch.clone(), h.bucket_bounds().to_vec());
                }
                let mut cumulative = 0u64;
                for (i, bound) in h.bucket_bounds().iter().enumerate() {
                    cumulative += h.bucket_count(i);
                    scratch.clear();
                    scratch.push_str(name);
                    scratch.push_str(":le:");
                    let _ = write!(scratch, "{bound}");
                    append_labels(&mut scratch, labels);
                    self.push_sample(&scratch, SeriesKind::Counter, tick, cumulative as f64);
                }
            }
        });
    }

    /// Resolves (or re-resolves, if `observe` was handed a different
    /// registry) the handles for the engine's own metrics. The cache is
    /// keyed by registry address only — if a registry were dropped and a
    /// new one allocated at the same address, the self metrics would keep
    /// feeding the orphaned atomics. An engine pairs with one registry
    /// for its lifetime, so the trade is safe and saves four name
    /// lookups (each allocating a `MetricKey`) per sample.
    fn bind_self_handles(&mut self, registry: &Registry) {
        let addr = registry as *const Registry as usize;
        if self
            .self_handles
            .as_ref()
            .is_some_and(|h| h.registry_addr == addr)
        {
            return;
        }
        self.self_handles = Some(SelfHandles {
            registry_addr: addr,
            samples: registry.counter("obs.samples"),
            series: registry.gauge("obs.series"),
            evictions: registry.counter("obs.evictions"),
            firing: registry.gauge("alerts.firing"),
        });
    }

    /// Reports the engine's own counters into the sampled registry so the
    /// observability plane observes itself (visible from the next sample).
    fn publish_self_metrics(&mut self) {
        let evictions = self.total_evictions();
        let newly = evictions.saturating_sub(self.evictions_published);
        self.evictions_published = evictions;
        let series_len = self.series.len() as f64;
        if let Some(h) = &self.self_handles {
            h.samples.inc();
            h.series.set(series_len);
            if newly > 0 {
                h.evictions.add(newly);
            }
        }
    }

    fn evaluate_alerts(&mut self, tick: u64, registry: &Registry) {
        // Evaluate expressions against the series maps first (immutable
        // borrow), then apply state transitions. The value buffer is
        // reused across ticks.
        let mut values = std::mem::take(&mut self.eval_scratch);
        values.clear();
        values.extend(self.rules.iter().map(|rt| self.eval_expr(rt, tick)));
        let mut firing = 0u64;
        for (i, (rt, value)) in self
            .rules
            .iter_mut()
            .zip(values.iter().copied())
            .enumerate()
        {
            rt.last_value = value;
            let breach = value.map(|v| rt.rule.cmp.holds(v, rt.rule.threshold)) == Some(true);
            let (next, edge) = alert::step(rt.state, breach, tick, rt.rule.for_ticks);
            rt.state = next;
            if let Some(edge) = edge {
                self.edges.push((i, edge));
                self.stats.alert_transitions += 1;
                registry
                    .counter_with(
                        "alerts.transitions",
                        &[("alert", rt.rule.name.as_str()), ("to", edge.label())],
                    )
                    .inc();
                if edge == Transition::ToFiring {
                    rt.fired_count += 1;
                    self.stats.alerts_fired += 1;
                    // Snapshot recent causal traces at the moment the
                    // alert fires (no-op while the recorder is off).
                    imcf_telemetry::trace::recorder().trigger(&format!("alert:{}", rt.rule.name));
                }
            }
            if matches!(rt.state, AlertState::Firing(_)) {
                firing += 1;
            }
        }
        self.eval_scratch = values;
        if let Some(h) = &self.self_handles {
            h.firing.set(firing as f64);
        }
    }

    fn eval_expr(&self, rt: &RuleRuntime, now: u64) -> Option<f64> {
        match &rt.rule.expr {
            AlertExpr::Value(series) => self.lookup(series)?.value(),
            AlertExpr::Rate(series, window) => Some(
                self.counter_ring_with(series, &rt.count_key)?
                    .rate(now, *window),
            ),
            AlertExpr::Increase(series, window) => Some(
                self.counter_ring_with(series, &rt.count_key)?
                    .increase(now, *window),
            ),
            AlertExpr::Quantile(series, q, window) => {
                self.quantile_over_time(series, *q, *window, now)
            }
        }
    }

    fn lookup(&self, series: &str) -> Option<&SeriesRing> {
        self.series.get(series)
    }

    /// Resolves a counter series, accepting a bare histogram name as a
    /// shorthand for its `:count` sub-series.
    fn counter_ring(&self, series: &str) -> Option<&SeriesRing> {
        if let Some(ring) = self.series.get(series) {
            return (ring.kind() == SeriesKind::Counter).then_some(ring);
        }
        self.series
            .get(&format!("{series}:count"))
            .filter(|r| r.kind() == SeriesKind::Counter)
    }

    /// [`ObsEngine::counter_ring`] with the `:count` fallback key already
    /// built — the allocation-free path for per-tick alert evaluation.
    fn counter_ring_with(&self, series: &str, count_key: &str) -> Option<&SeriesRing> {
        if let Some(ring) = self.series.get(series) {
            return (ring.kind() == SeriesKind::Counter).then_some(ring);
        }
        self.series
            .get(count_key)
            .filter(|r| r.kind() == SeriesKind::Counter)
    }

    /// `quantile_over_time`: rebuilds the bucket distribution from the
    /// per-bucket increases over the window and reuses the shared
    /// [`quantile_from_buckets`] estimator.
    pub fn quantile_over_time(&self, series: &str, q: f64, window: u64, now: u64) -> Option<f64> {
        let bounds = self.bounds.get(series)?;
        let (name, labels) = split_label_suffix(series);
        let mut cumulative: Vec<f64> = Vec::with_capacity(bounds.len());
        for bound in bounds {
            let le_key = format!("{name}:le:{}{labels}", bound_token(*bound));
            let ring = self.series.get(&le_key)?;
            cumulative.push(ring.increase(now, window).max(0.0));
        }
        let total = self
            .counter_ring(series)
            .map(|r| r.increase(now, window).max(0.0))
            .unwrap_or_else(|| cumulative.last().copied().unwrap_or(0.0));
        // Cumulative per-bound -> per-bucket counts plus trailing overflow.
        let mut counts: Vec<u64> = Vec::with_capacity(bounds.len() + 1);
        let mut prev = 0.0f64;
        for c in &cumulative {
            counts.push((c - prev).max(0.0).round() as u64);
            prev = *c;
        }
        counts.push((total - prev).max(0.0).round() as u64);
        Some(quantile_from_buckets(bounds, &counts, q))
    }

    /// Current value of a series (counter total / gauge level).
    pub fn value(&self, series: &str) -> Result<f64, QueryError> {
        let ring = self
            .lookup(series)
            .ok_or_else(|| QueryError::UnknownSeries(series.to_string()))?;
        ring.value()
            .ok_or_else(|| QueryError::UnknownSeries(series.to_string()))
    }

    /// Counter increase over the trailing window ending at the last
    /// sample tick.
    pub fn increase(&self, series: &str, window: u64) -> Result<f64, QueryError> {
        let now = self.now_or_zero();
        let ring = self.require_counter(series)?;
        Ok(ring.increase(now, window))
    }

    /// Per-tick counter rate over the trailing window.
    pub fn rate(&self, series: &str, window: u64) -> Result<f64, QueryError> {
        let now = self.now_or_zero();
        let ring = self.require_counter(series)?;
        Ok(ring.rate(now, window))
    }

    /// Raw retained points of a series (counters: per-sample increments).
    pub fn points(&self, series: &str) -> Result<Vec<Point>, QueryError> {
        let ring = self
            .lookup(series)
            .ok_or_else(|| QueryError::UnknownSeries(series.to_string()))?;
        Ok(ring.raw_points())
    }

    fn now_or_zero(&self) -> u64 {
        self.last_sample_tick.unwrap_or(0)
    }

    fn require_counter(&self, series: &str) -> Result<&SeriesRing, QueryError> {
        match self.counter_ring(series) {
            Some(ring) => Ok(ring),
            None => {
                if self.series.contains_key(series) {
                    Err(QueryError::BadRequest(format!(
                        "series {series:?} is a gauge; rate/increase need a counter"
                    )))
                } else {
                    Err(QueryError::UnknownSeries(series.to_string()))
                }
            }
        }
    }

    fn persist(&mut self) {
        let Some(storage) = &mut self.storage else {
            return;
        };
        for (name, ring) in &self.series {
            let points = ring.raw_points();
            let window = SeriesWindow {
                series: name.clone(),
                kind: ring.kind(),
                start_tick: points.first().map(|p| p.0).unwrap_or(0),
                end_tick: points.last().map(|p| p.0).unwrap_or(0),
                points,
                last_raw: ring.last_raw(),
                base: ring.base(),
            };
            match storage.windows.insert(&window) {
                Ok(_) => self.stats.windows_persisted += 1,
                Err(_) => self.stats.storage_errors += 1,
            }
        }
        let state = ObsState {
            last_sample_tick: self.last_sample_tick,
            samples: self.samples,
            alerts: self
                .rules
                .iter()
                .map(|rt| (rt.rule.name.clone(), rt.state))
                .collect(),
        };
        if storage.meta.insert(&state).is_err() {
            self.stats.storage_errors += 1;
        }
        if storage.windows.sync().is_err() || storage.meta.sync().is_err() {
            self.stats.storage_errors += 1;
        }
    }

    /// Forces a persistence pass (shutdown path).
    pub fn flush(&mut self) {
        if self.storage.is_some() {
            self.persist();
        }
    }

    /// Alert table rows for `/rest/alerts` / `imcf top` / `imcf doctor`.
    pub fn alert_rows(&self) -> Vec<AlertRow> {
        self.rules
            .iter()
            .map(|rt| AlertRow {
                name: rt.rule.name.clone(),
                expr: rt.rule.expr.render(),
                cmp: rt.rule.cmp.symbol().to_string(),
                threshold: rt.rule.threshold,
                for_ticks: rt.rule.for_ticks,
                severity: rt.rule.severity.label().to_string(),
                state: rt.state.label().to_string(),
                since: match rt.state {
                    AlertState::Pending(t) | AlertState::Firing(t) => Some(t),
                    AlertState::Inactive => None,
                },
                value: rt.last_value,
                fired_count: rt.fired_count,
            })
            .collect()
    }

    /// Number of rules currently firing.
    pub fn firing_count(&self) -> u64 {
        self.rules
            .iter()
            .filter(|rt| matches!(rt.state, AlertState::Firing(_)))
            .count() as u64
    }

    /// `GET /rest/alerts` body.
    pub fn alerts_json(&self) -> String {
        let rows = self.alert_rows();
        let body = Value::Object(vec![
            ("tick".to_string(), tick_value(self.last_sample_tick)),
            (
                "firing".to_string(),
                serde_json::to_value(&self.firing_count()),
            ),
            ("alerts".to_string(), serde_json::to_value(&rows)),
        ]);
        serde_json::to_string(&body).unwrap_or_else(|_| String::from("{}"))
    }
}

fn tick_value(tick: Option<u64>) -> Value {
    match tick {
        Some(t) => serde_json::to_value(&t),
        None => Value::Null,
    }
}

/// Splits `name{labels}` into `(name, "{labels}")` (labels part empty
/// when the series is unlabeled).
fn split_label_suffix(series: &str) -> (&str, &str) {
    match series.find('{') {
        Some(idx) => (&series[..idx], &series[idx..]),
        None => (series, ""),
    }
}

/// One `/rest/alerts` row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlertRow {
    pub name: String,
    pub expr: String,
    pub cmp: String,
    pub threshold: f64,
    pub for_ticks: u64,
    pub severity: String,
    pub state: String,
    pub since: Option<u64>,
    pub value: Option<f64>,
    pub fired_count: u64,
}

/// Why [`ObsEngine::open`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsOpenError {
    Rules(AlertError),
    Store(String),
}

impl fmt::Display for ObsOpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsOpenError::Rules(e) => write!(f, "invalid alert rules: {e}"),
            ObsOpenError::Store(e) => write!(f, "tsdb storage: {e}"),
        }
    }
}

impl std::error::Error for ObsOpenError {}
