//! Shared experiment harness.
//!
//! Builds datasets once, streams planning slots, runs a method and returns
//! the paper's three metrics. All experiment binaries funnel through
//! [`run_method`] so methods are compared on identical slot streams.
//!
//! ## Parallel grids
//!
//! Every (method × dataset × seed × grid-point) cell of the evaluation is
//! an independent deterministic computation, so the grid runners —
//! [`build_bundles`], [`run_grid`], [`ep_sweep`] — fan cells out over an
//! `imcf-pool` scope. Worker count comes from [`jobs`] (`--jobs N` flag →
//! `IMCF_JOBS` env var → available cores); results always come back in
//! cell order, so experiment output and JSON artifacts are **byte-identical
//! for every worker count** (wall-clock `F_T` fields aside, which measure
//! real elapsed time). Unlike [`run_method`], the grid runners never reset
//! the global telemetry registry — concurrent cells share it, so the
//! `<name>.telemetry.json` artifact covers the whole grid run.

use imcf_core::amortization::{AmortizationPlan, ApKind};
use imcf_core::baselines::{run_ifttt, run_mr, run_nr};
use imcf_core::metrics::{MeanStd, MetricsSummary, RunMetrics};
use imcf_core::planner::{EnergyPlanner, PlanReport, PlannerConfig};
use imcf_sim::building::{Dataset, DatasetKind};
use imcf_sim::slots::SlotBuilder;

/// A dataset plus its derived ECP, built once and reused across methods.
pub struct DatasetBundle {
    /// The materialized dataset.
    pub dataset: Dataset,
    /// The ECP derived from the dataset's MR schedule.
    pub ecp: imcf_core::ecp::Ecp,
}

impl DatasetBundle {
    /// Builds a dataset bundle (deterministic under `seed`).
    pub fn build(kind: DatasetKind, seed: u64) -> Self {
        let dataset = Dataset::build(kind, seed);
        let ecp = dataset.derive_mr_ecp();
        DatasetBundle { dataset, ecp }
    }

    /// The amortization plan used by EP runs: `kind` shaping over the
    /// dataset budget, with an optional savings fraction.
    pub fn plan(&self, ap: ApKind, savings: f64) -> AmortizationPlan {
        let plan = AmortizationPlan::new(
            ap,
            self.ecp.clone(),
            self.dataset.budget_kwh,
            self.dataset.horizon_hours,
            self.dataset.calendar(),
        );
        if savings > 0.0 {
            plan.with_savings(savings)
        } else {
            plan
        }
    }
}

/// The compared methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// No-Rule baseline.
    Nr,
    /// Meta-Rule (greedy) baseline.
    Mr,
    /// The IFTTT trigger-action baseline.
    Ifttt,
    /// The Energy Planner with the given configuration, amortization
    /// formula and savings fraction.
    Ep {
        /// Planner parameters (k, τ_max, init, seed).
        config: PlannerConfig,
        /// Savings fraction for Fig. 9.
        savings: f64,
    },
}

impl Method {
    /// Display label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Nr => "NR",
            Method::Mr => "MR",
            Method::Ifttt => "IFTTT",
            Method::Ep { .. } => "EP",
        }
    }
}

fn metrics_of(report: &PlanReport) -> RunMetrics {
    RunMetrics {
        fce_percent: report.fce_percent(),
        fe_kwh: report.fe_kwh(),
        ft_seconds: report.ft_seconds(),
    }
}

/// Runs the Energy Planner over a bundle and returns the full report
/// (needed by experiments that inspect attribution or drop counts).
pub fn ep_run(
    bundle: &DatasetBundle,
    config: PlannerConfig,
    ap: ApKind,
    savings: f64,
) -> PlanReport {
    let plan = bundle.plan(ap, savings);
    let builder = SlotBuilder::new(&bundle.dataset, &plan);
    let planner = EnergyPlanner::from_config(config);
    planner.plan(builder.iter())
}

/// Runs one method over a bundle. The slot stream always carries the EAF
/// budget shaping so every method sees identical slots; the baselines
/// simply ignore the budget. Resets the telemetry registry first so
/// back-to-back method runs don't bleed into each other's metrics.
pub fn run_method(bundle: &DatasetBundle, method: Method) -> RunMetrics {
    imcf_telemetry::global().reset();
    run_method_inner(bundle, method)
}

fn run_method_inner(bundle: &DatasetBundle, method: Method) -> RunMetrics {
    match method {
        Method::Nr => {
            let plan = bundle.plan(ApKind::Eaf, 0.0);
            let builder = SlotBuilder::new(&bundle.dataset, &plan);
            metrics_of(&run_nr(builder.iter()))
        }
        Method::Mr => {
            let plan = bundle.plan(ApKind::Eaf, 0.0);
            let builder = SlotBuilder::new(&bundle.dataset, &plan);
            metrics_of(&run_mr(builder.iter()))
        }
        Method::Ifttt => {
            let plan = bundle.plan(ApKind::Eaf, 0.0);
            let builder = SlotBuilder::new(&bundle.dataset, &plan);
            metrics_of(&run_ifttt(builder.iter()))
        }
        Method::Ep { config, savings } => metrics_of(&ep_run(bundle, config, ApKind::Eaf, savings)),
    }
}

/// Worker count for experiment fan-out: the binary's `--jobs N` flag,
/// else the `IMCF_JOBS` environment variable, else the available cores.
pub fn jobs() -> usize {
    imcf_pool::jobs_from_args(std::env::args())
}

/// Builds one [`DatasetBundle`] per kind (all seeded identically),
/// concurrently on `jobs` workers; bundles come back in `kinds` order.
pub fn build_bundles(kinds: &[DatasetKind], seed: u64, jobs: usize) -> Vec<DatasetBundle> {
    imcf_pool::map_indexed(jobs, kinds.to_vec(), |_, kind| {
        DatasetBundle::build(kind, seed)
    })
}

/// One cell of an experiment grid: a method over a prebuilt bundle
/// (indexed into the slice handed to [`run_grid`]).
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// Index into the bundle slice.
    pub bundle: usize,
    /// The method to run.
    pub method: Method,
}

/// Evaluates every grid cell concurrently on `jobs` workers. Results come
/// back in cell order and are bit-identical to a sequential run: each
/// cell is a pure function of `(bundle, method)`. The global telemetry
/// registry is *not* reset per cell (cells run concurrently) — reset it
/// once before the grid if a per-run snapshot is wanted.
pub fn run_grid(jobs: usize, bundles: &[DatasetBundle], cells: Vec<GridCell>) -> Vec<RunMetrics> {
    imcf_pool::map_indexed(jobs, cells, |_, cell| {
        run_method_inner(&bundles[cell.bundle], cell.method)
    })
}

/// One point of an EP parameter sweep: a planner configuration over a
/// prebuilt bundle. [`ep_sweep`] evaluates `reps` seeds per point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Index into the bundle slice.
    pub bundle: usize,
    /// Base planner configuration (the seed field is overridden per rep).
    pub config: PlannerConfig,
    /// Amortization formula.
    pub ap: ApKind,
    /// Savings fraction.
    pub savings: f64,
}

/// Runs EP over every `(point, seed)` cell — seeds `0..reps` per point, as
/// in the paper — concurrently on `jobs` workers, and aggregates each
/// point's repetitions. Summaries come back in point order and are
/// bit-identical to the sequential [`ep_summary`] loop: every cell derives
/// its planner RNG from its own explicit seed, and Welford aggregation
/// folds repetitions in seed order.
pub fn ep_sweep(
    jobs: usize,
    bundles: &[DatasetBundle],
    points: Vec<SweepPoint>,
    reps: u64,
) -> Vec<MetricsSummary> {
    if reps == 0 {
        // Mirror the sequential ep_summary contract: one (empty) summary
        // per point, never an empty vector.
        return points
            .iter()
            .map(|_| MetricsSummary::from_runs(&[] as &[RunMetrics]))
            .collect();
    }
    let cells: Vec<(SweepPoint, u64)> = points
        .into_iter()
        .flat_map(|p| (0..reps).map(move |seed| (p.clone(), seed)))
        .collect();
    let runs = imcf_pool::map_indexed(jobs, cells, |_, (point, seed)| {
        let config = PlannerConfig {
            seed,
            ..point.config
        };
        metrics_of(&ep_run(
            &bundles[point.bundle],
            config,
            point.ap.clone(),
            point.savings,
        ))
    });
    runs.chunks(reps as usize)
        .map(MetricsSummary::from_runs)
        .collect()
}

/// Number of repetitions: `IMCF_REPS` env override, else the paper's 10.
pub fn repetitions() -> u64 {
    std::env::var("IMCF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(10)
}

/// Runs EP `reps` times with seeds `0..reps` and aggregates.
pub fn ep_summary(
    bundle: &DatasetBundle,
    base: PlannerConfig,
    ap: ApKind,
    savings: f64,
    reps: u64,
) -> MetricsSummary {
    let runs: Vec<RunMetrics> = (0..reps)
        .map(|seed| {
            let config = PlannerConfig { seed, ..base };
            let report = ep_run(bundle, config, ap.clone(), savings);
            metrics_of(&report)
        })
        .collect();
    MetricsSummary::from_runs(&runs)
}

/// Formats a `mean ± std` cell.
pub fn cell(stat: &MeanStd, precision: usize) -> String {
    stat.format(precision)
}

/// The directory experiment binaries write artifacts into:
/// `IMCF_OUT` if set, else `target/experiments`.
pub fn artifact_dir() -> std::path::PathBuf {
    std::env::var("IMCF_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target/experiments"))
}

/// Writes `<name>.json` (the experiment's results) and
/// `<name>.telemetry.json` (the current global telemetry snapshot) into
/// [`artifact_dir`], so perf regressions are diagnosable from artifacts.
pub fn write_artifacts<T: serde::Serialize>(name: &str, results: &T) -> std::io::Result<()> {
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let results_json = serde_json::to_string(results)
        .map_err(|e| std::io::Error::other(format!("serializing {name} results: {e}")))?;
    std::fs::write(dir.join(format!("{name}.json")), results_json)?;
    std::fs::write(
        dir.join(format!("{name}.telemetry.json")),
        imcf_telemetry::global().json_snapshot_string(),
    )
}

/// True when the operator asked experiments to emit trace artifacts
/// (`IMCF_TRACE` set to anything but `0`).
pub fn trace_artifact_requested() -> bool {
    std::env::var("IMCF_TRACE").is_ok_and(|v| v != "0")
}

/// Captures the Chrome-trace JSON of a short parallel planning run over
/// `bundle`: arms the flight recorder, plans the first `hours` slots on
/// `jobs` workers, and exports the per-slot trace trees in slot order.
///
/// Trace identity is a pure function of `(seed, hour, index)` and span
/// timestamps are the per-trace virtual clock, so the returned JSON is
/// **byte-identical for every `jobs` value** — the tracing counterpart of
/// the imcf-pool determinism contract (pinned by
/// `tests/trace_determinism.rs`).
pub fn capture_trace_json(bundle: &DatasetBundle, hours: usize, jobs: usize) -> String {
    use imcf_telemetry::trace;

    let plan = bundle.plan(ApKind::Eaf, 0.0);
    let builder = SlotBuilder::new(&bundle.dataset, &plan);
    let slots: Vec<_> = builder.iter().take(hours).collect();
    let config = PlannerConfig::default();
    let ids: Vec<trace::TraceId> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| trace::TraceId::derive(config.seed, s.hour_index, i as u64))
        .collect();

    let recorder = trace::recorder();
    let was_enabled = recorder.is_enabled();
    recorder.set_enabled(true);
    let planner = EnergyPlanner::from_config(config).without_carry_over();
    planner.plan_slots_parallel(slots, jobs);
    let json = recorder.chrome_trace_json_for(&ids);
    recorder.set_enabled(was_enabled);
    json
}

/// Writes `<name>.trace.json` — the Chrome-trace capture of a short
/// parallel planning run over `bundle` — into [`artifact_dir`]. Load the
/// file in Chrome `about:tracing` or Perfetto to see per-slot spans and
/// decision points.
pub fn write_trace_artifact(
    name: &str,
    bundle: &DatasetBundle,
    jobs: usize,
) -> std::io::Result<std::path::PathBuf> {
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, capture_trace_json(bundle, 48, jobs))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imcf_core::init::InitStrategy;

    /// A cheap smoke check of the whole harness path on the flat dataset
    /// with a trimmed iteration budget. The full orderings are asserted by
    /// the integration tests in `/tests`.
    #[test]
    fn flat_method_ordering_smoke() {
        let bundle = DatasetBundle::build(DatasetKind::Flat, 0);
        let nr = run_method(&bundle, Method::Nr);
        let mr = run_method(&bundle, Method::Mr);
        let ifttt = run_method(&bundle, Method::Ifttt);
        let ep = run_method(
            &bundle,
            Method::Ep {
                config: PlannerConfig {
                    k: 2,
                    tau_max: 30,
                    init: InitStrategy::AllOnes,
                    seed: 0,
                },
                savings: 0.0,
            },
        );
        // F_CE ordering: MR (0) < EP < IFTTT < NR.
        assert_eq!(mr.fce_percent, 0.0);
        assert!(
            ep.fce_percent < ifttt.fce_percent,
            "ep {} vs ifttt {}",
            ep.fce_percent,
            ifttt.fce_percent
        );
        assert!(
            ifttt.fce_percent < nr.fce_percent,
            "ifttt {} vs nr {}",
            ifttt.fce_percent,
            nr.fce_percent
        );
        // F_E ordering: NR (0) < EP ≤ budget < MR.
        assert_eq!(nr.fe_kwh, 0.0);
        assert!(
            ep.fe_kwh <= bundle.dataset.budget_kwh * 1.001,
            "ep energy {}",
            ep.fe_kwh
        );
        assert!(mr.fe_kwh > ep.fe_kwh);
    }

    #[test]
    fn repetition_override() {
        // The default without the env var is 10; with it, the value.
        std::env::remove_var("IMCF_REPS");
        assert_eq!(repetitions(), 10);
    }
}
