//! Regeneration of every evaluation figure (Figs. 3–7).
//!
//! Each `figN` function sweeps the same grid as the corresponding figure
//! in the paper and returns a [`FigureData`] of slowdown cells. The
//! [`ScaleConfig`] controls cost:
//!
//! * `nodes` — simulated node count. The default (256) is laptop-scale;
//!   [`ScaleConfig::paper`] selects the full 16,384/8,192/4,096 node
//!   counts of Table II.
//! * `preserve_machine_rate` — when simulating fewer nodes than the
//!   paper's system, scale the per-node MTBCE down by the same factor so
//!   the **machine-wide** CE rate (events/second across the whole job) is
//!   preserved. The overheads the study measures are driven by the
//!   machine-wide rate × per-event cost, so this keeps the figure shapes
//!   intact at a fraction of the cost (see EXPERIMENTS.md for the
//!   validation of this claim). Applies only to the all-node figures;
//!   Fig. 3's single-process study needs no scaling.
//! * `steps_scale`, `reps`, `seed` — statistical effort.

use crate::experiment::{run_against_baseline_compiled_telem, CellObs, Experiment};
use crate::seed::point_seed;
use cesim_engine::{simulate_compiled, CompiledSchedule, NoNoise, ShardTelemetry};
use cesim_goal::Rank;
use cesim_model::{LoggingMode, Span, SystemSpec};
use cesim_noise::Scope;
use cesim_obs::telemetry::Span as ProfSpan;
use cesim_workloads::{natural_ranks, AppId, WorkloadConfig};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Cost/scale knobs shared by all figure sweeps.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Simulated nodes (capped by each system's Table II node count).
    pub nodes: usize,
    /// Perturbed replicas per cell.
    pub reps: u32,
    /// Workload step-count scale.
    pub steps_scale: f64,
    /// Preserve the machine-wide CE rate when simulating fewer nodes than
    /// the target system (all-node figures only).
    pub preserve_machine_rate: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Workloads to include (default: all nine).
    pub apps: Vec<AppId>,
    /// Print per-cell progress to stderr.
    pub progress: bool,
    /// Print sweep-level progress (cells completed / total, plus an ETA
    /// extrapolated from completed-cell wall time) to stderr.
    pub progress_eta: bool,
    /// Record the first [`ScaleConfig::observe_replicas`] replicas of
    /// every cell and attach critical-path and detour-provenance
    /// summaries ([`CellObs`]) to the cell. Never alters results or
    /// determinism.
    pub observe: bool,
    /// How many leading replicas to record per cell when
    /// [`ScaleConfig::observe`] is set (the CSV layer reports mean and
    /// stddev across them).
    pub observe_replicas: usize,
    /// Worker threads for the sweep: `0` uses every core (or
    /// `RAYON_NUM_THREADS`), `1` runs serially. Results are identical for
    /// every value — cells are seeded by position, not execution order.
    pub threads: usize,
    /// Intra-run event-loop shards per simulation (`1` = serial engine).
    /// Values above 1 split each run across lookahead-windowed shards
    /// (`cesim_engine::shard`) with byte-identical output; the sweep's
    /// worker-thread budget is divided by this factor so `cells × shards`
    /// never oversubscribes the host (see [`ScaleConfig::scoped`]).
    pub shards: usize,
    /// Optional shard-health telemetry sink: every sharded run in the
    /// sweep accumulates per-shard busy/stall/barrier counters into it
    /// (`--shard-health` / `--profile` on the CLI). Pure observer —
    /// figure data is byte-identical with or without it.
    pub shard_telemetry: Option<Arc<ShardTelemetry>>,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            nodes: 256,
            reps: 2,
            steps_scale: 1.0,
            preserve_machine_rate: true,
            seed: 0xF16,
            apps: AppId::all().to_vec(),
            progress: false,
            progress_eta: false,
            observe: false,
            observe_replicas: 1,
            threads: 0,
            shards: 1,
            shard_telemetry: None,
        }
    }
}

impl ScaleConfig {
    /// The paper's full scale: Table II node counts, 8 reps, full step
    /// counts, no rate rescaling. Hours of CPU time at 16,384 nodes.
    pub fn paper() -> Self {
        ScaleConfig {
            nodes: 16_384,
            reps: 8,
            steps_scale: 1.0,
            preserve_machine_rate: false,
            ..ScaleConfig::default()
        }
    }

    /// A very small smoke-test scale for CI.
    pub fn smoke() -> Self {
        ScaleConfig {
            nodes: 32,
            reps: 1,
            steps_scale: 0.05,
            ..ScaleConfig::default()
        }
    }

    fn workload_cfg(&self, app_seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            steps_scale: self.steps_scale,
            seed: self.seed ^ app_seed,
            ..WorkloadConfig::default()
        }
    }

    /// Effective per-node MTBCE for a system simulated at `sim_nodes`
    /// instead of its full `paper_nodes`.
    pub fn effective_mtbce(&self, mtbce: Span, sim_nodes: usize, paper_nodes: usize) -> Span {
        if self.preserve_machine_rate && sim_nodes < paper_nodes {
            mtbce.mul_f64(sim_nodes as f64 / paper_nodes as f64)
        } else {
            mtbce
        }
    }

    /// Sweep worker threads after reserving capacity for intra-run
    /// shards: with `shards > 1` the ambient (or requested) thread budget
    /// is divided by the shard count, floored at one worker, so a sweep
    /// of sharded runs uses roughly the same number of OS threads as an
    /// unsharded one.
    pub fn effective_threads(&self) -> usize {
        if self.shards <= 1 {
            return self.threads;
        }
        let base = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        (base / self.shards).max(1)
    }

    /// Run `f` under this config's thread count (see [`with_threads`]),
    /// shard-adjusted per [`ScaleConfig::effective_threads`].
    pub fn scoped<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        with_threads(self.effective_threads(), f)
    }
}

/// Run `f` under an explicit worker-thread count: `0` leaves the ambient
/// pool (all cores, or `RAYON_NUM_THREADS`), anything else installs a
/// pool of exactly that size for the duration — `1` is the serial path
/// through the same code.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        f()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction cannot fail")
            .install(f)
    }
}

/// One bar/point of a figure.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Workload.
    pub app: AppId,
    /// X-axis group (system name, MTBCE, or per-event duration).
    pub group: String,
    /// Logging mode.
    pub mode: LoggingMode,
    /// Effective per-node MTBCE simulated.
    pub mtbce: Span,
    /// Mean slowdown vs baseline, percent; `None` = no forward progress.
    pub slowdown_pct: Option<f64>,
    /// Sample standard deviation across replicas, when ≥ 2 replicas ran.
    pub stddev_pct: Option<f64>,
    /// Baseline completion time, seconds.
    pub baseline_secs: f64,
    /// Mean CE events injected per replica.
    pub ce_events: f64,
    /// Ranks simulated.
    pub ranks: usize,
    /// Critical-path and detour-provenance summaries of the observed
    /// replicas, when the sweep ran with [`ScaleConfig::observe`]
    /// enabled.
    pub obs: Option<CellObs>,
}

/// All cells of one regenerated figure.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Figure identifier ("fig3" … "fig7").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Cells in sweep order.
    pub cells: Vec<Cell>,
}

impl FigureData {
    /// Distinct group labels in first-appearance order.
    pub fn groups(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.group) {
                seen.push(c.group.clone());
            }
        }
        seen
    }

    /// Cells for one (group, mode) pair, keyed by app.
    pub fn series(&self, group: &str, mode: LoggingMode) -> BTreeMap<AppId, &Cell> {
        self.cells
            .iter()
            .filter(|c| c.group == group && c.mode == mode)
            .map(|c| (c.app, c))
            .collect()
    }

    /// Maximum finite slowdown in the figure.
    pub fn max_slowdown(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| c.slowdown_pct)
            .fold(0.0, f64::max)
    }
}

/// One cell request: `(group label, mode, per-node mtbce, sim nodes)`.
#[derive(Clone, Debug)]
struct CellSpec {
    group: String,
    mode: LoggingMode,
    mtbce: Span,
    nodes: usize,
}

/// Run a figure sweep as a list of self-contained cell jobs.
///
/// Two parallel stages, both executed under the config's thread count
/// (see [`ScaleConfig::scoped`]):
///
/// 1. every distinct `(app, node count)` scale builds its schedule,
///    **compiles it once** into an [`Arc`]-shared
///    [`CompiledSchedule`], and simulates the noise-free baseline;
/// 2. every `(app, spec)` cell runs its perturbed replicas against the
///    shared compiled schedule and baseline — workers clone the `Arc`,
///    not the schedule, and reuse per-thread run scratch across
///    replicas.
///
/// Cells are collected **in job-index order** (app-major, then spec
/// order), and each cell's RNG stream is derived from its stable
/// coordinates via [`point_seed`] — never from execution order — so the
/// output is byte-identical for any thread count.
fn run_figure(
    id: &str,
    title: &str,
    cfg: &ScaleConfig,
    scope_for: impl Fn(usize) -> Scope + Sync,
    specs: &[CellSpec],
) -> FigureData {
    // Capture the caller's request-trace context (if the serve daemon
    // installed one) before entering the pool scope: `cfg.scoped` may
    // hop to a pool thread, and the rayon cell jobs below run on
    // arbitrary workers. Each job re-installs the context so its spans
    // land in the request's trace. Observational only — cell results
    // are seeded from stable coordinates and byte-identical either way.
    let trace = cesim_obs::tracectx::current();
    let trace = trace.as_ref();
    let cells = cfg.scoped(|| {
        // Stage 1: distinct (app index, node count) scales.
        let mut scales: Vec<(usize, usize)> = Vec::new();
        for ai in 0..cfg.apps.len() {
            for spec in specs {
                if !scales.contains(&(ai, spec.nodes)) {
                    scales.push((ai, spec.nodes));
                }
            }
        }
        let built: Vec<(usize, Arc<CompiledSchedule>, cesim_model::Time)> = scales
            .par_iter()
            .map(|&(ai, nodes)| {
                let _trace_guard = trace.map(|t| t.install());
                let app = cfg.apps[ai];
                let ranks = natural_ranks(app, nodes);
                let sched = {
                    let _s = ProfSpan::enter("build");
                    cesim_workloads::build(app, ranks, &cfg.workload_cfg(ai as u64))
                };
                let cs = {
                    let _s = ProfSpan::enter("compile");
                    let cs = Arc::new(CompiledSchedule::compile(&sched));
                    // Freeing the pointer-y schedule is real work: keep
                    // it inside a profiled phase.
                    drop(sched);
                    cs
                };
                let base = {
                    let _s = ProfSpan::enter("baseline");
                    simulate_compiled(&cs, &cesim_model::LogGopsParams::xc40(), &mut NoNoise)
                        .expect("workload schedules are deadlock-free")
                };
                (ranks, cs, base.finish)
            })
            .collect();
        let scale_index: HashMap<(usize, usize), usize> = scales
            .iter()
            .enumerate()
            .map(|(k, &key)| (key, k))
            .collect();

        // Stage 2: one job per (app, spec) cell, reassembled in job order.
        let jobs: Vec<(usize, usize)> = (0..cfg.apps.len())
            .flat_map(|ai| (0..specs.len()).map(move |si| (ai, si)))
            .collect();
        let total_jobs = jobs.len();
        let done = std::sync::atomic::AtomicUsize::new(0);
        // Cumulative engine-throughput counters across completed cells
        // (stderr reporting only — never part of the figure data).
        let events_done = std::sync::atomic::AtomicU64::new(0);
        let sim_ps_done = std::sync::atomic::AtomicU64::new(0);
        let sweep_start = std::time::Instant::now();

        // Sharded sweeps complete cells slowly (few big runs instead of
        // many small ones), so per-cell progress lines can go quiet for
        // minutes. Report window-based progress from the engine's global
        // shard counters instead: expected total simulated time is known
        // after stage 1 (Σ baseline × reps per job), so an ETA can be
        // derived from simulated-time throughput mid-run.
        let ticker_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ticker = if cfg.shards > 1 && (cfg.progress || cfg.progress_eta) {
            let expected_ps: u64 = jobs
                .iter()
                .map(|&(ai, si)| {
                    let base = built[scale_index[&(ai, specs[si].nodes)]].2;
                    base.as_ps().saturating_mul(cfg.reps as u64)
                })
                .sum();
            let stop = Arc::clone(&ticker_stop);
            let id = id.to_string();
            let start = cesim_engine::shard_globals();
            Some(std::thread::spawn(move || loop {
                for _ in 0..20 {
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                let g = cesim_engine::shard_globals();
                let sim_ps = g.sim_ps_advanced.saturating_sub(start.sim_ps_advanced);
                let windows = g.windows.saturating_sub(start.windows);
                let events = g.events.saturating_sub(start.events);
                let elapsed = sweep_start.elapsed().as_secs_f64();
                let sim_s = sim_ps as f64 / 1e12;
                let expected_s = expected_ps as f64 / 1e12;
                let pct = if expected_ps > 0 {
                    (sim_s / expected_s * 100.0).min(100.0)
                } else {
                    0.0
                };
                let eta = if sim_ps > 0 && expected_ps > sim_ps {
                    elapsed * (expected_ps - sim_ps) as f64 / sim_ps as f64
                } else {
                    0.0
                };
                eprintln!(
                    "[{id}] shard progress: {windows} windows, {events} events, \
                     {sim_s:.1}/{expected_s:.1} sim-s ({pct:.0}%, ETA {eta:.0}s)"
                );
            }))
        } else {
            None
        };

        let telem = cfg.shard_telemetry.as_deref();
        let cells: Vec<Cell> = jobs
            .par_iter()
            .map(|&(ai, si)| {
                let app = cfg.apps[ai];
                let spec = &specs[si];
                let _trace_guard = trace.map(|t| t.install());
                let _cell_span = trace.and_then(|_| {
                    cesim_obs::tracectx::begin_dyn(format!(
                        "cell {app} {} {}",
                        spec.group,
                        spec.mode.short_label()
                    ))
                });
                let (ranks, cs, baseline) = &built[scale_index[&(ai, spec.nodes)]];
                let exp = Experiment {
                    app,
                    nodes: spec.nodes,
                    mode: spec.mode,
                    mtbce: spec.mtbce,
                    scope: scope_for(*ranks),
                    reps: cfg.reps,
                    seed: point_seed(cfg.seed, id, ai, si),
                    params: cesim_model::LogGopsParams::xc40(),
                    workload: cfg.workload_cfg(ai as u64),
                    shards: cfg.shards,
                };
                let observe_replicas = if cfg.observe {
                    cfg.observe_replicas.max(1)
                } else {
                    0
                };
                let out = {
                    let _s = ProfSpan::enter("cell_run");
                    run_against_baseline_compiled_telem(
                        &exp,
                        *ranks,
                        cs,
                        *baseline,
                        observe_replicas,
                        telem,
                    )
                    .expect("workload schedules are deadlock-free")
                };
                let _agg = ProfSpan::enter("cell_aggregate");
                if cfg.progress || cfg.progress_eta {
                    use std::sync::atomic::Ordering::Relaxed;
                    // Engine throughput counts only replicas the engine
                    // ran, not those answered from the noise-free memo.
                    let simulated = || {
                        out.runs
                            .iter()
                            .zip(&out.elided)
                            .filter(|(_, &elided)| !elided)
                            .map(|(r, _)| r)
                    };
                    let cell_events: u64 = simulated().map(|r| r.events).sum();
                    let cell_sim_ps: u64 = simulated().map(|r| r.finish.as_ps()).sum();
                    let events = events_done.fetch_add(cell_events, Relaxed) + cell_events;
                    let sim_ps = sim_ps_done.fetch_add(cell_sim_ps, Relaxed) + cell_sim_ps;
                    let elapsed = sweep_start.elapsed().as_secs_f64();
                    // Engine throughput over the sweep so far: events/sec
                    // of wall time, and simulated seconds per wall second.
                    let ev_rate = events as f64 / elapsed.max(1e-9);
                    let sim_rate = sim_ps as f64 / 1e12 / elapsed.max(1e-9);
                    if cfg.progress {
                        eprintln!(
                            "[{id}] {app} {} {}: {} [{ev_rate:.0} events/s, {sim_rate:.1} sim-s/s]",
                            spec.group,
                            spec.mode.short_label(),
                            out.mean_slowdown_pct()
                                .map(|s| format!("{s:.2}%"))
                                .unwrap_or_else(|| "no-progress".into())
                        );
                    }
                    if cfg.progress_eta {
                        let d = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                        let eta = elapsed / d as f64 * (total_jobs - d) as f64;
                        eprintln!(
                            "[{id}] {d}/{total_jobs} cells ({elapsed:.1}s elapsed, ETA {eta:.1}s, \
                             {ev_rate:.0} events/s, {sim_rate:.1} sim-s/s)"
                        );
                    }
                }
                Cell {
                    app,
                    group: spec.group.clone(),
                    mode: spec.mode,
                    mtbce: spec.mtbce,
                    slowdown_pct: out.mean_slowdown_pct(),
                    stddev_pct: out.slowdown_stddev_pct(),
                    baseline_secs: out.baseline.as_secs_f64(),
                    ce_events: out.mean_ce_events(),
                    ranks: *ranks,
                    obs: out.obs,
                }
            })
            .collect();
        ticker_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        cells
    });
    FigureData {
        id: id.into(),
        title: title.into(),
        cells,
    }
}

/// The MTBCE sweep of Fig. 3 (single process experiencing CEs).
pub fn fig3_mtbce_points() -> Vec<Span> {
    vec![
        Span::from_ms(1),
        Span::from_ms(10),
        Span::from_ms(100),
        Span::from_ms(200),
        Span::from_secs(1),
        Span::from_secs(10),
        Span::from_secs(100),
    ]
}

/// **Fig. 3** — performance impact of *one process* experiencing CEs, as
/// a function of MTBCE, for the three logging overheads.
pub fn fig3(cfg: &ScaleConfig) -> FigureData {
    let mut specs = Vec::new();
    for mtbce in fig3_mtbce_points() {
        for mode in LoggingMode::all() {
            specs.push(CellSpec {
                group: format!("MTBCE={mtbce}"),
                mode,
                mtbce,
                nodes: cfg.nodes,
            });
        }
    }
    run_figure(
        "fig3",
        "Single-process CE impact vs MTBCE (Fig. 3)",
        cfg,
        |_ranks| Scope::SingleRank(Rank(0)),
        &specs,
    )
}

/// **Fig. 4** — CE impact on the existing systems Cielo, Trinity and
/// Summit (Table II rates).
pub fn fig4(cfg: &ScaleConfig) -> FigureData {
    let mut specs = Vec::new();
    for sys in SystemSpec::fig4_systems() {
        let paper_nodes = sys.simulated_nodes.unwrap() as usize;
        let nodes = cfg.nodes.min(paper_nodes);
        let mtbce = cfg.effective_mtbce(sys.mtbce_node(), nodes, paper_nodes);
        for mode in LoggingMode::all() {
            specs.push(CellSpec {
                group: sys.name.to_string(),
                mode,
                mtbce,
                nodes,
            });
        }
    }
    run_figure(
        "fig4",
        "CE impact on existing systems (Fig. 4)",
        cfg,
        |_| Scope::AllRanks,
        &specs,
    )
}

/// **Fig. 5** — CE impact on the five hypothetical exascale systems.
pub fn fig5(cfg: &ScaleConfig) -> FigureData {
    let mut specs = Vec::new();
    for sys in SystemSpec::fig5_systems() {
        let paper_nodes = sys.simulated_nodes.unwrap() as usize;
        let nodes = cfg.nodes.min(paper_nodes);
        let mtbce = cfg.effective_mtbce(sys.mtbce_node(), nodes, paper_nodes);
        for mode in LoggingMode::all() {
            specs.push(CellSpec {
                group: sys.name.to_string(),
                mode,
                mtbce,
                nodes,
            });
        }
    }
    run_figure(
        "fig5",
        "CE impact on exascale straw-man systems (Fig. 5)",
        cfg,
        |_| Scope::AllRanks,
        &specs,
    )
}

/// **Fig. 6** — extreme MTBCE study locating where software/OS reporting
/// starts to hurt (36 s / 3.6 s / ~1 s per node).
pub fn fig6(cfg: &ScaleConfig) -> FigureData {
    let paper_nodes = 16_384usize;
    let nodes = cfg.nodes.min(paper_nodes);
    let mut specs = Vec::new();
    for mtbce in [
        Span::from_secs(36),
        Span::from_secs_f64(3.6),
        Span::from_secs(1),
    ] {
        let eff = cfg.effective_mtbce(mtbce, nodes, paper_nodes);
        for mode in LoggingMode::all() {
            specs.push(CellSpec {
                group: format!("MTBCE={mtbce}"),
                mode,
                mtbce: eff,
                nodes,
            });
        }
    }
    run_figure(
        "fig6",
        "Extreme CE rates: where software reporting hurts (Fig. 6)",
        cfg,
        |_| Scope::AllRanks,
        &specs,
    )
}

/// The per-event duration sweep of Fig. 7.
pub fn fig7_duration_points() -> Vec<Span> {
    vec![
        Span::from_ns(150),
        Span::from_us(1),
        Span::from_us(10),
        Span::from_us(100),
        Span::from_us(775),
        Span::from_ms(7),
        Span::from_ms(133),
    ]
}

/// **Fig. 7** — reporting-duration sweep at `MTBCE = 720 s` and
/// `MTBCE = 0.2 s`, per-event cost from 150 ns to 133 ms.
pub fn fig7(cfg: &ScaleConfig) -> FigureData {
    let paper_nodes = 16_384usize;
    let nodes = cfg.nodes.min(paper_nodes);
    let mut specs = Vec::new();
    for mtbce in [Span::from_secs(720), Span::from_ms(200)] {
        let eff = cfg.effective_mtbce(mtbce, nodes, paper_nodes);
        for dur in fig7_duration_points() {
            specs.push(CellSpec {
                group: format!("MTBCE={mtbce} d={dur}"),
                mode: LoggingMode::Custom(dur),
                mtbce: eff,
                nodes,
            });
        }
    }
    run_figure(
        "fig7",
        "Per-event reporting-duration sweep (Fig. 7)",
        cfg,
        |_| Scope::AllRanks,
        &specs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleConfig {
        ScaleConfig {
            nodes: 16,
            reps: 1,
            steps_scale: 0.05,
            apps: vec![AppId::Lulesh, AppId::LammpsLj],
            ..ScaleConfig::default()
        }
    }

    #[test]
    fn effective_mtbce_scaling() {
        let cfg = ScaleConfig::default();
        let m = Span::from_secs(1_000);
        let eff = cfg.effective_mtbce(m, 256, 16_384);
        assert_eq!(eff, m.mul_f64(256.0 / 16_384.0));
        assert_eq!(cfg.effective_mtbce(m, 16_384, 16_384), m);
        let paper = ScaleConfig::paper();
        assert_eq!(paper.effective_mtbce(m, 256, 16_384), m);
    }

    #[test]
    fn fig3_structure() {
        let f = fig3(&tiny());
        // 7 MTBCE points × 3 modes × 2 apps.
        assert_eq!(f.cells.len(), 7 * 3 * 2);
        assert_eq!(f.groups().len(), 7);
        // Hardware-only is everywhere negligible.
        for c in f
            .cells
            .iter()
            .filter(|c| c.mode == LoggingMode::HardwareOnly)
        {
            if let Some(s) = c.slowdown_pct {
                assert!(s < 1.0, "{}: {s}%", c.group);
            }
        }
        // Firmware at 1 ms MTBCE is flagged as no-progress (ρ = 133).
        let fw_1ms = f
            .cells
            .iter()
            .find(|c| c.mode == LoggingMode::Firmware && c.group.contains("1.000ms"))
            .unwrap();
        assert_eq!(fw_1ms.slowdown_pct, None);
    }

    #[test]
    fn figure_csv_is_byte_identical_under_tracing() {
        // The serve daemon runs sweeps with a request trace installed;
        // tracing must be purely observational — same cells, same CSV
        // bytes — while still recording per-cell spans into the trace.
        let cfg = tiny();
        let plain = crate::report::figure_csv(&fig4(&cfg));
        let ctx = cesim_obs::tracectx::TraceCtx::new_root("POST /v1/sweep", None);
        let traced = {
            let _g = ctx.install();
            let _dispatch = cesim_obs::tracectx::begin("dispatch");
            crate::report::figure_csv(&fig4(&cfg))
        };
        assert_eq!(plain, traced, "tracing must not perturb figure CSVs");
        let fin = ctx.finish(200, false);
        assert!(
            fin.spans.iter().any(|s| s.name.starts_with("cell ")),
            "sweep cells must land in the trace: {:?}",
            fin.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fig4_is_negligible_even_tiny() {
        let f = fig4(&tiny());
        assert_eq!(f.cells.len(), 3 * 3 * 2);
        // Current systems: all overheads well under 10% (paper's claim).
        for c in &f.cells {
            let s = c.slowdown_pct.expect("no divergence on current systems");
            assert!(s < 10.0, "{} {} = {s}%", c.group, c.mode);
        }
    }

    #[test]
    fn fig5_structure_and_divergence_free() {
        let f = fig5(&tiny());
        // 5 systems x 3 modes x 2 apps.
        assert_eq!(f.cells.len(), 5 * 3 * 2);
        assert_eq!(f.groups().len(), 5);
        // Rate-preserving MTBCE at 16 nodes never collapses below the
        // firmware divergence bound for these systems.
        for c in &f.cells {
            assert!(c.slowdown_pct.is_some(), "{} {}", c.group, c.mode);
        }
    }

    #[test]
    fn fig6_flags_firmware_divergence_at_scaled_rates() {
        let f = fig6(&tiny());
        assert_eq!(f.cells.len(), 3 * 3 * 2);
        // At 16 nodes the rate-preserved 1 s row becomes ~1 ms/node:
        // firmware is flagged as no-progress, software survives.
        let fw_1s = f
            .cells
            .iter()
            .find(|c| c.mode == LoggingMode::Firmware && c.group.contains("MTBCE=1.000s"))
            .unwrap();
        assert_eq!(fw_1s.slowdown_pct, None);
        let sw_1s = f
            .cells
            .iter()
            .find(|c| c.mode == LoggingMode::Software && c.group.contains("MTBCE=1.000s"))
            .unwrap();
        assert!(sw_1s.slowdown_pct.is_some());
    }

    #[test]
    fn fig7_structure_covers_both_rates() {
        let f = fig7(&tiny());
        // 2 rates x 7 durations x 2 apps.
        assert_eq!(f.cells.len(), 2 * 7 * 2);
        assert_eq!(f.groups().len(), 14);
        // The heaviest duration at the fast rate diverges; the lightest
        // is negligible everywhere.
        let heavy = f
            .cells
            .iter()
            .find(|c| c.group.contains("MTBCE=200.000ms d=133.000ms"))
            .unwrap();
        assert_eq!(heavy.slowdown_pct, None);
        for c in f.cells.iter().filter(|c| c.group.ends_with("d=150.000ns")) {
            assert!(c.slowdown_pct.unwrap() < 1.0);
        }
    }

    #[test]
    fn fig7_points_span_150ns_to_133ms() {
        let p = fig7_duration_points();
        assert_eq!(*p.first().unwrap(), Span::from_ns(150));
        assert_eq!(*p.last().unwrap(), Span::from_ms(133));
        assert!(p.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn figure_data_accessors() {
        let f = fig3(&tiny());
        let g = f.groups();
        let s = f.series(&g[0], LoggingMode::Software);
        assert_eq!(s.len(), 2);
        let _ = f.max_slowdown();
    }
}
