//! A single measurement cell of the study.
//!
//! One [`Experiment`] compares a noise-free baseline run of a workload
//! against `reps` replicated runs with CE detours injected, and reports
//! the mean slowdown — the y-axis of every evaluation figure in the
//! paper. The paper averages "at least eight simulations" per bar; the
//! default here is smaller for tractability and configurable throughout.
//!
//! **Divergence guard.** When the per-event cost approaches the MTBCE,
//! per-node utilization `ρ = detour/mtbce → 1` and the workload cannot
//! make forward progress (the paper drops such points, e.g. firmware
//! logging at `MTBCE = 0.2 s` in Fig. 7). Experiments whose `ρ` exceeds
//! [`DIVERGENCE_LIMIT`] are not simulated; their outcome reports
//! `slowdown = None`.

use crate::seed::rep_seed;
use cesim_engine::{
    simulate_compiled, simulate_compiled_with, simulate_sharded_instrumented, with_thread_scratch,
    CompiledSchedule, NoNoise, NullRecorder, ShardMode, ShardTelemetry, SimError, SimResult,
    Simulator, WindowObserver,
};
use cesim_goal::Schedule;
use cesim_model::{LogGopsParams, LoggingMode, Span, Time};
use cesim_noise::{CeNoise, Scope};
use cesim_obs::critical::Attribution;
use cesim_obs::provenance::ProvenanceSummary;
use cesim_obs::TimelineRecorder;
use cesim_workloads::{natural_ranks, AppId, WorkloadConfig};
use rayon::prelude::*;
use std::sync::Arc;

/// Per-node CE-handling utilization above which a configuration is
/// treated as "no forward progress" instead of being simulated.
pub const DIVERGENCE_LIMIT: f64 = 0.95;

/// One measurement cell: workload × scale × logging × rate × scope.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Workload under test.
    pub app: AppId,
    /// Simulated node count (one rank per node, as in the paper).
    pub nodes: usize,
    /// Logging mode (determines the per-event detour).
    pub mode: LoggingMode,
    /// Mean time between CEs per node.
    pub mtbce: Span,
    /// All nodes (Figs. 4–7) or a single node (Fig. 3).
    pub scope: Scope,
    /// Perturbed replicas to average.
    pub reps: u32,
    /// Base seed; replica `i` uses [`rep_seed`]`(seed, i)`, so the
    /// replica stream is a pure function of `(seed, i)` regardless of
    /// execution order or thread count.
    pub seed: u64,
    /// Network/CPU model.
    pub params: LogGopsParams,
    /// Workload generation knobs.
    pub workload: WorkloadConfig,
    /// Intra-run event-loop shards (`1` = the serial engine; `N > 1`
    /// partitions ranks into `N` lookahead-windowed shards, byte-identical
    /// output — see `cesim_engine::shard`).
    pub shards: usize,
}

impl Experiment {
    /// An experiment with paper-default knobs (XC40 network, firmware
    /// logging, 1-hour MTBCE, all-node scope, 3 reps).
    pub fn new(app: AppId, nodes: usize) -> Self {
        Experiment {
            app,
            nodes,
            mode: LoggingMode::Firmware,
            mtbce: Span::from_secs(3600),
            scope: Scope::AllRanks,
            reps: 3,
            seed: 0xCE11,
            params: LogGopsParams::xc40(),
            workload: WorkloadConfig::default(),
            shards: 1,
        }
    }

    /// Set the logging mode.
    pub fn mode(mut self, mode: LoggingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the per-node MTBCE.
    pub fn mtbce(mut self, mtbce: Span) -> Self {
        self.mtbce = mtbce;
        self
    }

    /// Set the injection scope.
    pub fn scope(mut self, scope: Scope) -> Self {
        self.scope = scope;
        self
    }

    /// Set the replica count.
    pub fn reps(mut self, reps: u32) -> Self {
        self.reps = reps.max(1);
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the workload step count.
    pub fn steps(mut self, steps: usize) -> Self {
        self.workload.steps_override = Some(steps);
        self
    }

    /// Set the intra-run shard count (`1` = serial event loop).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Per-node CE-handling utilization `ρ = detour / mtbce`.
    pub fn utilization(&self) -> f64 {
        self.mode.per_event_cost().as_secs_f64() / self.mtbce.as_secs_f64()
    }

    /// Whether the divergence guard will skip simulation.
    pub fn diverges(&self) -> bool {
        self.utilization() >= DIVERGENCE_LIMIT
    }
}

/// Observability record for one recorded replica: critical-path
/// attribution plus the per-event detour-provenance summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaObs {
    /// Replica index the recording came from.
    pub rep: u32,
    /// Critical-path makespan attribution.
    pub attr: Attribution,
    /// Detour-provenance summary (absorbed/propagated counts and
    /// amplification percentiles; see `cesim_obs::provenance`).
    pub prov: ProvenanceSummary,
    /// Events retained by the ring buffer.
    pub events: u64,
    /// Events dropped by the ring buffer (0 = complete timeline).
    pub dropped: u64,
}

/// Per-cell observability: the first `observe_replicas` replicas of the
/// cell, recorded and summarized (see
/// [`run_against_baseline_compiled`]), plus aggregation helpers that the
/// CSV reporting layer uses for mean/stddev columns.
#[derive(Clone, Debug, PartialEq)]
pub struct CellObs {
    /// One entry per observed replica, ascending replica index. Never
    /// empty (a cell with nothing recorded carries no `CellObs`).
    pub replicas: Vec<ReplicaObs>,
}

impl CellObs {
    /// The first observed replica (replica 0).
    pub fn first(&self) -> &ReplicaObs {
        &self.replicas[0]
    }

    /// Mean and sample standard deviation of a per-replica metric
    /// (stddev 0 with fewer than two replicas).
    pub fn mean_sd(&self, f: impl Fn(&ReplicaObs) -> f64) -> (f64, f64) {
        let n = self.replicas.len();
        let xs: Vec<f64> = self.replicas.iter().map(f).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        if n < 2 {
            return (mean, 0.0);
        }
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var.sqrt())
    }

    /// Mean detours per replica that never left their own rank
    /// (absorbed + partially absorbed).
    pub fn mean_absorbed(&self) -> f64 {
        self.mean_sd(|r| (r.prov.absorbed + r.prov.partially_absorbed) as f64)
            .0
    }

    /// Mean detours per replica that delayed other ranks or the makespan.
    pub fn mean_propagated(&self) -> f64 {
        self.mean_sd(|r| r.prov.propagated as f64).0
    }

    /// Largest amplification factor in any observed replica.
    pub fn max_amplification(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.prov.max_amplification)
            .fold(0.0, f64::max)
    }

    /// Mean 99th-percentile amplification across observed replicas.
    pub fn p99_amplification(&self) -> f64 {
        self.mean_sd(|r| r.prov.p99_amplification).0
    }
}

/// One perturbed replica's result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunStats {
    /// Completion time of the perturbed run.
    pub finish: Span,
    /// CE detours injected during the run.
    pub ce_events: u64,
    /// Engine events processed (for throughput reporting).
    pub events: u64,
}

impl RunStats {
    fn of(r: &SimResult) -> Self {
        RunStats {
            finish: r.finish.since(Time::ZERO),
            ce_events: r.noise_events,
            events: r.events_processed,
        }
    }
}

/// Aggregated result of an [`Experiment`].
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub app: AppId,
    /// Ranks actually simulated (after [`natural_ranks`] snapping).
    pub ranks: usize,
    /// Noise-free completion time.
    pub baseline: Span,
    /// Per-replica results; empty when the divergence guard fired.
    pub runs: Vec<RunStats>,
    /// True when the configuration was treated as "no forward progress".
    pub diverged: bool,
    /// Observability summaries of the recorded replicas; `None` unless
    /// the experiment ran with a non-zero `observe_replicas` count (see
    /// [`run_against_baseline_observed`]).
    pub obs: Option<CellObs>,
    /// Per replica (parallel to `runs`): whether it was answered from the
    /// schedule's noise-free memo instead of simulated, because no CE
    /// could reach it before the baseline finish (see
    /// `cesim_engine::quiet`). An elided replica's [`RunStats`] equal a
    /// real run's, but the engine did none of its work.
    pub elided: Vec<bool>,
}

impl Outcome {
    /// Mean perturbed completion time, if simulated.
    pub fn mean_finish(&self) -> Option<Span> {
        if self.runs.is_empty() {
            return None;
        }
        let total: Span = self.runs.iter().map(|r| r.finish).sum();
        Some(total / self.runs.len() as u64)
    }

    /// Mean slowdown versus baseline, in percent; `None` when diverged.
    pub fn mean_slowdown_pct(&self) -> Option<f64> {
        let m = self.mean_finish()?;
        Some((m.as_secs_f64() / self.baseline.as_secs_f64() - 1.0) * 100.0)
    }

    /// Mean CE events injected per replica.
    pub fn mean_ce_events(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.ce_events as f64).sum::<f64>() / self.runs.len() as f64
    }

    /// Sample standard deviation of the slowdown across replicas (percent).
    pub fn slowdown_stddev_pct(&self) -> Option<f64> {
        if self.runs.len() < 2 {
            return None;
        }
        let b = self.baseline.as_secs_f64();
        let xs: Vec<f64> = self
            .runs
            .iter()
            .map(|r| (r.finish.as_secs_f64() / b - 1.0) * 100.0)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// An approximate 95% confidence interval on the mean slowdown
    /// (percent), using Student's t critical values for small replica
    /// counts. `None` with fewer than two replicas or when diverged.
    pub fn slowdown_ci95_pct(&self) -> Option<(f64, f64)> {
        let mean = self.mean_slowdown_pct()?;
        let sd = self.slowdown_stddev_pct()?;
        let n = self.runs.len() as f64;
        // Two-sided 97.5% t critical values for df = n-1 (df 1..=30).
        const T: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        let df = (self.runs.len() - 1).min(T.len());
        let t = T[df - 1];
        let half = t * sd / n.sqrt();
        Some((mean - half, mean + half))
    }
}

/// Run an experiment: build the schedule, simulate the baseline, then the
/// perturbed replicas (unless the divergence guard fires).
pub fn run(exp: &Experiment) -> Result<Outcome, SimError> {
    let ranks = natural_ranks(exp.app, exp.nodes);
    let sched = cesim_workloads::build(exp.app, ranks, &exp.workload);
    run_on_schedule(exp, ranks, &sched)
}

/// Like [`run`], but against a pre-built schedule (lets figure sweeps
/// share one schedule and baseline across many cells). Compiles the
/// schedule once; the baseline and every replica run the compiled form.
pub fn run_on_schedule(
    exp: &Experiment,
    ranks: usize,
    sched: &Schedule,
) -> Result<Outcome, SimError> {
    let cs = Arc::new(CompiledSchedule::compile(sched));
    let base = simulate_compiled(&cs, &exp.params, &mut NoNoise)?;
    run_against_baseline_compiled(exp, ranks, &cs, base.finish, 0)
}

/// Innermost schedule-based variant: baseline already known, no
/// observability. Thin wrapper over the compiled path.
pub fn run_against_baseline(
    exp: &Experiment,
    ranks: usize,
    sched: &Schedule,
    baseline: Time,
) -> Result<Outcome, SimError> {
    run_against_baseline_observed(exp, ranks, sched, baseline, 0)
}

/// Like [`run_against_baseline`], recording the first `observe_replicas`
/// replicas with bounded [`TimelineRecorder`]s and attaching per-replica
/// critical-path and provenance summaries ([`CellObs`]) to the outcome.
/// Thin wrapper: compiles the schedule, then delegates to
/// [`run_against_baseline_compiled`].
pub fn run_against_baseline_observed(
    exp: &Experiment,
    ranks: usize,
    sched: &Schedule,
    baseline: Time,
    observe_replicas: usize,
) -> Result<Outcome, SimError> {
    let cs = Arc::new(CompiledSchedule::compile(sched));
    run_against_baseline_compiled(exp, ranks, &cs, baseline, observe_replicas)
}

/// Innermost variant: replicas of an already-compiled schedule against a
/// known baseline. This is the sweep fast path — callers compile once
/// per (app, ranks, workload), wrap in an [`Arc`], and every cell and
/// replica shares the same immutable table while reusing per-thread
/// [`cesim_engine::RunScratch`] state across runs.
///
/// **Determinism contract.** The recorder never alters simulation state
/// (the engine's instrumentation only observes), each replica still
/// derives its RNG stream from stable coordinates, and each recorder is
/// private to its replica's job — so outcomes (and any CSV rendered from
/// them) are byte-identical for every thread count, with or without
/// observation. Compilation itself is result-invariant: the compiled
/// engine path is property-tested bit-identical to the legacy
/// rebuild-per-run path (`tests/compiled_equivalence.rs`).
///
/// `observe_replicas` is the number of leading replicas (`rep <
/// observe_replicas`) to record and summarize; `0` disables observation
/// entirely.
pub fn run_against_baseline_compiled(
    exp: &Experiment,
    ranks: usize,
    cs: &Arc<CompiledSchedule>,
    baseline: Time,
    observe_replicas: usize,
) -> Result<Outcome, SimError> {
    run_against_baseline_compiled_telem(exp, ranks, cs, baseline, observe_replicas, None)
}

/// [`run_against_baseline_compiled`] with optional shard-health
/// telemetry: when `telem` is set and the experiment is sharded, every
/// replica accumulates per-shard busy/stall/barrier counters into it
/// (see `cesim_engine::ShardTelemetry`). Results are byte-identical
/// with or without the handle.
pub fn run_against_baseline_compiled_telem(
    exp: &Experiment,
    ranks: usize,
    cs: &Arc<CompiledSchedule>,
    baseline: Time,
    observe_replicas: usize,
    telem: Option<&ShardTelemetry>,
) -> Result<Outcome, SimError> {
    let baseline_span = baseline.since(Time::ZERO);
    if exp.diverges() {
        return Ok(Outcome {
            app: exp.app,
            ranks,
            baseline: baseline_span,
            runs: Vec::new(),
            diverged: true,
            obs: None,
            elided: Vec::new(),
        });
    }
    let detour = exp.mode.per_event_cost();
    // When the calling thread carries a request-trace context (serve),
    // propagate it into the replica jobs: each replica runs under its
    // own span, with shard window batches recorded as child spans.
    // Purely observational — replicas are seeded from stable
    // coordinates either way, so results are byte-identical.
    let trace = cesim_obs::tracectx::current();
    let trace = trace.as_ref();
    // Each replica is a self-contained job — its own noise model, seeded
    // from stable coordinates — so the replicas parallelize freely and
    // results are reassembled in replica order (identical to serial).
    let results: Vec<Result<ReplicaRun, SimError>> = (0..exp.reps)
        .into_par_iter()
        .map(|rep| {
            let _trace_guard = trace.map(|t| t.install());
            let _rep_span =
                trace.and_then(|_| cesim_obs::tracectx::begin_dyn(format!("replica {rep}")));
            let window_spans = (exp.shards > 1)
                .then(cesim_obs::tracectx::current)
                .flatten()
                .map(cesim_obs::tracectx::WindowSpans::new);
            let window_obs: Option<&dyn WindowObserver> =
                window_spans.as_ref().map(|w| w as &dyn WindowObserver);
            let mut noise =
                CeNoise::new(ranks, exp.mtbce, detour, exp.scope, rep_seed(exp.seed, rep));
            if (rep as usize) < observe_replicas {
                // Size the ring for the full event stream of typical
                // schedules (~a dozen events per op), bounded above so a
                // huge sweep cell cannot exhaust memory.
                let cap = ((cs.total_ops() as usize).saturating_mul(12)).clamp(1 << 10, 1 << 22);
                let mut rec = TimelineRecorder::with_capacity(cap);
                let r = if exp.shards > 1 {
                    simulate_sharded_instrumented(
                        cs,
                        &exp.params,
                        exp.shards,
                        ShardMode::Auto,
                        &noise,
                        &mut rec,
                        telem,
                        window_obs,
                    )?
                } else {
                    Simulator::from_compiled(Arc::clone(cs), exp.params)
                        .with_recorder(&mut rec)
                        .run(&mut noise)?
                };
                let events = rec.events();
                let attr = cesim_obs::critical::attribute(&events);
                let prov = cesim_obs::provenance::analyze(&events, rec.dropped()).summary();
                Ok(ReplicaRun {
                    stats: RunStats::of(&r),
                    obs: Some(ReplicaObs {
                        rep,
                        attr,
                        prov,
                        events: rec.len() as u64,
                        dropped: rec.dropped(),
                    }),
                    elided: false,
                })
            } else {
                // A replica whose CEs all arrive after the noise-free
                // finish is the noise-free run: answer it from the
                // schedule's memo, whichever engine would have run it.
                if let Some(r) = cs.quiet_result(&exp.params, &noise) {
                    return Ok(ReplicaRun {
                        stats: RunStats::of(&r),
                        obs: None,
                        elided: true,
                    });
                }
                let r = if exp.shards > 1 {
                    simulate_sharded_instrumented(
                        cs,
                        &exp.params,
                        exp.shards,
                        ShardMode::Auto,
                        &noise,
                        &mut NullRecorder,
                        telem,
                        window_obs,
                    )?
                } else {
                    with_thread_scratch(|scratch| {
                        simulate_compiled_with(cs, &exp.params, scratch, &mut noise)
                    })?
                };
                Ok(ReplicaRun {
                    stats: RunStats::of(&r),
                    obs: None,
                    elided: false,
                })
            }
        })
        .collect();
    let replica_runs: Vec<ReplicaRun> = results.into_iter().collect::<Result<_, _>>()?;
    // Replica order is job order, so the aggregation below is
    // deterministic regardless of worker interleaving.
    let replicas: Vec<ReplicaObs> = replica_runs.iter().filter_map(|r| r.obs).collect();
    let obs = (!replicas.is_empty()).then_some(CellObs { replicas });
    let elided = replica_runs.iter().map(|r| r.elided).collect();
    let runs: Vec<RunStats> = replica_runs.into_iter().map(|r| r.stats).collect();
    Ok(Outcome {
        app: exp.app,
        ranks,
        baseline: baseline_span,
        runs,
        diverged: false,
        obs,
        elided,
    })
}

/// One replica job's result: its stats, its observation (recorded
/// replicas only) and whether the quiet-replica memo answered it.
struct ReplicaRun {
    stats: RunStats,
    obs: Option<ReplicaObs>,
    elided: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cesim_engine::simulate;
    use cesim_goal::Rank;

    #[test]
    fn baseline_and_noise_free_mode_agree() {
        // Hardware-only logging at a huge MTBCE ≈ no noise at all.
        let exp = Experiment::new(AppId::MiniFe, 8)
            .mode(LoggingMode::HardwareOnly)
            .mtbce(Span::from_secs(1_000_000))
            .reps(1)
            .steps(3);
        let out = run(&exp).unwrap();
        let s = out.mean_slowdown_pct().unwrap();
        assert!(s.abs() < 0.1, "slowdown {s}%");
        assert!(!out.diverged);
    }

    #[test]
    fn firmware_noise_slows_things_down() {
        let exp = Experiment::new(AppId::Lulesh, 16)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_ms(500))
            .reps(2)
            .steps(20);
        let out = run(&exp).unwrap();
        let s = out.mean_slowdown_pct().unwrap();
        assert!(s > 5.0, "expected visible slowdown, got {s}%");
        assert!(out.mean_ce_events() > 0.0);
        assert!(out.slowdown_stddev_pct().is_some());
    }

    #[test]
    fn divergence_guard_fires() {
        let exp = Experiment::new(AppId::Lulesh, 4)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_ms(133)) // ρ = 1.0
            .steps(2);
        assert!(exp.diverges());
        let out = run(&exp).unwrap();
        assert!(out.diverged);
        assert_eq!(out.mean_slowdown_pct(), None);
        assert!(out.baseline > Span::ZERO);
    }

    #[test]
    fn single_rank_scope_limits_damage() {
        let all = Experiment::new(AppId::LammpsCrack, 16)
            .mode(LoggingMode::Software)
            .mtbce(Span::from_ms(20))
            .reps(2)
            .steps(40);
        let single = all.clone().scope(Scope::SingleRank(Rank(0)));
        let s_all = run(&all).unwrap().mean_slowdown_pct().unwrap();
        let s_one = run(&single).unwrap().mean_slowdown_pct().unwrap();
        assert!(
            s_one <= s_all + 0.5,
            "single-rank ({s_one}%) should not exceed all-ranks ({s_all}%)"
        );
    }

    #[test]
    fn lulesh_ranks_are_snapped() {
        let exp = Experiment::new(AppId::Lulesh, 260)
            .mode(LoggingMode::HardwareOnly)
            .reps(1)
            .steps(1);
        let out = run(&exp).unwrap();
        assert_eq!(out.ranks, 250);
    }

    #[test]
    fn utilization_math() {
        let exp = Experiment::new(AppId::Hpcg, 4).mtbce(Span::from_ms(266));
        assert!((exp.utilization() - 0.5).abs() < 1e-9);
        assert!(!exp.diverges());
    }

    #[test]
    fn ci95_brackets_the_mean() {
        let exp = Experiment::new(AppId::Milc, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(4)
            .steps(6);
        let out = run(&exp).unwrap();
        let mean = out.mean_slowdown_pct().unwrap();
        let (lo, hi) = out.slowdown_ci95_pct().unwrap();
        assert!(lo <= mean && mean <= hi);
        assert!(hi > lo, "interval must have width under noise");
        // One replica: no interval.
        let one = Experiment::new(AppId::Milc, 4).reps(1).steps(2);
        assert_eq!(run(&one).unwrap().slowdown_ci95_pct(), None);
    }

    #[test]
    fn observed_run_attaches_summary_without_changing_results() {
        let exp = Experiment::new(AppId::Lulesh, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(2)
            .steps(4);
        let ranks = natural_ranks(exp.app, exp.nodes);
        let sched = cesim_workloads::build(exp.app, ranks, &exp.workload);
        let base = simulate(&sched, &exp.params, &mut NoNoise).unwrap();
        let plain = run_against_baseline(&exp, ranks, &sched, base.finish).unwrap();
        let observed = run_against_baseline_observed(&exp, ranks, &sched, base.finish, 1).unwrap();
        // Observation is a pure add-on: replica results are identical.
        assert_eq!(plain.runs, observed.runs);
        assert!(plain.obs.is_none());
        let obs = observed.obs.expect("replica 0 was recorded");
        assert_eq!(obs.replicas.len(), 1);
        let r0 = obs.first();
        assert_eq!(r0.rep, 0);
        assert!(r0.events > 0);
        assert_eq!(r0.dropped, 0, "small schedule must fit the ring");
        // The attribution covers replica 0's makespan exactly.
        assert_eq!(r0.attr.total(), r0.attr.finish);
        assert_eq!(r0.attr.finish, observed.runs[0].finish);
        assert!(!r0.attr.truncated);
        assert!(r0.attr.compute > Span::ZERO);
        // Provenance accounted for every recorded detour.
        assert_eq!(
            r0.prov.absorbed + r0.prov.partially_absorbed + r0.prov.propagated,
            r0.prov.events
        );
    }

    #[test]
    fn multi_replica_observation_aggregates_in_replica_order() {
        let exp = Experiment::new(AppId::Lulesh, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(3)
            .steps(4);
        let ranks = natural_ranks(exp.app, exp.nodes);
        let sched = cesim_workloads::build(exp.app, ranks, &exp.workload);
        let base = simulate(&sched, &exp.params, &mut NoNoise).unwrap();
        let plain = run_against_baseline(&exp, ranks, &sched, base.finish).unwrap();
        let out = run_against_baseline_observed(&exp, ranks, &sched, base.finish, 2).unwrap();
        assert_eq!(plain.runs, out.runs, "observation never alters results");
        let obs = out.obs.unwrap();
        assert_eq!(obs.replicas.len(), 2);
        assert_eq!(obs.replicas[0].rep, 0);
        assert_eq!(obs.replicas[1].rep, 1);
        // Each replica's attribution matches its own run.
        for (i, r) in obs.replicas.iter().enumerate() {
            assert_eq!(r.attr.finish, out.runs[i].finish);
        }
        let (mean, sd) = obs.mean_sd(|r| r.attr.finish.as_secs_f64());
        assert!(mean > 0.0);
        assert!(sd >= 0.0);
        assert!(obs.max_amplification() >= 0.0);
        // Asking for more observed replicas than reps records them all.
        let capped = run_against_baseline_observed(&exp, ranks, &sched, base.finish, 99).unwrap();
        assert_eq!(capped.obs.unwrap().replicas.len(), exp.reps as usize);
    }

    #[test]
    fn shard_telemetry_never_alters_outcomes() {
        let exp = Experiment::new(AppId::Lulesh, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(1))
            .reps(2)
            .steps(4)
            .shards(3);
        let ranks = natural_ranks(exp.app, exp.nodes);
        let sched = cesim_workloads::build(exp.app, ranks, &exp.workload);
        let cs = Arc::new(CompiledSchedule::compile(&sched));
        let base = simulate_compiled(&cs, &exp.params, &mut NoNoise).unwrap();
        let plain = run_against_baseline_compiled(&exp, ranks, &cs, base.finish, 0).unwrap();
        let telem = ShardTelemetry::new(exp.shards);
        let watched =
            run_against_baseline_compiled_telem(&exp, ranks, &cs, base.finish, 1, Some(&telem))
                .unwrap();
        assert_eq!(plain.runs, watched.runs, "telemetry is a pure observer");
        let report = telem.report();
        assert_eq!(report.runs, u64::from(exp.reps));
        assert!(report.events() > 0);
        for s in &report.per_shard {
            assert_eq!(s.busy + s.stall + s.barrier, s.wall);
        }
    }

    #[test]
    fn reps_are_independent_but_deterministic() {
        let exp = Experiment::new(AppId::Cth, 8)
            .mode(LoggingMode::Firmware)
            .mtbce(Span::from_secs(2))
            .reps(3)
            .steps(4);
        let a = run(&exp).unwrap();
        let b = run(&exp).unwrap();
        assert_eq!(a.runs, b.runs, "same seeds → same results");
        // Different replicas see different arrival streams (almost surely
        // different finish times under heavy noise).
        let distinct: std::collections::HashSet<u64> =
            a.runs.iter().map(|r| r.finish.as_ps()).collect();
        assert!(distinct.len() > 1 || a.runs[0].ce_events == 0);
    }
}
