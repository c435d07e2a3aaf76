//! `sweep_grid`: the paper's Fig. 4 regeneration through
//! `figures::fig4` — all nine apps × Cielo/Trinity/Summit × three
//! logging modes at 256 nodes, the same path `cesim fig4` and
//! `POST /v1/sweep` take.
//!
//! Set-up is fig4's first stage done through the program's schedule
//! cache: `ScheduleCache::get_or_compile` for every app, on the sweep's
//! thread pool. A run then repeats the whole sweep; every repeat must
//! render the same figure CSV, its digest must match the committed one
//! for the seed, and every set-up baseline must equal the baseline fig4
//! reports for that app (so set-up times the schedules fig4 runs).

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::{digest, heap, host, spans, Opts};
use cesim_core::engine::{simulate_compiled, CompiledSchedule, NoNoise};
use cesim_core::model::{LogGopsParams, Time};
use cesim_core::obs::{telemetry, tracectx};
use cesim_core::seed::mix;
use cesim_core::workloads::{self, natural_ranks, AppId, WorkloadConfig};
use cesim_core::{figures, report::figure_csv, ScaleConfig, ScheduleCache};
use rayon::prelude::*;
use std::time::{Duration, Instant};

const NODES: usize = 256;
const REPS: u32 = 2;
/// Keeps one sweep near 2 s of host time on a 2-CPU host, so a run
/// takes the median of a dozen sweeps.
const STEPS_SCALE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn config(seed: u64) -> ScaleConfig {
    ScaleConfig {
        nodes: NODES,
        reps: REPS,
        steps_scale: STEPS_SCALE,
        seed: mix(seed, 0xf164),
        threads: host::nproc(),
        ..ScaleConfig::default()
    }
}

/// Work and host time of building, compiling and baselining schedules.
#[derive(Clone, Debug, Default)]
pub struct SetupStats {
    pub build_s: f64,
    pub compile_s: f64,
    pub baseline_s: f64,
    pub ops: u64,
    pub compiled_ops: u64,
    pub compiled_deps: u64,
    pub baseline_events: u64,
}

impl SetupStats {
    fn add(&mut self, o: &SetupStats) {
        self.build_s += o.build_s;
        self.compile_s += o.compile_s;
        self.baseline_s += o.baseline_s;
        self.ops += o.ops;
        self.compiled_ops += o.compiled_ops;
        self.compiled_deps += o.compiled_deps;
        self.baseline_events += o.baseline_events;
    }

    /// Per-layer metrics of set-up work.
    pub fn report(&self, r: &mut Report, schedules: usize) {
        r.set("workloads.build_s", self.build_s, schedules);
        r.set("workloads.ops", self.ops as f64, schedules);
        r.set("engine.compile_s", self.compile_s, schedules);
        r.set("engine.compiled_ops", self.compiled_ops as f64, schedules);
        r.set("engine.compiled_deps", self.compiled_deps as f64, schedules);
        r.set("engine.baseline_s", self.baseline_s, schedules);
    }
}

/// Build, compile and baseline one schedule through the layer calls
/// `get_or_compile` makes, timing each.
pub fn build_compile_baseline(
    app: AppId,
    ranks: usize,
    wcfg: &WorkloadConfig,
) -> (SetupStats, CompiledSchedule, Time) {
    let t = Instant::now();
    let sched = spans::span("workloads.build", || workloads::build(app, ranks, wcfg));
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cs = spans::span("engine.compile", || CompiledSchedule::compile(&sched));
    let compile_s = t.elapsed().as_secs_f64();
    let ops = sched.total_ops() as u64;
    drop(sched);
    let t = Instant::now();
    let base = spans::span("engine.simulate_compiled", || {
        simulate_compiled(&cs, &LogGopsParams::xc40(), &mut NoNoise)
    })
    .expect("benchmark schedules are deadlock-free");
    let stats = SetupStats {
        build_s,
        compile_s,
        baseline_s: t.elapsed().as_secs_f64(),
        ops,
        compiled_ops: cs.total_ops(),
        compiled_deps: cs.total_deps(),
        baseline_events: base.events_processed,
    };
    (stats, cs, base.finish)
}

/// The workload knobs fig4 builds app `ai`'s schedule with.
fn workload_cfg(cfg: &ScaleConfig, ai: usize) -> WorkloadConfig {
    WorkloadConfig {
        steps_scale: cfg.steps_scale,
        seed: cfg.seed ^ ai as u64,
        ..WorkloadConfig::default()
    }
}

/// fig4's first stage through the program: `get_or_compile` of every
/// app's schedule on a fresh cache, under the sweep's thread pool.
/// Returns the wall time and each app's baseline.
fn setup(cfg: &ScaleConfig) -> (f64, Vec<(AppId, Time)>) {
    let t = Instant::now();
    let cache = ScheduleCache::new(cfg.apps.len());
    let apps: Vec<usize> = (0..cfg.apps.len()).collect();
    let baselines = cfg.scoped(|| {
        apps.par_iter()
            .map(|&ai| {
                let app = cfg.apps[ai];
                let entry = spans::span("core.get_or_compile", || {
                    cache.get_or_compile(
                        app,
                        cfg.nodes,
                        &workload_cfg(cfg, ai),
                        &LogGopsParams::xc40(),
                    )
                })
                .expect("benchmark schedules are deadlock-free");
                (app, entry.baseline)
            })
            .collect()
    });
    (t.elapsed().as_secs_f64(), baselines)
}

/// Apps whose set-up baseline differs from the baseline fig4 reports.
fn baseline_mismatches(baselines: &[(AppId, Time)], fig: &figures::FigureData) -> Vec<String> {
    fig.cells
        .iter()
        .filter_map(|c| {
            let (_, base) = baselines.iter().find(|(app, _)| *app == c.app)?;
            (base.as_secs_f64() != c.baseline_secs).then(|| {
                format!(
                    "{} {}: set-up baseline {} s, fig4 baseline {} s",
                    c.app,
                    c.group,
                    base.as_secs_f64(),
                    c.baseline_secs
                )
            })
        })
        .collect()
}

#[derive(Default)]
struct Pass {
    sweep_s: Vec<f64>,
    /// Peak live heap of each sweep.
    peak_mb: Vec<f64>,
    digests: Vec<String>,
    cell_s: Vec<f64>,
    replica_s: Vec<f64>,
    /// Thread-seconds inside cells and set-up phases (traced only).
    busy_s: f64,
    ce_events: f64,
    cells: usize,
    /// Set-up baselines that differ from a sweep's.
    mismatches: Vec<String>,
}

fn pass(cfg: &ScaleConfig, baselines: &[(AppId, Time)], secs: f64, traced: bool) -> Pass {
    telemetry::set_enabled(traced);
    spans::set_enabled(traced);
    let mut p = Pass::default();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    loop {
        let ctx = traced.then(|| tracectx::TraceCtx::new_root("fig4", None));
        let guard = ctx.as_ref().map(tracectx::TraceCtx::install);
        heap::reset_peak();
        let t = Instant::now();
        let fig = spans::span("core.fig4", || figures::fig4(cfg));
        p.sweep_s.push(t.elapsed().as_secs_f64());
        p.peak_mb.push(heap::peak_mb());
        drop(guard);
        if let Some(ctx) = ctx {
            for s in ctx.finish(200, false).spans {
                let d = s.dur_ns as f64 / 1e9;
                if s.name.starts_with("cell ") {
                    p.cell_s.push(d);
                    p.busy_s += d;
                } else if s.name.starts_with("replica ") {
                    p.replica_s.push(d);
                } else if matches!(s.name.as_str(), "build" | "compile" | "baseline") {
                    p.busy_s += d;
                }
            }
        }
        p.cells = fig.cells.len();
        p.ce_events = fig.cells.iter().map(|c| c.ce_events).sum::<f64>() * f64::from(REPS);
        p.digests.push(digest::hex(figure_csv(&fig).as_bytes()));
        p.mismatches.extend(baseline_mismatches(baselines, &fig));
        if Instant::now() >= end {
            break;
        }
    }
    telemetry::set_enabled(false);
    spans::set_enabled(false);
    p
}

pub fn run(opts: &Opts) -> Report {
    let cfg = config(opts.seed);
    let mut r = Report::default();
    spans::set_enabled(opts.traced);
    let mut walls = Vec::new();
    let mut baselines = Vec::new();
    for _ in 0..SETUPS {
        let (wall, b) = setup(&cfg);
        walls.push(wall);
        baselines = b;
    }
    r.set("setup_s", median(&walls).expect("set-ups ran"), SETUPS);
    // Traced runs break the same work down by layer: the three calls
    // `get_or_compile` makes, one app at a time, each spanned.
    let mut mismatches = Vec::new();
    let layer = opts.traced.then(|| {
        let mut total = SetupStats::default();
        for (ai, &(app, base)) in baselines.iter().enumerate() {
            let ranks = natural_ranks(app, cfg.nodes);
            let (st, _, b) = build_compile_baseline(app, ranks, &workload_cfg(&cfg, ai));
            if b != base {
                mismatches.push(format!(
                    "{app}: layer-call baseline differs from get_or_compile's"
                ));
            }
            total.add(&st);
        }
        total
    });
    spans::set_enabled(false);

    let (plain, traced) = if opts.traced {
        let half = opts.seconds / 2.0;
        (
            pass(&cfg, &baselines, half, false),
            Some(pass(&cfg, &baselines, half, true)),
        )
    } else {
        (pass(&cfg, &baselines, opts.seconds, false), None)
    };

    // Output gate: every sweep renders the same CSV, equal to the
    // committed digest for this seed.
    let all: Vec<&String> = plain
        .digests
        .iter()
        .chain(traced.iter().flat_map(|t| &t.digests))
        .collect();
    let expected = opts
        .expect_digest
        .clone()
        .or_else(|| digest::expected("sweep_grid", opts.seed));
    let reference = expected.clone().unwrap_or_else(|| all[0].clone());
    r.attempted = all.len() as u64;
    r.failed = all.iter().filter(|d| ***d != reference).count() as u64;
    r.notes.push(format!(
        "digest: sweep_grid seed={} fig4-csv={} expected={}",
        opts.seed,
        all[0],
        expected
            .as_deref()
            .unwrap_or("(none committed for this seed)")
    ));
    if let Err(e) = digest::check("sweep_grid", opts.seed, all[0], expected.as_deref()) {
        r.invalidate(e);
    }
    // Set-up must have built the schedules the sweeps ran (one more
    // checked operation).
    mismatches.extend(
        plain
            .mismatches
            .iter()
            .chain(traced.iter().flat_map(|t| &t.mismatches))
            .cloned(),
    );
    r.attempted += 1;
    if !mismatches.is_empty() {
        r.failed += 1;
        r.invalidate(format!(
            "set-up baselines differ from fig4's: {}",
            mismatches.join("; ")
        ));
    }

    // Medians over the run's sweeps, so one sweep slowed by the host
    // does not move the result.
    let sweep_s = median(&plain.sweep_s).expect("sweeps ran");
    let replicas = (plain.cells as f64) * f64::from(REPS);
    r.set("throughput_per_s", replicas / sweep_s, plain.sweep_s.len());
    let peak = median(&plain.peak_mb).expect("sweeps ran");
    r.set("peak_heap_mb", peak, plain.peak_mb.len());
    r.notes.push(format!(
        "sweep_grid: {} cells x {REPS} reps per sweep, {} sweeps, {:.3} s/sweep median, \
         threads={}, seconds per sweep {:.3?}, peak heap MB per sweep {:.1?}",
        plain.cells,
        plain.sweep_s.len(),
        sweep_s,
        host::nproc(),
        plain.sweep_s,
        plain.peak_mb
    ));

    if let (Some(t), Some(s)) = (traced, layer) {
        s.report(&mut r, cfg.apps.len());
        r.set("engine.events", s.baseline_events as f64, cfg.apps.len());
        r.set(
            "engine.events_per_s",
            s.baseline_events as f64 / s.baseline_s,
            cfg.apps.len(),
        );
        r.set("engine.shards", 1.0, 1);
        r.set("noise.ce_events", t.ce_events, t.cells);
        if let Some(m) = median(&t.replica_s) {
            r.set("engine.replica_s", m, t.replica_s.len());
        }
        if let (Some(p50), Some(p99)) = (percentile(&t.cell_s, 50.0), percentile(&t.cell_s, 99.0)) {
            r.pct("core.cell_s.p50", p50);
            r.pct("core.cell_s.p99", p99);
        }
        let wall: f64 = t.sweep_s.iter().sum();
        r.set(
            "core.sweep_idle_frac",
            1.0 - t.busy_s / (host::nproc() as f64 * wall),
            t.sweep_s.len(),
        );
        let p50 = |xs: &[f64]| median(xs).expect("sweeps ran");
        r.set(
            "trace.overhead_frac",
            p50(&t.sweep_s) / p50(&plain.sweep_s) - 1.0,
            t.sweep_s.len() + plain.sweep_s.len(),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-scale grid: the gate passes with the right digest and
    /// fails the run with a tampered one.
    #[test]
    fn tampered_expected_digest_fails_the_run() {
        let cfg = ScaleConfig {
            apps: vec![workloads::AppId::Hpcg],
            ..ScaleConfig::smoke()
        };
        let fig = figures::fig4(&cfg);
        let actual = digest::hex(figure_csv(&fig).as_bytes());
        assert_eq!(
            actual,
            digest::hex(figure_csv(&figures::fig4(&cfg)).as_bytes()),
            "fig4 output must be deterministic"
        );
        assert!(digest::check("sweep_grid", 0, &actual, Some(&actual)).is_ok());
        let mut tampered = actual.clone();
        tampered.replace_range(0..1, if actual.starts_with('0') { "1" } else { "0" });
        let err = digest::check("sweep_grid", 0, &actual, Some(&tampered)).unwrap_err();
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.invalidate(err);
        assert!(!r.correct());
        let line = cesim_json::JsonValue::parse(&r.result_line(false)).unwrap();
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
    }
}
