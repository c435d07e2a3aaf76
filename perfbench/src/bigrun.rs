//! `big_run`: one `cesim run`-style experiment at 8192 ranks
//! (LAMMPS-lj, software logging, MTBCE 20 s).
//!
//! Set-up is `ScheduleCache::get_or_compile` — build, compile and the
//! noise-free baseline — on a fresh cache. A run then repeats batches
//! of two perturbed replicas (run in parallel, as `cesim run` runs
//! them). Every batch must give the same finish times and CE
//! counts, and their digest must match the committed one for the seed.

use crate::report::Report;
use crate::stats::median;
use crate::sweep::{build_compile_baseline, SetupStats};
use crate::{digest, heap, spans, Opts};
use cesim_core::experiment::{run_against_baseline_compiled, Outcome};
use cesim_core::model::{LoggingMode, Span, Time};
use cesim_core::obs::tracectx;
use cesim_core::seed::mix;
use cesim_core::workloads::{natural_ranks, AppId};
use cesim_core::{Experiment, ScheduleCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: AppId = AppId::LammpsLj;
const NODES: usize = 8192;
const MTBCE_S: u64 = 20;
/// Keeps one replica near 2.5 s of host time on a 2-CPU host.
const STEPS_SCALE: f64 = 0.25;
/// Replicas per batch: fixed, so the digest does not depend on the host;
/// they run in parallel on up to this many CPUs.
const REPS: u32 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn experiment(seed: u64) -> Experiment {
    let mut exp = Experiment::new(APP, NODES)
        .mode(LoggingMode::Software)
        .mtbce(Span::from_secs(MTBCE_S))
        .reps(REPS)
        .seed(mix(seed, 0xb16));
    exp.workload.seed = mix(seed, 0x10ad);
    exp.workload.steps_scale = STEPS_SCALE;
    exp
}

/// Digest of what the replicas simulated: finish time and CE count of
/// each, in replica order.
fn outcome_digest(out: &Outcome) -> String {
    let mut text = format!("baseline_ps={}\n", out.baseline.as_ps());
    for run in &out.runs {
        text.push_str(&format!("{} {}\n", run.finish.as_ps(), run.ce_events));
    }
    digest::hex(text.as_bytes())
}

#[derive(Default)]
struct Pass {
    batch_s: Vec<f64>,
    /// Peak live heap of each batch.
    peak_mb: Vec<f64>,
    digests: Vec<String>,
    replica_s: Vec<f64>,
    events: u64,
    ce_events: u64,
    replicas: usize,
}

fn pass(
    exp: &Experiment,
    ranks: usize,
    cs: &Arc<cesim_core::engine::CompiledSchedule>,
    baseline: Time,
    secs: f64,
    traced: bool,
) -> Pass {
    spans::set_enabled(traced);
    let mut p = Pass::default();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    loop {
        let ctx = traced.then(|| tracectx::TraceCtx::new_root("big_run batch", None));
        let guard = ctx.as_ref().map(tracectx::TraceCtx::install);
        heap::reset_peak();
        let t = Instant::now();
        let out = spans::span("core.run_against_baseline_compiled", || {
            run_against_baseline_compiled(exp, ranks, cs, baseline, 0)
        })
        .expect("benchmark schedules are deadlock-free");
        p.batch_s.push(t.elapsed().as_secs_f64());
        p.peak_mb.push(heap::peak_mb());
        drop(guard);
        if let Some(ctx) = ctx {
            for s in ctx.finish(200, false).spans {
                if s.name.starts_with("replica ") {
                    p.replica_s.push(s.dur_ns as f64 / 1e9);
                }
            }
        }
        p.replicas = out.runs.len();
        p.events = out.runs.iter().map(|r| r.events).sum();
        p.ce_events = out.runs.iter().map(|r| r.ce_events).sum();
        p.digests.push(outcome_digest(&out));
        if Instant::now() >= end {
            break;
        }
    }
    spans::set_enabled(false);
    p
}

pub fn run(opts: &Opts) -> Report {
    let exp = experiment(opts.seed);
    let ranks = natural_ranks(APP, NODES);
    let mut r = Report::default();

    // Set-up: untraced runs time `get_or_compile` on a fresh cache;
    // traced runs make the same three layer calls one by one, spanned.
    let mut walls = Vec::new();
    let mut layer = SetupStats::default();
    let mut entry = None;
    for _ in 0..SETUPS {
        // Drop the previous schedule before rebuilding.
        drop(entry.take());
        let t = Instant::now();
        if opts.traced {
            spans::set_enabled(true);
            let (st, cs, base) = build_compile_baseline(APP, ranks, &exp.workload);
            spans::set_enabled(false);
            layer = st;
            entry = Some((Arc::new(cs), base));
        } else {
            let cache = ScheduleCache::new(1);
            let e = cache
                .get_or_compile(APP, NODES, &exp.workload, &exp.params)
                .expect("benchmark schedules are deadlock-free");
            entry = Some((Arc::clone(&e.schedule), e.baseline));
        }
        walls.push(t.elapsed().as_secs_f64());
    }
    let (cs, baseline) = entry.expect("set-up ran");
    r.set("setup_s", median(&walls).expect("set-ups ran"), SETUPS);

    let (plain, traced) = if opts.traced {
        let half = opts.seconds / 2.0;
        (
            pass(&exp, ranks, &cs, baseline, half, false),
            Some(pass(&exp, ranks, &cs, baseline, half, true)),
        )
    } else {
        (pass(&exp, ranks, &cs, baseline, opts.seconds, false), None)
    };

    let all: Vec<&String> = plain
        .digests
        .iter()
        .chain(traced.iter().flat_map(|t| &t.digests))
        .collect();
    let expected = opts
        .expect_digest
        .clone()
        .or_else(|| digest::expected("big_run", opts.seed));
    let reference = expected.clone().unwrap_or_else(|| all[0].clone());
    r.attempted = all.len() as u64;
    r.failed = all.iter().filter(|d| ***d != reference).count() as u64;
    r.notes.push(format!(
        "digest: big_run seed={} replicas={} expected={}",
        opts.seed,
        all[0],
        expected
            .as_deref()
            .unwrap_or("(none committed for this seed)")
    ));
    if let Err(e) = digest::check("big_run", opts.seed, all[0], expected.as_deref()) {
        r.invalidate(e);
    }

    // Medians over the run's batches, so one batch slowed by the host
    // does not move the result.
    let batch_s = median(&plain.batch_s).expect("batches ran");
    r.set(
        "throughput_per_s",
        plain.replicas as f64 / batch_s,
        plain.batch_s.len(),
    );
    let peak = median(&plain.peak_mb).expect("batches ran");
    r.set("peak_heap_mb", peak, plain.peak_mb.len());
    r.notes.push(format!(
        "big_run: {ranks} ranks, {} replicas per batch, {} batches, {:.3} s/batch median, \
         {} events per batch",
        plain.replicas,
        plain.batch_s.len(),
        batch_s,
        plain.events
    ));

    if let Some(t) = traced {
        layer.report(&mut r, 1);
        r.set("engine.shards", exp.shards as f64, 1);
        r.set("noise.ce_events", t.ce_events as f64, t.replicas);
        if let Some(m) = median(&t.replica_s) {
            r.set("engine.replica_s", m, t.replica_s.len());
            let per_replica = t.events as f64 / t.replicas as f64;
            r.set("engine.events", per_replica, t.replicas);
            r.set("engine.events_per_s", per_replica / m, t.replica_s.len());
        }
        let p50 = |xs: &[f64]| median(xs).expect("batches ran");
        r.set(
            "trace.overhead_frac",
            p50(&t.batch_s) / p50(&plain.batch_s) - 1.0,
            t.batch_s.len() + plain.batch_s.len(),
        );
    }
    r
}
