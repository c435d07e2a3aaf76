//! Quiet-replica elision is exact: a run answered from the noise-free
//! memo equals a full event-loop run (`simulate_compiled_with`, which
//! never reads the memo) on every `SimResult` field — finish times,
//! per-rank accounting, `noise_events`, `events_processed` and the
//! match-queue high-water marks — and the experiment and figure layers
//! produce the same numbers with elision as without it.
//!
//! The edges: an arrival exactly at the noise-free finish still
//! simulates (the last CPU interval ends there and takes the detour);
//! arrivals that only ever fall in idle time simulate too and inject
//! nothing; a memo filled under one eager threshold never answers for
//! another; and a single-rank CE scope consults only that rank.

use dram_ce_sim::engine::{
    simulate_compiled, simulate_compiled_with, CompiledSchedule, NoNoise, NoiseModel, RunScratch,
    SimResult,
};
use dram_ce_sim::experiment::{run_against_baseline_compiled, Experiment};
use dram_ce_sim::goal::{Rank, ScheduleBuilder, Tag};
use dram_ce_sim::model::{LogGopsParams, LoggingMode, Span, Time};
use dram_ce_sim::noise::{CeNoise, HeteroCeNoise, RankCeParams, Scope};
use dram_ce_sim::seed::rep_seed;
use dram_ce_sim::workloads::{build, natural_ranks, AppId, WorkloadConfig};
use dram_ce_sim::{figures, ScaleConfig};
use std::sync::Arc;

fn xc40() -> LogGopsParams {
    LogGopsParams::xc40()
}

/// A small LULESH schedule (8 ranks, 4 steps) with its memo filled by a
/// noise-free `simulate_compiled` run.
fn lulesh() -> (usize, CompiledSchedule, SimResult) {
    let ranks = natural_ranks(AppId::Lulesh, 8);
    let wl = WorkloadConfig::default().with_steps(4);
    let cs = CompiledSchedule::compile(&build(AppId::Lulesh, ranks, &wl));
    let base = simulate_compiled(&cs, &xc40(), &mut NoNoise).unwrap();
    (ranks, cs, base)
}

/// The full event-loop run of `noise` (a clone, so `noise` stays fresh).
fn full_run<N: NoiseModel + Clone>(
    cs: &CompiledSchedule,
    p: &LogGopsParams,
    noise: &N,
) -> SimResult {
    simulate_compiled_with(cs, p, &mut RunScratch::new(), &mut noise.clone()).unwrap()
}

/// Run `noise` through the memo-reading entry point and check it against
/// the full run; returns whether the memo answered it.
fn check_exact<N: NoiseModel + Clone>(cs: &CompiledSchedule, p: &LogGopsParams, noise: &N) -> bool {
    let elided = cs.quiet_result(p, noise);
    let full = full_run(cs, p, noise);
    let served = simulate_compiled(cs, p, &mut noise.clone()).unwrap();
    assert_eq!(served, full, "simulate_compiled diverged from the engine");
    if let Some(r) = &elided {
        assert_eq!(r, &full, "elided result diverged from the engine");
    }
    elided.is_some()
}

#[test]
fn ce_replicas_elide_exactly_when_quiet() {
    let (ranks, cs, base) = lulesh();
    let t = base.finish.since(Time::ZERO);
    // Mean first arrival over all ranks ≈ the baseline: about a third of
    // the seeds reach no rank before the finish.
    let mtbce = t * ranks as u64;
    let (mut quiet, mut noisy) = (0, 0);
    for seed in 0..40 {
        let noise = CeNoise::new(ranks, mtbce, Span::from_us(775), Scope::AllRanks, seed);
        if check_exact(&cs, &xc40(), &noise) {
            assert!(noise.quiet_until() > base.finish);
            quiet += 1;
        } else {
            noisy += 1;
        }
    }
    assert!(
        quiet > 0 && noisy > 0,
        "{quiet} quiet / {noisy} noisy seeds"
    );
}

#[test]
fn hetero_replicas_elide_exactly_when_quiet() {
    let (ranks, cs, base) = lulesh();
    let t = base.finish.since(Time::ZERO);
    // One hot node among cold ones, with per-node logging costs.
    let params: Vec<RankCeParams> = (0..ranks)
        .map(|r| RankCeParams {
            mtbce: if r == 3 { t } else { t * 40 },
            detour: LoggingMode::all()[r % 3].per_event_cost(),
        })
        .collect();
    let (mut quiet, mut noisy) = (0, 0);
    for seed in 0..40 {
        let noise = HeteroCeNoise::new(params.clone(), seed);
        if check_exact(&cs, &xc40(), &noise) {
            quiet += 1;
        } else {
            noisy += 1;
        }
    }
    assert!(
        quiet > 0 && noisy > 0,
        "{quiet} quiet / {noisy} noisy seeds"
    );
}

#[test]
fn elided_result_reports_the_models_prior_events() {
    let (ranks, cs, base) = lulesh();
    // Drive rank 0's process past the run before simulating: it has
    // injected events already and none can land during the run.
    let mut noise = CeNoise::new(
        ranks,
        Span::from_us(50),
        Span::from_us(10),
        Scope::SingleRank(Rank(0)),
        5,
    );
    noise.stretch(Rank(0), Time::ZERO, base.finish.since(Time::ZERO) * 2);
    let prior = noise.events_injected();
    assert!(prior > 0);
    assert!(check_exact(&cs, &xc40(), &noise));
    assert_eq!(
        cs.quiet_result(&xc40(), &noise).unwrap().noise_events,
        prior
    );
}

#[test]
fn arrival_exactly_at_the_finish_simulates() {
    use dram_ce_sim::engine::noise::ScriptedNoise;
    let (_, cs, base) = lulesh();
    let last = base
        .per_rank_finish
        .iter()
        .position(|&f| f == base.finish)
        .unwrap();
    let detour = Span::from_us(3);
    let at_finish = ScriptedNoise::new(vec![(Rank(last as u32), base.finish, detour)]);
    assert_eq!(at_finish.quiet_until(), base.finish);
    assert!(!check_exact(&cs, &xc40(), &at_finish));
    let r = full_run(&cs, &xc40(), &at_finish);
    assert_eq!(r.noise_events, 1, "the last interval takes the detour");
    assert_eq!(r.finish, base.finish + detour);

    // One picosecond later nothing can land: elided, and still exact.
    let after = ScriptedNoise::new(vec![(
        Rank(last as u32),
        base.finish + Span::from_ps(1),
        detour,
    )]);
    assert!(check_exact(&cs, &xc40(), &after));
    assert_eq!(full_run(&cs, &xc40(), &after), base);
}

/// Rank 1 receives one message early and then idles while rank 0
/// computes for a millisecond.
fn early_idle_rank() -> CompiledSchedule {
    let mut b = ScheduleBuilder::new(2);
    let c = b.calc(Rank(0), Span::from_us(10), &[]);
    let s = b.send(Rank(0), Rank(1), 8, Tag(0), &[c]);
    b.calc(Rank(0), Span::from_ms(1), &[s]);
    b.recv(Rank(1), Some(Rank(0)), 8, Tag(0), &[]);
    CompiledSchedule::compile(&b.build())
}

#[test]
fn arrivals_only_in_idle_time_simulate_and_inject_nothing() {
    let cs = early_idle_rank();
    let base = simulate_compiled(&cs, &xc40(), &mut NoNoise).unwrap();
    let idle_from = base.per_rank_finish[1];
    assert!(idle_from < base.finish);
    // Seeds whose first rank-1 arrival falls after rank 1 is done but
    // before the run ends: not provably quiet, yet harmless.
    let mut idle_seeds = 0;
    for seed in 0..64 {
        let noise = CeNoise::new(
            2,
            Span::from_us(500),
            Span::from_us(100),
            Scope::SingleRank(Rank(1)),
            seed,
        );
        let q = noise.quiet_until();
        if q <= idle_from || q > base.finish {
            continue;
        }
        idle_seeds += 1;
        assert!(!check_exact(&cs, &xc40(), &noise), "seed {seed}");
        let r = full_run(&cs, &xc40(), &noise);
        assert_eq!(r.noise_events, 0);
        assert_eq!(r, base);
    }
    assert!(idle_seeds > 0);
}

#[test]
fn memo_is_keyed_by_the_eager_threshold() {
    // One 64 KiB message: rendezvous under the XC40 16 KiB threshold,
    // eager under a 1 MiB one.
    let mut b = ScheduleBuilder::new(2);
    let c = b.calc(Rank(0), Span::from_us(5), &[]);
    b.send(Rank(0), Rank(1), 64 * 1024, Tag(0), &[c]);
    b.recv(Rank(1), Some(Rank(0)), 64 * 1024, Tag(0), &[]);
    let cs = CompiledSchedule::compile(&b.build());
    let rend = xc40();
    let eager = LogGopsParams {
        eager_threshold: 1 << 20,
        ..rend
    };
    let base_rend = simulate_compiled(&cs, &rend, &mut NoNoise).unwrap();
    assert!(base_rend.control_msgs > 0);
    // The memo now holds the rendezvous run only; the eager parameters
    // must simulate, not be served it.
    assert!(cs.quiet_result(&eager, &NoNoise).is_none());
    let base_eager = simulate_compiled(&cs, &eager, &mut NoNoise).unwrap();
    assert_eq!(base_eager, full_run(&cs, &eager, &NoNoise));
    assert_eq!(base_eager.control_msgs, 0);
    assert_ne!(base_eager, base_rend);
    // Both are memoized now, each under its own key.
    assert_eq!(cs.quiet_result(&rend, &NoNoise), Some(base_rend));
    assert_eq!(cs.quiet_result(&eager, &NoNoise), Some(base_eager));
}

#[test]
fn single_rank_scope_consults_only_its_rank() {
    let (ranks, cs, base) = lulesh();
    let mtbce = base.finish.since(Time::ZERO);
    let target = Rank(2);
    // A seed where the scoped rank is quiet past the finish while some
    // other rank's stream would have fired during the run.
    let seed = (0..200)
        .find(|&s| {
            let all = CeNoise::new(ranks, mtbce, Span::from_us(775), Scope::AllRanks, s);
            let one = CeNoise::new(
                ranks,
                mtbce,
                Span::from_us(775),
                Scope::SingleRank(target),
                s,
            );
            all.quiet_until() <= base.finish && one.quiet_until() > base.finish
        })
        .expect("some seed separates the scopes");
    let one = CeNoise::new(
        ranks,
        mtbce,
        Span::from_us(775),
        Scope::SingleRank(target),
        seed,
    );
    let all = CeNoise::new(ranks, mtbce, Span::from_us(775), Scope::AllRanks, seed);
    assert!(check_exact(&cs, &xc40(), &one), "scoped rank is quiet");
    assert!(!check_exact(&cs, &xc40(), &all), "another rank is not");
}

/// The experiment layer: every replica of a cell with both quiet and
/// noisy replicas equals its own full engine run, serial and sharded.
#[test]
fn experiment_replicas_match_full_runs() {
    let (ranks, cs, base) = lulesh();
    let cs = Arc::new(cs);
    let exp = Experiment::new(AppId::Lulesh, 8)
        .mode(LoggingMode::Software)
        .mtbce(base.finish.since(Time::ZERO) * ranks as u64)
        .reps(16)
        .steps(4);
    let out = run_against_baseline_compiled(&exp, ranks, &cs, base.finish, 0).unwrap();
    let detour = exp.mode.per_event_cost();
    let mut elided = Vec::new();
    for (rep, run) in out.runs.iter().enumerate() {
        let noise = CeNoise::new(
            ranks,
            exp.mtbce,
            detour,
            exp.scope,
            rep_seed(exp.seed, rep as u32),
        );
        let full = full_run(&cs, &exp.params, &noise);
        assert_eq!(run.finish, full.finish.since(Time::ZERO), "rep {rep}");
        assert_eq!(run.ce_events, full.noise_events, "rep {rep}");
        assert_eq!(run.events, full.events_processed, "rep {rep}");
        elided.push(cs.quiet_result(&exp.params, &noise).is_some());
    }
    assert_eq!(out.elided, elided);
    assert!(
        elided.contains(&true) && elided.contains(&false),
        "elided: {elided:?}"
    );

    let sharded =
        run_against_baseline_compiled(&exp.clone().shards(3), ranks, &cs, base.finish, 0).unwrap();
    assert_eq!(sharded.runs, out.runs);
    assert_eq!(sharded.elided, out.elided);
}

/// A tiny Fig. 4 sweep: every cell equals its recomputation with every
/// replica recorded, which always runs the real engine.
#[test]
fn fig4_cells_equal_a_memo_free_recomputation() {
    let cfg = ScaleConfig {
        nodes: 16,
        reps: 3,
        steps_scale: 0.05,
        apps: vec![AppId::Lulesh, AppId::Hpcg, AppId::MiniFe],
        threads: 1,
        ..ScaleConfig::default()
    };
    let before = dram_ce_sim::engine::quiet_counts();
    let plain = figures::fig4(&cfg);
    assert!(
        dram_ce_sim::engine::quiet_counts().elided > before.elided,
        "the sweep elided no replica"
    );
    let recorded = figures::fig4(&ScaleConfig {
        observe: true,
        observe_replicas: cfg.reps as usize,
        ..cfg.clone()
    });
    assert_eq!(plain.cells.len(), recorded.cells.len());
    for (a, b) in plain.cells.iter().zip(&recorded.cells) {
        let what = format!("{} {} {}", a.app, a.group, a.mode.short_label());
        assert_eq!(a.slowdown_pct, b.slowdown_pct, "{what}");
        assert_eq!(a.stddev_pct, b.stddev_pct, "{what}");
        assert_eq!(a.baseline_secs, b.baseline_secs, "{what}");
        assert_eq!(a.ce_events, b.ce_events, "{what}");
        assert_eq!(a.ranks, b.ranks, "{what}");
    }
}
