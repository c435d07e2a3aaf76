//! Compile-once vs rebuild-per-replica: the payoff of the
//! [`CompiledSchedule`] / `RunScratch` split on a replica sweep.
//!
//! The experiment layer runs the *same* schedule under many noise seeds
//! (replicas). The legacy path (`simulate`) re-compiles the schedule and
//! re-allocates all per-run state for every replica; the compiled path
//! (`simulate_compiled_with` on one reused scratch) compiles once and
//! resets that scratch in place. It always drives the event loop, so a
//! replica that `simulate_compiled` would answer from the quiet-replica
//! memo is still timed as a real run. This bench measures both on a
//! 256-rank back-to-back allreduce sweep under CE noise and reports the
//! replica-throughput ratio.
//!
//! Scaling knobs (for CI smoke runs):
//!
//! * `ENGINE_BENCH_RANKS` — ranks in the allreduce (default 256);
//! * `ENGINE_BENCH_ROUNDS` — back-to-back allreduces (default 24);
//! * `ENGINE_BENCH_REPLICAS` — replicas per headline measurement
//!   (default 24);
//! * `ENGINE_BENCH_JSON` — if set, write the headline comparison as
//!   JSON to this path (used to produce `BENCH_engine.json`).

use cesim_core::engine::{simulate, simulate_compiled_with, CompiledSchedule, RunScratch};
use cesim_core::goal::builder::TagPool;
use cesim_core::goal::collectives::{allreduce_recursive_doubling, CollectiveCosts};
use cesim_core::goal::{Rank, Schedule, ScheduleBuilder};
use cesim_core::model::{LogGopsParams, Span};
use cesim_core::noise::{CeNoise, Scope};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Back-to-back recursive-doubling allreduces — the collective pattern
/// the figure sweeps hammer hardest.
fn allreduce_schedule(n: usize, count: usize) -> Schedule {
    let mut b = ScheduleBuilder::new(n);
    let mut tags = TagPool::new();
    let mut cur: Vec<_> = (0..n).map(|r| b.join(Rank::from(r), &[])).collect();
    for _ in 0..count {
        cur = allreduce_recursive_doubling(&mut b, &mut tags, 8, &CollectiveCosts::default(), &cur);
    }
    b.build()
}

fn noise(ranks: usize, seed: u64) -> CeNoise {
    // Light CE noise (fleet-median-ish MTBCE): replicas genuinely differ
    // by seed without the noise machinery dominating engine time.
    CeNoise::new(
        ranks,
        Span::from_ms(50),
        Span::from_us(200),
        Scope::AllRanks,
        seed,
    )
}

/// Replicas-per-second of one path over `replicas` differently-seeded
/// noisy runs.
fn replicas_per_sec(replicas: usize, run: &mut impl FnMut(u64)) -> f64 {
    run(u64::MAX); // warm-up (also primes the pooled scratch)
    let t0 = Instant::now();
    for seed in 0..replicas as u64 {
        run(seed);
    }
    replicas as f64 / t0.elapsed().as_secs_f64()
}

/// Best-of-`trials` throughput for two paths, with trials interleaved
/// so ambient load drift hits both paths alike. Max (not mean) is the
/// standard low-noise estimator for a deterministic workload: every
/// slowdown is measurement interference, never the workload.
fn best_interleaved(
    trials: usize,
    replicas: usize,
    a: &mut impl FnMut(u64),
    b: &mut impl FnMut(u64),
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (0f64, 0f64);
    for _ in 0..trials {
        best_a = best_a.max(replicas_per_sec(replicas, a));
        best_b = best_b.max(replicas_per_sec(replicas, b));
    }
    (best_a, best_b)
}

fn bench_compile(c: &mut Criterion) {
    let ranks = env_usize("ENGINE_BENCH_RANKS", 256);
    let rounds = env_usize("ENGINE_BENCH_ROUNDS", 24);
    let replicas = env_usize("ENGINE_BENCH_REPLICAS", 24);
    let params = LogGopsParams::xc40();

    let sched = allreduce_schedule(ranks, rounds);
    let cs = CompiledSchedule::compile(&sched);
    let ops = sched.total_ops() as u64;
    let mut scratch = RunScratch::new();

    let mut g = c.benchmark_group("compile");
    g.sample_size(10);

    g.throughput(Throughput::Elements(ops));
    g.bench_function(format!("compile_only_{ranks}r"), |b| {
        b.iter(|| CompiledSchedule::compile(black_box(&sched)))
    });
    g.bench_function(format!("rebuild_per_replica_{ranks}r"), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            simulate(black_box(&sched), &params, &mut noise(ranks, seed)).unwrap()
        })
    });
    g.bench_function(format!("compile_once_{ranks}r"), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            simulate_compiled_with(
                black_box(&cs),
                &params,
                &mut scratch,
                &mut noise(ranks, seed),
            )
            .unwrap()
        })
    });
    g.finish();

    // Headline comparison: a whole replica sweep each way, best of
    // several interleaved trials.
    let (rebuild, compiled) = best_interleaved(
        5,
        replicas,
        &mut |seed| {
            simulate(&sched, &params, &mut noise(ranks, seed)).unwrap();
        },
        &mut |seed| {
            simulate_compiled_with(&cs, &params, &mut scratch, &mut noise(ranks, seed)).unwrap();
        },
    );
    let speedup = compiled / rebuild;
    println!(
        "replica sweep ({replicas} replicas, {ranks} ranks, {ops} ops): \
         rebuild {rebuild:.2} rep/s, compile-once {compiled:.2} rep/s, {speedup:.2}x"
    );

    if let Ok(path) = std::env::var("ENGINE_BENCH_JSON") {
        let json = format!(
            "{{\n  \"bench\": \"compile_once_vs_rebuild_per_replica\",\n  \
             \"workload\": \"allreduce_recursive_doubling\",\n  \
             \"ranks\": {ranks},\n  \"allreduces\": {rounds},\n  \
             \"ops_per_replica\": {ops},\n  \"replicas\": {replicas},\n  \
             \"rebuild_replicas_per_sec\": {rebuild:.3},\n  \
             \"compile_once_replicas_per_sec\": {compiled:.3},\n  \
             \"speedup\": {speedup:.3}\n}}\n"
        );
        std::fs::write(&path, json).expect("write ENGINE_BENCH_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_compile);
criterion_main!(benches);
