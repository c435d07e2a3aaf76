//! Single-run scaling of the sharded event loop (`--shards N`).
//!
//! Sweep-level parallelism cannot shorten *one* big simulation; the
//! sharded engine can. This bench measures one large allreduce run —
//! the paper's full-machine projection shape — executed serially vs
//! split across lookahead-window shards, and checks on every trial
//! that the sharded result equals the serial one exactly.
//!
//! The headline uses `ShardMode::Lockstep` (all shards round-robin on
//! the calling thread): on a multi-core host threads only add to the
//! win, but lockstep isolates the *algorithmic* effect — S event heaps
//! of n/S entries and shard-local match queues/scratch slices with
//! much smaller per-window working sets — which is the honest number
//! to commit from a single-core runner.
//!
//! The serial side runs through `simulate_compiled_with`, which always
//! drives the event loop (`simulate_compiled` would answer repeated
//! noise-free runs from the schedule's quiet-replica memo).
//!
//! Scaling knobs (for CI smoke runs):
//!
//! * `SHARD_BENCH_RANKS` — ranks in the allreduce (default 65536);
//! * `SHARD_BENCH_ROUNDS` — back-to-back allreduces (default 2);
//! * `SHARD_BENCH_TRIALS` — best-of trials per config (default 3);
//! * `SHARD_BENCH_SHARDS` — comma-separated shard counts (default
//!   `2,4,8`);
//! * `SHARD_BENCH_JSON` — if set, write the scaling table as JSON to
//!   this path (merged into `BENCH_engine.json`).

use cesim_core::engine::{
    simulate_compiled_sharded, simulate_compiled_with, CompiledSchedule, RunScratch, ShardMode,
    SimResult,
};
use cesim_core::goal::builder::TagPool;
use cesim_core::goal::collectives::{allreduce_recursive_doubling, CollectiveCosts};
use cesim_core::goal::{Rank, Schedule, ScheduleBuilder};
use cesim_core::model::LogGopsParams;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_shards() -> Vec<usize> {
    std::env::var("SHARD_BENCH_SHARDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![2, 4, 8])
}

/// Back-to-back recursive-doubling allreduces at full machine scale.
fn allreduce_schedule(n: usize, count: usize) -> Schedule {
    let mut b = ScheduleBuilder::new(n);
    let mut tags = TagPool::new();
    let mut cur: Vec<_> = (0..n).map(|r| b.join(Rank::from(r), &[])).collect();
    for _ in 0..count {
        cur = allreduce_recursive_doubling(&mut b, &mut tags, 8, &CollectiveCosts::default(), &cur);
    }
    b.build()
}

/// Best-of-`trials` wall time for one run configuration.
fn best_secs(trials: usize, run: &mut impl FnMut() -> SimResult) -> (f64, SimResult) {
    let mut best = f64::INFINITY;
    let mut result = run(); // warm-up (primes allocations)
    for _ in 0..trials {
        let t0 = Instant::now();
        result = run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, result)
}

fn bench_shard(c: &mut Criterion) {
    let ranks = env_usize("SHARD_BENCH_RANKS", 65536);
    let rounds = env_usize("SHARD_BENCH_ROUNDS", 2);
    let trials = env_usize("SHARD_BENCH_TRIALS", 3);
    let shard_counts = env_shards();
    let params = LogGopsParams::xc40();

    let sched = allreduce_schedule(ranks, rounds);
    let cs = CompiledSchedule::compile(&sched);
    let ops = sched.total_ops() as u64;
    let mut scratch = RunScratch::new();

    // Criterion pass at whatever scale the env selected (CI smoke runs
    // shrink it); the committed numbers come from the headline below.
    // `SHARD_BENCH_QUICK=1` skips straight to the headline.
    if env_usize("SHARD_BENCH_QUICK", 0) == 0 {
        let mut g = c.benchmark_group("shard");
        g.sample_size(10);
        g.throughput(Throughput::Elements(ops));
        g.bench_function(format!("serial_{ranks}r"), |b| {
            b.iter(|| {
                simulate_compiled_with(
                    black_box(&cs),
                    &params,
                    &mut scratch,
                    &mut cesim_core::engine::NoNoise,
                )
            })
        });
        for &s in &shard_counts {
            g.bench_function(format!("lockstep_{s}shards_{ranks}r"), |b| {
                b.iter(|| {
                    simulate_compiled_sharded(
                        black_box(&cs),
                        &params,
                        s,
                        ShardMode::Lockstep,
                        &cesim_core::engine::NoNoise,
                    )
                })
            });
        }
        g.finish();
    }

    // Headline: best-of-trials single-run latency, serial vs each shard
    // count, with a full-result equality check on every configuration.
    let (serial_s, serial_r) = best_secs(trials, &mut || {
        simulate_compiled_with(&cs, &params, &mut scratch, &mut cesim_core::engine::NoNoise)
            .unwrap()
    });
    println!(
        "single run ({ranks} ranks, {ops} ops): serial {serial_s:.3}s \
         ({:.2}M events/s)",
        serial_r.events_processed as f64 / serial_s / 1e6
    );
    let mut rows = Vec::new();
    for &s in &shard_counts {
        let (t, r) = best_secs(trials, &mut || {
            simulate_compiled_sharded(
                &cs,
                &params,
                s,
                ShardMode::Lockstep,
                &cesim_core::engine::NoNoise,
            )
            .unwrap()
        });
        assert_eq!(r, serial_r, "sharded result diverged at {s} shards");
        let speedup = serial_s / t;
        println!("  {s} shards (lockstep): {t:.3}s, {speedup:.2}x vs serial");
        rows.push(format!(
            "    {{ \"shards\": {s}, \"secs\": {t:.3}, \"speedup\": {speedup:.3} }}"
        ));
    }

    if let Ok(path) = std::env::var("SHARD_BENCH_JSON") {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let json = format!(
            "{{\n  \"bench\": \"sharded_single_run_scaling\",\n  \
             \"workload\": \"allreduce_recursive_doubling\",\n  \
             \"mode\": \"lockstep\",\n  \"host_cpus\": {host_cpus},\n  \
             \"ranks\": {ranks},\n  \"allreduces\": {rounds},\n  \
             \"ops\": {ops},\n  \"events\": {},\n  \
             \"serial_secs\": {serial_s:.3},\n  \"sharded\": [\n{}\n  ]\n}}\n",
            serial_r.events_processed,
            rows.join(",\n")
        );
        std::fs::write(&path, json).expect("write SHARD_BENCH_JSON");
        println!("wrote {path}");
    }
}

criterion_group!(benches, bench_shard);
criterion_main!(benches);
