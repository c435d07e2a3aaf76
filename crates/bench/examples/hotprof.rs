//! Quick hot-path profiler for the serial engine — a development tool,
//! not a benchmark of record (`benches/compile.rs` is that).
//!
//! Runs the replica-sweep workload three ways and prints per-event
//! costs, which is enough to attribute a regression to the queue, the
//! dispatch path, or the noise model without external profilers:
//!
//! * `ce-noise`  — the full bench configuration (CE detours enabled).
//! * `no-noise`  — same schedule under `NoNoise`; the delta to the line
//!   above is what noise desynchronization costs (smaller same-time
//!   batches), not the noise model itself.
//! * `queue-only` — replays a comparable push/pop volume against
//!   `EventQueue` directly with the real key pattern (per-rank monotone
//!   `cseq`, clustered timestamps), isolating queue cost from dispatch.
//!
//! `hotprof desync` instead runs the noise-free 8192-rank LAMMPS-lj
//! baseline at steps_scale 0.25 (the schedule of the `big_run`
//! benchmark workload). Its per-rank compute jitter pulls the ranks out
//! of lockstep, so the event queue holds thousands of distinct live
//! timestamps at once instead of a few hundred — the regime where a
//! queue whose per-timestamp cost grows with that count falls off a
//! cliff. A jitter-free twin of the same schedule (same event count,
//! ranks in lockstep) and a queue-only replay with thousands of live
//! timestamps follow, splitting the desync cost between the queue and
//! the rest of the event loop.
//!
//! Every run goes through `simulate_compiled_with`, which always drives
//! the event loop: `simulate_compiled` would answer the repeated
//! noise-free runs from the schedule's quiet-replica memo and time that
//! instead.
//!
//! Usage: `cargo build --release -p cesim-bench --example hotprof`, then
//! run `target/release/examples/hotprof [desync]` and A/B the binary
//! against a stashed baseline build; single runs on a noisy host swing
//! ±10%, so interleave several rounds.

use cesim_core::engine::queue::{EvKey, EventQueue};
use cesim_core::engine::{simulate_compiled_with, CompiledSchedule, NoNoise, RunScratch};
use cesim_core::goal::builder::TagPool;
use cesim_core::goal::collectives::{allreduce_recursive_doubling, CollectiveCosts};
use cesim_core::goal::{Rank, ScheduleBuilder};
use cesim_core::model::{LogGopsParams, Span, Time};
use cesim_core::noise::{CeNoise, Scope};
use cesim_core::workloads::{self, natural_ranks, AppId, WorkloadConfig};
use std::time::Instant;

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => lockstep(),
        Some("desync") => desync(),
        Some(other) => {
            eprintln!("error: unknown mode `{other}`\nusage: hotprof [desync]");
            std::process::exit(2);
        }
    }
}

/// The noise-free 8192-rank LAMMPS-lj baseline: desynchronized ranks,
/// thousands of live timestamps. Its jitter-free twin runs the same
/// event count in lockstep, so the gap between the two lines is what
/// desynchronization costs.
fn desync() {
    let ranks = natural_ranks(AppId::LammpsLj, 8192);
    let params = LogGopsParams::xc40();
    let reps = 4u64;
    let mut events = 0;
    for (label, jitter) in [
        ("desync", WorkloadConfig::default().jitter),
        ("lockstep twin", 0.0),
    ] {
        let cfg = WorkloadConfig {
            steps_scale: 0.25,
            jitter,
            ..WorkloadConfig::default()
        };
        let cs = CompiledSchedule::compile(&workloads::build(AppId::LammpsLj, ranks, &cfg));
        // Warm-up run sizes the scratch outside the timed region.
        let mut scratch = RunScratch::new();
        simulate_compiled_with(&cs, &params, &mut scratch, &mut NoNoise).unwrap();
        let t0 = Instant::now();
        let mut ev = 0u64;
        for _ in 0..reps {
            ev += simulate_compiled_with(&cs, &params, &mut scratch, &mut NoNoise)
                .unwrap()
                .events_processed;
        }
        let el = t0.elapsed().as_secs_f64();
        events = ev / reps;
        println!(
            "{label:<13}: {ranks} ranks, jitter {jitter}, {events} events/run  \
             runs/s {:.2}  ns/event {:.1}",
            reps as f64 / el,
            el * 1e9 / ev as f64
        );
    }
    // The same volume against the bare queue, each rank's next event a
    // pseudo-random 1.000–1.819 µs out, so thousands of live timestamps.
    let ns = queue_replay(ranks, events as usize, reps, |pushed| {
        1_000_000 + (pushed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 51) * 100
    });
    println!("desync queue-only: ns/event {ns:.1}");
}

/// The 256-rank allreduce replica sweep plus the queue-only replay.
fn lockstep() {
    let n = 256;
    let rounds = 24;
    let mut b = ScheduleBuilder::new(n);
    let mut tags = TagPool::new();
    let mut cur: Vec<_> = (0..n).map(|r| b.join(Rank::from(r), &[])).collect();
    for _ in 0..rounds {
        cur = allreduce_recursive_doubling(&mut b, &mut tags, 8, &CollectiveCosts::default(), &cur);
    }
    let sched = b.build();
    let cs = CompiledSchedule::compile(&sched);
    let mk = |seed| {
        CeNoise::new(
            n,
            Span::from_ms(50),
            Span::from_us(200),
            Scope::AllRanks,
            seed,
        )
    };
    let params = LogGopsParams::xc40();
    // Warm-up: populate scratch/caches outside the timed regions.
    let mut scratch = RunScratch::new();
    simulate_compiled_with(&cs, &params, &mut scratch, &mut mk(u64::MAX)).unwrap();
    let reps = 24u64;

    let t0 = Instant::now();
    let mut ev = 0u64;
    for s in 0..reps {
        let r = simulate_compiled_with(&cs, &params, &mut scratch, &mut mk(s)).unwrap();
        ev += r.events_processed;
    }
    let el = t0.elapsed().as_secs_f64();
    println!(
        "ce-noise : reps/s {:.2}  ns/event {:.1}",
        reps as f64 / el,
        el * 1e9 / ev as f64
    );

    let t0 = Instant::now();
    let mut ev2 = 0u64;
    for _ in 0..reps {
        let r = simulate_compiled_with(&cs, &params, &mut scratch, &mut NoNoise).unwrap();
        ev2 += r.events_processed;
    }
    let el2 = t0.elapsed().as_secs_f64();
    println!(
        "no-noise : reps/s {:.2}  ns/event {:.1}",
        reps as f64 / el2,
        el2 * 1e9 / ev2 as f64
    );

    let ns = queue_replay(n, 246_016, reps, |pushed| 1000 + (pushed % 7) * 250);
    println!("queue-only: ns/event {ns:.1}");
}

/// Replay `per_rep` push/pop pairs against `EventQueue` directly with the
/// engine's key pattern: one event seeded per rank, then every popped
/// event creates one future event on its rank, `delay(pushed)` ps later,
/// where `pushed` counts the pushes so far. Returns ns per event.
fn queue_replay(ranks: usize, per_rep: usize, reps: u64, delay: impl Fn(u64) -> u64) -> f64 {
    let mut q: EventQueue<(u32, u32)> = EventQueue::new();
    let t0 = Instant::now();
    let mut sink = 0u64;
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut seq = vec![0u32; ranks];
        let mut pushed = 0usize;
        for (r, s) in seq.iter_mut().enumerate() {
            let key = EvKey {
                crank: r as u32,
                cseq: *s,
            };
            q.push(Time::from_ps(0), key, (r as u32, 0));
            *s += 1;
            pushed += 1;
        }
        while pushed < per_rep || !q.is_empty() {
            q.pop_batch(&mut out);
            for &(t, k, _) in out.iter() {
                let now = t.as_ps();
                let r = k.crank as usize;
                if pushed < per_rep {
                    let key = EvKey {
                        crank: r as u32,
                        cseq: seq[r],
                    };
                    let at = now + delay(pushed as u64);
                    q.push(Time::from_ps(at), key, (r as u32, 1));
                    seq[r] += 1;
                    pushed += 1;
                }
                sink = sink.wrapping_add(now);
            }
            if out.is_empty() {
                break;
            }
        }
        q.clear();
    }
    let el = t0.elapsed().as_secs_f64();
    // Keep the replay's work observable so it cannot be optimized out.
    std::hint::black_box(sink);
    el * 1e9 / (per_rep as f64 * reps as f64)
}
