//! # cesim-engine
//!
//! A LogGOPS discrete-event simulator in the spirit of LogGOPSim
//! (Hoefler, Schneider, Lumsdaine, HPDC 2010), the simulator the paper
//! uses to project correctable-error logging overheads to full-machine
//! scale.
//!
//! The engine executes a [`cesim_goal::Schedule`] — per-rank dependency
//! DAGs of `calc`/`send`/`recv` operations — under the LogGOPS cost model
//! ([`cesim_model::LogGopsParams`]):
//!
//! * each rank has a **CPU** resource (serializes `calc` work and the
//!   per-message `o + bytes·O` overheads) and a **NIC** resource
//!   (serializes injections at `g + bytes·G`),
//! * messages arrive `L + bytes·G` after injection starts,
//! * messages up to the eager threshold `S` are buffered eagerly; larger
//!   ones use an RTS/CTS rendezvous handshake,
//! * MPI matching is FIFO per (source, tag) with `MPI_ANY_SOURCE`
//!   wildcard support, with posted-receive and unexpected-message queues.
//!
//! **Noise injection.** Every interval of CPU work is routed through a
//! [`NoiseModel`], which may stretch it by inserting detours — this is how
//! correctable-error handling costs (and any other OS noise) enter the
//! simulation. Because message completions depend on CPU availability,
//! detours on one rank propagate along communication dependencies to ranks
//! it never talks to directly, reproducing the behavior sketched in
//! Fig. 1 of the paper.
//!
//! **Quiet-replica elision.** A run whose noise provably cannot land
//! before the noise-free run finishes *is* the noise-free run;
//! [`simulate_compiled`] answers it from a per-schedule memo instead of
//! simulating (see [`quiet`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod matchq;
pub mod noise;
pub mod queue;
pub mod quiet;
pub mod record;
pub mod result;
pub mod shard;
pub mod sim;
pub mod topology;

pub use compile::CompiledSchedule;
pub use matchq::TagQueue;
pub use noise::{NoNoise, NoiseModel};
pub use quiet::{quiet_counts, QuietCounts};
pub use record::{MsgClass, NullRecorder, Recorder, SegKind, SimEvent, VecRecorder};
pub use result::{SimError, SimResult};
pub use shard::{
    auto_shards, set_window_hook, shard_globals, simulate_compiled_sharded,
    simulate_compiled_sharded_observed, simulate_sharded_instrumented, simulate_sharded_recorded,
    simulate_sharded_recorded_observed, ShardGlobals, ShardHealth, ShardHealthReport, ShardMode,
    ShardTelemetry, WindowHook, WindowObserver, WINDOW_BATCH,
};
pub use sim::{
    simulate, simulate_compiled, simulate_compiled_with, with_thread_scratch, RunScratch, Simulator,
};
pub use topology::{Dragonfly, FatTree, FlatCrossbar, Topology, Torus3D};
