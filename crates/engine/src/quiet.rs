//! Quiet-replica elision: answer a noisy run without simulating it when
//! its noise provably cannot land before the noise-free run finishes.
//!
//! **Why it is exact.** A model injects a detour only into a CPU interval
//! that ends at or after one of its arrivals, and
//! [`NoiseModel::quiet_until`] bounds the earliest such arrival. Every
//! CPU interval of a run that injects nothing ends by that run's finish
//! (each interval is followed by an op completion on its rank). So if
//! the noise-free finish is *strictly* earlier than `quiet_until()`,
//! every `stretch` call of the noisy run returns `start + work`: the
//! noisy run replays the noise-free run exactly, and every
//! [`SimResult`] field matches, with `noise_events` whatever the model
//! already reports. An arrival exactly at the finish can still hit the
//! last interval, hence the strict inequality.
//!
//! **The memo.** Each [`CompiledSchedule`] keeps the noise-free result
//! per [`LogGopsParams`] (any field, e.g. the eager threshold, changes
//! the run), filled by any serial run through
//! [`simulate_compiled_with`](crate::simulate_compiled_with) whose noise
//! was quiet past that run's own finish — baselines under
//! [`NoNoise`](crate::NoNoise) always are. It costs O(ranks) per
//! parameter set the schedule runs under (the program uses one).
//!
//! **Who reads it.** [`simulate_compiled`](crate::simulate_compiled) and
//! the experiment layer's replica loop (before it picks the serial or
//! sharded engine). The explicit engine entry points —
//! `simulate_compiled_with`, [`Simulator::run`](crate::Simulator::run)
//! and the `simulate_compiled_sharded*` family — never do: tests and
//! profilers use them to exercise the real event loop, and recorded
//! runs need a real event timeline.

use crate::compile::CompiledSchedule;
use crate::noise::NoiseModel;
use crate::result::SimResult;
use cesim_model::{LogGopsParams, Time};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

static ELIDED: AtomicU64 = AtomicU64::new(0);
static SIMULATED: AtomicU64 = AtomicU64::new(0);

/// Process-wide counts of runs that consulted the quiet-replica memo
/// (see [`CompiledSchedule::quiet_result`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuietCounts {
    /// Runs answered from the memo without simulating.
    pub elided: u64,
    /// Runs that had to be simulated.
    pub simulated: u64,
}

/// Snapshot of the process-wide [`QuietCounts`].
pub fn quiet_counts() -> QuietCounts {
    QuietCounts {
        elided: ELIDED.load(Relaxed),
        simulated: SIMULATED.load(Relaxed),
    }
}

/// Noise-free results of one schedule, one per parameter set.
#[derive(Default)]
pub(crate) struct QuietMemo(Mutex<Vec<(LogGopsParams, Arc<SimResult>)>>);

impl QuietMemo {
    fn get(&self, params: &LogGopsParams) -> Option<Arc<SimResult>> {
        let memo = self.0.lock().expect("quiet memo lock");
        memo.iter()
            .find(|(p, _)| p == params)
            .map(|(_, r)| Arc::clone(r))
    }
}

impl CompiledSchedule {
    /// The result of running this schedule under `params` and `noise`,
    /// answered without simulating when the memoized noise-free run
    /// finishes strictly before `noise.quiet_until()`; `None` when the
    /// run must be simulated. Counts the outcome in [`quiet_counts`].
    ///
    /// `noise` is not advanced. Every model in this workspace changes no
    /// state in a `stretch` call below its bound, so it is left exactly
    /// as the real run would have left it.
    pub fn quiet_result<N: NoiseModel + ?Sized>(
        &self,
        params: &LogGopsParams,
        noise: &N,
    ) -> Option<SimResult> {
        let hit = self
            .quiet
            .get(params)
            .filter(|base| base.finish < noise.quiet_until());
        let Some(base) = hit else {
            SIMULATED.fetch_add(1, Relaxed);
            return None;
        };
        ELIDED.fetch_add(1, Relaxed);
        let mut r = SimResult::clone(&base);
        r.noise_events = noise.events_injected();
        Some(r)
    }

    /// Memoize `result` as the noise-free run under `params` if the
    /// run's noise, whose bound before the run was `quiet_until`, could
    /// not have landed before `result.finish`.
    pub(crate) fn remember_quiet(
        &self,
        params: &LogGopsParams,
        quiet_until: Time,
        result: &SimResult,
    ) {
        if result.finish >= quiet_until {
            return;
        }
        let mut memo = self.quiet.0.lock().expect("quiet memo lock");
        if !memo.iter().any(|(p, _)| p == params) {
            memo.push((*params, Arc::new(result.clone())));
        }
    }
}
