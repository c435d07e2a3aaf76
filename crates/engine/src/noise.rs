//! The noise-injection interface.
//!
//! The engine funnels **every** interval of CPU work through
//! [`NoiseModel::stretch`]. An implementation may extend the interval by
//! inserting detours (CE handling, OS jitter, …). The CE detour model
//! itself lives in `cesim-noise`; the engine only defines the contract:
//!
//! * calls for a given rank have non-decreasing `start` values (the
//!   engine's per-rank CPU cursor guarantees this), so implementations can
//!   keep per-rank cursors of their own;
//! * `stretch` must return `>= start + work` — noise can only delay;
//! * `stretch(rank, start, work)` must return exactly `start + work`,
//!   injecting nothing, whenever `start + work < quiet_until()` (see
//!   [`NoiseModel::quiet_until`]).

use cesim_goal::Rank;
use cesim_model::{Span, Time};

/// Injects CPU detours into the simulation.
pub trait NoiseModel {
    /// A CPU interval on `rank` begins at `start` and needs `work` of
    /// useful computation. Return the time at which the work completes,
    /// including any injected detours.
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time;

    /// Total detour events injected so far (for reporting).
    fn events_injected(&self) -> u64 {
        0
    }

    /// A time before which this model provably injects nothing:
    /// `stretch(rank, start, work)` returns exactly `start + work` and
    /// leaves [`events_injected`](NoiseModel::events_injected) unchanged
    /// whenever `start + work < quiet_until()`.
    ///
    /// The engine uses the bound to skip runs whose noise cannot land
    /// before the noise-free run ends (see
    /// [`CompiledSchedule::quiet_result`](crate::CompiledSchedule::quiet_result)).
    /// The default, [`Time::ZERO`], promises nothing and is always
    /// correct; an override must never be later than the model's first
    /// possible injection.
    fn quiet_until(&self) -> Time {
        Time::ZERO
    }
}

/// The identity model: no noise, CPU intervals take exactly their work.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoNoise;

impl NoiseModel for NoNoise {
    #[inline]
    fn stretch(&mut self, _rank: Rank, start: Time, work: Span) -> Time {
        start + work
    }

    fn quiet_until(&self) -> Time {
        Time::MAX
    }
}

/// A deterministic test model: a fixed list of `(rank, at, detour)`
/// triples; each detour is inserted into the first CPU interval on that
/// rank that covers (or follows) `at`. Useful for reproducing the paper's
/// Fig. 1 hand-example and for unit tests.
///
/// Detours are grouped per rank at construction and consumed through a
/// monotone cursor: `stretch` only ever advances past detours it injects,
/// so each call is O(detours injected) rather than a rescan of the whole
/// script (the previous implementation `Vec::remove`d out of one flat
/// list, O(script length) per CPU interval).
#[derive(Clone, Debug, Default)]
pub struct ScriptedNoise {
    /// Per-rank scripts; ranks are sparse, so a map rather than a Vec.
    scripts: std::collections::HashMap<Rank, RankScript>,
    injected: u64,
}

/// One rank's detours, time-sorted, with the next-unapplied cursor.
#[derive(Clone, Debug, Default)]
struct RankScript {
    /// `(at, detour)` pairs sorted by `at` (stable, preserving input
    /// order among equal times).
    detours: Vec<(Time, Span)>,
    /// Index of the first detour not yet injected.
    cursor: usize,
}

impl ScriptedNoise {
    /// Build from `(rank, at, detour)` triples.
    pub fn new(detours: Vec<(Rank, Time, Span)>) -> Self {
        let mut scripts: std::collections::HashMap<Rank, RankScript> =
            std::collections::HashMap::new();
        for (r, t, d) in detours {
            scripts.entry(r).or_default().detours.push((t, d));
        }
        for script in scripts.values_mut() {
            // Stable: equal-time detours keep their scripted order.
            script.detours.sort_by_key(|&(t, _)| t);
        }
        ScriptedNoise {
            scripts,
            injected: 0,
        }
    }
}

impl NoiseModel for ScriptedNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let mut end = start + work;
        // Inject every not-yet-applied detour due by `end`; each injection
        // extends the interval, which may pull in further detours
        // (cascading, same as the original scan-until-fixpoint).
        if let Some(script) = self.scripts.get_mut(&rank) {
            while let Some(&(at, d)) = script.detours.get(script.cursor) {
                if at > end {
                    break;
                }
                end += d;
                script.cursor += 1;
                self.injected += 1;
            }
        }
        end
    }

    fn events_injected(&self) -> u64 {
        self.injected
    }

    /// The earliest unapplied detour on any rank: `stretch` injects a
    /// detour only once an interval ends at or after its time.
    fn quiet_until(&self) -> Time {
        self.scripts
            .values()
            .filter_map(|s| s.detours.get(s.cursor).map(|&(at, _)| at))
            .min()
            .unwrap_or(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_noise_is_identity() {
        let mut n = NoNoise;
        let t = n.stretch(Rank(0), Time::from_ps(100), Span::from_ps(50));
        assert_eq!(t, Time::from_ps(150));
        assert_eq!(n.events_injected(), 0);
    }

    #[test]
    fn scripted_noise_applies_in_window() {
        let mut n = ScriptedNoise::new(vec![
            (Rank(0), Time::from_ps(10), Span::from_ps(5)),
            (Rank(1), Time::from_ps(0), Span::from_ps(100)),
        ]);
        // Rank 0 interval [0, 20) covers t=10: stretched by 5.
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_ps(20));
        assert_eq!(end, Time::from_ps(25));
        // Rank 0 has no more detours.
        let end = n.stretch(Rank(0), end, Span::from_ps(20));
        assert_eq!(end, Time::from_ps(45));
        // Rank 1's detour applies to its first interval.
        let end = n.stretch(Rank(1), Time::from_ps(7), Span::from_ps(3));
        assert_eq!(end, Time::from_ps(110));
        assert_eq!(n.events_injected(), 2);
    }

    #[test]
    fn scripted_noise_defers_future_detours() {
        let mut n = ScriptedNoise::new(vec![(Rank(0), Time::from_ps(1_000), Span::from_ps(7))]);
        // Interval ends before the detour is due: unchanged.
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_ps(10));
        assert_eq!(end, Time::from_ps(10));
        // A later interval that covers it picks it up.
        let end = n.stretch(Rank(0), Time::from_ps(995), Span::from_ps(10));
        assert_eq!(end, Time::from_ps(1_012));
    }
}
