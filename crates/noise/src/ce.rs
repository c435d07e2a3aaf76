//! The correctable-error noise model.
//!
//! §III-D of the paper: *"Our extension programmatically injects detours
//! that represent correctable errors. The timing of each simulated
//! correctable error is determined statistically using random numbers
//! drawn from an exponential distribution [whose mean is] the mean time
//! between correctable errors. The duration of the detour is determined by
//! the amount of time required to recover from a correctable error."*
//!
//! Each simulated node owns an independent exponential arrival stream.
//! Because the model is driven by the engine's CPU intervals as simulated
//! time advances, time lost to detours itself accrues further CE arrivals
//! — the feedback that makes high rates with expensive logging collapse
//! (the paper's "unable to make any reasonable forward progress" regime).
//!
//! CE arrivals that fall between two CPU intervals (while the rank is
//! blocked on a message) are handled at the start of the next interval;
//! total stolen CPU time is preserved, which is the quantity the study
//! measures.

use cesim_engine::NoiseModel;
use cesim_goal::Rank;
use cesim_model::rng::Rng64;
use cesim_model::{Span, Time};

/// Which ranks receive CE detours.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every rank experiences CEs at the same rate (Figs. 4–7).
    AllRanks,
    /// Only one rank experiences CEs (Fig. 3's single-process study).
    SingleRank(Rank),
}

/// Poisson CE arrivals with a fixed per-event detour.
#[derive(Clone, Debug)]
pub struct CeNoise {
    mtbce: Span,
    detour: Span,
    scope: Scope,
    /// Next pending CE arrival per rank (simulated time).
    next: Vec<Time>,
    rngs: Vec<Rng64>,
    events: u64,
}

impl CeNoise {
    /// A CE process for `nranks` ranks with mean inter-arrival `mtbce`,
    /// per-event cost `detour`, the given `scope`, seeded deterministically
    /// from `seed` (each rank gets an independent substream).
    pub fn new(nranks: usize, mtbce: Span, detour: Span, scope: Scope, seed: u64) -> Self {
        assert!(nranks > 0, "need at least one rank");
        assert!(!mtbce.is_zero(), "MTBCE must be positive");
        if let Scope::SingleRank(r) = scope {
            assert!(r.idx() < nranks, "scoped rank {r} out of range");
        }
        let mut rngs = Vec::with_capacity(nranks);
        let mut next = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let mut rng = Rng64::substream(seed, r as u64);
            let first = Time::ZERO + rng.exp_span(mtbce);
            rngs.push(rng);
            next.push(first);
        }
        CeNoise {
            mtbce,
            detour,
            scope,
            next,
            rngs,
            events: 0,
        }
    }

    /// The configured mean time between CEs per node.
    pub fn mtbce(&self) -> Span {
        self.mtbce
    }

    /// The configured per-event detour.
    pub fn detour(&self) -> Span {
        self.detour
    }

    /// Expected fraction of CPU time stolen by CE handling on an affected
    /// rank (`detour / mtbce`). At `>= 1.0` the process cannot make
    /// forward progress; experiment drivers should treat such
    /// configurations as "no progress" rather than simulating them.
    pub fn utilization(&self) -> f64 {
        self.detour.as_secs_f64() / self.mtbce.as_secs_f64()
    }

    #[inline]
    fn targeted(&self, rank: Rank) -> bool {
        match self.scope {
            Scope::AllRanks => true,
            Scope::SingleRank(r) => r == rank,
        }
    }
}

impl NoiseModel for CeNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        if !self.targeted(rank) || work.is_zero() {
            return start + work;
        }
        let i = rank.idx();
        // CE arrivals that fell before this interval began occurred while
        // the rank was blocked (waiting on a message): the interrupt was
        // handled during idle time and stole no application CPU. Advance
        // the Poisson process past them without injecting detours — the
        // same semantics as LogGOPSim's noise injection, which only
        // stretches *active* intervals.
        while self.next[i] < start {
            let a = self.next[i];
            self.next[i] = self.advance(i, a);
        }
        let mut t = start;
        let mut remaining = work;
        loop {
            let arrival = self.next[i];
            if arrival > t + remaining {
                break;
            }
            if arrival > t {
                // Work progresses until the CE fires.
                remaining -= arrival - t;
                t = arrival;
            }
            // Handle the CE. Arrivals that land while a previous detour is
            // still being handled (arrival <= t) queue up and are processed
            // back-to-back: the CPU is busy, so they do steal time.
            t += self.detour;
            self.events += 1;
            self.next[i] = self.advance(i, arrival);
        }
        t + remaining
    }

    fn events_injected(&self) -> u64 {
        self.events
    }

    /// The earliest pending arrival over the targeted ranks: an interval
    /// ending strictly before it reaches no arrival.
    fn quiet_until(&self) -> Time {
        match self.scope {
            Scope::AllRanks => self.next.iter().copied().min().unwrap_or(Time::MAX),
            Scope::SingleRank(r) => self.next[r.idx()],
        }
    }
}

impl CeNoise {
    /// Next arrival strictly after `from` (a 1 ps floor defends against a
    /// zero-rounded exponential sample stalling the process).
    #[inline]
    fn advance(&mut self, i: usize, from: Time) -> Time {
        let step = self.rngs[i].exp_span(self.mtbce).max(Span::from_ps(1));
        from + step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untargeted_rank_is_identity() {
        let mut n = CeNoise::new(
            4,
            Span::from_ms(1),
            Span::from_ms(100),
            Scope::SingleRank(Rank(2)),
            7,
        );
        let end = n.stretch(Rank(0), Time::ZERO, Span::from_secs(10));
        assert_eq!(end, Time::ZERO + Span::from_secs(10));
        assert_eq!(n.events_injected(), 0);
    }

    #[test]
    fn zero_work_is_identity() {
        let mut n = CeNoise::new(1, Span::from_ns(1), Span::from_ms(1), Scope::AllRanks, 7);
        let t = Time::from_ps(123);
        assert_eq!(n.stretch(Rank(0), t, Span::ZERO), t);
    }

    #[test]
    fn stolen_time_matches_rate() {
        // 10 s of work, MTBCE 10 ms, detour 775 µs:
        // expect ~1000 events and ~0.775 s of added time.
        let mtbce = Span::from_ms(10);
        let detour = Span::from_us(775);
        let mut n = CeNoise::new(1, mtbce, detour, Scope::AllRanks, 42);
        let work = Span::from_secs(10);
        let end = n.stretch(Rank(0), Time::ZERO, work);
        let added = end.since(Time::ZERO + work);
        let events = n.events_injected();
        // Events accrue over wall time (work + detours): expected count is
        // slightly above work/mtbce. Allow generous statistical slack.
        let expect_min = 900.0;
        let expect_max = 1_200.0;
        assert!(
            (expect_min..expect_max).contains(&(events as f64)),
            "events = {events}"
        );
        assert_eq!(added, detour * events);
    }

    #[test]
    fn feedback_accrues_more_events() {
        // With detour = 0.5 * mtbce, wall time doubles, so events per unit
        // of *work* are ~2x the raw rate.
        let mtbce = Span::from_ms(10);
        let detour = Span::from_ms(5);
        let mut n = CeNoise::new(1, mtbce, detour, Scope::AllRanks, 1);
        let work = Span::from_secs(20);
        let end = n.stretch(Rank(0), Time::ZERO, work);
        let wall = end.since(Time::ZERO).as_secs_f64();
        // wall ≈ work / (1 - ρ) = 20 / 0.5 = 40 s.
        assert!((35.0..45.0).contains(&wall), "wall = {wall}");
        assert!((n.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arrivals_in_idle_gaps_are_absorbed() {
        let mtbce = Span::from_ms(1);
        let detour = Span::from_us(10);
        let mut n = CeNoise::new(1, mtbce, detour, Scope::AllRanks, 3);
        // First interval: 5 ms of work starting at 0.
        let end1 = n.stretch(Rank(0), Time::ZERO, Span::from_ms(5));
        let e1 = n.events_injected();
        assert!(e1 >= 1);
        // Long idle gap, then another interval: the ~50 arrivals from the
        // gap were handled while the rank was blocked and steal nothing;
        // only arrivals inside the new interval inject detours.
        let start2 = end1 + Span::from_ms(50);
        let end2 = n.stretch(Rank(0), start2, Span::from_ms(5));
        let e2 = n.events_injected() - e1;
        assert!(e2 <= 15, "gap arrivals must not pile up: {e2}");
        assert_eq!(end2.since(start2), Span::from_ms(5) + detour * e2);
    }

    #[test]
    fn high_utilization_converges_with_idle_absorption() {
        // ρ = 0.665 (firmware at MTBCE 200 ms): an interval stretches by
        // ~1/(1-ρ) ≈ 3x and must terminate (regression test for the
        // deferred-arrival runaway).
        let mut n = CeNoise::new(
            1,
            Span::from_ms(200),
            Span::from_ms(133),
            Scope::AllRanks,
            2,
        );
        let work = Span::from_secs(10);
        let end = n.stretch(Rank(0), Time::ZERO, work);
        let wall = end.since(Time::ZERO).as_secs_f64();
        assert!((20.0..50.0).contains(&wall), "wall = {wall}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut n = CeNoise::new(
                2,
                Span::from_ms(2),
                Span::from_us(100),
                Scope::AllRanks,
                seed,
            );
            let a = n.stretch(Rank(0), Time::ZERO, Span::from_secs(1));
            let b = n.stretch(Rank(1), Time::ZERO, Span::from_secs(1));
            (a, b, n.events_injected())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn ranks_have_independent_streams() {
        let mut n = CeNoise::new(2, Span::from_ms(1), Span::from_us(1), Scope::AllRanks, 5);
        let a = n.stretch(Rank(0), Time::ZERO, Span::from_secs(1));
        let b = n.stretch(Rank(1), Time::ZERO, Span::from_secs(1));
        assert_ne!(a, b, "identical streams would be a seeding bug");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn scope_bounds_checked() {
        CeNoise::new(
            2,
            Span::from_ms(1),
            Span::ZERO,
            Scope::SingleRank(Rank(5)),
            0,
        );
    }

    #[test]
    fn stretch_never_shrinks() {
        let mut n = CeNoise::new(1, Span::from_us(50), Span::from_us(10), Scope::AllRanks, 11);
        let mut t = Time::ZERO;
        for _ in 0..100 {
            let w = Span::from_us(17);
            let end = n.stretch(Rank(0), t, w);
            assert!(end >= t + w);
            t = end;
        }
    }
}
