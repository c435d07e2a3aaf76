//! Bursty correctable-error arrivals.
//!
//! Field studies (Meza et al. DSN'15; Gottscho et al. — the paper's
//! closest related work — speak of CE "avalanches") show that correctable
//! errors are not memoryless: a failing component emits *bursts* of CEs
//! (a stuck bit being re-read, a failing row being rewalked) separated by
//! long quiet periods. [`BurstyCeNoise`] models this as a two-state
//! Markov-modulated Poisson process per node:
//!
//! * **quiet**: CEs at a low background rate;
//! * **burst**: CEs at a much higher rate, for an exponentially
//!   distributed duration.
//!
//! This is an extension beyond the paper's exponential-only §III-D model,
//! useful for studying whether its conclusions are robust to arrival
//! clustering (they are for mean-dominated metrics, but tail slowdowns
//! grow; see the `bursty` ablation bench).

use cesim_engine::NoiseModel;
use cesim_goal::Rank;
use cesim_model::rng::Rng64;
use cesim_model::{Span, Time};

/// Parameters of the two-state MMPP.
#[derive(Clone, Copy, Debug)]
pub struct BurstSpec {
    /// Mean time between CEs while quiet.
    pub quiet_mtbce: Span,
    /// Mean time between CEs while bursting (≪ `quiet_mtbce`).
    pub burst_mtbce: Span,
    /// Mean duration of a quiet period.
    pub mean_quiet: Span,
    /// Mean duration of a burst.
    pub mean_burst: Span,
}

impl BurstSpec {
    /// The long-run average CE rate (events/second) of the process.
    pub fn average_rate(&self) -> f64 {
        let q = self.mean_quiet.as_secs_f64();
        let b = self.mean_burst.as_secs_f64();
        let rq = 1.0 / self.quiet_mtbce.as_secs_f64();
        let rb = 1.0 / self.burst_mtbce.as_secs_f64();
        (q * rq + b * rb) / (q + b)
    }

    /// The equivalent memoryless MTBCE (for comparing against
    /// [`crate::CeNoise`] at matched average rates).
    pub fn equivalent_mtbce(&self) -> Span {
        Span::from_secs_f64(1.0 / self.average_rate())
    }

    fn validate(&self) {
        assert!(!self.quiet_mtbce.is_zero(), "quiet MTBCE must be positive");
        assert!(!self.burst_mtbce.is_zero(), "burst MTBCE must be positive");
        assert!(
            !self.mean_quiet.is_zero(),
            "quiet duration must be positive"
        );
        assert!(
            !self.mean_burst.is_zero(),
            "burst duration must be positive"
        );
    }
}

#[derive(Clone, Debug)]
struct RankPhase {
    /// Currently bursting?
    bursting: bool,
    /// When the current phase ends.
    phase_end: Time,
    /// Next CE arrival (always within or after the current phase as
    /// generated lazily).
    next_ce: Time,
    rng: Rng64,
}

/// Two-state bursty CE arrivals with a fixed per-event detour. Applies to
/// all ranks; idle-time arrivals are absorbed exactly as in
/// [`crate::CeNoise`].
#[derive(Clone, Debug)]
pub struct BurstyCeNoise {
    spec: BurstSpec,
    detour: Span,
    ranks: Vec<RankPhase>,
    events: u64,
}

impl BurstyCeNoise {
    /// Build for `nranks` ranks, deterministically seeded.
    pub fn new(nranks: usize, spec: BurstSpec, detour: Span, seed: u64) -> Self {
        spec.validate();
        assert!(nranks > 0);
        let mut ranks = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let mut rng = Rng64::substream(seed ^ 0xB057, r as u64);
            let phase_end = Time::ZERO + rng.exp_span(spec.mean_quiet);
            let mut ph = RankPhase {
                bursting: false,
                phase_end,
                next_ce: Time::ZERO,
                rng,
            };
            ph.next_ce = Self::draw_next(&spec, &mut ph, Time::ZERO);
            ranks.push(ph);
        }
        BurstyCeNoise {
            spec,
            detour,
            ranks,
            events: 0,
        }
    }

    /// The configured spec.
    pub fn spec(&self) -> BurstSpec {
        self.spec
    }

    /// Draw the next arrival strictly after `from`, stepping through phase
    /// boundaries (the exponential's memorylessness makes re-drawing at a
    /// boundary exact).
    fn draw_next(spec: &BurstSpec, ph: &mut RankPhase, from: Time) -> Time {
        let mut t = from;
        loop {
            let mtbce = if ph.bursting {
                spec.burst_mtbce
            } else {
                spec.quiet_mtbce
            };
            let step = ph.rng.exp_span(mtbce).max(Span::from_ps(1));
            let candidate = t + step;
            if candidate <= ph.phase_end {
                return candidate;
            }
            // Cross into the next phase and re-draw from the boundary.
            t = ph.phase_end;
            ph.bursting = !ph.bursting;
            let dur = if ph.bursting {
                spec.mean_burst
            } else {
                spec.mean_quiet
            };
            ph.phase_end = t + ph.rng.exp_span(dur).max(Span::from_ps(1));
        }
    }
}

impl NoiseModel for BurstyCeNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        if work.is_zero() {
            return start + work;
        }
        let spec = self.spec;
        let ph = &mut self.ranks[rank.idx()];
        // Absorb idle-time arrivals.
        while ph.next_ce < start {
            let from = ph.next_ce;
            ph.next_ce = Self::draw_next(&spec, ph, from);
        }
        let mut t = start;
        let mut remaining = work;
        loop {
            let arrival = ph.next_ce;
            if arrival > t + remaining {
                break;
            }
            if arrival > t {
                remaining -= arrival - t;
                t = arrival;
            }
            t += self.detour;
            self.events += 1;
            ph.next_ce = Self::draw_next(&spec, ph, arrival);
        }
        t + remaining
    }

    fn events_injected(&self) -> u64 {
        self.events
    }
}

/// Apply two noise models in sequence: the interval is stretched by `A`,
/// and the resulting interval (work plus A's detours) is then subject to
/// `B`. Useful for layering CE detours on top of background OS noise.
#[derive(Clone, Debug)]
pub struct ComposedNoise<A, B> {
    /// First model.
    pub a: A,
    /// Second model (sees intervals already stretched by `a`).
    pub b: B,
}

impl<A: NoiseModel, B: NoiseModel> ComposedNoise<A, B> {
    /// Compose `a` then `b`.
    pub fn new(a: A, b: B) -> Self {
        ComposedNoise { a, b }
    }
}

impl<A: NoiseModel, B: NoiseModel> NoiseModel for ComposedNoise<A, B> {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        let mid = self.a.stretch(rank, start, work);
        self.b.stretch(rank, start, mid.since(start))
    }

    fn events_injected(&self) -> u64 {
        self.a.events_injected() + self.b.events_injected()
    }

    /// Quiet while both parts are: below `a`'s bound the interval reaches
    /// `b` unstretched.
    fn quiet_until(&self) -> Time {
        self.a.quiet_until().min(self.b.quiet_until())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::{CeNoise, Scope};

    fn spec() -> BurstSpec {
        BurstSpec {
            quiet_mtbce: Span::from_secs(10),
            burst_mtbce: Span::from_ms(10),
            mean_quiet: Span::from_secs(5),
            mean_burst: Span::from_ms(500),
        }
    }

    #[test]
    fn average_rate_math() {
        let s = spec();
        // (5·0.1 + 0.5·100) / 5.5 = 50.5 / 5.5 ≈ 9.18 CEs/s.
        assert!((s.average_rate() - 50.5 / 5.5).abs() < 1e-9);
        let eq = s.equivalent_mtbce().as_secs_f64();
        assert!((eq - 5.5 / 50.5).abs() < 1e-9);
    }

    #[test]
    fn events_cluster_in_bursts() {
        let mut n = BurstyCeNoise::new(1, spec(), Span::from_us(1), 3);
        // Walk 60 s of continuous work in 10 ms slices and count events
        // per slice: bursty arrivals must produce slices with many events
        // AND long stretches with none.
        let mut t = Time::ZERO;
        let mut counts = Vec::new();
        let mut prev_events = 0;
        for _ in 0..6_000 {
            t = n.stretch(Rank(0), t, Span::from_ms(10));
            let e = n.events_injected();
            counts.push(e - prev_events);
            prev_events = e;
        }
        let total: u64 = counts.iter().sum();
        // Average rate ≈ 9.18/s over ~60 s → several hundred events.
        assert!((300..1200).contains(&total), "total = {total}");
        let empty = counts.iter().filter(|&&c| c == 0).count();
        let heavy = counts.iter().filter(|&&c| c >= 3).count();
        assert!(
            empty > 4_000,
            "quiet periods should dominate slices: {empty}"
        );
        assert!(heavy > 20, "bursts should concentrate events: {heavy}");
    }

    #[test]
    fn matched_rate_comparable_total_steal() {
        // Over a long window, bursty and memoryless processes at the same
        // average rate steal comparable total CPU time.
        let s = spec();
        let detour = Span::from_us(100);
        let work = Span::from_secs(200);
        let mut bursty = BurstyCeNoise::new(1, s, detour, 1);
        let e1 = bursty
            .stretch(Rank(0), Time::ZERO, work)
            .since(Time::ZERO + work);
        let mut smooth = CeNoise::new(1, s.equivalent_mtbce(), detour, Scope::AllRanks, 1);
        let e2 = smooth
            .stretch(Rank(0), Time::ZERO, work)
            .since(Time::ZERO + work);
        let ratio = e1.as_secs_f64() / e2.as_secs_f64();
        assert!((0.5..2.0).contains(&ratio), "stolen ratio = {ratio}");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut n = BurstyCeNoise::new(2, spec(), Span::from_us(10), 9);
            let a = n.stretch(Rank(0), Time::ZERO, Span::from_secs(30));
            let b = n.stretch(Rank(1), Time::ZERO, Span::from_secs(30));
            (a, b, n.events_injected())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn composition_adds_both_models() {
        use cesim_engine::noise::ScriptedNoise;
        let a = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, Span::from_us(5))]);
        let b = ScriptedNoise::new(vec![(Rank(0), Time::ZERO, Span::from_us(7))]);
        let mut c = ComposedNoise::new(a, b);
        let end = c.stretch(Rank(0), Time::ZERO, Span::from_us(10));
        assert_eq!(end, Time::ZERO + Span::from_us(22));
        assert_eq!(c.events_injected(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        BurstyCeNoise::new(
            1,
            BurstSpec {
                quiet_mtbce: Span::ZERO,
                ..spec()
            },
            Span::from_us(1),
            0,
        );
    }
}
