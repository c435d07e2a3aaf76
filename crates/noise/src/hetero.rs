//! Per-rank heterogeneous CE noise.
//!
//! [`CeNoise`](crate::ce::CeNoise) models the paper's setting: one MTBCE
//! and one per-event cost shared by every rank. Field studies (the DDR4
//! field-fault study, arXiv 2408.15302) show real fleets are wildly
//! skewed — a small population of faulty DIMMs produces most of the CE
//! stream — and operators react by changing a *node's* logging mode, not
//! the whole machine's. [`HeteroCeNoise`] models that: every rank owns an
//! independent Poisson arrival process with its **own** mean inter-arrival
//! time and its **own** per-event detour cost (the logging mode of the
//! node the rank landed on).
//!
//! The stretch semantics are identical to [`CeNoise`](crate::ce::CeNoise)
//! — arrivals that fall while the rank is blocked are absorbed, arrivals
//! inside an active CPU interval steal one detour each, and detour time
//! itself accrues further arrivals (the feedback that makes high rates
//! with expensive logging collapse). The fleet engine additionally needs
//! *per-rank* event counts (to attribute observed CEs back to cluster
//! nodes for mitigation policies), which this model tracks.

use cesim_engine::NoiseModel;
use cesim_goal::Rank;
use cesim_model::rng::Rng64;
use cesim_model::{Span, Time};

/// One rank's CE process parameters: mean time between CEs on the node
/// hosting the rank, and the per-event detour of that node's logging
/// mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCeParams {
    /// Mean time between correctable errors on this rank's node.
    pub mtbce: Span,
    /// CPU detour per correctable error (the node's logging-mode cost).
    pub detour: Span,
}

impl RankCeParams {
    /// Expected fraction of CPU time stolen by CE handling
    /// (`detour / mtbce`); at `>= 1.0` the rank cannot make forward
    /// progress.
    pub fn utilization(&self) -> f64 {
        self.detour.as_secs_f64() / self.mtbce.as_secs_f64()
    }
}

/// Poisson CE arrivals with per-rank rates and per-rank detour costs.
#[derive(Clone, Debug)]
pub struct HeteroCeNoise {
    params: Vec<RankCeParams>,
    /// Next pending CE arrival per rank (simulated time).
    next: Vec<Time>,
    rngs: Vec<Rng64>,
    per_rank: Vec<u64>,
    events: u64,
}

impl HeteroCeNoise {
    /// A CE process with one [`RankCeParams`] per rank, seeded
    /// deterministically from `seed` (each rank gets an independent
    /// substream, exactly like [`CeNoise`](crate::ce::CeNoise) — rank
    /// `r` of the same seed sees the same arrival stream regardless of
    /// the other ranks' parameters).
    pub fn new(params: Vec<RankCeParams>, seed: u64) -> Self {
        assert!(!params.is_empty(), "need at least one rank");
        let n = params.len();
        let mut rngs = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        for (r, p) in params.iter().enumerate() {
            assert!(!p.mtbce.is_zero(), "rank {r}: MTBCE must be positive");
            let mut rng = Rng64::substream(seed, r as u64);
            let first = Time::ZERO + rng.exp_span(p.mtbce);
            rngs.push(rng);
            next.push(first);
        }
        HeteroCeNoise {
            params,
            next,
            rngs,
            per_rank: vec![0; n],
            events: 0,
        }
    }

    /// The per-rank parameters this model runs with.
    pub fn params(&self) -> &[RankCeParams] {
        &self.params
    }

    /// CE detours injected into each rank so far (indexed by rank).
    pub fn per_rank_events(&self) -> &[u64] {
        &self.per_rank
    }

    /// The largest per-rank utilization `detour / mtbce`. Drivers should
    /// treat configurations at or above ~0.95 as "no forward progress"
    /// rather than simulating them (see
    /// `cesim_core::experiment::DIVERGENCE_LIMIT`).
    pub fn max_utilization(&self) -> f64 {
        self.params
            .iter()
            .map(RankCeParams::utilization)
            .fold(0.0, f64::max)
    }

    /// Next arrival for rank `i` strictly after `from` (1 ps floor, as in
    /// [`CeNoise`](crate::ce::CeNoise)).
    #[inline]
    fn advance(&mut self, i: usize, from: Time) -> Time {
        let step = self.rngs[i]
            .exp_span(self.params[i].mtbce)
            .max(Span::from_ps(1));
        from + step
    }
}

impl NoiseModel for HeteroCeNoise {
    fn stretch(&mut self, rank: Rank, start: Time, work: Span) -> Time {
        if work.is_zero() {
            return start + work;
        }
        let i = rank.idx();
        let detour = self.params[i].detour;
        // Arrivals during blocked time were handled while the rank was
        // idle and steal nothing; advance the process past them.
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
                remaining -= arrival - t;
                t = arrival;
            }
            t += detour;
            self.events += 1;
            self.per_rank[i] += 1;
            self.next[i] = self.advance(i, arrival);
        }
        t + remaining
    }

    fn events_injected(&self) -> u64 {
        self.events
    }

    /// The earliest pending arrival over all ranks.
    fn quiet_until(&self) -> Time {
        self.next.iter().copied().min().unwrap_or(Time::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::{CeNoise, Scope};

    fn uniform(n: usize, mtbce: Span, detour: Span) -> Vec<RankCeParams> {
        vec![RankCeParams { mtbce, detour }; n]
    }

    #[test]
    fn uniform_params_match_cenoise_exactly() {
        // With identical per-rank parameters the model must reproduce
        // CeNoise bit-for-bit: same substream seeding, same semantics.
        let mtbce = Span::from_ms(5);
        let detour = Span::from_us(775);
        let mut a = HeteroCeNoise::new(uniform(3, mtbce, detour), 42);
        let mut b = CeNoise::new(3, mtbce, detour, Scope::AllRanks, 42);
        for r in 0..3 {
            for step in 0..20u64 {
                let start = Time::from_ps(step * 7_000_000_000);
                let work = Span::from_us(300 + 17 * step);
                assert_eq!(
                    a.stretch(Rank(r), start, work),
                    b.stretch(Rank(r), start, work),
                    "rank {r} step {step}"
                );
            }
        }
        assert_eq!(a.events_injected(), b.events_injected());
        let sum: u64 = a.per_rank_events().iter().sum();
        assert_eq!(sum, a.events_injected());
    }

    #[test]
    fn hot_rank_sees_more_events() {
        let mut params = uniform(4, Span::from_ms(10), Span::from_us(100));
        params[2].mtbce = Span::from_us(200); // the faulty-DIMM node
        let mut n = HeteroCeNoise::new(params, 7);
        for r in 0..4 {
            n.stretch(Rank(r), Time::ZERO, Span::from_secs(1));
        }
        let ev = n.per_rank_events();
        assert!(ev[2] > 10 * ev[0].max(1), "hot rank must dominate: {ev:?}");
    }

    #[test]
    fn per_rank_detours_apply() {
        // Same arrival stream (same seed, same mtbce), different per-rank
        // detour: the expensive rank finishes later by (cost delta x events).
        let cheap = RankCeParams {
            mtbce: Span::from_ms(2),
            detour: Span::from_us(10),
        };
        let dear = RankCeParams {
            mtbce: Span::from_ms(2),
            detour: Span::from_ms(1),
        };
        let mut n = HeteroCeNoise::new(vec![cheap, dear], 9);
        let work = Span::from_secs(1);
        let end0 = n.stretch(Rank(0), Time::ZERO, work);
        let end1 = n.stretch(Rank(1), Time::ZERO, work);
        // Rank substreams are independent, so event counts differ; both
        // must at least pay their own per-event cost.
        let ev = n.per_rank_events().to_vec();
        assert_eq!(end0.since(Time::ZERO + work), cheap.detour * ev[0]);
        assert_eq!(end1.since(Time::ZERO + work), dear.detour * ev[1]);
        assert!(end1 > end0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut params = uniform(2, Span::from_ms(3), Span::from_us(50));
            params[1].detour = Span::from_us(500);
            let mut n = HeteroCeNoise::new(params, seed);
            let a = n.stretch(Rank(0), Time::ZERO, Span::from_secs(1));
            let b = n.stretch(Rank(1), Time::ZERO, Span::from_secs(1));
            (a, b, n.per_rank_events().to_vec())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn utilization_math() {
        let p = RankCeParams {
            mtbce: Span::from_ms(2),
            detour: Span::from_ms(1),
        };
        assert!((p.utilization() - 0.5).abs() < 1e-12);
        let n = HeteroCeNoise::new(
            vec![
                p,
                RankCeParams {
                    mtbce: Span::from_ms(1),
                    detour: Span::from_us(900),
                },
            ],
            0,
        );
        assert!((n.max_utilization() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "MTBCE must be positive")]
    fn zero_mtbce_rejected() {
        HeteroCeNoise::new(
            vec![RankCeParams {
                mtbce: Span::ZERO,
                detour: Span::from_us(1),
            }],
            0,
        );
    }
}
