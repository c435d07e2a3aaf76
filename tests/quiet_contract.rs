//! Property check of the `NoiseModel::quiet_until` contract that
//! quiet-replica elision rests on: for every model that overrides the
//! bound, an interval ending strictly before `quiet_until()` comes back
//! unstretched (`stretch` returns exactly `start + work`) and
//! `events_injected` does not move — in the model's initial state and
//! after it has been driven through intervals that do inject. Models
//! without a provable bound keep the conservative default, `Time::ZERO`.

use dram_ce_sim::engine::noise::ScriptedNoise;
use dram_ce_sim::engine::{NoNoise, NoiseModel};
use dram_ce_sim::goal::Rank;
use dram_ce_sim::model::rng::Rng64;
use dram_ce_sim::model::{Span, Time};
use dram_ce_sim::noise::{
    BurstSpec, BurstyCeNoise, CeNoise, ComposedNoise, Detour, DetourTrace, HeteroCeNoise,
    RankCeParams, Scope, TraceNoise,
};
use proptest::prelude::*;

/// Alternate engine-like driving of `model` (per-rank monotone interval
/// starts, idle gaps, some intervals reaching arrivals) with probes that
/// end strictly before the current bound, checking each probe.
fn check_contract<N: NoiseModel>(
    model: &mut N,
    ranks: usize,
    scale: Span,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);
    let mut cursor = vec![Time::ZERO; ranks];
    let mut probes = 0;
    for _ in 0..24 {
        let quiet = model.quiet_until();
        let events = model.events_injected();
        for _ in 0..8 {
            let rank = rng.next_below(ranks as u64) as usize;
            let lo = cursor[rank].as_ps();
            // Probe ends in [lo, quiet), capped for unbounded models.
            let hi = quiet.as_ps().min(lo + 4 * scale.as_ps());
            if hi <= lo {
                continue;
            }
            let end = lo + rng.next_below(hi - lo);
            let start = lo + rng.next_below(end - lo + 1);
            let (start, work) = (Time::from_ps(start), Span::from_ps(end - start));
            prop_assert_eq!(
                model.stretch(Rank(rank as u32), start, work),
                start + work,
                "rank {} [{:?}, +{:?}) below quiet_until {:?}",
                rank,
                start,
                work,
                quiet
            );
            prop_assert_eq!(model.events_injected(), events);
            probes += 1;
        }
        // A real interval after an idle gap; it may reach arrivals.
        let rank = rng.next_below(ranks as u64) as usize;
        let gap = Span::from_ps(rng.next_below(scale.as_ps()));
        let work = Span::from_ps(rng.next_below(2 * scale.as_ps()));
        cursor[rank] = model.stretch(Rank(rank as u32), cursor[rank] + gap, work);
    }
    // Some probe always fits (a bound is never at or below every
    // rank's cursor for long), so the check is never vacuous.
    prop_assert!(probes > 0, "no probe fit below the bound");
    Ok(())
}

// Every CE model below runs at a utilization (detour / MTBCE) under 1,
// so each driving interval terminates.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_noise_is_quiet_forever(seed in 0u64..=u64::MAX, ranks in 1usize..6) {
        prop_assert_eq!(NoNoise.quiet_until(), Time::MAX);
        check_contract(&mut NoNoise, ranks, Span::from_ms(1), seed)?;
    }

    #[test]
    fn ce_noise_all_ranks(seed in 0u64..=u64::MAX, ranks in 1usize..12, mtbce_us in 1u64..2_000) {
        let mtbce = Span::from_us(mtbce_us);
        let mut n = CeNoise::new(ranks, mtbce, mtbce / 4, Scope::AllRanks, seed);
        check_contract(&mut n, ranks, mtbce, seed ^ 1)?;
    }

    #[test]
    fn ce_noise_single_rank(
        seed in 0u64..=u64::MAX,
        ranks in 1usize..12,
        target in 0usize..12,
        mtbce_us in 1u64..2_000,
    ) {
        let target = Rank((target % ranks) as u32);
        let mtbce = Span::from_us(mtbce_us);
        let mut n = CeNoise::new(ranks, mtbce, mtbce / 4, Scope::SingleRank(target), seed);
        // The scoped bound ignores the other ranks' (possibly earlier)
        // arrivals.
        let all = CeNoise::new(ranks, mtbce, mtbce / 4, Scope::AllRanks, seed);
        prop_assert!(n.quiet_until() >= all.quiet_until());
        check_contract(&mut n, ranks, mtbce, seed ^ 2)?;
    }

    #[test]
    fn hetero_ce_noise(seed in 0u64..=u64::MAX, ranks in 1usize..12, mtbce_us in 1u64..2_000) {
        let params: Vec<RankCeParams> = (0..ranks as u64)
            .map(|r| {
                let mtbce = Span::from_us(mtbce_us * (1 + r % 5));
                // Per-rank utilization 1/8 to 3/8: every stretch ends.
                RankCeParams { mtbce, detour: mtbce * (1 + r % 3) / 8 }
            })
            .collect();
        let mut n = HeteroCeNoise::new(params, seed);
        check_contract(&mut n, ranks, Span::from_us(mtbce_us), seed ^ 3)?;
    }

    #[test]
    fn scripted_noise(seed in 0u64..=u64::MAX, ranks in 1usize..8, count in 0usize..24) {
        let mut rng = Rng64::new(seed);
        let script: Vec<(Rank, Time, Span)> = (0..count)
            .map(|_| {
                (
                    Rank(rng.next_below(ranks as u64) as u32),
                    Time::from_ps(rng.next_below(5_000_000_000)),
                    Span::from_ps(1 + rng.next_below(50_000_000)),
                )
            })
            .collect();
        let earliest = script.iter().map(|&(_, at, _)| at).min().unwrap_or(Time::MAX);
        let mut n = ScriptedNoise::new(script);
        prop_assert_eq!(n.quiet_until(), earliest);
        check_contract(&mut n, ranks, Span::from_ms(1), seed ^ 4)?;
    }

    #[test]
    fn composed_noise(seed in 0u64..=u64::MAX, ranks in 1usize..8, mtbce_us in 1u64..2_000) {
        let mtbce = Span::from_us(mtbce_us);
        let ce = CeNoise::new(ranks, mtbce, mtbce / 4, Scope::AllRanks, seed);
        let script = ScriptedNoise::new(vec![(
            Rank(0),
            Time::ZERO + Span::from_us(seed % 3_000),
            Span::from_us(5),
        )]);
        let mut n = ComposedNoise::new(ce.clone(), script.clone());
        prop_assert_eq!(n.quiet_until(), ce.quiet_until().min(script.quiet_until()));
        check_contract(&mut n, ranks, mtbce, seed ^ 5)?;
    }
}

#[test]
fn unbounded_models_keep_the_conservative_default() {
    let trace = DetourTrace::new(
        Span::from_ms(10),
        Span::from_ns(150),
        vec![Detour {
            at: Time::ZERO + Span::from_ms(5),
            dur: Span::from_us(100),
        }],
    );
    assert_eq!(TraceNoise::all_ranks(4, &trace).quiet_until(), Time::ZERO);
    assert_eq!(
        TraceNoise::single_rank(4, Rank(1), &trace).quiet_until(),
        Time::ZERO
    );
    let spec = BurstSpec {
        quiet_mtbce: Span::from_secs(10),
        burst_mtbce: Span::from_ms(10),
        mean_quiet: Span::from_secs(5),
        mean_burst: Span::from_ms(500),
    };
    let bursty = BurstyCeNoise::new(4, spec, Span::from_us(775), 3);
    assert_eq!(bursty.quiet_until(), Time::ZERO);
    // Composition is only as quiet as its least-quiet part.
    assert_eq!(
        ComposedNoise::new(NoNoise, bursty).quiet_until(),
        Time::ZERO
    );
}
