//! Seeded request generation for `serve_mix`.
//!
//! Everything the daemon receives is made here from the workload seed:
//! the hot schedule set, the cold keys, each request's class, body and
//! due time (Poisson arrivals at a fixed offered rate). The daemon sees
//! only the bodies.
//!
//! Each phase draws from a random stream of its own and makes its
//! requests one at a time, in order, as the senders take them. So the
//! i-th request of a phase depends only on the seed and the phase, never
//! on how many requests an earlier closed-loop phase managed to send; a
//! phase holds only the recent bodies its repeats may pick; and making a
//! phase again gives back exactly the requests that were sent, which is
//! how the bodies are checked without being kept.

use cesim_core::model::rng::Rng64;
use cesim_core::seed::mix;
use cesim_core::workloads::AppId;
use std::collections::VecDeque;

/// Exponential inter-arrival gap for a Poisson process of `rate`/s.
pub fn exp_gap(rng: &mut Rng64, rate: f64) -> f64 {
    -rng.next_f64_open().ln() / rate
}

fn below(rng: &mut Rng64, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn shuffle<T>(rng: &mut Rng64, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, below(rng, i + 1));
    }
}

/// Request classes of the traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// An earlier body again (fields reordered): a response-cache hit.
    Repeat,
    /// New mode/MTBCE/seed on a hot schedule: schedule-cache hit, the
    /// replica runs.
    Whatif,
    /// A schedule key no request used before: compile, baseline, insert
    /// and evict.
    Cold,
    /// A `/v1/fleet` scenario with a fresh seed.
    Fleet,
}

pub const CLASSES: [Class; 4] = [Class::Repeat, Class::Whatif, Class::Cold, Class::Fleet];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Whatif => "whatif",
            Class::Cold => "cold",
            Class::Fleet => "fleet",
        }
    }
}

/// Class shares (repeat, whatif, cold, fleet), in twentieths. No trace
/// of real what-if traffic exists, so the mix is an assumption, not a
/// measurement. Repeats and what-ifs together make 0.75 because the
/// roadmap expects "most production traffic is variations on a cached
/// baseline". Their split, the cold share and the fleet share are
/// assumed: each class gets enough requests in every phase for its
/// per-layer metrics, and compiling cold keys does not dominate the
/// daemon's time.
///
/// Every block of 20 requests holds exactly these counts, in a seeded
/// order, so every run sends the same mix. A repeat drawn before any
/// body is old enough to be cached trades places with a later request
/// of its block; only when none is left does it fall back to a what-if.
const DECK: [usize; 4] = [8, 7, 2, 3];

/// Node counts of the hot schedules: every app at each of these sizes
/// (27 keys, the same for every seed) is kept warm by what-if traffic.
const HOT_NODES: [usize; 3] = [64, 128, 256];
const HOT_STEPS_SCALE: f64 = 0.05;
/// Cold keys cycle through every app at these sizes in a seeded order,
/// each with a step scale drawn from this range, so no two cold
/// requests share a schedule key and every one misses the cache.
const COLD_NODES: [usize; 4] = [48, 96, 160, 256];
const COLD_STEPS_SCALE: (f64, f64) = (0.04, 0.06);
const MODES: [&str; 3] = ["hw", "sw", "fw"];
const MTBCES: [&str; 4] = ["2s", "5s", "10s", "30s"];
/// One replica per request keeps a request on its worker thread, so its
/// latency is not at the mercy of spawning replica threads on a small host.
const REPS: u32 = 1;
/// A repeat picks among the `REPEAT_WINDOW` most recent bodies of its
/// phase that are old enough to have been answered and cached: due at
/// least `REPEAT_MIN_AGE_S` earlier in an open-loop phase, or made at
/// least `CLOSED_REPEAT_LAG` requests earlier in a closed-loop phase.
const REPEAT_MIN_AGE_S: f64 = 0.1;
const CLOSED_REPEAT_LAG: usize = 32;
const REPEAT_WINDOW: usize = 64;
/// Bodies a phase keeps for its repeats (the window plus the ones not
/// yet old enough).
const RECENT_KEPT: usize = 256;

/// One distinct request body.
#[derive(Clone, Debug)]
struct Body {
    path: &'static str,
    class: Class,
    /// Fields in sent order; a repeat renders them reversed.
    fields: Vec<(&'static str, String)>,
}

impl Body {
    fn render(&self, reversed: bool) -> String {
        let mut parts: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        if reversed {
            parts.reverse();
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// One request.
#[derive(Clone, Debug)]
pub struct Req {
    /// Seconds after the phase start at which it is due (0 in a
    /// closed-loop phase: due as soon as a sender is free).
    pub due_s: f64,
    pub class: Class,
    pub path: &'static str,
    /// The body as sent.
    pub text: String,
    /// The body with its fields in first-sent order: the same for a
    /// repeat as for the request it repeats.
    pub canonical: String,
}

#[derive(Clone, Copy, Debug)]
struct Key {
    app: AppId,
    nodes: usize,
    steps_scale: f64,
}

fn simulate_body(class: Class, key: Key, mode: &str, mtbce: &str, seed: u64) -> Body {
    Body {
        path: "/v1/simulate",
        class,
        fields: vec![
            ("app", format!("\"{}\"", key.app.name())),
            ("nodes", key.nodes.to_string()),
            ("mode", format!("\"{mode}\"")),
            ("mtbce", format!("\"{mtbce}\"")),
            ("reps", REPS.to_string()),
            ("seed", seed.to_string()),
            ("steps_scale", format!("{}", key.steps_scale)),
        ],
    }
}

fn fleet_body(rng: &mut Rng64) -> Body {
    let seed = rng.next_u64() >> 12;
    let pair = [AppId::MiniFe, AppId::Hpcg, AppId::Milc, AppId::Cth];
    let a = pair[below(rng, pair.len())];
    let b = pair[below(rng, pair.len())];
    let placement = ["packed", "spread", "random"][below(rng, 3)];
    Body {
        path: "/v1/fleet",
        class: Class::Fleet,
        fields: vec![
            ("seed", seed.to_string()),
            ("epochs", "8".into()),
            (
                "cluster",
                "{\"nodes\":12,\"mode\":\"sw\",\"mtbce\":{\"dist\":\"uniform\",\"min\":\"8ms\",\
                 \"max\":\"15ms\"},\"hot_fraction\":0.2,\"hot_scale\":0.12}"
                    .into(),
            ),
            (
                "jobs",
                format!(
                    "[{{\"app\":\"{}\",\"nodes\":4,\"count\":2,\"steps\":2,\"epochs\":2}},\
                     {{\"app\":\"{}\",\"nodes\":2,\"count\":2,\"steps\":2,\"epochs\":2}}]",
                    a.name(),
                    b.name()
                ),
            ),
            ("placement", format!("\"{placement}\"")),
            (
                "policy",
                "{\"kind\":\"threshold_offline\",\"ce_per_epoch\":1000,\
                 \"max_offline_fraction\":0.25}"
                    .into(),
            ),
        ],
    }
}

/// The traffic of one seed: the hot schedule set and the cold key order,
/// shared by all phases.
pub struct Mix {
    seed: u64,
    hot: Vec<Key>,
    /// Every (app, nodes) pair of the cold keys, in a seeded order.
    cold: Vec<(AppId, usize)>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let seed = mix(seed, 0x5e7e);
        let mut rng = Rng64::new(seed);
        let mut hot: Vec<Key> = AppId::all()
            .into_iter()
            .flat_map(|app| {
                HOT_NODES.map(|nodes| Key {
                    app,
                    nodes,
                    steps_scale: HOT_STEPS_SCALE,
                })
            })
            .collect();
        shuffle(&mut rng, &mut hot);
        let mut cold: Vec<(AppId, usize)> = AppId::all()
            .into_iter()
            .flat_map(|app| COLD_NODES.map(|nodes| (app, nodes)))
            .collect();
        shuffle(&mut rng, &mut cold);
        Mix { seed, hot, cold }
    }

    /// Bodies that compile and cache every hot schedule (sent in order
    /// during set-up).
    pub fn priming(&self) -> Vec<Req> {
        (0..self.hot.len())
            .map(|i| {
                let body = simulate_body(Class::Whatif, self.hot[i], "sw", "10s", i as u64);
                let text = body.render(false);
                Req {
                    due_s: 0.0,
                    class: body.class,
                    path: body.path,
                    canonical: text.clone(),
                    text,
                }
            })
            .collect()
    }

    /// Phase `id`'s requests: `rate` × `secs` of them with Poisson
    /// arrivals at `rate`/s, or, with no rate, a closed loop that never
    /// runs out.
    pub fn phase(&self, id: u64, rate: Option<f64>, secs: f64) -> PhaseGen<'_> {
        let mut rng = Rng64::new(mix(self.seed, id));
        let next_due = rate.map_or(0.0, |r| exp_gap(&mut rng, r));
        let whatif_next = below(&mut rng, self.hot.len());
        let cold_next = below(&mut rng, self.cold.len());
        PhaseGen {
            mix: self,
            rng,
            rate,
            limit: rate.map_or(usize::MAX, |r| (r * secs).round() as usize),
            next_due,
            made: 0,
            deck: Vec::new(),
            whatif_next,
            cold_next,
            recent: VecDeque::new(),
        }
    }
}

/// A phase's requests, made one at a time in order.
pub struct PhaseGen<'m> {
    mix: &'m Mix,
    rng: Rng64,
    rate: Option<f64>,
    /// Requests an open-loop phase makes: its rate times its length.
    limit: usize,
    next_due: f64,
    made: usize,
    /// Classes left in the current block of 20 requests.
    deck: Vec<Class>,
    /// Position in the hot set, cycled, so a phase's what-ifs cover the
    /// hot set evenly (its keys differ in cost by 100x).
    whatif_next: usize,
    cold_next: usize,
    /// `(index, due_s, body)` of the phase's recent first sends.
    recent: VecDeque<(usize, f64, Body)>,
}

impl PhaseGen<'_> {
    /// Requests made so far.
    pub fn made(&self) -> usize {
        self.made
    }

    fn whatif(&mut self) -> Body {
        let key = self.mix.hot[self.whatif_next % self.mix.hot.len()];
        self.whatif_next += 1;
        let mode = MODES[below(&mut self.rng, MODES.len())];
        let mtbce = MTBCES[below(&mut self.rng, MTBCES.len())];
        let seed = self.rng.next_u64() >> 12;
        simulate_body(Class::Whatif, key, mode, mtbce, seed)
    }

    fn cold(&mut self) -> Body {
        let (app, nodes) = self.mix.cold[self.cold_next % self.mix.cold.len()];
        self.cold_next += 1;
        let (lo, hi) = COLD_STEPS_SCALE;
        let key = Key {
            app,
            nodes,
            steps_scale: self.rng.uniform_f64(lo, hi),
        };
        let mode = MODES[below(&mut self.rng, MODES.len())];
        let seed = self.rng.next_u64() >> 12;
        simulate_body(Class::Cold, key, mode, "10s", seed)
    }

    /// A recent body of this phase old enough to be cached, if any.
    fn repeat(&mut self, due_s: f64) -> Option<Body> {
        let closed = self.rate.is_none();
        let made = self.made;
        let eligible: Vec<&Body> = self
            .recent
            .iter()
            .rev()
            .filter(|(i, due, _)| {
                if closed {
                    *i + CLOSED_REPEAT_LAG <= made
                } else {
                    *due <= due_s - REPEAT_MIN_AGE_S
                }
            })
            .take(REPEAT_WINDOW)
            .map(|(_, _, b)| b)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        Some(eligible[below(&mut self.rng, eligible.len())].clone())
    }

    /// The next request, or `None` once an open-loop phase has made all
    /// of its requests.
    pub fn next_req(&mut self) -> Option<Req> {
        if self.made >= self.limit {
            return None;
        }
        let due_s = match self.rate {
            Some(rate) => {
                let due = self.next_due;
                self.next_due += exp_gap(&mut self.rng, rate);
                due
            }
            None => 0.0,
        };
        if self.deck.is_empty() {
            self.deck = CLASSES
                .iter()
                .zip(DECK)
                .flat_map(|(&c, n)| std::iter::repeat_n(c, n))
                .collect();
            shuffle(&mut self.rng, &mut self.deck);
        }
        let mut repeat = None;
        if self.deck.last() == Some(&Class::Repeat) {
            repeat = self.repeat(due_s);
            if repeat.is_none() {
                // Nothing old enough to repeat yet: send one of the
                // block's other requests now and keep the repeat for
                // later in the block.
                if let Some(i) = self.deck.iter().rposition(|&c| c != Class::Repeat) {
                    let last = self.deck.len() - 1;
                    self.deck.swap(i, last);
                }
            }
        }
        let class = self.deck.pop().expect("refilled above");
        let req = match repeat {
            Some(body) => Req {
                due_s,
                class: Class::Repeat,
                path: body.path,
                text: body.render(true),
                canonical: body.render(false),
            },
            None => {
                let body = match class {
                    Class::Repeat | Class::Whatif => self.whatif(),
                    Class::Cold => self.cold(),
                    Class::Fleet => fleet_body(&mut self.rng),
                };
                let text = body.render(false);
                self.recent.push_back((self.made, due_s, body.clone()));
                if self.recent.len() > RECENT_KEPT {
                    self.recent.pop_front();
                }
                Req {
                    due_s,
                    class: body.class,
                    path: body.path,
                    canonical: text.clone(),
                    text,
                }
            }
        };
        self.made += 1;
        Some(req)
    }

    /// The first `n` requests (test and check helper).
    pub fn take(&mut self, n: usize) -> Vec<Req> {
        std::iter::from_fn(|| self.next_req()).take(n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> Vec<(u64, Class, String)> {
        let m = Mix::new(seed);
        let mut all = m.priming();
        all.extend(m.phase(1, Some(50.0), 4.0).take(usize::MAX));
        all.extend(m.phase(2, None, 0.0).take(100));
        all.into_iter()
            .map(|r| (r.due_s.to_bits(), r.class, r.text))
            .collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn a_phase_does_not_depend_on_how_far_another_ran() {
        let m = Mix::new(5);
        let alone = m.phase(3, Some(100.0), 2.0).take(usize::MAX);
        m.phase(2, None, 0.0).take(977);
        let after = m.phase(3, Some(100.0), 2.0).take(usize::MAX);
        let texts = |v: &[Req]| v.iter().map(|r| r.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&alone), texts(&after));
    }

    #[test]
    fn poisson_rate_and_mix_are_close_to_target() {
        let m = Mix::new(3);
        let reqs = m.phase(1, Some(200.0), 50.0).take(usize::MAX);
        assert_eq!(reqs.len(), 10_000);
        let n = reqs.len() as f64;
        let span = reqs.last().unwrap().due_s;
        assert!((n / span - 200.0).abs() < 10.0, "rate {}", n / span);
        assert!(reqs.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        for (class, count) in CLASSES.iter().zip(DECK) {
            let target = count as f64 / DECK.iter().sum::<usize>() as f64;
            let share = reqs.iter().filter(|r| r.class == *class).count() as f64 / n;
            assert!((share - target).abs() < 0.002, "{class:?}: {share}");
        }
    }

    #[test]
    fn repeats_reuse_old_bodies_and_cold_keys_never_repeat() {
        let m = Mix::new(11);
        for (rate, n) in [(Some(100.0), usize::MAX), (None, 2000)] {
            let reqs = m.phase(4, rate, 20.0).take(n);
            for (i, r) in reqs.iter().enumerate() {
                if r.class != Class::Repeat {
                    assert_eq!(r.text, r.canonical);
                    continue;
                }
                let first = reqs
                    .iter()
                    .position(|q| q.class != Class::Repeat && q.canonical == r.canonical)
                    .expect("a repeat repeats an earlier body of its phase");
                assert!(first + CLOSED_REPEAT_LAG <= i || rate.is_some());
                assert!(reqs[first].due_s <= r.due_s - REPEAT_MIN_AGE_S || rate.is_none());
                assert_ne!(r.text, r.canonical);
            }
            let cold: Vec<&Req> = reqs.iter().filter(|r| r.class == Class::Cold).collect();
            let keys: std::collections::BTreeSet<(String, String)> = cold
                .iter()
                .map(|r| {
                    let v = cesim_json::JsonValue::parse(&r.canonical).unwrap();
                    let field = |k: &str| format!("{:?}", v.get(k).unwrap());
                    (field("app"), field("steps_scale"))
                })
                .collect();
            assert!(cold.len() > 64);
            assert_eq!(keys.len(), cold.len());
        }
    }
}
