//! `serve_mix`: open-loop what-if traffic to an in-process daemon.
//!
//! The daemon runs in this process (`workers` = CPUs, default caches);
//! the generator sends over loopback HTTP from at most `nproc` threads,
//! one connection each. Phases: a low and a high fixed offered rate
//! (seeded Poisson arrivals; each request is timed from when it was
//! due, so a stall also charges the requests queued behind it) and a
//! closed-loop saturation phase. Set-up is bind plus priming the hot
//! schedule set.
//!
//! Senders make each request just before sending it and keep only a
//! digest of the answer, so the live heap during a round is the
//! daemon's plus a few small records per request. After each round,
//! outside the timed phases, the round's requests are made again from
//! the seed and every answer is checked against a direct in-process
//! `handle_simulate`/`handle_fleet` call.

use crate::loadgen::{Class, Mix, Req, CLASSES};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::{heap, host, spans, Opts};
use cesim_core::seed::{fnv1a, mix};
use cesim_core::{handle_simulate, ServiceState, SimulateRequest};
use cesim_fleet::{handle_fleet, FleetRequest};
use cesim_json::JsonValue;
use cesim_serve::{client, ServeConfig, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rates of the two open-loop phases, requests per second.
const LOW_RPS: f64 = 50.0;
const HIGH_RPS: f64 = 150.0;
/// Latency limit on p99 for `serve.max_rps`.
const P99_LIMIT_MS: f64 = 250.0;
/// A generator more than this far behind its schedule at p99 did not
/// offer the rate it claims: the run is invalid.
const LATE_LIMIT_MS: f64 = 1000.0;
/// Shares of the measured time: low, high, saturation.
const PHASE_SHARES: [f64; 3] = [0.3, 0.2, 0.5];
/// The low and high phases run this many times each, in turn, so their
/// metrics are read across a long stretch of the run.
const ROUNDS: usize = 3;
/// Saturation phases. Closed-loop throughput swings by a quarter from
/// one second to the next on a small shared host, so it is read over
/// half the run.
const SAT_PHASES: usize = 5;
const SETUPS: usize = 7;
const TIMEOUT: Duration = Duration::from_secs(10);
const POLL_EVERY: Duration = Duration::from_millis(200);

fn serve_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: host::nproc(),
        ..ServeConfig::default()
    }
}

/// One request as sent and answered.
struct Done {
    /// Index of the request in its phase.
    req: usize,
    class: Class,
    due_s: f64,
    sent_s: f64,
    done_s: f64,
    /// HTTP status; 0 when no response arrived (timeout, reset).
    status: u16,
    /// FNV-1a of the response body.
    digest: u64,
    /// Status 200 and the body a direct call gives (set by the check).
    ok: bool,
}

struct Phase {
    name: &'static str,
    /// Stream id the phase's requests were made from.
    id: u64,
    rate: Option<f64>,
    secs: f64,
    /// In request order; request `i` is `done[i]`.
    done: Vec<Done>,
    wall_s: f64,
    /// High bits of the phase's trace ids.
    tag: u64,
}

fn trace_id(tag: u64, i: usize) -> String {
    format!("{tag:016x}{:016x}", i as u64 + 1)
}

fn send(addr: SocketAddr, req: &Req, traceparent: Option<&str>) -> (u16, u64) {
    let headers: Vec<(&str, &str)> = traceparent
        .map(|tp| ("traceparent", tp))
        .into_iter()
        .collect();
    let resp =
        client::request_with_headers(addr, "POST", req.path, Some(&req.text), TIMEOUT, &headers);
    match resp {
        Ok(r) => (r.status, fnv1a(r.body.as_bytes())),
        Err(_) => (0, 0),
    }
}

/// Send phase `id`'s requests from `nproc` threads. Each sender makes
/// the next request, waits until it is due and sends it. With
/// `stop_after`, senders stop making requests once that long has passed
/// (closed-loop phase), so every request made is sent.
fn drive(
    addr: SocketAddr,
    mix: &Mix,
    name: &'static str,
    id: u64,
    rate: Option<f64>,
    secs: f64,
    tag: u64,
) -> Phase {
    let gen = Mutex::new(mix.phase(id, rate, secs));
    let stop_after = rate.is_none().then_some(secs);
    let done = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..host::nproc() {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    if stop_after.is_some_and(|limit| t0.elapsed().as_secs_f64() >= limit) {
                        break;
                    }
                    let (i, req) = {
                        let mut g = gen.lock().expect("generator lock");
                        let i = g.made();
                        match g.next_req() {
                            Some(req) => (i, req),
                            None => break,
                        }
                    };
                    let due = t0 + Duration::from_secs_f64(req.due_s);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent_s = t0.elapsed().as_secs_f64();
                    let tp = format!("00-{}-00000000000000a1-01", trace_id(tag, i));
                    let (status, digest) =
                        spans::span("serve.request", || send(addr, &req, Some(&tp)));
                    mine.push(Done {
                        req: i,
                        class: req.class,
                        due_s: req.due_s,
                        sent_s,
                        done_s: t0.elapsed().as_secs_f64(),
                        status,
                        digest,
                        ok: false,
                    });
                }
                done.lock().expect("results lock").extend(mine);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("results lock");
    done.sort_by_key(|d| d.req);
    Phase {
        name,
        id,
        rate,
        secs,
        done,
        wall_s,
        tag,
    }
}

/// The body a correct daemon returns for `text`, computed directly;
/// `None` when the direct call fails.
fn direct_body(state: &ServiceState, path: &str, text: &str) -> Option<String> {
    let v = JsonValue::parse(text).ok()?;
    let out = match path {
        "/v1/simulate" => SimulateRequest::from_json(&v).and_then(|r| handle_simulate(state, &r)),
        _ => FleetRequest::from_json(&v).and_then(|r| handle_fleet(state, &r)),
    };
    Some(out.ok()?.to_json())
}

/// What the checks found, summed over a run.
#[derive(Default)]
struct Checked {
    /// Distinct bodies checked.
    bodies: usize,
    /// Distinct fleet bodies, and their job-epoch slices.
    fleet_bodies: usize,
    fleet_slices: f64,
}

fn fleet_slices(text: &str) -> f64 {
    let Ok(v) = JsonValue::parse(text) else {
        return 0.0;
    };
    v.get("jobs")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|j| {
            let s = j.get("start_epoch")?.as_f64()?;
            let e = j.get("end_epoch")?.as_f64()?;
            Some(e - s + 1.0)
        })
        .sum()
}

/// Check every answer in `done` against a direct call on a fresh
/// [`ServiceState`] (on `nproc` threads, outside the timed phases);
/// each answer `d` is to the request `reqs[d.req]`.
fn check(reqs: &[Req], done: &mut [&mut Done], into: &mut Checked) {
    let distinct: BTreeSet<(&'static str, &str)> = done
        .iter()
        .map(|d| (reqs[d.req].path, reqs[d.req].canonical.as_str()))
        .collect();
    let list: Vec<(&'static str, &str)> = distinct.into_iter().collect();
    let state = ServiceState::new(256, 0);
    let next = AtomicUsize::new(0);
    let expected = Mutex::new(BTreeMap::new());
    let slices = Mutex::new(0.0);
    std::thread::scope(|s| {
        for _ in 0..host::nproc() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(path, text)) = list.get(i) else {
                    break;
                };
                let body = direct_body(&state, path, text);
                if let (Some(body), "/v1/fleet") = (&body, path) {
                    *slices.lock().expect("slices lock") += fleet_slices(body);
                }
                let digest = body.map(|b| fnv1a(b.as_bytes()));
                expected.lock().expect("expected lock").insert(text, digest);
            });
        }
    });
    let expected = expected.into_inner().expect("expected lock");
    for d in done.iter_mut() {
        let want = expected
            .get(reqs[d.req].canonical.as_str())
            .copied()
            .flatten();
        d.ok = d.status == 200 && want == Some(d.digest);
    }
    into.bodies += list.len();
    into.fleet_bodies += list.iter().filter(|(p, _)| *p == "/v1/fleet").count();
    into.fleet_slices += slices.into_inner().expect("slices lock");
}

/// Make a phase's sent requests again and check their answers.
fn check_phase(mix: &Mix, p: &mut Phase, into: &mut Checked) {
    assert!(
        p.done.iter().enumerate().all(|(i, d)| d.req == i),
        "a phase sends every request it makes, in order"
    );
    let reqs = mix.phase(p.id, p.rate, p.secs).take(p.done.len());
    let mut done: Vec<&mut Done> = p.done.iter_mut().collect();
    check(&reqs, &mut done, into);
}

/// `GET /metrics`, parsed into `series -> value` (exemplars dropped).
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let text = spans::span("serve.metrics_scrape", || {
        client::get(addr, "/metrics", TIMEOUT)
    })
    .map(|r| r.body)
    .unwrap_or_default();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let sample = l.split(" # ").next()?;
            let (series, value) = sample.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Server handling time (root span duration) by trace id, from the
/// daemon's tail-sampled trace store.
fn poll_traces(addr: SocketAddr, into: &Mutex<BTreeMap<String, f64>>) {
    let Ok(resp) = client::get(addr, "/v1/debug/traces", TIMEOUT) else {
        return;
    };
    let Ok(doc) = JsonValue::parse(&resp.body) else {
        return;
    };
    let mut map = into.lock().expect("trace map lock");
    for t in doc
        .get("traces")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        if let (Some(id), Some(ns)) = (
            t.get("trace_id").and_then(JsonValue::as_str),
            t.get("dur_ns").and_then(JsonValue::as_f64),
        ) {
            map.insert(id.to_string(), ns / 1e6);
        }
    }
}

/// The phases of one kind (`low`, `high`, `sat`) in a pass.
fn kind<'p>(p: &'p Pass, name: &str) -> Vec<&'p Phase> {
    p.phases.iter().filter(|x| x.name == name).collect()
}

/// One pass: `ROUNDS` low and high phases in turn, then `SAT_PHASES`
/// saturation phases.
struct Pass {
    phases: Vec<Phase>,
    /// Peak live heap over the open-loop phases.
    open_peak_mb: f64,
    /// Scrapes before and after the pass (traced only).
    before: BTreeMap<String, f64>,
    after: BTreeMap<String, f64>,
    /// Server handling ms by trace id (traced only).
    handle_ms: BTreeMap<String, f64>,
}

/// Run one pass; `pass_id` keeps the phases' request streams apart
/// from every other pass's.
fn pass(
    addr: SocketAddr,
    mix: &Mix,
    secs: f64,
    traced: bool,
    pass_id: u64,
    checked: &mut Checked,
) -> Pass {
    spans::set_enabled(traced);
    let [low_s, high_s, sat_s] = PHASE_SHARES.map(|f| f * secs);
    let (low_s, high_s) = (low_s / ROUNDS as f64, high_s / ROUNDS as f64);
    let sat_s = sat_s / SAT_PHASES as f64;
    let tag = mix_tag(pass_id);
    let stop = AtomicBool::new(false);
    let handle_ms = Mutex::new(BTreeMap::new());
    let mut before = BTreeMap::new();
    let mut after = BTreeMap::new();
    let mut phases = Vec::new();
    let mut open_peak_mb = 0.0;
    std::thread::scope(|s| {
        if traced {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    poll_traces(addr, &handle_ms);
                    std::thread::sleep(POLL_EVERY);
                }
            });
            before = scrape(addr);
        }
        // The open-loop phases first: a fixed, seeded sequence of
        // requests, so the heap they leave is the same from run to run.
        let id = |round: usize, k: usize| pass_id * 1000 + (round * 3 + k) as u64;
        heap::reset_peak();
        for round in 0..ROUNDS {
            let (low, high) = (id(round, 0), id(round, 1));
            phases.push(drive(
                addr,
                mix,
                "low",
                low,
                Some(LOW_RPS),
                low_s,
                tag + low,
            ));
            phases.push(drive(
                addr,
                mix,
                "high",
                high,
                Some(HIGH_RPS),
                high_s,
                tag + high,
            ));
        }
        open_peak_mb = heap::peak_mb();
        for round in 0..SAT_PHASES {
            let sat = id(round, 2);
            phases.push(drive(addr, mix, "sat", sat, None, sat_s, tag + sat));
        }
        for p in &mut phases {
            check_phase(mix, p, checked);
        }
        if traced {
            after = scrape(addr);
            poll_traces(addr, &handle_ms);
        }
        stop.store(true, Ordering::Relaxed);
    });
    spans::set_enabled(false);
    Pass {
        phases,
        open_peak_mb,
        before,
        after,
        handle_ms: handle_ms.into_inner().expect("trace map lock"),
    }
}

/// High bits of the trace ids of a pass's requests.
fn mix_tag(pass_id: u64) -> u64 {
    mix(0x7ace, pass_id) & !0xffff
}

/// Latency (ms from due) of every request a phase sent; a failed
/// request counts as infinitely late.
fn latencies(p: &Phase) -> Vec<f64> {
    p.done
        .iter()
        .map(|d| {
            if d.ok {
                (d.done_s - d.due_s) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

fn late_ms(p: &Phase) -> Vec<f64> {
    p.done
        .iter()
        .map(|d| (d.sent_s - d.due_s).max(0.0) * 1e3)
        .collect()
}

/// The backlog grows when the last quarter of the phase waits clearly
/// longer to be sent than the first quarter.
fn backlog_grows(p: &Phase) -> bool {
    let late = late_ms(p);
    let q = late.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&late[..q]).expect("non-empty");
    let last = median(&late[late.len() - q..]).expect("non-empty");
    last > first + 0.25 * P99_LIMIT_MS
}

fn delta(p: &Pass, series: &str) -> f64 {
    p.after.get(series).copied().unwrap_or(0.0) - p.before.get(series).copied().unwrap_or(0.0)
}

fn phase_mean_ms(p: &Pass, phase: &str) -> Option<f64> {
    let sum = delta(p, &format!("cesim_phase_seconds_sum{{phase=\"{phase}\"}}"));
    let n = delta(
        p,
        &format!("cesim_phase_seconds_count{{phase=\"{phase}\"}}"),
    );
    (n > 0.0).then(|| sum / n * 1e3)
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced pass; `checked` is its checks.
fn layer_metrics(r: &mut Report, t: &Pass, checked: &Checked) {
    let open: Vec<&Phase> = t.phases.iter().filter(|p| p.rate.is_some()).collect();
    let wall: f64 = t.phases.iter().map(|p| p.wall_s).sum();
    let d = |s: &str| delta(t, s);
    r.set(
        "core.schedule_cache.hit_ratio",
        ratio(
            d("cesim_schedule_cache_hits_total"),
            d("cesim_schedule_cache_misses_total"),
        ),
        d("cesim_schedule_cache_hits_total") as usize
            + d("cesim_schedule_cache_misses_total") as usize,
    );
    let misses = d("cesim_schedule_cache_misses_total");
    if misses > 0.0 {
        r.set(
            "core.schedule_cache.miss_s",
            d("cesim_phase_seconds_sum{phase=\"compile\"}") / misses,
            misses as usize,
        );
    }
    r.set(
        "core.response_cache.hit_ratio",
        ratio(
            d("cesim_response_cache_hits_total"),
            d("cesim_response_cache_misses_total"),
        ),
        d("cesim_response_cache_hits_total") as usize
            + d("cesim_response_cache_misses_total") as usize,
    );
    let busy = d("cesim_request_duration_seconds_sum{endpoint=\"/v1/simulate\"}")
        + d("cesim_request_duration_seconds_sum{endpoint=\"/v1/fleet\"}");
    r.set(
        "serve.workers_busy_frac",
        busy / (host::nproc() as f64 * wall),
        t.phases.iter().map(|p| p.done.len()).sum(),
    );
    r.set("serve.shed", d("cesim_shed_total"), 1);
    if let Some(ms) = phase_mean_ms(t, "parse") {
        r.set(
            "json.parse_ms",
            ms,
            d("cesim_phase_seconds_count{phase=\"parse\"}") as usize,
        );
    }
    if let Some(ms) = phase_mean_ms(t, "serialize") {
        r.set(
            "json.serialize_ms",
            ms,
            d("cesim_phase_seconds_count{phase=\"serialize\"}") as usize,
        );
    }

    // Fleet layer: phase time per distinct fleet body (repeats of a
    // fleet body are answered from the response cache).
    let n_fleet = checked.fleet_bodies;
    if n_fleet > 0 {
        for (metric, phase) in [
            ("fleet.place_s", "fleet_place"),
            ("fleet.run_s", "fleet_run"),
            ("fleet.policy_s", "fleet_policy"),
        ] {
            let sum = d(&format!("cesim_phase_seconds_sum{{phase=\"{phase}\"}}"));
            r.set(metric, sum / n_fleet as f64, n_fleet);
        }
        r.set(
            "fleet.slices",
            checked.fleet_slices / n_fleet as f64,
            n_fleet,
        );
    }

    // Server handling time joined to client latency by trace id.
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut wait = Vec::new();
    for p in &open {
        for (d, l) in p.done.iter().zip(latencies(p)) {
            if let Some(&h) = t.handle_ms.get(&trace_id(p.tag, d.req)) {
                by_class.entry(d.class).or_default().push(h);
                if l.is_finite() {
                    wait.push((l - h).max(0.0));
                }
            }
        }
    }
    for (class, name) in [
        (Class::Repeat, "serve.handle_ms.repeat"),
        (Class::Whatif, "serve.handle_ms.whatif"),
        (Class::Cold, "serve.handle_ms.cold"),
        (Class::Fleet, "serve.handle_ms.fleet"),
    ] {
        if let Some(xs) = by_class.get(&class) {
            r.set(name, median(xs).expect("non-empty"), xs.len());
        }
    }
    if let (Some(p50), Some(p99)) = (percentile(&wait, 50.0), percentile(&wait, 99.0)) {
        r.pct("serve.queue_wait_ms.p50", p50);
        r.pct("serve.queue_wait_ms.p99", p99);
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let mix = Mix::new(opts.seed);
    let priming = mix.priming();

    // Set-up: bind and prime the hot schedule set, SETUPS times on
    // fresh daemons; the last one serves the phases.
    let mut walls = Vec::new();
    let mut primed: Vec<Done> = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let t = Instant::now();
        let s = Server::bind(serve_config()).expect("bind a loopback port");
        for (i, req) in priming.iter().enumerate() {
            let (status, digest) = send(s.addr(), req, None);
            primed.push(Done {
                req: i,
                class: req.class,
                due_s: 0.0,
                sent_s: 0.0,
                done_s: 0.0,
                status,
                digest,
                ok: false,
            });
        }
        walls.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set-up ran");
    let addr = server.addr();
    r.set("setup_s", median(&walls).expect("set-ups ran"), SETUPS);

    let mut checked = Checked::default();
    let mut traced_checked = Checked::default();
    let (plain, traced) = if opts.traced {
        let half = opts.seconds / 2.0;
        let a = pass(addr, &mix, half, false, 1, &mut checked);
        let b = pass(addr, &mix, half, true, 2, &mut traced_checked);
        (a, Some(b))
    } else {
        (pass(addr, &mix, opts.seconds, false, 1, &mut checked), None)
    };
    server.shutdown();
    // Peak RSS of the serving itself; the set-up check below holds its
    // own schedule cache.
    r.set("proc.peak_rss_mb", host::peak_rss_mb(), 1);
    {
        let mut done: Vec<&mut Done> = primed.iter_mut().collect();
        check(&priming, &mut done, &mut checked);
    }

    // Failure accounting over every request sent, set-up included.
    let passes: Vec<&Pass> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    let all_done = || {
        primed
            .iter()
            .chain(passes.iter().flat_map(|p| &p.phases).flat_map(|p| &p.done))
    };
    let mut class_counts: BTreeMap<Class, usize> = BTreeMap::new();
    let (mut no_response, mut sheds, mut other_status, mut wrong_body) = (0, 0, 0, 0);
    for d in all_done() {
        r.attempted += 1;
        r.failed += u64::from(!d.ok);
        match d.status {
            0 => no_response += 1,
            429 => sheds += 1,
            200 if !d.ok => wrong_body += 1,
            200 => {}
            _ => other_status += 1,
        }
    }
    for d in passes.iter().flat_map(|p| &p.phases).flat_map(|p| &p.done) {
        *class_counts.entry(d.class).or_default() += 1;
    }
    let counts: Vec<String> = class_counts
        .iter()
        .map(|(c, n)| format!("{}={n}", c.name()))
        .collect();
    r.notes.push(format!(
        "serve_mix: requests by class {}; {} distinct bodies checked against direct calls; \
         failures: {no_response} without response (timeout or reset), {sheds} shed (429), \
         {other_status} other non-200, {wrong_body} wrong body",
        counts.join(" "),
        checked.bodies + traced_checked.bodies,
    ));

    // End-to-end metrics from the untraced pass: closed-loop capacity
    // and memory. Latencies are per-layer metrics: on a small shared
    // host they do not repeat within the bound a gate needs.
    let sat = kind(&plain, "sat");
    let sat_ok = |p: &Phase| p.done.iter().filter(|d| d.ok).count();
    let sat_rates: Vec<f64> = sat.iter().map(|p| sat_ok(p) as f64 / p.wall_s).collect();
    r.set(
        "throughput_per_s",
        sat.iter().map(|p| sat_ok(p)).sum::<usize>() as f64
            / sat.iter().map(|p| p.wall_s).sum::<f64>(),
        sat.len(),
    );
    let mut max_rps = 0.0;
    let mut late_p99: f64 = 0.0;
    let mut open_sent = 0;
    for (name, rate, p50_name, p99_name) in [
        ("low", LOW_RPS, "serve.p50_ms_low", "serve.p99_ms_low"),
        ("high", HIGH_RPS, "serve.p50_ms_high", "serve.p99_ms_high"),
    ] {
        let phases = kind(&plain, name);
        let lat: Vec<f64> = phases.iter().flat_map(|p| latencies(p)).collect();
        let late: Vec<f64> = phases.iter().flat_map(|p| late_ms(p)).collect();
        open_sent += lat.len();
        let p50 = percentile(&lat, 50.0).expect("open phases send requests");
        let p99 = percentile(&lat, 99.0).expect("open phases send requests");
        r.pct(p50_name, p50);
        r.pct(p99_name, p99);
        let late = percentile(&late, 99.0).expect("open phases send requests");
        late_p99 = late_p99.max(late.value);
        let grows = phases.iter().any(|p| backlog_grows(p));
        if p99.value <= P99_LIMIT_MS && !grows {
            max_rps = f64::max(max_rps, rate);
        }
        r.notes.push(format!(
            "serve_mix {name} rate: {rate} req/s offered, {} sent in {ROUNDS} phases, \
             p50 {:.3} ms, p99 {:.3} ms ({} beyond), late p99 {:.3} ms, backlog {}",
            lat.len(),
            p50.value,
            p99.value,
            p99.beyond,
            late.value,
            if grows { "growing" } else { "steady" }
        ));
    }
    r.notes.push(format!(
        "serve_mix saturation: {} closed-loop senders, req/s per phase {:.1?}; \
         peak heap over the open-loop phases {:.1} MB",
        host::nproc(),
        sat_rates,
        plain.open_peak_mb
    ));
    r.set("peak_heap_mb", plain.open_peak_mb, open_sent);
    r.set("serve.max_rps", max_rps, 2);
    r.set("loadgen.late_ms_p99", late_p99, open_sent);
    if late_p99 > LATE_LIMIT_MS {
        r.invalidate(format!(
            "load generator fell {late_p99:.0} ms behind its schedule (limit {LATE_LIMIT_MS} ms)"
        ));
    }
    let total: usize = class_counts.values().sum();
    for (class, name) in CLASSES.iter().zip([
        "loadgen.share.repeat",
        "loadgen.share.whatif",
        "loadgen.share.cold",
        "loadgen.share.fleet",
    ]) {
        let n = class_counts.get(class).copied().unwrap_or(0);
        r.set(name, n as f64 / total.max(1) as f64, total);
    }

    if let Some(t) = &traced {
        layer_metrics(&mut r, t, &traced_checked);
        let low_p50 = |p: &Pass| {
            let lat: Vec<f64> = kind(p, "low").iter().flat_map(|x| latencies(x)).collect();
            percentile(&lat, 50.0).expect("low phases send requests")
        };
        let (a, b) = (low_p50(&plain), low_p50(t));
        r.set(
            "trace.overhead_frac",
            b.value / a.value - 1.0,
            a.samples + b.samples,
        );
    }
    r
}
