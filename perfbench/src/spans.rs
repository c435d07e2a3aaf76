//! The benchmark's own spans, recorded around its calls into each
//! layer's public functions in a traced run.
//!
//! A span is named `<layer>.<call>`. Spans are kept in memory and
//! written out once, at the end of the run, as a Chrome `trace_event`
//! document. A layer's self time is the total duration of its spans
//! minus the part of each interval that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RECS: Mutex<Vec<Rec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Rec {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` when recording is on; otherwise
/// just run it.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let epoch = *EPOCH.get_or_init(Instant::now);
    let start = Instant::now();
    let out = f();
    let dur_ns = start.elapsed().as_nanos() as u64;
    STACK.with(|s| s.borrow_mut().pop());
    let rec = Rec {
        id,
        parent,
        name,
        tid: TID.with(|t| *t),
        start_ns: start.duration_since(epoch).as_nanos() as u64,
        dur_ns,
    };
    RECS.lock().expect("span buffer lock").push(rec);
    out
}

/// Every span recorded so far.
pub fn snapshot() -> Vec<Rec> {
    RECS.lock().expect("span buffer lock").clone()
}

/// Self time per layer (the span-name prefix before the first `.`),
/// in seconds: each span's duration minus the union of its children's
/// intervals clipped to it.
pub fn self_seconds(recs: &[Rec]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in recs {
        if r.parent != 0 {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.start_ns + r.dur_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for r in recs {
        let (lo, hi) = (r.start_ns, r.start_ns + r.dur_ns);
        let mut ivs: Vec<(u64, u64)> = children
            .get(&r.id)
            .map(|c| {
                c.iter()
                    .map(|&(a, b)| (a.max(lo), b.min(hi)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        ivs.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in ivs {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let layer = r.name.split('.').next().unwrap_or(r.name);
        *out.entry(layer).or_default() += (r.dur_ns - covered) as f64 / 1e9;
    }
    out
}

/// Render spans as a Chrome `trace_event` JSON document.
pub fn chrome_json(recs: &[Rec]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            r.name,
            r.tid,
            r.start_ns as f64 / 1e3,
            r.dur_ns as f64 / 1e3,
            r.id,
            r.parent
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, dur: u64) -> Rec {
        Rec {
            id,
            parent,
            name,
            tid: 1,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let recs = [
            rec(1, 0, "core.fig4", 0, 1_000_000_000),
            // Two overlapping children cover [100ms, 400ms).
            rec(2, 1, "engine.a", 100_000_000, 200_000_000),
            rec(3, 1, "engine.b", 200_000_000, 200_000_000),
            // A child sticking out of its parent is clipped to it.
            rec(4, 1, "workloads.build", 900_000_000, 300_000_000),
        ];
        let s = self_seconds(&recs);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(s["core"], 0.6), "{s:?}");
        assert!(close(s["engine"], 0.4), "{s:?}");
        assert!(close(s["workloads"], 0.3), "{s:?}");
    }
}
