//! `cesim-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cesim-perfbench --workload <sweep_grid|big_run|serve_mix|all> --seed N
//!                 --seconds S --trace <0|1> [--expect-digest HEX]
//! ```
//!
//! Each workload is made from the seed, run through the public APIs of
//! the cesim crates for about `--seconds` seconds of measurement, and
//! checked for correct outputs. The human-readable report goes to
//! stdout; its last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The exit code is
//! nonzero when any output check fails. `all` runs each workload in a
//! child process of its own, so peak memory never carries over.

mod bigrun;
mod digest;
mod heap;
mod host;
mod loadgen;
mod report;
mod servemix;
mod spans;
mod stats;
mod sweep;

use report::Report;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

pub const WORKLOADS: [&str; 3] = ["sweep_grid", "big_run", "serve_mix"];

/// Options shared by every workload.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: f64,
    /// Traced run: per-layer metrics, with spans around layer calls.
    pub traced: bool,
    /// Override the committed digest for this seed (self-test of the
    /// output gate).
    pub expect_digest: Option<String>,
}

const USAGE: &str = "usage: cesim-perfbench --workload <sweep_grid|big_run|serve_mix|all> \
                     --seed N --seconds S --trace <0|1> [--expect-digest HEX]";

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        traced: false,
        expect_digest: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (expected 0 or 1)")),
                }
            }
            "--expect-digest" => opts.expect_digest = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, opts))
}

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Report {
    host::reset_peak_rss();
    heap::reset_peak();
    spans::set_enabled(false);
    let cpu0 = host::cpu_seconds();
    let mut r = match name {
        "sweep_grid" => sweep::run(opts),
        "big_run" => bigrun::run(opts),
        "serve_mix" => servemix::run(opts),
        _ => unreachable!("workload names are validated at parse time"),
    };
    spans::set_enabled(false);
    if !r.metrics.contains_key("peak_heap_mb") {
        r.set("peak_heap_mb", heap::peak_mb(), 1);
    }
    if !r.metrics.contains_key("proc.peak_rss_mb") {
        r.set("proc.peak_rss_mb", host::peak_rss_mb(), 1);
    }
    r.set("proc.cpu_s", host::cpu_seconds() - cpu0, 1);
    r.set(
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.attempted as usize,
    );
    let recs = spans::snapshot();
    for (layer, secs) in spans::self_seconds(&recs) {
        let name = match layer {
            "workloads" => "self_s.workloads",
            "engine" => "self_s.engine",
            "core" => "self_s.core",
            "fleet" => "self_s.fleet",
            "serve" => "self_s.serve",
            other => panic!("span layer {other:?} has no self-time metric"),
        };
        r.set(name, secs, recs.len());
    }
    if !recs.is_empty() {
        let path = format!("perfbench/out/spans-{name}-seed{}.json", opts.seed);
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, spans::chrome_json(&recs)));
        match written {
            Ok(()) => r
                .notes
                .push(format!("spans: {} written to {path}", recs.len())),
            Err(e) => r.notes.push(format!("spans: not written ({e})")),
        }
    }
    r
}

fn print_report(name: &str, opts: &Opts, r: &Report) {
    println!(
        "=== {name} seed={} seconds={} trace={} ===",
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    println!("{}", host::facts());
    for n in &r.notes {
        println!("{n}");
    }
    print!("{}", r.table(opts.traced));
    println!(
        "attempted={} failed={} failed_frac={:.6}",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for why in &r.invalid {
        println!("INVALID: {why}");
    }
}

/// `all`: each workload in a child process of this binary.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".into(), w.to_string()]);
        match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
                lines.push(format!("\"{w}\":{}", text.lines().last().unwrap_or("null")));
            }
            Err(e) => {
                eprintln!("error: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    println!("{{{}}}", lines.join(","));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&args);
    }
    let r = run_workload(&workload, &opts);
    print_report(&workload, &opts, &r);
    println!("{}", r.result_line(opts.traced));
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse() {
        let (w, o) =
            parse_args(&args("--workload big_run --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(w, "big_run");
        assert_eq!((o.seed, o.seconds, o.traced), (42, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload big_run --trace 2")).is_err());
        assert!(parse_args(&args("--workload big_run --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload big_run --bogus 1")).is_err());
    }
}
