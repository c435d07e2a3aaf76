//! Metric registry, the human-readable table and the result line.
//!
//! Every metric the benchmark can report is declared here once, with
//! its unit. `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` (a
//! test keeps them in step); every workload reports every end-to-end
//! metric, and a traced run reports every per-layer metric, with `0`
//! for a layer the workload does not exercise.

use crate::stats::Pct;
use cesim_json::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, read in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.ops", "count"),
    ("engine.compile_s", "s"),
    ("engine.compiled_ops", "count"),
    ("engine.compiled_deps", "count"),
    ("engine.baseline_s", "s"),
    ("engine.replica_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.shards", "count"),
    ("engine.shard_stall_frac", "frac"),
    ("noise.ce_events", "count"),
    ("core.cell_s.p50", "s"),
    ("core.cell_s.p99", "s"),
    ("core.sweep_idle_frac", "frac"),
    ("core.schedule_cache.hit_ratio", "frac"),
    ("core.schedule_cache.miss_s", "s"),
    ("core.response_cache.hit_ratio", "frac"),
    ("fleet.place_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.policy_s", "s"),
    ("fleet.slices", "count"),
    ("serve.p50_ms_low", "ms"),
    ("serve.p99_ms_low", "ms"),
    ("serve.p50_ms_high", "ms"),
    ("serve.p99_ms_high", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.handle_ms.repeat", "ms"),
    ("serve.handle_ms.whatif", "ms"),
    ("serve.handle_ms.cold", "ms"),
    ("serve.handle_ms.fleet", "ms"),
    ("serve.workers_busy_frac", "frac"),
    ("serve.shed", "count"),
    ("json.parse_ms", "ms"),
    ("json.serialize_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.share.repeat", "frac"),
    ("loadgen.share.whatif", "frac"),
    ("loadgen.share.cold", "frac"),
    ("loadgen.share.fleet", "frac"),
    ("failed_frac", "frac"),
    ("proc.cpu_s", "s"),
    ("proc.peak_rss_mb", "MB"),
    ("trace.overhead_frac", "frac"),
    ("self_s.workloads", "s"),
    ("self_s.engine", "s"),
    ("self_s.core", "s"),
    ("self_s.fleet", "s"),
    ("self_s.serve", "s"),
];

/// Whether `name` is a valid metric name: starts with a letter or a
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn unit_of(name: &str) -> &'static str {
    assert!(valid_name(name), "invalid metric name {name:?}");
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not registered"))
}

/// One measured value with the sample count it rests on.
#[derive(Clone, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
    /// Set for a percentile read from fewer than ten samples beyond it.
    pub thin: bool,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sweeps, replica batches, requests).
    pub attempted: u64,
    /// Operations that failed: errors, sheds, timeouts, wrong outputs.
    pub failed: u64,
    /// False when an output check failed or the run was invalid.
    pub invalid: Vec<String>,
    /// Free-form lines printed above the table (digests, host facts).
    pub notes: Vec<String>,
    pub metrics: BTreeMap<&'static str, Value>,
}

impl Report {
    /// Record a plain value measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        unit_of(name);
        self.metrics.insert(
            name,
            Value {
                value,
                samples,
                thin: false,
            },
        );
    }

    /// Record a percentile, keeping its sample count and thinness.
    pub fn pct(&mut self, name: &'static str, p: Pct) {
        unit_of(name);
        self.metrics.insert(
            name,
            Value {
                value: p.value,
                samples: p.samples,
                thin: p.thin(),
            },
        );
    }

    /// Mark the run invalid (its outputs or its measurement cannot be
    /// trusted); the command then exits nonzero.
    pub fn invalidate(&mut self, why: String) {
        self.invalid.push(why);
    }

    pub fn correct(&self) -> bool {
        self.invalid.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metric set a run reports: end-to-end when untraced,
    /// per-layer when traced. Unexercised per-layer metrics read 0.
    fn selected(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).map_or(0.0, |v| v.value);
                (name, unit, v)
            })
            .collect()
    }

    /// Human-readable table: every metric the run measured, with unit,
    /// sample count and a flag on thin percentiles.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        let kind = if traced { "per-layer" } else { "end-to-end" };
        out.push_str(&format!("--- {kind} metrics ---\n"));
        for (name, unit, value) in self.selected(traced) {
            let line = match self.metrics.get(name) {
                Some(v) => {
                    let flag = if v.thin {
                        "  [fewer than 10 samples beyond]"
                    } else {
                        ""
                    };
                    format!("{name:<34} {value:>14.6} {unit:<6} n={}{flag}", v.samples)
                }
                None => format!("{name:<34} {value:>14.6} {unit:<6} (not exercised)"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = JsonValue::object(self.selected(traced).into_iter().map(
            |(name, unit, value)| {
                (
                    name,
                    JsonValue::object([("value", value.into()), ("unit", unit.into())]),
                )
            },
        ));
        JsonValue::object([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metrics),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "duplicate metric name {name:?}");
            let unit_ok = unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(unit_ok, "bad unit {unit:?} for {name}");
        }
    }

    #[test]
    fn name_rule_rejects_what_it_should() {
        assert!(valid_name("core.schedule_cache.hit_ratio"));
        assert!(valid_name("9lives-x_y.z"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = JsonValue::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 1.5, 3);
        let line = r.result_line(false);
        let v = JsonValue::parse(&line).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"].get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        r.invalidate("digest mismatch".into());
        let v = JsonValue::parse(&r.result_line(true)).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }
}
