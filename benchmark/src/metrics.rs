//! The metric registry (names, units, bounds — the same list
//! `BENCHMARK.json` carries) and the per-workload report built from it.

use crate::json::Json;
use crate::stats::{fastest, floor_spread, median, quartile_spread};

/// An end-to-end metric: what a user of the embedder sees. `bound` is the
/// share of the baseline by which it may get worse before a change counts
/// as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// All four are "lower is better" and are taken at `JobConfig::default()`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "job_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "kernel_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
    },
];

/// Per-layer metrics as `(name, unit, better)`; layer = crate directory =
/// the name's prefix. A metric that does not apply to a workload (an IMB
/// latency on HPCG) is reported as 0 there.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    // wasm
    ("wasm.module_bytes", "bytes", "lower"),
    ("wasm.decode_us", "us", "lower"),
    ("wasm.validate_us", "us", "lower"),
    ("wasm.compile_baseline_us", "us", "lower"),
    ("wasm.compile_optimizing_us", "us", "lower"),
    ("wasm.compile_max_us", "us", "lower"),
    ("wasm.compile_maxjit_us", "us", "lower"),
    ("wasm.code_bytes", "bytes", "lower"),
    ("wasm.instantiate_us", "us", "lower"),
    ("wasm.kernel_baseline_s", "s", "lower"),
    ("wasm.kernel_optimizing_s", "s", "lower"),
    ("wasm.kernel_max_s", "s", "lower"),
    ("wasm.kernel_maxjit_s", "s", "lower"),
    ("wasm.jit_promotions", "count", "higher"),
    ("wasm.jit_chains_entered", "count", "higher"),
    ("wasm.jit_guard_exits", "count", "lower"),
    ("wasm.jit_fallback_steps", "count", "lower"),
    ("wasm.jit_guard_exit_ratio", "ratio", "lower"),
    ("wasm.simd_over_scalar_x", "x", "lower"),
    // core
    ("core.launch_s", "s", "lower"),
    ("core.jobs", "count", "higher"),
    ("core.job_median_s", "s", "lower"),
    ("core.job_tail_s", "s", "lower"),
    ("core.trampoline_ns", "ns", "lower"),
    ("core.translate_ns", "ns", "lower"),
    ("core.mpi_calls", "count", "lower"),
    ("core.call_overhead_us", "us", "lower"),
    ("core.cache_store_us", "us", "lower"),
    ("core.cache_load_us", "us", "lower"),
    ("core.cache_artifact_bytes", "bytes", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    // mpi
    ("mpi.pingpong_us", "us", "lower"),
    ("mpi.allreduce_us", "us", "lower"),
    ("mpi.alltoall_us", "us", "lower"),
    ("mpi.bcast_us", "us", "lower"),
    ("mpi.pingpong_native_us", "us", "lower"),
    ("mpi.allreduce_native_us", "us", "lower"),
    ("mpi.alltoall_native_us", "us", "lower"),
    ("mpi.bcast_native_us", "us", "lower"),
    ("mpi.pingpong_unpinned_us", "us", "lower"),
    ("mpi.eager_messages", "count", "lower"),
    ("mpi.eager_bytes_copied", "bytes", "lower"),
    ("mpi.rendezvous_messages", "count", "lower"),
    ("mpi.rendezvous_bytes", "bytes", "lower"),
    ("mpi.deferred_eager_messages", "count", "lower"),
    ("mpi.preposted_ratio", "ratio", "higher"),
    ("mpi.recv_wait_s", "s", "lower"),
    ("mpi.coll_s", "s", "lower"),
    // obs
    ("obs.recorder_on_x", "x", "lower"),
    ("obs.recorder_off_x", "x", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.dropped_events", "count", "lower"),
    // benchmarks
    ("benchmarks.native_s", "s", "lower"),
    ("benchmarks.guest_over_native_x", "x", "lower"),
    ("benchmarks.trace_overhead_x", "x", "lower"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The samples behind a timing, in measurement order (kept in the
    /// result file so a later analysis can use another statistic).
    pub samples: Vec<f64>,
    /// How well the samples support the value: [`floor_spread`] for the
    /// fastest of them, [`quartile_spread`] for their median.
    pub spread: f64,
    /// How the value was obtained, when that needs saying.
    pub note: String,
}

/// Everything one workload run measured and counted.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// `Some(cpu)` when the one-CPU mask is in force, `None` when the
    /// workload runs unpinned or pinning failed.
    pub pinned_cpu: Option<usize>,
    pub metrics: Vec<Metric>,
    /// Traced pass: each layer's self time as a share of the span-recorded
    /// jobs' time.
    pub layer_shares: Vec<(&'static str, f64)>,
    pub jobs_attempted: u64,
    pub jobs_failed: u64,
    /// Job failures and broken invariants (a count that must repeat
    /// exactly and did not, a non-finite measurement).
    pub problems: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            seconds,
            traced,
            pinned_cpu: None,
            metrics: Vec::new(),
            layer_shares: Vec::new(),
            jobs_attempted: 0,
            jobs_failed: 0,
            problems: Vec::new(),
        }
    }

    /// Record a single measured value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_noted(name, value, String::new());
    }

    pub fn put_noted(&mut self, name: &'static str, value: f64, note: String) {
        let unit = unit_of(name);
        if !value.is_finite() {
            self.problems
                .push(format!("{name} measured a non-finite value"));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Vec::new(),
            spread: 0.0,
            note,
        });
    }

    /// Record a timing: the fastest of `samples` (see [`fastest`]), with
    /// their count and how well they support it.
    pub fn put_fastest(&mut self, name: &'static str, samples: &[f64]) {
        self.put_sampled(name, fastest(samples), samples, floor_spread(samples));
    }

    /// Record the median of `samples`, with their count and quartile spread.
    pub fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        self.put_sampled(name, median(samples), samples, quartile_spread(samples));
    }

    fn put_sampled(&mut self, name: &'static str, value: f64, samples: &[f64], spread: f64) {
        self.put(name, value);
        let metric = self.metrics.last_mut().expect("just pushed");
        metric.samples = samples.to_vec();
        metric.spread = spread;
    }

    /// Record a count computed twice. Where it must repeat exactly a
    /// difference is a problem; elsewhere both values are shown.
    pub fn put_twice(&mut self, name: &'static str, first: f64, second: f64, must_repeat: bool) {
        let note = if first == second {
            "computed twice, identical".to_string()
        } else {
            if must_repeat {
                self.problems.push(format!(
                    "{name} must repeat exactly but measured {first} then {second}"
                ));
            }
            format!("computed twice: {first} then {second}")
        };
        self.put_noted(name, first, note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.jobs_failed == 0 && self.problems.is_empty()
    }

    /// One line per metric: name, value with all its digits, unit.
    pub fn print(&self) {
        for m in &self.metrics {
            let mut line = format!("{:<34} {:>16} {}", m.name, m.value, m.unit);
            if !m.samples.is_empty() {
                line.push_str(&format!(
                    "   ({} samples, spread {:.2}%)",
                    m.samples.len(),
                    m.spread * 100.0
                ));
            }
            if !m.note.is_empty() {
                line.push_str(&format!("   ({})", m.note));
            }
            println!("{line}");
        }
        if !self.layer_shares.is_empty() {
            println!("self time per layer, share of the span-recorded jobs' time:");
            for (layer, share) in &self.layer_shares {
                println!("  {layer:<32} {:>16.2} %", 100.0 * share);
            }
            let sum: f64 = self.layer_shares.iter().map(|(_, s)| s).sum();
            println!("  {:<32} {:>16.2} %", "sum", 100.0 * sum);
        }
        println!(
            "{:<34} {:>16} of {} attempted",
            "jobs_failed", self.jobs_failed, self.jobs_attempted
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
    }

    /// The driver's result line: the end-to-end metrics of an untraced
    /// run, every per-layer metric of a traced one.
    pub fn result_line(&self) -> Json {
        let entry = |name: &str, unit: &str| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if self.traced {
            PER_LAYER.iter().map(|m| entry(m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| entry(m.name, m.unit)).collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.jobs_attempted.max(1) as f64)),
            ("failed", Json::Num(self.jobs_failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The result file: every metric with its spread, plus the run's
    /// circumstances.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                if !m.samples.is_empty() {
                    fields.push(("spread".into(), Json::Num(m.spread)));
                    fields.push((
                        "samples".into(),
                        Json::Arr(m.samples.iter().map(|v| Json::Num(*v)).collect()),
                    ));
                }
                if !m.note.is_empty() {
                    fields.push(("note".into(), Json::str(m.note.clone())));
                }
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("pinned", Json::Bool(self.pinned_cpu.is_some())),
            (
                "cpu",
                self.pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            ("jobs_attempted", Json::Num(self.jobs_attempted as f64)),
            ("jobs_failed", Json::Num(self.jobs_failed as f64)),
            ("correct", Json::Bool(self.correct())),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            (
                "layer_self_time_shares",
                Json::obj(
                    self.layer_shares
                        .iter()
                        .map(|(layer, share)| (*layer, Json::Num(*share))),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
    }

    #[test]
    fn result_line_has_the_contract_keys_and_parses() {
        let mut r = Report::new("hpcg_np1", 3, 4.0, false);
        r.jobs_attempted = 27;
        r.put_fastest("job_s", &[0.21, 0.2, 0.22]);
        r.put("setup_s", 0.05);
        r.put("kernel_s", 0.19);
        r.put("peak_rss_mb", 80.5);
        let line = r.result_line().to_string();
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(
            parsed.get("metrics").unwrap().entries().len(),
            END_TO_END.len()
        );
        let job = parsed.get("metrics").unwrap().get("job_s").unwrap();
        assert_eq!(job.get("value").and_then(Json::as_f64), Some(0.2));

        r.traced = true;
        let traced = Json::parse(&r.result_line().to_string()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().entries().len(),
            PER_LAYER.len()
        );
        assert!(Json::parse(&r.to_json().to_string()).is_ok());
    }

    #[test]
    fn a_count_that_must_repeat_and_does_not_is_a_problem() {
        let mut r = Report::new("hpcg_np1", 0, 1.0, true);
        r.put_twice("wasm.module_bytes", 100.0, 100.0, true);
        assert!(r.correct());
        r.put_twice("mpi.eager_messages", 10.0, 12.0, false);
        assert!(r.correct(), "a count that may vary is only shown");
        r.put_twice("core.mpi_calls", 21.0, 22.0, true);
        assert!(!r.correct());
    }
}
