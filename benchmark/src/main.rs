//! The repo's end-to-end benchmark for the MPIWasm embedder.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed N] [--seconds S] [--trace 0|1|FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     repeat [--seed N] [--seconds S]
//! ```
//!
//! `run` without `--workload` runs all seven workloads, each in its own
//! child process (so CPU mask, peak RSS, allocator and JIT state cannot
//! leak between them), and ends with a one-line JSON summary. With
//! `--workload` it runs that workload in this process and ends with the
//! result line `BENCHMARK.json` describes. See `README.md`.

mod json;
mod metrics;
mod passes;
mod pin;
mod spans;
mod stats;
mod synth;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use metrics::END_TO_END;
use passes::{run_workload, RunOptions};
use workloads::{spec, Spec, SPECS};

const USAGE: &str =
    "usage: mpiwasm-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1|FILE]
       mpiwasm-benchmark repeat [--seed N] [--seconds S]";

/// `--trace`: off, on with the default file, or on with a named file.
#[derive(Clone, PartialEq)]
enum Trace {
    Off,
    On(Option<PathBuf>),
}

struct Args {
    repeat: bool,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    /// Set by a parent `run`/`repeat` on the workload processes it starts:
    /// the parent already printed the run header.
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: false,
        workload: None,
        seed: 1,
        seconds: 3.0,
        trace: Trace::Off,
        child: false,
    };
    match argv.first().map(String::as_str) {
        Some("run") => {}
        Some("repeat") => args.repeat = true,
        other => return Err(format!("expected `run` or `repeat`, got {other:?}")),
    }
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(spec(value).ok_or_else(|| {
                    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On(None),
                    file => Trace::On(Some(PathBuf::from(file))),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if args.repeat && (args.workload.is_some() || args.trace != Trace::Off) {
        return Err("repeat takes only --seed and --seconds".into());
    }
    Ok(args)
}

/// Result, trace and temporary files live here (ignored by git).
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn result_file(workload: &str, traced: bool) -> PathBuf {
    results_dir().join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

fn trace_file(workload: &str) -> PathBuf {
    results_dir().join(format!("{workload}.trace.json"))
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    // git must not look for a repository above the checkout's root.
    let above_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above_root.canonicalize().ok()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken.
fn run_header(args: &Args) -> Json {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "rustc",
            Json::Str(command_output("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(
                command_output(
                    "git",
                    &[
                        "-C",
                        env!("CARGO_MANIFEST_DIR"),
                        "rev-parse",
                        "--short",
                        "HEAD",
                    ],
                )
                .unwrap_or_else(unknown),
            ),
        ),
        (
            "default_tier",
            Json::str(mpiwasm::JobConfig::default().tier.name()),
        ),
    ])
}

fn print_header(header: &Json) {
    let fields: Vec<String> = header
        .entries()
        .iter()
        .map(|(k, v)| match v {
            Json::Str(s) => format!("{k}: {s}"),
            other => format!("{k}: {other}"),
        })
        .collect();
    println!("# mpiwasm benchmark — {}", fields.join("; "));
}

fn write_json(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Run one workload in this process. The last line printed is the result
/// line; the full report and (traced) the Chrome trace go to files.
fn run_one(spec: &'static Spec, args: &Args) -> Result<bool, String> {
    let traced = args.trace != Trace::Off;
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        results_dir: results_dir(),
    };
    println!(
        "== {} — {} pass, seed {}, {} s ==",
        spec.name,
        if traced { "traced" } else { "untraced" },
        args.seed,
        args.seconds
    );
    println!("   why: {}", spec.why);
    if !spec.gated {
        println!("   not in BENCHMARK.json: the driver neither runs nor gates this workload");
    }
    let (report, tracer) = run_workload(spec, &opts)?;
    match (spec.pinned, report.pinned_cpu) {
        (true, Some(cpu)) => println!("   pinned: true (CPU {cpu})"),
        (true, None) => println!("   pinned: false (PINNING FAILED — do not compare)"),
        (false, _) => println!("   pinned: no (uses every CPU it is given)"),
    }
    report.print();

    write_json(&result_file(spec.name, traced), &report.to_json())?;
    if let Trace::On(file) = &args.trace {
        let path = file.clone().unwrap_or_else(|| trace_file(spec.name));
        // One Chrome-trace process per workload, so traces merge as they are.
        let pid = SPECS
            .iter()
            .position(|s| s.name == spec.name)
            .map_or(0, |i| i + 1);
        write_json(&path, &tracer.chrome_trace(spec.name, pid))?;
        println!("trace written to {}", path.display());
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Start one workload in a child process and return its result file.
fn run_child(spec: &Spec, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = result_file(spec.name, traced);
    // Whatever an earlier run left must not be mistaken for this one's.
    let _ = std::fs::remove_file(&path);
    let status = Command::new(exe)
        .args(["run", "--child", "--workload", spec.name])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("start {}: {e}", spec.name))?;
    // A workload with failed jobs exits non-zero after writing its report;
    // one that could not even set up leaves nothing to read.
    match std::fs::read_to_string(&path) {
        Ok(text) => Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Err(format!("{} ended with {status} and no report", spec.name)),
    }
}

/// A workload report without the raw samples (those stay in its own file).
fn without_samples(report: &Json) -> Json {
    match report {
        Json::Obj(entries) => Json::Obj(
            entries
                .iter()
                .filter(|(key, _)| key != "samples")
                .map(|(key, value)| (key.clone(), without_samples(value)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// All workloads, one child each; ends with the one-line summary.
fn run_all(args: &Args) -> Result<bool, String> {
    let header = run_header(args);
    print_header(&header);
    let traced = args.trace != Trace::Off;
    std::fs::create_dir_all(results_dir()).map_err(|e| format!("results dir: {e}"))?;

    let mut workloads = Vec::new();
    let mut events = Vec::new();
    let mut all_correct = true;
    for spec in &SPECS {
        let report = run_child(spec, args, traced)?;
        all_correct &= report.get("correct").and_then(Json::as_bool) == Some(true);
        if let Trace::On(Some(_)) = &args.trace {
            let text = std::fs::read_to_string(trace_file(spec.name)).map_err(|e| e.to_string())?;
            let trace = Json::parse(&text)?;
            events.extend_from_slice(
                trace
                    .get("traceEvents")
                    .and_then(Json::as_array)
                    .unwrap_or(&[]),
            );
        }
        workloads.push((spec.name.to_string(), without_samples(&report)));
    }
    if let Trace::On(Some(file)) = &args.trace {
        let merged = Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        write_json(file, &merged)?;
        println!("merged trace written to {}", file.display());
    }

    // This benchmark defines the baseline; it claims no gain.
    let summary = Json::obj([
        ("header", header),
        ("traced", Json::Bool(traced)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
        ("claim", Json::Null),
    ]);
    write_json(&results_dir().join("summary.json"), &summary)?;
    println!("{summary}");
    Ok(all_correct)
}

/// How a pair of runs of one (workload, metric) compares.
#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Exceeds,
    /// A run's own samples support its value no better than the bound
    /// (`Metric::spread`): the pair cannot show the metric unchanged.
    Unresolved,
}

fn verdict(first: f64, second: f64, spreads: [f64; 2], bound: f64) -> (f64, Verdict) {
    let diff = (second - first) / first;
    let v = if spreads.iter().any(|s| *s > bound) {
        Verdict::Unresolved
    } else if diff.abs() > bound {
        Verdict::Exceeds
    } else {
        Verdict::Within
    };
    (diff, v)
}

/// The untraced pass twice on one seed: do two sets of runs of the same
/// code agree within the benchmark's own bounds?
fn repeat(args: &Args) -> Result<bool, String> {
    print_header(&run_header(args));
    std::fs::create_dir_all(results_dir()).map_err(|e| format!("results dir: {e}"))?;
    let mut passes = Vec::new();
    for _ in 0..2 {
        let mut reports = Vec::new();
        for spec in &SPECS {
            reports.push(run_child(spec, args, false)?);
        }
        passes.push(reports);
    }

    println!("\n== repeat: same code, same seed, two passes ==");
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut ok = true;
    for (i, spec) in SPECS.iter().enumerate() {
        for pass in &passes {
            ok &= pass[i].get("correct").and_then(Json::as_bool) == Some(true);
        }
        for m in &END_TO_END {
            let read = |pass: &Vec<Json>, field: &str| {
                pass[i]
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|e| e.get(field))
                    .and_then(Json::as_f64)
            };
            let (Some(first), Some(second)) =
                (read(&passes[0], "value"), read(&passes[1], "value"))
            else {
                println!("{:<16} {:<12} missing", spec.name, m.name);
                ok = false;
                continue;
            };
            let spreads = [
                read(&passes[0], "spread").unwrap_or(0.0),
                read(&passes[1], "spread").unwrap_or(0.0),
            ];
            let (diff, v) = verdict(first, second, spreads, m.bound);
            let label = match v {
                Verdict::Within => "within bound".to_string(),
                Verdict::Exceeds => {
                    ok = false;
                    "EXCEEDS BOUND".to_string()
                }
                Verdict::Unresolved => format!(
                    "unresolved (spread {:.1}%)",
                    100.0 * spreads[0].max(spreads[1])
                ),
            };
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {label}",
                spec.name,
                m.name,
                first,
                second,
                100.0 * diff,
                100.0 * m.bound
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.repeat {
        repeat(&args)
    } else if let Some(spec) = args.workload {
        if !args.child {
            print_header(&run_header(&args));
        }
        std::fs::create_dir_all(results_dir())
            .map_err(|e| format!("results dir: {e}"))
            .and_then(|()| run_one(spec, &args))
    } else {
        run_all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = args(&[
            "run",
            "--workload",
            "is_np2",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "is_np2");
        assert_eq!((a.seed, a.seconds), (9, 10.0));
        assert!(a.trace == Trace::On(None));
        assert!(
            args(&["run", "--trace", "out.json"]).unwrap().trace
                == Trace::On(Some("out.json".into()))
        );
        assert!(args(&["run", "--trace", "0"]).unwrap().trace == Trace::Off);
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            &["bench"][..],
            &["run", "--workload", "nope"],
            &["run", "--seed"],
            &["run", "--seconds", "0"],
            &["run", "--frobnicate", "1"],
            &["repeat", "--trace", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn verdict_separates_within_exceeds_and_unresolved() {
        assert_eq!(
            verdict(1.0, 1.05, [0.01, 0.02], 0.08),
            (0.050000000000000044, Verdict::Within)
        );
        assert_eq!(verdict(1.0, 1.2, [0.01, 0.02], 0.08).1, Verdict::Exceeds);
        assert_eq!(verdict(1.0, 0.8, [0.01, 0.02], 0.08).1, Verdict::Exceeds);
        // A noisy metric is never reported as unchanged, however close.
        assert_eq!(verdict(1.0, 1.0, [0.01, 0.2], 0.08).1, Verdict::Unresolved);
    }

    /// `BENCHMARK.json` at the repo root repeats the registry; keep them
    /// the same.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| match e.get("name") {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key} entry without a name: {other:?}"),
                })
                .collect()
        };
        let gated = || SPECS.iter().filter(|s| s.gated);
        assert_eq!(
            names("workloads"),
            gated().map(|s| s.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            metrics::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, m) in file
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&END_TO_END)
        {
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert_eq!(entry.get("unit"), Some(&Json::str(m.unit)), "{}", m.name);
        }
        for (entry, m) in file
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(&metrics::PER_LAYER)
        {
            assert_eq!(entry.get("unit"), Some(&Json::str(m.1)), "{}", m.0);
            assert_eq!(entry.get("better"), Some(&Json::str(m.2)), "{}", m.0);
        }
        for (entry, s) in file
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(gated())
        {
            assert_eq!(entry.get("why"), Some(&Json::str(s.why)), "{}", s.name);
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
        }
        assert_eq!(
            file.get("paths"),
            Some(&Json::Arr(vec![Json::str("benchmark")]))
        );
    }
}
