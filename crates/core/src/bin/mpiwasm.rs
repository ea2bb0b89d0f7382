//! The `mpiwasm` command-line embedder.
//!
//! ```text
//! mpiwasm -np 4 app.wasm [app args...]
//! mpiwasm -np 2 -d ./shared -tier max -cache ~/.cache/mpiwasm app.wasm
//! ```
//!
//! This is the paper's Listing 4 interface folded into one binary: where
//! the paper runs `mpirun -np N ./mpiWasm app.wasm`, the rank launcher
//! here is in-process (one thread per rank; see crate `mpi-substrate`).

use std::process::ExitCode;

use mpi_substrate::ClockMode;
use mpiwasm::{JobConfig, Runner};
use netsim::{CostModel, SystemProfile};
use obs::{Recorder, TraceClock};
use wasi_layer::{Rights, SharedFs};
use wasm_engine::Tier;

const USAGE: &str = "\
mpiwasm — execute MPI applications compiled to WebAssembly

USAGE:
    mpiwasm [OPTIONS] <module.wasm> [guest args...]

OPTIONS:
    -np <N>          number of MPI ranks (default 1)
    -tier <T>        execution tier: baseline | optimizing | max | max+jit
                     (default {default_tier})
    -d <DIR>         preopen host directory read-write as /<basename>
    -d-ro <DIR>      preopen host directory read-only as /<basename>
    -cache <DIR>     compiled-module cache directory (content-addressed)
    -entry <NAME>    exported entry function (default _start)
    -quiet           do not echo guest stdout/stderr
    -wat             print the module in text format and exit
    --clock <MODE>   wall-clock mode: real | virtual (default real);
                     virtual replays the LogP-simulated timeline
    --trace <FILE>   record a flight-recorder trace and write it as
                     Chrome trace-event JSON (load in Perfetto/about:tracing)
    --metrics        print the unified metrics table (protocol + JIT +
                     trace counters) after the run
    --fault <PLAN>   deterministic fault plan, e.g.
                     \"seed=42;crash@call:rank=1,call=10;drop:rank=0,nth=3\"
                     (see docs/fault_tolerance.md for the grammar)
    --max-fuel <N>   per-rank execution-fuel budget in guard-point ticks;
                     an exhausted rank fails (peers see RankFailed)
    --max-memory <B> per-rank linear-memory cap in bytes (suffixes k/m/g)
    --deadline <S>   wall-clock job deadline in seconds; ranks still
                     running are interrupted and become failed ranks
    --watchdog <S>   hang watchdog: fail the job with a per-rank report
                     after S seconds without global progress
    -h, --help       show this help
";

struct Options {
    np: u32,
    tier: Tier,
    preopens: Vec<(String, String, Rights)>,
    cache: Option<String>,
    entry: String,
    quiet: bool,
    wat: bool,
    virtual_clock: bool,
    trace: Option<String>,
    metrics: bool,
    fault: Option<netsim::FaultPlan>,
    max_fuel: Option<u64>,
    max_memory: Option<u64>,
    deadline: Option<f64>,
    watchdog: Option<f64>,
    module: String,
    guest_args: Vec<String>,
}

/// Parse a byte count with optional `k`/`m`/`g` suffix (powers of 1024).
fn parse_bytes(text: &str) -> Result<u64, String> {
    let t = text.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(d) => {
            let mult = match t.as_bytes()[t.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1u64 << 20,
                _ => 1u64 << 30,
            };
            (d, mult)
        }
        None => (t.as_str(), 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(mult))
        .ok_or_else(|| format!("invalid byte count {text:?}"))
}

/// [`USAGE`] with the engine's default tier filled in.
fn usage() -> String {
    USAGE.replace("{default_tier}", Tier::default().flag())
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        np: 1,
        tier: Tier::default(),
        preopens: Vec::new(),
        cache: None,
        entry: "_start".into(),
        quiet: false,
        wat: false,
        virtual_clock: false,
        trace: None,
        metrics: false,
        fault: None,
        max_fuel: None,
        max_memory: None,
        deadline: None,
        watchdog: None,
        module: String::new(),
        guest_args: Vec::new(),
    };
    let mut it = args.iter().peekable();
    let need = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                flag: &str|
     -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(usage()),
            "-np" => {
                opts.np = need(&mut it, "-np")?
                    .parse()
                    .map_err(|_| "-np expects a positive integer".to_string())?;
                if opts.np == 0 {
                    return Err("-np must be at least 1".into());
                }
            }
            "-tier" => {
                opts.tier = match need(&mut it, "-tier")?.as_str() {
                    "singlepass" => Tier::Baseline,
                    "cranelift" => Tier::Optimizing,
                    "llvm" => Tier::Max,
                    "maxjit" => Tier::MaxJit,
                    flag => *Tier::ALL
                        .iter()
                        .find(|t| t.flag() == flag)
                        .ok_or_else(|| format!("unknown tier {flag:?}"))?,
                };
            }
            "-d" | "-d-ro" => {
                let rights =
                    if arg == "-d" { Rights::READ_WRITE } else { Rights::READ_ONLY };
                let dir = need(&mut it, arg)?;
                let name = std::path::Path::new(&dir)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "data".into());
                opts.preopens.push((name, dir, rights));
            }
            "-cache" => opts.cache = Some(need(&mut it, "-cache")?),
            "-entry" => opts.entry = need(&mut it, "-entry")?,
            "-quiet" => opts.quiet = true,
            "-wat" => opts.wat = true,
            "--clock" | "-clock" => {
                opts.virtual_clock = match need(&mut it, "--clock")?.as_str() {
                    "real" => false,
                    "virtual" => true,
                    other => return Err(format!("unknown clock mode {other:?}")),
                };
            }
            "--trace" | "-trace" => opts.trace = Some(need(&mut it, "--trace")?),
            "--metrics" | "-metrics" => opts.metrics = true,
            "--fault" | "-fault" => {
                opts.fault = Some(
                    netsim::FaultPlan::parse(&need(&mut it, "--fault")?)
                        .map_err(|e| format!("--fault: {e}"))?,
                );
            }
            "--max-fuel" | "-max-fuel" => {
                opts.max_fuel = Some(
                    need(&mut it, "--max-fuel")?
                        .parse()
                        .map_err(|_| "--max-fuel expects an integer tick count".to_string())?,
                );
            }
            "--max-memory" | "-max-memory" => {
                opts.max_memory = Some(parse_bytes(&need(&mut it, "--max-memory")?)?);
            }
            "--deadline" | "-deadline" => {
                let secs: f64 = need(&mut it, "--deadline")?
                    .parse()
                    .map_err(|_| "--deadline expects seconds".to_string())?;
                if !(secs > 0.0) {
                    return Err("--deadline must be positive".into());
                }
                opts.deadline = Some(secs);
            }
            "--watchdog" | "-watchdog" => {
                let secs: f64 = need(&mut it, "--watchdog")?
                    .parse()
                    .map_err(|_| "--watchdog expects seconds".to_string())?;
                if !(secs > 0.0) {
                    return Err("--watchdog must be positive".into());
                }
                opts.watchdog = Some(secs);
            }
            other if opts.module.is_empty() && !other.starts_with('-') => {
                opts.module = other.to_string();
            }
            other if !opts.module.is_empty() => {
                opts.guest_args.push(other.to_string());
                opts.guest_args.extend(it.by_ref().cloned());
            }
            other => return Err(format!("unknown option {other:?}\n\n{}", usage())),
        }
    }
    if opts.module.is_empty() {
        return Err(usage());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let wasm_bytes = match std::fs::read(&opts.module) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mpiwasm: cannot read {}: {e}", opts.module);
            return ExitCode::from(1);
        }
    };

    if opts.wat {
        match wasm_engine::decode_module(&wasm_bytes) {
            Ok(m) => {
                print!("{}", wasm_engine::wat::to_wat(&m));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("mpiwasm: {e}");
                return ExitCode::from(1);
            }
        }
    }

    // Filesystem: the requested preopens (virtual names hide host paths,
    // paper §3.4), or an in-memory scratch directory when none are given.
    let fs = if opts.preopens.is_empty() {
        SharedFs::memory()
    } else {
        SharedFs::new(
            opts.preopens
                .iter()
                .map(|(name, dir, rights)| wasi_layer::Preopen {
                    guest_name: name.clone(),
                    rights: *rights,
                    backend: wasi_layer::DirBackend::Host(dir.into()),
                })
                .collect(),
        )
    };

    let runner = match &opts.cache {
        Some(dir) => match Runner::new().with_cache(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("mpiwasm: cannot open cache {dir}: {e}");
                return ExitCode::from(1);
            }
        },
        None => Runner::new(),
    };

    let clock = if opts.virtual_clock {
        ClockMode::Virtual(CostModel::native(SystemProfile::container()))
    } else {
        ClockMode::Real
    };
    let recorder = if opts.trace.is_some() || opts.metrics {
        let trace_clock =
            if opts.virtual_clock { TraceClock::Virtual } else { TraceClock::Real };
        Some(Recorder::new(opts.np as usize, obs::DEFAULT_CAPACITY, trace_clock))
    } else {
        None
    };

    let mut guest_args = vec![opts.module.clone()];
    guest_args.extend(opts.guest_args.clone());
    let config = JobConfig {
        np: opts.np,
        tier: opts.tier,
        clock,
        args: guest_args,
        fs,
        echo_stdout: !opts.quiet,
        entry: opts.entry.clone(),
        recorder: recorder.clone(),
        fault: opts.fault.clone(),
        max_fuel: opts.max_fuel,
        max_memory: opts.max_memory,
        deadline: opts.deadline.map(std::time::Duration::from_secs_f64),
        watchdog: opts
            .watchdog
            .map(|s| mpi_substrate::WatchdogConfig::wall(std::time::Duration::from_secs_f64(s))),
        ..Default::default()
    };

    // `Runner::run` in its two halves, to keep the module for the closing
    // line's lowered-function count.
    let t0 = std::time::Instant::now();
    let prepared = runner.prepare_timed(&wasm_bytes, config.tier);
    let prepare_time = t0.elapsed();
    let launched = prepared.and_then(|(compiled, cache_hit, front_end)| {
        runner
            .run_compiled(&compiled, config)
            .map(|result| (result, compiled, cache_hit, front_end))
    });
    match launched {
        Ok((result, compiled, cache_hit, front_end)) => {
            if let (Some(rec), Some(front_end)) = (&recorder, front_end) {
                rec.fold_metrics(front_end.metric_entries());
            }
            if let Some(rec) = &recorder {
                if let Some(path) = &opts.trace {
                    let json = obs::export_chrome_trace(rec);
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("mpiwasm: cannot write trace {path}: {e}");
                        return ExitCode::from(1);
                    }
                    if !opts.quiet {
                        eprintln!(
                            "mpiwasm: trace written to {path} ({} events{})",
                            (0..rec.n_ranks())
                                .map(|r| rec.rank_events(r).len())
                                .sum::<usize>()
                                + rec.engine_events().len(),
                            match rec.total_dropped() {
                                0 => String::new(),
                                n => format!(", {n} dropped"),
                            },
                        );
                    }
                }
                if opts.metrics {
                    print!("{}", rec.metrics().render_table());
                }
            }
            if !opts.quiet {
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                let split = front_end.map_or(String::new(), |f| {
                    format!("decode {:.1} + validate {:.1}; ", ms(f.decode), ms(f.validate))
                });
                eprintln!(
                    "mpiwasm: {} ranks, prepare {:.1}ms ({split}{}/{} functions lowered{})",
                    result.ranks.len(),
                    ms(prepare_time),
                    compiled.lowered_funcs(),
                    compiled.module().functions.len(),
                    if cache_hit { ", cache hit" } else { "" },
                );
            }
            let mut exit = 0;
            for r in &result.ranks {
                if let Some(err) = &r.error {
                    eprintln!("mpiwasm: rank {} trapped: {err}", r.rank);
                    exit = 1;
                } else if r.exit_code != 0 && exit == 0 {
                    exit = r.exit_code.clamp(0, 255);
                }
            }
            if let Some(report) = &result.watchdog_report {
                eprintln!("mpiwasm: hang watchdog fired:\n{report}");
                exit = 1;
            }
            ExitCode::from(exit as u8)
        }
        Err(e) => {
            eprintln!("mpiwasm: {e}");
            ExitCode::from(1)
        }
    }
}
