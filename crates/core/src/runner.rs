//! The job runner: the library behind the `mpiwasm` CLI.
//!
//! `mpirun -np N ./mpiwasm app.wasm` (paper Listing 4) becomes
//! [`Runner::run`]: the module is decoded and validated once, then
//! instantiated once per MPI rank — each rank an OS thread with its own
//! linear memory, `Env`, and WASI context — and the exported entry point is
//! invoked on every rank. Code is produced once per function and shared by
//! the ranks: with a cache configured, for the whole module up front (a
//! miss compiles and stores a complete artifact, a hit loads one); without
//! one, nothing consumes the whole module's code, so each function is
//! lowered by the first rank to call it and functions no rank calls never
//! are.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpi_substrate::{run_world_configured, ClockMode, WatchdogConfig, WorldConfig};
use netsim::FaultPlan;
use obs::Recorder;
use wasi_layer::{register_wasi, SharedFs, WasiCtx};
use wasm_engine::error::Trap;
use wasm_engine::runtime::{CompiledModule, Linker};
use wasm_engine::tier::Tier;

use crate::cache::ModuleCache;
use crate::env::{Env, MpiState};
use crate::mpi_host::register_mpi;
use crate::translate::TranslationStats;

/// Configuration of one job launch.
#[derive(Clone)]
pub struct JobConfig {
    /// Number of MPI ranks (`mpirun -np`).
    pub np: u32,
    /// Execution tier; defaults to [`Tier::default`], the tier that runs
    /// fastest (as the paper ships its fastest backend, LLVM, §3.3).
    pub tier: Tier,
    /// Real or simulated time (see crate `mpi-substrate`).
    pub clock: ClockMode,
    /// Per-MPI-call embedder overhead (µs) charged to virtual clocks; use
    /// the measured Figure 6 value for Wasm-path simulations, 0 otherwise.
    pub wasm_call_overhead_us: f64,
    /// Record per-call translation timings (Figure 6 instrumentation).
    pub instrument: bool,
    /// Guest `argv` (element 0 is the program name).
    pub args: Vec<String>,
    /// Preopened filesystem shared by all ranks.
    pub fs: SharedFs,
    /// Echo guest stdout/stderr to the host terminal.
    pub echo_stdout: bool,
    /// Exported entry function, `_start` by convention.
    pub entry: String,
    /// Flight recorder for per-rank event tracing and the unified metrics
    /// registry. When attached the run folds the lowered-function and
    /// protocol counters into the recorder's metrics at completion.
    pub recorder: Option<Arc<Recorder>>,
    /// Per-rank execution-fuel budget (guard-point ticks; see
    /// `Instance::set_fuel`). A rank that exhausts its budget traps with
    /// `OutOfFuel` and is marked *failed*, so its peers observe
    /// `RankFailed` instead of hanging. `None` = unlimited.
    pub max_fuel: Option<u64>,
    /// Per-rank linear-memory cap in bytes (rounded down to whole pages,
    /// never below the module's initial size). A `memory.grow` past the
    /// cap fails with -1, exactly like exceeding the declared maximum.
    pub max_memory: Option<u64>,
    /// Wall-clock deadline for the whole job. One timer thread raises a
    /// shared interruption flag; every rank still executing traps with
    /// `Interrupted` at its next guard point and becomes a failed rank.
    pub deadline: Option<Duration>,
    /// Deterministic fault plan (injected rank crashes, message drops,
    /// extra delays) forwarded to the world; see `netsim::FaultPlan`.
    pub fault: Option<FaultPlan>,
    /// Hang watchdog forwarded to the world: fires when global progress
    /// stalls (or a virtual clock passes its budget), dumps a per-rank
    /// report, and shuts the world down so blocked ranks return errors.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            np: 1,
            tier: Tier::default(),
            clock: ClockMode::Real,
            wasm_call_overhead_us: 0.0,
            instrument: false,
            args: vec!["app.wasm".into()],
            fs: SharedFs::memory(),
            echo_stdout: false,
            entry: "_start".into(),
            recorder: None,
            max_fuel: None,
            max_memory: None,
            deadline: None,
            fault: None,
            watchdog: None,
        }
    }
}

/// Outcome of one rank.
#[derive(Debug)]
pub struct RankResult {
    pub rank: u32,
    /// 0 on clean completion or `proc_exit(0)`.
    pub exit_code: i32,
    /// Trap message if the rank died on a non-exit trap.
    pub error: Option<String>,
    pub stdout: String,
    pub stderr: String,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Final virtual clock (µs); 0 in real-clock mode.
    pub virtual_time_us: f64,
    /// Figure 6 counters (empty unless `instrument` was set).
    pub stats: TranslationStats,
    /// Guest-reported `(key, value)` pairs from the `bench.report` hook.
    pub reports: Vec<(i32, f64)>,
}

/// The two eager walks of an uncached start ([`Runner::prepare_timed`]):
/// every instruction of the module is decoded, then type-checked, before
/// the first rank is launched. Lowering is per function and on demand, so
/// it is not in here.
#[derive(Debug, Clone, Copy)]
pub struct FrontEnd {
    pub decode: Duration,
    /// `CompiledModule::deferred`: validation, and one empty cell per body.
    pub validate: Duration,
}

impl FrontEnd {
    /// `wasm.decode_us` / `wasm.validate_us`, for a recorder's registry.
    pub fn metric_entries(&self) -> [(&'static str, u64); 2] {
        [
            ("wasm.decode_us", self.decode.as_micros() as u64),
            ("wasm.validate_us", self.validate.as_micros() as u64),
        ]
    }
}

/// Outcome of one job.
#[derive(Debug)]
pub struct JobResult {
    pub ranks: Vec<RankResult>,
    /// Time [`Runner::prepare`] took. With a cache: compiling the whole
    /// module and storing it (miss) or loading it (hit). Without one:
    /// decode and validation only — functions are then lowered on their
    /// first call, inside the ranks' run time, not in this figure.
    pub compile_time: Duration,
    pub cache_hit: bool,
    /// Per-rank diagnosis captured if the hang watchdog fired (what each
    /// rank was blocked in, call counts, failed set). Also stored as the
    /// `watchdog_report` annotation on an attached recorder.
    pub watchdog_report: Option<String>,
}

impl JobResult {
    /// True when every rank exited cleanly.
    pub fn success(&self) -> bool {
        self.ranks.iter().all(|r| r.exit_code == 0 && r.error.is_none())
    }

    /// Maximum virtual completion time across ranks (what a benchmark
    /// reports as its iteration time at scale).
    pub fn max_virtual_time_us(&self) -> f64 {
        self.ranks.iter().map(|r| r.virtual_time_us).fold(0.0, f64::max)
    }

    /// Merged translation statistics across ranks.
    pub fn merged_stats(&self) -> TranslationStats {
        let mut out = TranslationStats::new();
        for r in &self.ranks {
            out.merge(&r.stats);
        }
        out
    }
}

/// Errors launching a job (per-rank failures live in [`RankResult`]).
#[derive(Debug)]
pub enum RunError {
    Decode(String),
    Compile(String),
    Cache(String),
    NoEntry(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Decode(m) => write!(f, "failed to decode module: {m}"),
            RunError::Compile(m) => write!(f, "failed to compile module: {m}"),
            RunError::Cache(m) => write!(f, "cache failure: {m}"),
            RunError::NoEntry(name) => write!(f, "module does not export {name:?}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The embedder: a linker with the full `env.MPI_*` + WASI surface, plus
/// an optional module cache.
pub struct Runner {
    linker: Linker,
    cache: Option<ModuleCache>,
}

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A runner with MPI and WASI host functions registered.
    pub fn new() -> Runner {
        let mut linker = Linker::new();
        register_mpi(&mut linker);
        register_wasi(&mut linker, |data| {
            &mut data.downcast_mut::<Env>().expect("instance data is not Env").wasi
        });
        // Harness hook: guests report measured values as (key, f64) pairs.
        linker.func(
            "bench",
            "report",
            wasm_engine::types::FuncType::new(
                vec![wasm_engine::types::ValType::I32, wasm_engine::types::ValType::F64],
                vec![],
            ),
            |inst, args| {
                let key = args[0].i32();
                let value = args[1].f64();
                let env = inst.data_mut::<Env>().expect("instance data is not Env");
                env.reports.push((key, value));
                Ok(vec![])
            },
        );
        Runner { linker, cache: None }
    }

    /// Attach a filesystem cache (paper §3.3).
    pub fn with_cache(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Runner> {
        self.cache = Some(ModuleCache::new(dir)?);
        Ok(self)
    }

    /// Direct access to the linker, for embedders that add extra host
    /// functions (e.g. benchmark harness hooks).
    pub fn linker_mut(&mut self) -> &mut Linker {
        &mut self.linker
    }

    /// Obtain the module's code. A cache is a consumer of the whole
    /// module's code (a miss compiles everything and stores it, a hit loads
    /// everything); without one the module is decoded and validated here
    /// and each function is lowered on its first call.
    pub fn prepare(&self, wasm_bytes: &[u8], tier: Tier) -> Result<(CompiledModule, bool), RunError> {
        self.prepare_timed(wasm_bytes, tier).map(|(compiled, hit, _)| (compiled, hit))
    }

    /// [`Runner::prepare`], also saying where an uncached start spent its
    /// time (`None` with a cache, whose hit or miss is one opaque step).
    pub fn prepare_timed(
        &self,
        wasm_bytes: &[u8],
        tier: Tier,
    ) -> Result<(CompiledModule, bool, Option<FrontEnd>), RunError> {
        if let Some(cache) = &self.cache {
            let (compiled, hit) =
                cache.get_or_compile(wasm_bytes, tier).map_err(RunError::Cache)?;
            return Ok((compiled, hit, None));
        }
        let t0 = Instant::now();
        let module =
            wasm_engine::decode_module(wasm_bytes).map_err(|e| RunError::Decode(e.to_string()))?;
        let decode = t0.elapsed();
        let compiled = CompiledModule::deferred(module, tier)
            .map_err(|e| RunError::Compile(e.to_string()))?;
        let validate = t0.elapsed() - decode;
        Ok((compiled, false, Some(FrontEnd { decode, validate })))
    }

    /// Run a job from wasm bytes.
    pub fn run(&self, wasm_bytes: &[u8], config: JobConfig) -> Result<JobResult, RunError> {
        let t0 = Instant::now();
        let (compiled, cache_hit, front_end) = self.prepare_timed(wasm_bytes, config.tier)?;
        let compile_time = t0.elapsed();
        if let (Some(rec), Some(front_end)) = (&config.recorder, front_end) {
            rec.fold_metrics(front_end.metric_entries());
        }
        let mut result = self.run_compiled(&compiled, config)?;
        result.compile_time = compile_time;
        result.cache_hit = cache_hit;
        Ok(result)
    }

    /// Run a job from an already-compiled module (the per-rank
    /// instantiation path; compilation cost is reported as zero).
    pub fn run_compiled(
        &self,
        compiled: &CompiledModule,
        config: JobConfig,
    ) -> Result<JobResult, RunError> {
        if compiled.module().export(&config.entry).is_none() {
            return Err(RunError::NoEntry(config.entry.clone()));
        }
        let linker = Arc::new(self.linker.clone());
        let compiled = compiled.clone();
        let recorder = config.recorder.clone();
        // A second handle for the post-run counters (the body cells are
        // shared, not duplicated, by the clone).
        let shared = compiled.clone();
        let config = Arc::new(config);
        let np = config.np;
        let clock = config.clock.clone();
        let fault_plan = config.fault.clone();
        let watchdog_cfg = config.watchdog.clone();

        // One deadline timer drives every rank through a shared
        // interruption flag; each rank traps `Interrupted` at its next
        // guard point. The timer thread is detached — if the job finishes
        // first it sets a flag nobody reads.
        let deadline_flag = config.deadline.map(|deadline| {
            let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let timer = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(deadline);
                timer.store(true, std::sync::atomic::Ordering::Relaxed);
            });
            flag
        });

        let body_rec = recorder.clone();
        let body = move |comm: mpi_substrate::Comm| {
            let rank = comm.rank();
            // MPI_COMM_SELF is built collectively before the guest starts.
            // The split can fail for real — a fault plan may kill a rank
            // (this one or a peer) mid-collective — and that must contain
            // as a failed rank, not a panic.
            let comm_self = match comm.split(rank as i32, 0) {
                Ok(c) => c.expect("color is never undefined"),
                Err(e) => {
                    comm.fail_self();
                    return RankResult {
                        rank,
                        exit_code: -1,
                        error: Some(format!("launch failed: {e}")),
                        stdout: String::new(),
                        stderr: String::new(),
                        bytes_read: 0,
                        bytes_written: 0,
                        virtual_time_us: comm.virtual_time_us(),
                        stats: TranslationStats::new(),
                        reports: Vec::new(),
                    };
                }
            };
            let mut mpi = MpiState::new(comm, comm_self);
            mpi.instrument = config.instrument;
            mpi.wasm_call_overhead_us = config.wasm_call_overhead_us;

            let mut wasi = WasiCtx::new(config.fs.clone(), config.args.clone());
            wasi.echo = config.echo_stdout;
            wasi.env.push(("MPIWASM_RANK".into(), rank.to_string()));
            wasi.seed_random(0x5eed_0000 + rank as u64);

            let env = Env::new(mpi, wasi);
            let mut inst = match linker.instantiate(&compiled, Box::new(env)) {
                Ok(i) => i,
                Err(e) => {
                    return RankResult {
                        rank,
                        exit_code: -1,
                        error: Some(e.to_string()),
                        stdout: String::new(),
                        stderr: String::new(),
                        bytes_read: 0,
                        bytes_written: 0,
                        virtual_time_us: 0.0,
                        stats: TranslationStats::new(),
                        reports: Vec::new(),
                    }
                }
            };
            if let Some(fuel) = config.max_fuel {
                inst.set_fuel(fuel);
            }
            if let Some(bytes) = config.max_memory {
                inst.cap_memory(bytes);
            }
            if let Some(flag) = &deadline_flag {
                inst.set_interrupt_flag(Arc::clone(flag));
            }

            let outcome = inst.invoke(&config.entry, &[]);
            let (exit_code, mut error, limit_kill) = match outcome {
                Ok(_) => (0, None, false),
                Err(Trap::Exit(code)) => (code, None, false),
                Err(t) => {
                    let limit = matches!(t, Trap::OutOfFuel | Trap::Interrupted);
                    (-1, Some(t.to_string()), limit)
                }
            };
            let env = inst.data_mut::<Env>().expect("data is Env");
            if limit_kill {
                if let Some(rec) = &body_rec {
                    let ts = match rec.clock() {
                        obs::TraceClock::Virtual => env.mpi.world().virtual_time_us(),
                        obs::TraceClock::Real => rec.elapsed_us(),
                    };
                    rec.emit(rank as usize, ts, obs::EventKind::FuelExhausted { rank });
                }
            }
            if error.is_some() {
                // A trapped guest is a failed rank: peers blocked on it
                // observe `RankFailed` (ULFM semantics) instead of
                // hanging on a rank that will never call MPI again.
                env.mpi.world().fail_self();
            } else if exit_code == 0 && env.mpi.world().failed_ranks().contains(&rank) {
                // The inverse masking: a killed rank whose guest swallowed
                // every MPI error code and exited *cleanly* would misreport
                // the job. A nonzero exit (canonically 75) is the guest
                // reporting the failure itself — errors-return semantics —
                // and stays untouched.
                error = Some(format!("rank {rank} killed by fault injection"));
            }
            RankResult {
                rank,
                exit_code,
                error,
                stdout: env.wasi.stdout_string(),
                stderr: String::from_utf8_lossy(&env.wasi.stderr).into_owned(),
                bytes_read: env.wasi.bytes_read,
                bytes_written: env.wasi.bytes_written,
                virtual_time_us: env.mpi.world().virtual_time_us(),
                stats: env.mpi.stats.clone(),
                reports: std::mem::take(&mut env.reports),
            }
        };

        let mut world_config = WorldConfig::new(clock);
        if let Some(rec) = &recorder {
            world_config = world_config.with_recorder(Arc::clone(rec));
        }
        if let Some(plan) = fault_plan {
            world_config = world_config.with_fault(plan);
        }
        // Capture the watchdog report so it outlives the world (chaining
        // any caller-installed `on_fire`); it lands on the `JobResult`.
        let watchdog_report: Arc<Mutex<Option<String>>> = Arc::default();
        if let Some(mut wd) = watchdog_cfg {
            let user_hook = wd.on_fire.take();
            let capture = Arc::clone(&watchdog_report);
            wd.on_fire = Some(Arc::new(move |report: &str| {
                *capture.lock().unwrap() = Some(report.to_string());
                if let Some(hook) = &user_hook {
                    hook(report);
                }
            }));
            world_config = world_config.with_watchdog(wd);
        }

        let ranks = run_world_configured(np, world_config, body);

        if let Some(rec) = &recorder {
            rec.fold_metrics([
                ("wasm.funcs_lowered", shared.lowered_funcs() as u64),
                ("wasm.funcs_total", shared.module().functions.len() as u64),
            ]);
        }
        let watchdog_report = watchdog_report.lock().unwrap().take();
        Ok(JobResult { ranks, compile_time: Duration::ZERO, cache_hit: false, watchdog_report })
    }
}
