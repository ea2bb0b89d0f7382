//! One workload run: set-up, then either the untraced pass (the four
//! end-to-end metrics) or the traced pass (the per-layer budget).
//!
//! Every layer is measured from outside, by timing calls into the crates'
//! public functions; nothing under `crates/` knows the benchmark exists.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hpc_benchmarks::imb::ImbRoutine;
use hpc_benchmarks::npb_dt::{self, DtParams};
use mpiwasm::cache::{load_artifact, store_artifact};
use mpiwasm::{JobConfig, ModuleCache, Runner};
use obs::{EventKind, Recorder, TraceClock};
use wasm_engine::dsl::*;
use wasm_engine::runtime::CompiledModule;
use wasm_engine::types::ValType;
use wasm_engine::{
    decode_module, encode_module, validate_module, FuncType, Linker, Module, ModuleBuilder, Tier,
};

use crate::metrics::Report;
use crate::pin;
use crate::spans::{layer_self_times_us, Tracer};
use crate::stats::{fastest, median, tail, Rng};
use crate::workloads::{
    build_programs, imb_native_us, native_oracle, run_job, ImbLoop, JobInputs, JobOutcome, Kind,
    Launch, Oracle, Program, Spec,
};

/// Set-up is timed before the first job and again between jobs whenever
/// this long has passed since the last time, so its samples cover the whole
/// run like the jobs' do; `setup_s` is the fastest of them. (Repeated in one
/// block before the first job, all of them can fall into one slow stretch of
/// the host: such blocks measured 0.074 to 0.14 s for the same module.)
const SETUP_EVERY_S: f64 = 1.0;
/// Untimed jobs before the first timed one.
const WARMUP_JOBS: usize = 2;
/// Repetitions of the short single-layer timings (decode, compile, …); see
/// [`wants_another`].
const LAYER_REPS: usize = 5;
const LAYER_MAX_REPS: usize = 200;
const LAYER_MIN_US: f64 = 20_000.0;

pub struct RunOptions {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub traced: bool,
    /// Where result, trace and temporary files go.
    pub results_dir: PathBuf,
}

/// A directory removed when the value drops — also on an error return or
/// a panic that unwinds.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> Result<TempDir, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What set-up leaves behind for the jobs.
struct Prepared {
    programs: Vec<Program>,
    modules: Vec<Module>,
    /// Compiled at `JobConfig::default().tier`.
    compiled: Vec<CompiledModule>,
    oracle: Oracle,
    /// Timed region of the native oracle run; `None` for IMB.
    native_s: Option<f64>,
}

/// Guest construction, decode, validate, compile, (cache fill,) oracle run.
fn setup(
    spec: &Spec,
    seed: u64,
    cache_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let span = tracer.enter("setup");
    let result = (|| -> Result<Prepared, String> {
        let tier = JobConfig::default().tier;
        let programs = tracer.span("benchmarks.build_guest", || build_programs(spec.kind, seed));
        let modules = tracer.span("wasm.decode", || {
            programs
                .iter()
                .map(|p| decode_module(&p.bytes).map_err(|e| format!("{}: decode: {e}", p.label)))
                .collect::<Result<Vec<_>, _>>()
        })?;
        tracer.span("wasm.validate", || {
            modules
                .iter()
                .try_for_each(|m| validate_module(m).map_err(|e| format!("validate: {e}")))
        })?;
        let compiled = tracer.span("wasm.compile", || {
            modules
                .iter()
                .map(|m| {
                    CompiledModule::compile(m.clone(), tier).map_err(|e| format!("compile: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        if let Kind::Start { warm: true } = spec.kind {
            // The one untimed miss that fills the cache.
            tracer.span("core.cache_fill", || -> Result<(), String> {
                let runner = Runner::new()
                    .with_cache(cache_dir)
                    .map_err(|e| e.to_string())?;
                let (_, hit) = runner
                    .prepare(&programs[0].bytes, tier)
                    .map_err(|e| e.to_string())?;
                if hit {
                    return Err("a fresh cache directory reported a hit".to_string());
                }
                Ok(())
            })?;
        }
        let (oracle, native_s) =
            tracer.span("benchmarks.native", || native_oracle(spec.kind, spec.np));
        Ok(Prepared {
            programs,
            modules,
            compiled,
            oracle,
            native_s,
        })
    })();
    tracer.exit(span);
    result
}

/// Wall, kernel and per-program reported times of a set of jobs.
#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    kernel: Vec<f64>,
    reported: Vec<Vec<f64>>,
}

impl Samples {
    fn push(&mut self, job: &JobOutcome) {
        self.wall.push(job.wall_s);
        self.kernel.push(job.kernel_s);
        self.reported.resize(job.reported.len(), Vec::new());
        for (series, value) in self.reported.iter_mut().zip(&job.reported) {
            series.push(*value);
        }
    }
}

/// The running workload: inputs, job counters, and the seeded order in
/// which a job runs its programs.
struct Bench<'a> {
    spec: &'static Spec,
    seed: u64,
    prepared: &'a Prepared,
    order: Vec<usize>,
    /// Wall time of every set-up so far, and when the last one ended.
    setup_s: Vec<f64>,
    last_setup: Instant,
    /// Timed region of each set-up's native oracle run (none for IMB).
    native_s: Vec<f64>,
    /// `VmHWM` read after each job, the mark reset before each.
    peak_rss_mib: Vec<f64>,
    /// This run's temporary directory.
    tmp: &'a Path,
    /// The cache the last set-up filled (`warm_start_np1`).
    cache_dir: &'a Path,
    report: Report,
}

impl<'a> Bench<'a> {
    fn inputs(&self) -> JobInputs<'_> {
        JobInputs {
            np: self.spec.np,
            programs: &self.prepared.programs,
            oracle: &self.prepared.oracle,
            order: &self.order,
        }
    }

    /// How the workload's own job obtains code; `split` shows the traced
    /// pass the two halves of `Runner::run`.
    fn launch(&self, split: bool) -> Launch<'a> {
        let prepared: &'a Prepared = self.prepared;
        match self.spec.kind {
            Kind::Start { warm } => {
                let cache = warm.then_some(self.cache_dir);
                if split {
                    Launch::BytesSplit(cache)
                } else {
                    Launch::Bytes(cache)
                }
            }
            _ => Launch::Compiled(&prepared.compiled),
        }
    }

    /// Time one more set-up; what it prepares is dropped. Each fills its
    /// own cache directory, so none finds a hit.
    fn setup_again(&mut self) {
        let cache_dir = self.tmp.join(format!("cache-{}", self.setup_s.len()));
        let t0 = Instant::now();
        let result = setup(self.spec, self.seed, &cache_dir, &mut Tracer::new(false));
        let elapsed = t0.elapsed().as_secs_f64();
        match result {
            Ok(prepared) => {
                self.setup_s.push(elapsed);
                self.native_s.extend(prepared.native_s);
            }
            Err(e) => self.report.problems.push(format!("set-up: {e}")),
        }
        let _ = std::fs::remove_dir_all(&cache_dir);
        self.last_setup = Instant::now();
    }

    /// Run and count one job. A failed job yields no sample.
    fn job(
        &mut self,
        launch: &Launch<'_>,
        configure: &dyn Fn(&mut JobConfig),
        tracer: &mut Tracer,
    ) -> Option<JobOutcome> {
        if self.last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            self.setup_again();
        }
        self.report.jobs_attempted += 1;
        release_free_heap();
        reset_peak_rss();
        let result = run_job(&self.inputs(), launch, configure, tracer);
        self.peak_rss_mib.extend(peak_rss_mib());
        match result {
            Ok(outcome) => Some(outcome),
            Err(e) => {
                self.report.jobs_failed += 1;
                self.report
                    .problems
                    .push(format!("job {}: {e}", self.report.jobs_attempted));
                None
            }
        }
    }

    /// The metrics both passes report from the workload's plain jobs.
    fn put_job_metrics(&mut self, plain: &Samples) {
        let r = &mut self.report;
        if plain.wall.is_empty() {
            r.problems.push("no job succeeded".into());
            return;
        }
        r.put_fastest("job_s", &plain.wall);
        r.put_fastest("kernel_s", &plain.kernel);
        r.put("core.launch_s", fastest(&plain.wall) - fastest(&plain.kernel));
        r.put("core.jobs", plain.wall.len() as f64);
        r.put("core.job_median_s", median(&plain.wall));
        if let Some((pct, value)) = tail(&plain.wall) {
            r.put_noted("core.job_tail_s", value, format!("p{pct:.1} of job_s"));
        }
        for (program, series) in self.prepared.programs.iter().zip(&plain.reported) {
            if let Some(imb) = program.imb {
                r.put_fastest(imb.guest_metric, series);
            }
        }
    }

    /// `setup_s`, `benchmarks.native_s` and the guest/native ratio. The
    /// native timed region comes from the oracle runs of set-up; for IMB
    /// from running the native routines now, under the same mask, which
    /// also gives the native time per routine.
    fn put_setup_and_native_metrics(&mut self) {
        self.report.put_fastest("setup_s", &self.setup_s);
        let loops: Vec<ImbLoop> = self
            .prepared
            .programs
            .iter()
            .filter_map(|p| p.imb)
            .collect();
        if loops.is_empty() {
            self.report
                .put_fastest("benchmarks.native_s", &self.native_s);
        } else {
            let mut seconds = 0.0;
            for imb in loops {
                let us = imb_native_us(imb, self.spec.np);
                self.report.put(imb.native_metric, us);
                seconds += imb.seconds(us);
                if imb.routine == ImbRoutine::PingPong && imb.bytes == 8 {
                    // The paper's §4.6 quantity: what the embedder adds
                    // to an 8-byte hop.
                    let guest = self.report.get(imb.guest_metric).unwrap_or(0.0);
                    self.report.put("core.call_overhead_us", guest - us);
                }
            }
            self.report.put("benchmarks.native_s", seconds);
        }
        if let (Some(kernel_s), Some(native_s)) = (
            self.report.get("kernel_s"),
            self.report.get("benchmarks.native_s"),
        ) {
            self.report
                .put("benchmarks.guest_over_native_x", kernel_s / native_s);
        }
    }
}

/// Hand the allocator's free memory back to the kernel before a job, so
/// each job starts from a compact heap — as it does under `mpiwasm`, which
/// runs one job per process. Without this a job inherits the fragmentation
/// of the jobs before it and `peak_rss_mb` depends on that history:
/// `dt_simd_np2` measured 7.9–10.8 MiB across eight processes without it
/// (a second malloc arena kept or not by timing), 7.7–8.7 MiB with it;
/// job times did not move.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and is thread-safe; it
        // only returns free heap pages to the kernel.
        unsafe { malloc_trim(0) };
    }
}

/// Start a new resident-memory high-water mark (Linux: writing 5 to
/// `clear_refs` resets `VmHWM`), so the mark read after a job is that job's
/// peak and not that of a set-up repetition before it. Where the reset is
/// not available the mark keeps rising from process start, and
/// `peak_rss_mb` includes set-up.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Run one workload. `Err` is a set-up failure: nothing was measured.
pub fn run_workload(spec: &'static Spec, opts: &RunOptions) -> Result<(Report, Tracer), String> {
    let mut report = Report::new(spec.name, opts.seed, opts.seconds, opts.traced);
    let mut tracer = Tracer::new(opts.traced);
    let workload_span = tracer.enter("workload");

    let original_mask = pin::current_mask();
    if spec.pinned {
        report.pinned_cpu = pin::pin_to_one_cpu();
        if report.pinned_cpu.is_none() {
            eprintln!(
                "WARNING: {}: could not pin to one CPU; its latencies are bimodal unpinned — \
                 do not compare these numbers (pinned: false)",
                spec.name
            );
        }
    }

    let tmp = TempDir::create(opts.results_dir.join(format!("tmp-{}", std::process::id())))?;

    // The set-up the jobs use; `Bench::job` times more of them as it goes.
    let cache_dir = tmp.0.join("cache");
    let t0 = Instant::now();
    let prepared = setup(spec, opts.seed, &cache_dir, &mut tracer)?;
    let setup_s = vec![t0.elapsed().as_secs_f64()];

    // Seeded: the order in which a job runs its programs (the four IMB
    // routines), and below the order of interleaved variants.
    let mut rng = Rng::new(opts.seed ^ 0x6f_7264_6572);
    let mut order: Vec<usize> = (0..prepared.programs.len()).collect();
    rng.shuffle(&mut order);

    let mut bench = Bench {
        spec,
        seed: opts.seed,
        prepared: &prepared,
        order,
        setup_s,
        last_setup: Instant::now(),
        native_s: prepared.native_s.into_iter().collect(),
        peak_rss_mib: Vec::new(),
        tmp: &tmp.0,
        cache_dir: &cache_dir,
        report,
    };

    let mut off = Tracer::new(false);
    for _ in 0..WARMUP_JOBS {
        bench.job(&bench.launch(false), &|_| {}, &mut off);
    }

    if opts.traced {
        traced_pass(
            &mut bench,
            opts,
            &mut rng,
            &mut tracer,
            original_mask.as_ref(),
        );
    } else {
        untraced_pass(&mut bench, opts);
    }
    tracer.exit(workload_span);
    Ok((bench.report, tracer))
}

/// The end-to-end metrics: at least `min_jobs` timed jobs and at least
/// `seconds` of them, one at a time, tracing off.
fn untraced_pass(bench: &mut Bench<'_>, opts: &RunOptions) {
    let mut off = Tracer::new(false);
    let mut plain = Samples::default();
    let t0 = Instant::now();
    let mut jobs = 0;
    while jobs < bench.spec.min_jobs || t0.elapsed().as_secs_f64() < opts.seconds {
        if let Some(job) = bench.job(&bench.launch(false), &|_| {}, &mut off) {
            plain.push(&job);
        }
        jobs += 1;
    }
    bench.put_job_metrics(&plain);
    bench.put_setup_and_native_metrics();
    if !bench.peak_rss_mib.is_empty() {
        bench
            .report
            .put_median("peak_rss_mb", &bench.peak_rss_mib);
    } else {
        bench
            .report
            .problems
            .push("VmHWM is not readable on this platform".into());
    }
}

/// The per-layer budget. Phases, each interleaving its variants in seeded
/// order so drift hits all of them alike:
///  A. plain vs span-recorded jobs (trace overhead, the span tree);
///  B. plain vs recorder attached-but-off vs recorder on;
///  C. the workload at every tier;
///  D. single-layer timings and the counts, each count computed twice.
fn traced_pass(
    bench: &mut Bench<'_>,
    opts: &RunOptions,
    rng: &mut Rng,
    tracer: &mut Tracer,
    original_mask: Option<&pin::CpuMask>,
) {
    let np = bench.spec.np;
    let mut off = Tracer::new(false);

    // --- A ---------------------------------------------------------------
    let (mut plain, mut spanned) = (Samples::default(), Samples::default());
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds < 11 || t0.elapsed().as_secs_f64() < opts.seconds * 0.4 {
        let mut variants = [false, true];
        rng.shuffle(&mut variants);
        for with_spans in variants {
            if with_spans {
                tracer.set_job(rounds + 1);
                if let Some(job) = bench.job(&bench.launch(true), &|_| {}, tracer) {
                    spanned.push(&job);
                }
                tracer.set_job(0);
            } else if let Some(job) = bench.job(&bench.launch(false), &|_| {}, &mut off) {
                plain.push(&job);
            }
        }
        rounds += 1;
    }
    bench.put_job_metrics(&plain);
    bench.put_setup_and_native_metrics();
    if !plain.wall.is_empty() && !spanned.wall.is_empty() {
        bench.report.put(
            "benchmarks.trace_overhead_x",
            fastest(&spanned.wall) / fastest(&plain.wall),
        );
    }

    // --- B ---------------------------------------------------------------
    let rec_off = Recorder::new(np as usize, obs::DEFAULT_CAPACITY, TraceClock::Real);
    rec_off.set_enabled(false);
    let mut walls: [Vec<f64>; 3] = Default::default();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 4 || t0.elapsed().as_secs_f64() < opts.seconds * 0.2 {
        let mut variants = [0usize, 1, 2];
        rng.shuffle(&mut variants);
        for v in variants {
            let launch = bench.launch(false);
            let job = match v {
                0 => bench.job(&launch, &|_| {}, &mut off),
                1 => bench.job(
                    &launch,
                    &|c| c.recorder = Some(Arc::clone(&rec_off)),
                    &mut off,
                ),
                // A fresh log per program, made before the launch is timed:
                // a full log drops events and would look cheap.
                _ => bench.job(
                    &launch,
                    &|c| {
                        c.recorder = Some(Recorder::new(
                            np as usize,
                            obs::DEFAULT_CAPACITY,
                            TraceClock::Real,
                        ))
                    },
                    &mut off,
                ),
            };
            if let Some(job) = job {
                walls[v].push(job.wall_s);
            }
        }
        rounds += 1;
    }
    if walls.iter().all(|w| !w.is_empty()) {
        let base = fastest(&walls[0]);
        bench
            .report
            .put("obs.recorder_off_x", fastest(&walls[1]) / base);
        bench
            .report
            .put("obs.recorder_on_x", fastest(&walls[2]) / base);
    }

    // --- C ---------------------------------------------------------------
    let mut by_tier: Vec<Vec<CompiledModule>> = Vec::new();
    for tier in Tier::ALL {
        // `compile` consumes its module: the copy is made, and the previous
        // result dropped, outside the timed call.
        let mut times = Vec::new();
        let mut compiled = Vec::new();
        while wants_another(&times) {
            let modules = bench.prepared.modules.clone();
            let t0 = Instant::now();
            let result: Result<Vec<_>, _> = modules
                .into_iter()
                .map(|m| CompiledModule::compile(m, tier))
                .collect();
            times.push(t0.elapsed().as_secs_f64() * 1e6);
            match result {
                Ok(c) => compiled = c,
                Err(e) => {
                    bench
                        .report
                        .problems
                        .push(format!("compile at {tier}: {e}"));
                    break;
                }
            }
        }
        bench.report.put_fastest(compile_metric(tier), &times);
        by_tier.push(compiled);
    }
    let mut kernels: [Vec<f64>; 4] = Default::default();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || t0.elapsed().as_secs_f64() < opts.seconds * 0.3 {
        let mut tiers = [0usize, 1, 2, 3];
        rng.shuffle(&mut tiers);
        for t in tiers {
            let tier = Tier::ALL[t];
            if by_tier[t].len() != bench.prepared.programs.len() {
                continue; // did not compile at this tier; already a problem
            }
            if let Some(job) =
                bench.job(&Launch::Compiled(&by_tier[t]), &|c| c.tier = tier, &mut off)
            {
                kernels[t].push(job.kernel_s);
            }
        }
        rounds += 1;
    }
    for (t, samples) in kernels.iter().enumerate() {
        if !samples.is_empty() {
            bench
                .report
                .put_fastest(kernel_metric(Tier::ALL[t]), samples);
        }
    }

    // --- D ---------------------------------------------------------------
    layer_timings(bench, opts, &by_tier);
    counts_twice(bench, &mut off);
    bench.report.put("core.trampoline_ns", trampoline_ns());
    if let Kind::Dt(params) = bench.spec.kind {
        simd_over_scalar(bench, params, rng, &mut off);
    }
    let pingpong = bench
        .prepared
        .programs
        .iter()
        .position(|p| p.imb.is_some_and(|imb| imb.routine == ImbRoutine::PingPong));
    if let (Some(pingpong), Some(cpu)) = (pingpong, bench.report.pinned_cpu) {
        // The diagnostic a spin-before-park change would point at: the
        // same PingPong with both CPUs allowed again. Last, so nothing
        // else runs unpinned.
        if original_mask.is_some_and(pin::set_mask) {
            let saved = std::mem::replace(&mut bench.order, vec![pingpong]);
            if let Some(job) = bench.job(&bench.launch(false), &|_| {}, &mut off) {
                bench.report.put_noted(
                    "mpi.pingpong_unpinned_us",
                    job.reported[pingpong],
                    format!("one job after leaving CPU {cpu}; bimodal across processes"),
                );
            }
            bench.order = saved;
        }
    }

    // Self time per layer over the span-recorded jobs.
    let (layers, total_us) = layer_self_times_us(tracer.spans(), "job");
    if total_us > 0.0 {
        let sum: f64 = layers.values().sum();
        if (sum / total_us - 1.0).abs() > 0.02 {
            bench.report.problems.push(format!(
                "layer self times sum to {:.1}% of the jobs' time",
                100.0 * sum / total_us
            ));
        }
        bench.report.layer_shares = layers
            .into_iter()
            .map(|(layer, us)| (layer, us / total_us))
            .collect();
    }
}

fn compile_metric(tier: Tier) -> &'static str {
    match tier {
        Tier::Baseline => "wasm.compile_baseline_us",
        Tier::Optimizing => "wasm.compile_optimizing_us",
        Tier::Max => "wasm.compile_max_us",
        Tier::MaxJit => "wasm.compile_maxjit_us",
    }
}

fn kernel_metric(tier: Tier) -> &'static str {
    match tier {
        Tier::Baseline => "wasm.kernel_baseline_s",
        Tier::Optimizing => "wasm.kernel_optimizing_s",
        Tier::Max => "wasm.kernel_max_s",
        Tier::MaxJit => "wasm.kernel_maxjit_s",
    }
}

/// Whether a single-layer timing with these samples (µs) needs another:
/// at least `LAYER_REPS`, and until `LAYER_MIN_US` went into it or
/// `LAYER_MAX_REPS` is reached — a 30-µs call needs many repetitions before
/// its timing means anything.
fn wants_another(times_us: &[f64]) -> bool {
    times_us.len() < LAYER_REPS
        || (times_us.iter().sum::<f64>() < LAYER_MIN_US && times_us.len() < LAYER_MAX_REPS)
}

/// Time `f` in µs, as often as [`wants_another`] asks. What `f` returns is
/// dropped after the clock is read, so freeing the product is not billed
/// to the call that made it.
fn time_us<O>(mut f: impl FnMut() -> O) -> Vec<f64> {
    let mut times: Vec<f64> = Vec::new();
    while wants_another(&times) {
        let t0 = Instant::now();
        let product = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e6);
        drop(product);
    }
    times
}

/// Decode, validate, instantiate, code and artifact sizes, cache store and
/// load — each summed over the workload's programs.
fn layer_timings(bench: &mut Bench<'_>, opts: &RunOptions, by_tier: &[Vec<CompiledModule>]) {
    let prepared = bench.prepared;
    let default_tier = JobConfig::default().tier;
    let r = &mut bench.report;

    // Guest construction is repeated to show the sizes are stable.
    let again = build_programs(bench.spec.kind, opts.seed);
    let bytes = |ps: &[Program]| ps.iter().map(|p| p.bytes.len()).sum::<usize>() as f64;
    r.put_twice(
        "wasm.module_bytes",
        bytes(&prepared.programs),
        bytes(&again),
        true,
    );
    if prepared
        .programs
        .iter()
        .zip(&again)
        .any(|(a, b)| a.bytes != b.bytes)
    {
        r.problems
            .push("guest construction is not deterministic for this seed".into());
    }

    r.put_fastest(
        "wasm.decode_us",
        &time_us(|| {
            let decode = |p: &Program| decode_module(std::hint::black_box(&p.bytes)).ok();
            prepared.programs.iter().map(decode).collect::<Vec<_>>()
        }),
    );
    r.put_fastest(
        "wasm.validate_us",
        &time_us(|| {
            let valid = |m: &Module| validate_module(std::hint::black_box(m)).is_ok();
            prepared.modules.iter().all(valid)
        }),
    );

    let code = |cs: &[CompiledModule]| cs.iter().map(|c| c.code_size()).sum::<usize>() as f64;
    let recompiled = Tier::ALL
        .iter()
        .position(|t| *t == default_tier)
        .map(|t| &by_tier[t]);
    r.put_twice(
        "wasm.code_bytes",
        code(&prepared.compiled),
        recompiled.map_or(f64::NAN, |c| code(c)),
        true,
    );

    // Instantiation against the embedder's full import surface; no host
    // function runs, so the instance needs no `Env`.
    let linker: Linker = Runner::new().linker_mut().clone();
    r.put_fastest(
        "wasm.instantiate_us",
        &time_us(|| {
            let instantiate = |c: &CompiledModule| linker.instantiate(c, Box::new(())).ok();
            prepared
                .compiled
                .iter()
                .map(instantiate)
                .collect::<Vec<_>>()
        }),
    );

    let store = || -> Vec<Vec<u8>> {
        prepared
            .programs
            .iter()
            .zip(&prepared.compiled)
            .map(|(p, c)| store_artifact(&p.bytes, c))
            .collect()
    };
    let artifacts = store();
    let size = |a: &[Vec<u8>]| a.iter().map(Vec::len).sum::<usize>() as f64;
    r.put_twice(
        "core.cache_artifact_bytes",
        size(&artifacts),
        size(&store()),
        true,
    );
    r.put_fastest("core.cache_store_us", &time_us(&store));
    let mut load_failed = false;
    r.put_fastest(
        "core.cache_load_us",
        &time_us(|| {
            let loaded: Vec<_> = artifacts.iter().map(|a| load_artifact(a).ok()).collect();
            load_failed |= loaded.iter().any(Option::is_none);
            loaded
        }),
    );
    if load_failed {
        r.problems
            .push("load_artifact rejected an artifact store_artifact just wrote".into());
    }

    // Hits over look-ups through the filesystem cache: per program one
    // miss that fills it, then three look-ups that must all hit.
    match ModuleCache::new(bench.tmp.join("probe")) {
        Ok(cache) => {
            for p in &prepared.programs {
                for _ in 0..4 {
                    if let Err(e) = cache.get_or_compile(&p.bytes, default_tier) {
                        r.problems.push(format!("cache look-up: {e}"));
                    }
                }
            }
            let lookups = cache.hits() + cache.misses();
            r.put_noted(
                "core.cache_hit_ratio",
                cache.hits() as f64 / lookups.max(1) as f64,
                format!("{} hits of {lookups} look-ups", cache.hits()),
            );
        }
        Err(e) => r.problems.push(format!("cache probe directory: {e}")),
    }
}

/// The counts, each from two separate jobs: JIT counters (a fresh MaxJit
/// module per job, profiling on), instrumented MPI calls and translation
/// time, and the flight recorder's protocol counters and wait times.
/// Counts of one-rank workloads must repeat exactly; with two rank threads
/// protocol and promotion counts depend on interleaving and are shown.
fn counts_twice(bench: &mut Bench<'_>, off: &mut Tracer) {
    let exact = bench.spec.np == 1;
    let np = bench.spec.np as usize;

    // JIT.
    let jit_job = |bench: &mut Bench<'_>, off: &mut Tracer| -> Option<[f64; 4]> {
        let modules: Vec<CompiledModule> = bench
            .prepared
            .modules
            .iter()
            .filter_map(|m| CompiledModule::compile(m.clone(), Tier::MaxJit).ok())
            .collect();
        if modules.len() != bench.prepared.modules.len() {
            return None;
        }
        modules.iter().for_each(|m| m.set_jit_profiling(true));
        bench.job(&Launch::Compiled(&modules), &|c| c.tier = Tier::MaxJit, off)?;
        let mut sum = [0.0; 4];
        for snap in modules.iter().filter_map(|m| m.jit_snapshot()) {
            let counts = [
                snap.promotions,
                snap.chains_entered,
                snap.guard_exits,
                snap.fallback_steps,
            ];
            for (acc, c) in sum.iter_mut().zip(counts) {
                *acc += c as f64;
            }
        }
        Some(sum)
    };
    if let (Some(a), Some(b)) = (jit_job(bench, off), jit_job(bench, off)) {
        let names = [
            "wasm.jit_promotions",
            "wasm.jit_chains_entered",
            "wasm.jit_guard_exits",
            "wasm.jit_fallback_steps",
        ];
        for (i, name) in names.into_iter().enumerate() {
            bench.report.put_twice(name, a[i], b[i], exact);
        }
        // Chain entries that left through a guard's unlikely side.
        bench.report.put(
            "wasm.jit_guard_exit_ratio",
            if a[1] > 0.0 { a[2] / a[1] } else { 0.0 },
        );
    }

    // Instrumented translation (the Figure 6 counters).
    let instrumented = |bench: &mut Bench<'_>, off: &mut Tracer| -> Option<(f64, f64)> {
        let job = bench.job(&bench.launch(false), &|c| c.instrument = true, off)?;
        let (mut ns, mut calls) = (0.0, 0u64);
        for stats in job.results.iter().map(|r| r.merged_stats()) {
            for (total, n) in stats.cells.iter().flatten() {
                ns += total;
                calls += n;
            }
        }
        Some((
            if calls > 0 { ns / calls as f64 } else { 0.0 },
            calls as f64,
        ))
    };
    if let (Some(a), Some(b)) = (instrumented(bench, off), instrumented(bench, off)) {
        bench.report.put("core.translate_ns", a.0);
        bench.report.put_twice("core.mpi_calls", a.1, b.1, exact);
    }

    // Flight recorder: protocol counters, time waiting, events.
    const COUNTERS: [&str; 5] = [
        "mpi.eager_messages",
        "mpi.eager_bytes_copied",
        "mpi.rendezvous_messages",
        "mpi.rendezvous_bytes",
        "mpi.deferred_eager_messages",
    ];
    struct Recorded {
        counters: [f64; 5],
        preposted: f64,
        recv_wait_s: f64,
        coll_s: f64,
        events: f64,
        dropped: f64,
    }
    let recorded = |bench: &mut Bench<'_>, off: &mut Tracer| -> Option<Recorded> {
        let recorders: RefCell<Vec<Arc<Recorder>>> = RefCell::default();
        bench.job(
            &bench.launch(false),
            &|c| {
                // Large enough that 20 000 collectives are not truncated.
                let rec = Recorder::new(np, 1 << 18, TraceClock::Real);
                recorders.borrow_mut().push(Arc::clone(&rec));
                c.recorder = Some(rec);
            },
            off,
        )?;
        let mut out = Recorded {
            counters: [0.0; 5],
            preposted: 0.0,
            recv_wait_s: 0.0,
            coll_s: 0.0,
            events: 0.0,
            dropped: 0.0,
        };
        for rec in recorders.borrow().iter() {
            let m = rec.metrics();
            let get = |name: &str| m.get(name).unwrap_or(0) as f64;
            for (acc, name) in out.counters.iter_mut().zip(COUNTERS) {
                *acc += get(name);
            }
            out.preposted += get("mpi.preposted_matches");
            out.events += get("trace.events");
            out.dropped += get("trace.dropped_events");
            let (wait_us, coll_us) = wait_and_collective_us(rec);
            out.recv_wait_s += wait_us / 1e6;
            out.coll_s += coll_us / 1e6;
        }
        Some(out)
    };
    if let (Some(a), Some(b)) = (recorded(bench, off), recorded(bench, off)) {
        for (i, name) in COUNTERS.into_iter().enumerate() {
            bench
                .report
                .put_twice(name, a.counters[i], b.counters[i], exact);
        }
        let messages = |r: &Recorded| r.counters[0] + r.counters[2] + r.counters[4];
        let ratio = |r: &Recorded| {
            if messages(r) > 0.0 {
                r.preposted / messages(r)
            } else {
                0.0
            }
        };
        bench.report.put_noted(
            "mpi.preposted_ratio",
            ratio(&a),
            format!("pre-posted matches over messages; second job {}", ratio(&b)),
        );
        bench.report.put_noted(
            "mpi.recv_wait_s",
            a.recv_wait_s,
            format!("second job {}", b.recv_wait_s),
        );
        bench
            .report
            .put_noted("mpi.coll_s", a.coll_s, format!("second job {}", b.coll_s));
        bench
            .report
            .put_twice("obs.events", a.events, b.events, exact);
        bench
            .report
            .put_twice("obs.dropped_events", a.dropped, b.dropped, exact);
    }
}

/// Σ `RecvPost`→`RecvDone` (time waiting for other processes) and
/// Σ `CollBegin`→`CollEnd` over the ranks of one recorded run, in µs.
/// Receives complete in posting order per rank for these guests, so posts
/// are paired first-in first-out.
fn wait_and_collective_us(rec: &Recorder) -> (f64, f64) {
    let (mut wait, mut coll) = (0.0, 0.0);
    for rank in 0..rec.n_ranks() {
        let mut posts = VecDeque::new();
        let mut begun = HashMap::new();
        for ev in rec.rank_events(rank) {
            match ev.kind {
                EventKind::RecvPost { .. } => posts.push_back(ev.ts_us),
                EventKind::RecvDone { .. } => {
                    if let Some(posted) = posts.pop_front() {
                        wait += ev.ts_us - posted;
                    }
                }
                EventKind::CollBegin { id, .. } => {
                    begun.insert(id, ev.ts_us);
                }
                EventKind::CollEnd { id, .. } => {
                    if let Some(start) = begun.remove(&id) {
                        coll += ev.ts_us - start;
                    }
                }
                _ => {}
            }
        }
    }
    (wait, coll)
}

/// Host-call trampoline: a guest loop of calls to a no-op import minus the
/// same loop without the call (the fastest run of each), per call, at the
/// default tier.
fn trampoline_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let build = |with_call: bool| -> CompiledModule {
        let mut b = ModuleBuilder::new();
        b.memory(1, None);
        let noop = b.import_func("env", "noop", vec![], vec![]);
        b.func("_start", vec![], vec![], |f| {
            let i = Var::new(f, ValType::I32);
            let body: Vec<Stmt> = if with_call {
                vec![call_stmt(noop, vec![])]
            } else {
                vec![Stmt::Raw(vec![])]
            };
            emit_block(f, &[for_range(i, int(0), int(CALLS as i32), &body)]);
        });
        let module = decode_module(&encode_module(&b.finish())).expect("built module decodes");
        CompiledModule::compile(module, JobConfig::default().tier).expect("built module compiles")
    };
    let mut linker = Linker::new();
    linker.func("env", "noop", FuncType::new(vec![], vec![]), |_, _| {
        Ok(vec![])
    });
    let (with, without) = (build(true), build(false));
    let run = |compiled: &CompiledModule| -> f64 {
        let mut inst = linker
            .instantiate(compiled, Box::new(()))
            .expect("noop import resolves");
        let t0 = Instant::now();
        inst.invoke("_start", &[]).expect("loop runs");
        t0.elapsed().as_secs_f64() * 1e9
    };
    let (mut with_ns, mut without_ns) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        with_ns.push(run(&with));
        without_ns.push(run(&without));
    }
    (fastest(&with_ns) - fastest(&without_ns)) / CALLS as f64
}

/// `dt_simd_np2` only: the same DT problem built without v128, run
/// interleaved with the SIMD build; the ratio of the fastest kernels.
fn simd_over_scalar(bench: &mut Bench<'_>, params: DtParams, rng: &mut Rng, off: &mut Tracer) {
    let bytes = npb_dt::build_guest(DtParams {
        simd: false,
        ..params
    });
    let tier = JobConfig::default().tier;
    let scalar = decode_module(&bytes)
        .ok()
        .and_then(|m| CompiledModule::compile(m, tier).ok());
    let Some(scalar) = scalar else {
        bench
            .report
            .problems
            .push("the scalar DT guest did not compile".into());
        return;
    };
    let scalar = [scalar];
    let (mut simd_s, mut scalar_s) = (Vec::new(), Vec::new());
    for _ in 0..LAYER_REPS {
        let mut variants = [false, true];
        rng.shuffle(&mut variants);
        for simd in variants {
            let launch = if simd {
                bench.launch(false)
            } else {
                Launch::Compiled(&scalar)
            };
            if let Some(job) = bench.job(&launch, &|_| {}, off) {
                (if simd { &mut simd_s } else { &mut scalar_s }).push(job.kernel_s);
            }
        }
    }
    if !simd_s.is_empty() && !scalar_s.is_empty() {
        bench.report.put(
            "wasm.simd_over_scalar_x",
            fastest(&simd_s) / fastest(&scalar_s),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use hpc_benchmarks::hpcg::HpcgParams;

    /// A problem small enough for an unoptimized test build.
    static TINY: Spec = Spec {
        name: "tiny_hpcg",
        why: "test",
        kind: Kind::Hpcg(HpcgParams {
            nx: 6,
            ny: 6,
            nz: 4,
            iters: 3,
        }),
        np: 1,
        pinned: false,
        min_jobs: 25,
        gated: false,
    };

    fn scratch(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mpiwasm-benchmark-{name}-{}", std::process::id()));
        TempDir::create(dir).unwrap()
    }

    #[test]
    fn a_planted_wrong_oracle_value_is_counted_as_a_failed_job() {
        let tmp = scratch("planted");
        let mut off = Tracer::new(false);
        let mut prepared = setup(&TINY, 0, &tmp.0.join("cache"), &mut off).unwrap();
        let run = |prepared: &Prepared| {
            let mut bench = Bench {
                spec: &TINY,
                prepared,
                seed: 0,
                order: vec![0],
                setup_s: Vec::new(),
                last_setup: Instant::now(),
                native_s: Vec::new(),
                peak_rss_mib: Vec::new(),
                tmp: &tmp.0,
                cache_dir: &tmp.0,
                report: Report::new(TINY.name, 0, 1.0, false),
            };
            let sample = bench.job(&bench.launch(false), &|_| {}, &mut Tracer::new(false));
            (sample.is_some(), bench.report)
        };

        let (sampled, report) = run(&prepared);
        assert!(sampled && report.correct());
        assert_eq!((report.jobs_attempted, report.jobs_failed), (1, 0));

        // Plant a wrong expected checksum: the same job must now fail.
        let Oracle::Hpcg(expected) = &mut prepared.oracle else {
            panic!("hpcg oracle")
        };
        expected[0].1 += 1.0;
        let (sampled, report) = run(&prepared);
        assert!(!sampled, "a failed job contributes no timing sample");
        assert_eq!((report.jobs_attempted, report.jobs_failed), (1, 1));
        assert!(!report.correct());
        assert!(report.problems[0].contains("xsum"), "{:?}", report.problems);
        let line = Json::parse(&report.result_line().to_string()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn both_passes_emit_their_metrics_and_files_that_parse() {
        for traced in [false, true] {
            let tmp = scratch(if traced { "traced" } else { "untraced" });
            let opts = RunOptions {
                seed: 5,
                seconds: 0.05,
                traced,
                results_dir: tmp.0.join("results"),
            };
            let (report, tracer) = run_workload(&TINY, &opts).unwrap();
            assert!(report.correct(), "{:?}", report.problems);
            assert!(report.jobs_attempted >= TINY.min_jobs as u64);

            let result = Json::parse(&report.to_json().to_string()).unwrap();
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            let trace = Json::parse(&tracer.chrome_trace(TINY.name, 1).to_string()).unwrap();
            let events = trace.get("traceEvents").and_then(Json::as_array).unwrap();

            if traced {
                // Every per-layer metric that applies to an HPCG workload.
                for (name, _, _) in PER_LAYER {
                    let applies = !(name.starts_with("mpi.pingpong")
                        || name.starts_with("mpi.allreduce")
                        || name.starts_with("mpi.alltoall")
                        || name.starts_with("mpi.bcast")
                        || name == "core.call_overhead_us"
                        || name == "wasm.simd_over_scalar_x");
                    assert_eq!(report.get(name).is_some(), applies, "{name}");
                }
                // 11 span-recorded jobs of three spans each, plus set-up.
                assert!(events.len() > 33, "{} spans", events.len());
                let names: Vec<&Json> = events.iter().filter_map(|e| e.get("name")).collect();
                for expected in [
                    "workload",
                    "setup",
                    "wasm.compile",
                    "job",
                    "core.run_compiled",
                    "kernel",
                ] {
                    assert!(names.contains(&&Json::str(expected)), "no {expected} span");
                }
                let sum: f64 = report.layer_shares.iter().map(|(_, s)| s).sum();
                assert!((sum - 1.0).abs() < 0.02, "layer shares sum to {sum}");
            } else {
                for m in &END_TO_END {
                    assert!(report.get(m.name).is_some_and(|v| v > 0.0), "{}", m.name);
                }
                assert_eq!(events.len(), 1, "the untraced pass records no spans");
            }
            // The temporary directory of the run is gone.
            let leftovers: Vec<_> = std::fs::read_dir(&opts.results_dir).unwrap().collect();
            assert!(leftovers.is_empty(), "{leftovers:?}");
        }
    }
}
