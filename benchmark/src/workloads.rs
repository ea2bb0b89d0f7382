//! The seven workloads: how each builds its guests, what its native oracle
//! says, how one job is launched and timed, and how its output is checked.

use std::path::Path;
use std::time::Instant;

use hpc_benchmarks::hpcg::{self, HpcgParams};
use hpc_benchmarks::imb::{self, ImbRoutine};
use hpc_benchmarks::npb_dt::{self, DtParams, Topology};
use hpc_benchmarks::npb_is::{self, IsParams};
use mpi_substrate::run_world;
use mpiwasm::runner::RunError;
use mpiwasm::{JobConfig, JobResult, Runner};
use wasm_engine::runtime::CompiledModule;

use crate::spans::Tracer;
use crate::synth;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Hpcg(HpcgParams),
    Is(IsParams),
    Dt(DtParams),
    /// The four IMB routines at one message size, back to back.
    Imb {
        bytes: u32,
        iters: u32,
    },
    /// The synthesized application-sized module, launched from bytes:
    /// without a cache (`warm: false`) or through a filled one.
    Start {
        warm: bool,
    },
}

pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line; BENCHMARK.json
    /// carries the same text).
    pub why: &'static str,
    pub kind: Kind,
    pub np: u32,
    /// Run under a one-CPU affinity mask. Every two-rank workload is: with
    /// both CPUs the medians of ten processes spread 7–9% (where the kernel
    /// puts the two rank threads), pinned 3–4% on the compute workloads and
    /// 1% on 8-byte IMB.
    pub pinned: bool,
    /// Timed jobs per run, at least.
    pub min_jobs: usize,
    /// Listed in `BENCHMARK.json`, so run and gated by the driver. The
    /// driver's time limit buys a fixed number of run-seconds, and on the
    /// shared reference host a run must outlast the slow stretches its
    /// neighbours cause (up to 40 s measured), so the limit goes to five
    /// workloads of 24 s, not seven of 16 s. The two narrowest are left
    /// to `run` and `repeat`: a change to the v128 path or to the cache runs
    /// them on both commits itself.
    pub gated: bool,
}

/// The IMB routines of the two `imb_*` workloads, each with the metrics
/// its guest-reported and its native time per iteration go to.
const IMB_ROUTINES: [(ImbRoutine, &str, &str); 4] = [
    (
        ImbRoutine::PingPong,
        "mpi.pingpong_us",
        "mpi.pingpong_native_us",
    ),
    (
        ImbRoutine::Allreduce,
        "mpi.allreduce_us",
        "mpi.allreduce_native_us",
    ),
    (
        ImbRoutine::Alltoall,
        "mpi.alltoall_us",
        "mpi.alltoall_native_us",
    ),
    (ImbRoutine::Bcast, "mpi.bcast_us", "mpi.bcast_native_us"),
];

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "hpcg_np1",
        why: "f64 stencil and dot/AXPY loops on one rank: the wasm engine is ~90% of the job, mpi/core make ~20 calls; the plain single-thread baseline",
        kind: Kind::Hpcg(HpcgParams { nx: 24, ny: 24, nz: 24, iters: 10 }),
        np: 1,
        pinned: false,
        min_jobs: 25,
        gated: true,
    },
    Spec {
        name: "is_np2",
        why: "same engine used differently: i32 arithmetic and data-dependent scatter stores, plus 1-MiB-class Alltoall through rendezvous",
        kind: Kind::Is(IsParams { keys_per_rank: 1 << 18, max_key: 1 << 16, iters: 4 }),
        np: 2,
        pinned: true,
        min_jobs: 25,
        gated: true,
    },
    Spec {
        name: "dt_simd_np2",
        why: "the v128 path of the engine plus Probe-sized 512-KiB point-to-point; SIMD-versus-scalar work lands here only",
        kind: Kind::Dt(DtParams { elems: 1 << 16, topology: Topology::Shuffle, iters: 32, simd: true }),
        np: 2,
        pinned: true,
        min_jobs: 25,
        gated: false,
    },
    Spec {
        name: "imb_small_np2",
        why: "latency-bound: 8-byte PingPong/Allreduce/Alltoall/Bcast, so trampoline, translation, matching and thread hand-off are the whole cost",
        kind: Kind::Imb { bytes: 8, iters: 20_000 },
        np: 2,
        pinned: true,
        min_jobs: 25,
        gated: true,
    },
    Spec {
        name: "imb_large_np2",
        why: "bandwidth-bound use of the same mpi layer at 1 MiB: payload copies, reduction kernel, segmenting; a latency trick that adds a copy shows here",
        kind: Kind::Imb { bytes: 1 << 20, iters: 100 },
        np: 2,
        pinned: true,
        min_jobs: 25,
        gated: true,
    },
    Spec {
        name: "cold_start_np1",
        why: "a 650-KB module run from bytes with no cache: decode, validate, compile and instantiate are ~90% of the job",
        kind: Kind::Start { warm: false },
        np: 1,
        pinned: false,
        min_jobs: 41,
        gated: true,
    },
    Spec {
        name: "warm_start_np1",
        why: "the same module through a filled cache: artifact load instead of compile; work moved from compile into load shows here",
        kind: Kind::Start { warm: true },
        np: 1,
        pinned: false,
        min_jobs: 41,
        gated: false,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One guest module of a workload.
pub struct Program {
    pub label: &'static str,
    pub bytes: Vec<u8>,
    /// Set on IMB guests, which report µs per iteration under the key
    /// log2(bytes) instead of their timed region in seconds under key 0.
    pub imb: Option<ImbLoop>,
}

/// The timed loop of one IMB guest.
#[derive(Debug, Clone, Copy)]
pub struct ImbLoop {
    pub routine: ImbRoutine,
    pub bytes: u32,
    pub iters: u32,
    /// Metrics the guest's and the native µs per iteration are reported as.
    pub guest_metric: &'static str,
    pub native_metric: &'static str,
}

/// The `bench.report` key an IMB guest reports a message size under.
fn imb_report_key(bytes: u32) -> i32 {
    bytes.max(1).ilog2() as i32
}

impl ImbLoop {
    /// Seconds of the whole loop from the reported µs per iteration
    /// (PingPong reports one-way time, so a round trip counts twice).
    pub fn seconds(&self, us_per_iter: f64) -> f64 {
        let trips = if self.routine == ImbRoutine::PingPong {
            2.0
        } else {
            1.0
        };
        us_per_iter * self.iters as f64 * trips / 1e6
    }
}

/// Guest construction (DSL → bytes). Only the start workloads' module
/// depends on the seed; HPCG/IS/DT inputs are fixed by the kernels.
pub fn build_programs(kind: Kind, seed: u64) -> Vec<Program> {
    let one = |label, bytes| {
        vec![Program {
            label,
            bytes,
            imb: None,
        }]
    };
    match kind {
        Kind::Hpcg(p) => one("hpcg", hpcg::build_guest(p)),
        Kind::Is(p) => one("npb_is", npb_is::build_guest(p)),
        Kind::Dt(p) => one("npb_dt", npb_dt::build_guest(p)),
        Kind::Imb { bytes, iters } => IMB_ROUTINES
            .iter()
            .map(|&(routine, guest_metric, native_metric)| Program {
                label: routine.name(),
                bytes: imb::build_guest(routine, &[(bytes, iters)]),
                imb: Some(ImbLoop {
                    routine,
                    bytes,
                    iters,
                    guest_metric,
                    native_metric,
                }),
            })
            .collect(),
        Kind::Start { .. } => one("synthesized", synth::synthesize(seed)),
    }
}

/// What the native formulation says a correct job reports, per rank.
#[derive(Debug, Clone, PartialEq)]
pub enum Oracle {
    /// `(residual ratio, xsum)`.
    Hpcg(Vec<(f64, f64)>),
    /// `(keys verified locally, global total)`.
    Is(Vec<(u64, u64)>),
    /// Checksum.
    Dt(Vec<f64>),
    /// IMB has no output beyond its timings: jobs are checked for one
    /// positive finite report per rank under the expected key.
    Imb { key: i32 },
}

/// Run the native formulation once. Returns the oracle and the native
/// timed region in seconds (max over ranks); `None` for IMB, whose native
/// times are measured per routine by [`imb_native_us`].
pub fn native_oracle(kind: Kind, np: u32) -> (Oracle, Option<f64>) {
    fn slowest(times: impl Iterator<Item = f64>) -> Option<f64> {
        Some(times.fold(0.0, f64::max))
    }
    match kind {
        Kind::Hpcg(p) => {
            let out = run_world(np, move |comm| hpcg::run_native(&comm, p));
            let oracle = Oracle::Hpcg(out.iter().map(|o| (o.1, o.2)).collect());
            (oracle, slowest(out.iter().map(|o| o.0)))
        }
        Kind::Start { .. } => native_oracle(Kind::Hpcg(synth::START_PARAMS), np),
        Kind::Is(p) => {
            let out = run_world(np, move |comm| npb_is::run_native(&comm, p));
            let oracle = Oracle::Is(out.iter().map(|o| (o.1, o.2)).collect());
            (oracle, slowest(out.iter().map(|o| o.0)))
        }
        Kind::Dt(p) => {
            // The native kernel is scalar; the SIMD guest performs the
            // same IEEE operations per lane.
            let out = run_world(np, move |comm| npb_dt::run_native(&comm, p));
            let oracle = Oracle::Dt(out.iter().map(|o| o.1).collect());
            (oracle, slowest(out.iter().map(|o| o.0)))
        }
        Kind::Imb { bytes, .. } => (
            Oracle::Imb {
                key: imb_report_key(bytes),
            },
            None,
        ),
    }
}

/// Native IMB: µs per iteration of the loop's routine (one-way for
/// PingPong), the substrate alone under the caller's affinity mask.
pub fn imb_native_us(l: ImbLoop, np: u32) -> f64 {
    let out = run_world(np, move |comm| {
        imb::run_native(&comm, l.routine, &[(l.bytes, l.iters)])
    });
    out[0][0].1
}

fn report(result: &JobResult, rank: usize, key: i32) -> Result<f64, String> {
    let reports = &result.ranks[rank].reports;
    reports
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("rank {rank} reported no key {key}"))
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

/// Check one program's job output against the oracle.
pub fn verify(oracle: &Oracle, result: &JobResult) -> Result<(), String> {
    if !result.success() {
        let errors: Vec<String> = result
            .ranks
            .iter()
            .filter(|r| r.exit_code != 0 || r.error.is_some())
            .map(|r| format!("rank {} exit {} {:?}", r.rank, r.exit_code, r.error))
            .collect();
        return Err(format!("job did not succeed: {}", errors.join("; ")));
    }
    let expect_ranks = |n: usize| {
        (result.ranks.len() == n)
            .then_some(())
            .ok_or_else(|| format!("{} ranks ran, oracle has {n}", result.ranks.len()))
    };
    match oracle {
        Oracle::Hpcg(expected) => {
            expect_ranks(expected.len())?;
            for (rank, &(rr, xsum)) in expected.iter().enumerate() {
                let (got_rr, got_xsum) = (report(result, rank, 1)?, report(result, rank, 2)?);
                if !rel_close(got_rr, rr, 1e-9) {
                    return Err(format!(
                        "rank {rank} residual ratio {got_rr} != native {rr}"
                    ));
                }
                if !rel_close(got_xsum, xsum, 1e-9) {
                    return Err(format!("rank {rank} xsum {got_xsum} != native {xsum}"));
                }
            }
        }
        Oracle::Is(expected) => {
            expect_ranks(expected.len())?;
            for (rank, &(verified, total)) in expected.iter().enumerate() {
                let (got_v, got_t) = (report(result, rank, 1)?, report(result, rank, 2)?);
                if got_v != verified as f64 || got_t != total as f64 {
                    return Err(format!(
                        "rank {rank} verified/total {got_v}/{got_t} != native {verified}/{total}"
                    ));
                }
            }
        }
        Oracle::Dt(expected) => {
            expect_ranks(expected.len())?;
            for (rank, &checksum) in expected.iter().enumerate() {
                let got = report(result, rank, 1)?;
                if got.to_bits() != checksum.to_bits() {
                    return Err(format!(
                        "rank {rank} checksum {got:e} != native {checksum:e}"
                    ));
                }
            }
        }
        Oracle::Imb { key } => {
            for rank in 0..result.ranks.len() {
                let reports = &result.ranks[rank].reports;
                if reports.len() != 1 {
                    return Err(format!("rank {rank} made {} reports, not 1", reports.len()));
                }
                let us = report(result, rank, *key)?;
                if !(us.is_finite() && us > 0.0) {
                    return Err(format!("rank {rank} reported {us} µs per iteration"));
                }
            }
        }
    }
    Ok(())
}

/// How a job obtains executable code. Launched from bytes, a job must
/// report `cache_hit` exactly when it was given a (filled) cache.
pub enum Launch<'a> {
    /// `Runner::run_compiled` on modules compiled during set-up.
    Compiled(&'a [CompiledModule]),
    /// `Runner::new().run(bytes)`, optionally through a cache directory.
    Bytes(Option<&'a Path>),
    /// `Runner::prepare` then `Runner::run_compiled`: what `run` does,
    /// split so the traced pass can see the two halves.
    BytesSplit(Option<&'a Path>),
}

/// One finished job.
pub struct JobOutcome {
    /// Launch → all ranks joined, summed over the job's programs.
    pub wall_s: f64,
    /// The guests' own timed regions (max over ranks), summed.
    pub kernel_s: f64,
    /// Per program: µs per iteration as an IMB guest reports it, else the
    /// kernel in µs.
    pub reported: Vec<f64>,
    /// In the order the programs ran.
    pub results: Vec<JobResult>,
}

/// Everything a job needs besides how it is launched.
pub struct JobInputs<'a> {
    pub np: u32,
    pub programs: &'a [Program],
    pub oracle: &'a Oracle,
    /// Order in which the programs run (a seeded permutation).
    pub order: &'a [usize],
}

fn run_error(e: RunError) -> String {
    e.to_string()
}

/// Run one job: every program once, in `inputs.order`. `configure` may
/// adjust the default `JobConfig` (tier, recorder, instrumentation). A
/// tracer that is on records the job as `job → core.* → kernel`. Any launch
/// error, rank error or oracle mismatch is the `Err`.
pub fn run_job(
    inputs: &JobInputs<'_>,
    launch: &Launch<'_>,
    configure: &dyn Fn(&mut JobConfig),
    tracer: &mut Tracer,
) -> Result<JobOutcome, String> {
    let job_span = tracer.enter("job");
    let outcome = run_programs(inputs, launch, configure, tracer);
    tracer.exit(job_span);
    outcome
}

fn run_programs(
    inputs: &JobInputs<'_>,
    launch: &Launch<'_>,
    configure: &dyn Fn(&mut JobConfig),
    tracer: &mut Tracer,
) -> Result<JobOutcome, String> {
    let n = inputs.programs.len();
    let mut outcome = JobOutcome {
        wall_s: 0.0,
        kernel_s: 0.0,
        reported: vec![0.0; n],
        results: Vec::new(),
    };

    for &idx in inputs.order {
        let program = &inputs.programs[idx];
        let mut config = JobConfig {
            np: inputs.np,
            ..JobConfig::default()
        };
        configure(&mut config);

        // A launch is what `mpiwasm app.wasm` does: construct the embedder,
        // obtain code, run the ranks to completion.
        let t0 = Instant::now();
        let launched = match launch {
            Launch::Compiled(modules) => {
                let runner = Runner::new();
                let span = tracer.enter("core.run_compiled");
                let result = runner.run_compiled(&modules[idx], config);
                tracer.exit(span);
                result.map(|r| (r, span)).map_err(run_error)
            }
            Launch::Bytes(cache) => new_runner(*cache).and_then(|runner| {
                let span = tracer.enter("core.run");
                let result = runner.run(&program.bytes, config);
                tracer.exit(span);
                result.map(|r| (r, span)).map_err(run_error)
            }),
            Launch::BytesSplit(cache) => new_runner(*cache).and_then(|runner| {
                let span = tracer.enter("core.prepare");
                let prepared = runner.prepare(&program.bytes, config.tier);
                tracer.exit(span);
                let (compiled, hit) = prepared.map_err(run_error)?;
                let span = tracer.enter("core.run_compiled");
                let result = runner.run_compiled(&compiled, config);
                tracer.exit(span);
                let mut result = result.map_err(run_error)?;
                result.cache_hit = hit;
                Ok((result, span))
            }),
        };
        outcome.wall_s += t0.elapsed().as_secs_f64();
        let (result, run_span) = launched.map_err(|e| format!("{}: {e}", program.label))?;

        verify(inputs.oracle, &result).map_err(|e| format!("{}: {e}", program.label))?;
        if let Launch::Bytes(cache) | Launch::BytesSplit(cache) = launch {
            if result.cache_hit != cache.is_some() {
                return Err(format!(
                    "{}: cache_hit is {}, expected {}",
                    program.label,
                    result.cache_hit,
                    cache.is_some()
                ));
            }
        }

        // The guest's own timed region, as HPCG/NPB/IMB print it.
        let max_report = |key: i32| -> Result<f64, String> {
            (0..result.ranks.len())
                .map(|rank| report(&result, rank, key))
                .try_fold(0.0, |acc, v| v.map(|v| f64::max(acc, v)))
        };
        let kernel_s = match program.imb {
            Some(imb) => {
                let us = max_report(imb_report_key(imb.bytes))?;
                outcome.reported[idx] = us;
                imb.seconds(us)
            }
            None => {
                let s = max_report(0)?;
                outcome.reported[idx] = s * 1e6;
                s
            }
        };
        outcome.kernel_s += kernel_s;
        tracer.synthesize("kernel", run_span, kernel_s * 1e6);
        outcome.results.push(result);
    }
    Ok(outcome)
}

fn new_runner(cache: Option<&Path>) -> Result<Runner, String> {
    match cache {
        Some(dir) => Runner::new()
            .with_cache(dir)
            .map_err(|e| format!("cache dir: {e}")),
        None => Ok(Runner::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiwasm::translate::TranslationStats;
    use mpiwasm::RankResult;
    use std::time::Duration;

    fn rank(rank: u32, reports: Vec<(i32, f64)>) -> RankResult {
        RankResult {
            rank,
            exit_code: 0,
            error: None,
            stdout: String::new(),
            stderr: String::new(),
            bytes_read: 0,
            bytes_written: 0,
            virtual_time_us: 0.0,
            stats: TranslationStats::new(),
            reports,
        }
    }

    fn job(ranks: Vec<RankResult>) -> JobResult {
        JobResult {
            ranks,
            compile_time: Duration::ZERO,
            cache_hit: false,
            watchdog_report: None,
        }
    }

    #[test]
    fn verify_accepts_the_oracle_values_and_rejects_others() {
        let hpcg = Oracle::Hpcg(vec![(0.25, 1234.5)]);
        assert!(verify(
            &hpcg,
            &job(vec![rank(0, vec![(0, 0.1), (1, 0.25), (2, 1234.5)])])
        )
        .is_ok());
        // Within 1e-9 relative.
        assert!(verify(
            &hpcg,
            &job(vec![rank(0, vec![(1, 0.25), (2, 1234.5 + 1e-7)])])
        )
        .is_ok());
        assert!(verify(&hpcg, &job(vec![rank(0, vec![(1, 0.25), (2, 1234.6)])])).is_err());
        assert!(verify(&hpcg, &job(vec![rank(0, vec![(1, 0.26), (2, 1234.5)])])).is_err());
        assert!(
            verify(&hpcg, &job(vec![rank(0, vec![(2, 1234.5)])])).is_err(),
            "missing report"
        );
        assert!(verify(&hpcg, &job(vec![])).is_err(), "rank count");

        let is = Oracle::Is(vec![(10, 40), (30, 40)]);
        let good = vec![
            rank(0, vec![(1, 10.0), (2, 40.0)]),
            rank(1, vec![(1, 30.0), (2, 40.0)]),
        ];
        assert!(verify(&is, &job(good)).is_ok());
        let bad = vec![
            rank(0, vec![(1, 10.0), (2, 40.0)]),
            rank(1, vec![(1, 29.0), (2, 40.0)]),
        ];
        assert!(verify(&is, &job(bad)).is_err());

        // DT is bit-exact: the next representable double is a mismatch.
        let dt = Oracle::Dt(vec![1.5]);
        assert!(verify(&dt, &job(vec![rank(0, vec![(1, 1.5)])])).is_ok());
        let next = f64::from_bits(1.5f64.to_bits() + 1);
        assert!(verify(&dt, &job(vec![rank(0, vec![(1, next)])])).is_err());

        let imb = Oracle::Imb { key: 3 };
        assert!(verify(
            &imb,
            &job(vec![rank(0, vec![(3, 2.3)]), rank(1, vec![(3, 2.4)])])
        )
        .is_ok());
        assert!(
            verify(&imb, &job(vec![rank(0, vec![(3, 0.0)])])).is_err(),
            "not positive"
        );
        assert!(
            verify(&imb, &job(vec![rank(0, vec![(4, 2.3)])])).is_err(),
            "wrong key"
        );
        assert!(
            verify(&imb, &job(vec![rank(0, vec![(3, 2.3), (3, 2.3)])])).is_err(),
            "two reports"
        );
    }

    #[test]
    fn a_rank_that_failed_fails_the_job_whatever_it_reported() {
        let mut r = rank(0, vec![(3, 2.3)]);
        r.exit_code = 1;
        assert!(verify(&Oracle::Imb { key: 3 }, &job(vec![r])).is_err());
        let mut r = rank(0, vec![(3, 2.3)]);
        r.error = Some("trap".into());
        assert!(verify(&Oracle::Imb { key: 3 }, &job(vec![r])).is_err());
    }

    #[test]
    fn workload_table_is_well_formed() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(
                SPECS[..i].iter().all(|o| o.name != s.name),
                "{} twice",
                s.name
            );
            assert!(
                s.np <= 2,
                "no more rank threads than the 2-core box has CPUs"
            );
            assert!(s.min_jobs >= 25);
            assert_eq!(spec(s.name).map(|f| f.name), Some(s.name));
        }
        assert!(spec("nope").is_none());
        // PingPong counts both directions of its round trip.
        let programs = build_programs(
            Kind::Imb {
                bytes: 8,
                iters: 1000,
            },
            0,
        );
        let loops: Vec<ImbLoop> = programs.iter().filter_map(|p| p.imb).collect();
        assert_eq!(loops.len(), IMB_ROUTINES.len());
        assert_eq!(loops[0].routine, ImbRoutine::PingPong);
        assert_eq!(loops[0].seconds(2.0), 0.004);
        assert_eq!(loops[3].routine, ImbRoutine::Bcast);
        assert_eq!(loops[3].seconds(2.0), 0.002);
        assert_eq!(imb_report_key(8), 3);
    }
}
