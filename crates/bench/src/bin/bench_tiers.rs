//! Per-tier execution benchmark over the hpcg and npb_is kernels,
//! emitting `BENCH_tiers.json` so successive engine changes have a
//! recorded perf trajectory to compare against.
//!
//! Usage: `bench_tiers [out.json] [--check committed.json]` (default out
//! `BENCH_tiers.json`). Each kernel runs single-rank through the full
//! embedder (compile once, then repeated runs); the reported figure is
//! the best-of-N wall-clock nanoseconds per run, which is the stable
//! measure on shared CI boxes.
//!
//! With `--check`, the fresh numbers are compared against a committed
//! baseline and the process exits non-zero if any (kernel, tier) cell
//! regressed by more than [`REGRESSION_TOLERANCE`] — the CI gate that
//! locks in engine perf wins. The tolerance absorbs shared-runner noise;
//! the committed file is only refreshed deliberately, with an engine
//! change that moves the numbers.

use std::sync::Arc;
use std::time::Instant;

use hpc_benchmarks::{hpcg, npb_is};
use mpiwasm::{JobConfig, Runner};
use mpiwasm_bench::gate::{self, Better, CellSpec};
use obs::{Recorder, TraceClock};
use wasm_engine::Tier;

struct Kernel {
    name: &'static str,
    wasm: Vec<u8>,
}

fn kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "hpcg",
            wasm: hpcg::build_guest(hpcg::HpcgParams { nx: 8, ny: 8, nz: 8, iters: 3 }),
        },
        Kernel {
            name: "npb_is",
            wasm: npb_is::build_guest(npb_is::IsParams {
                keys_per_rank: 16384,
                max_key: 1 << 12,
                iters: 2,
            }),
        },
    ]
}

struct Cell {
    ns: u64,
    jit: Option<wasm_engine::JitSnapshot>,
}

fn bench_one(runner: &Runner, wasm: &[u8], tier: Tier) -> Cell {
    let (compiled, _) = runner.prepare(wasm, tier).expect("compile");
    let run = || {
        let t0 = Instant::now();
        let result = runner
            .run_compiled(&compiled, JobConfig { np: 1, tier, ..Default::default() })
            .expect("run");
        assert!(result.success(), "{:?}", result.ranks[0].error);
        t0.elapsed().as_nanos() as u64
    };
    run(); // warmup
    let reps = if tier == Tier::Baseline { 3 } else { 5 };
    let ns = (0..reps).map(|_| run()).min().unwrap();
    // Informational JIT counters (max+jit only): one extra *untimed*
    // profiled run, so the timed reps above execute the unprofiled path.
    let jit = (tier == Tier::MaxJit)
        .then(|| {
            compiled.set_jit_profiling(true);
            run();
            compiled.jit_snapshot()
        })
        .flatten();
    Cell { ns, jit }
}

/// Tracing-off must be (nearly) free: a recorder attached but disabled may
/// cost at most this fraction over running with no recorder at all.
const TRACE_OVERHEAD_TOLERANCE: f64 = 0.02;

/// Measure hpcg at tier max twice — plain vs recorder-attached-but-disabled
/// — with interleaved min-of-N sampling and retries to damp shared-runner
/// noise. Ok((plain, off)) when within budget, Err otherwise.
fn check_trace_overhead(runner: &Runner, wasm: &[u8]) -> Result<(u64, u64), (u64, u64)> {
    let (compiled, _) = runner.prepare(wasm, Tier::Max).expect("compile");
    let run = |recorder: Option<Arc<Recorder>>| {
        let t0 = Instant::now();
        let result = runner
            .run_compiled(
                &compiled,
                JobConfig { np: 1, tier: Tier::Max, recorder, ..Default::default() },
            )
            .expect("run");
        assert!(result.success(), "{:?}", result.ranks[0].error);
        t0.elapsed().as_nanos() as u64
    };
    let rec = Recorder::new(1, obs::DEFAULT_CAPACITY, TraceClock::Real);
    rec.set_enabled(false);
    run(None); // warmup both shapes
    run(Some(Arc::clone(&rec)));
    let mut last = (0, 0);
    for _attempt in 0..4 {
        let (mut plain, mut off) = (u64::MAX, u64::MAX);
        for _ in 0..5 {
            plain = plain.min(run(None));
            off = off.min(run(Some(Arc::clone(&rec))));
        }
        last = (plain, off);
        if (off as f64) <= (plain as f64) * (1.0 + TRACE_OVERHEAD_TOLERANCE) {
            return Ok(last);
        }
    }
    Err(last)
}

/// Maximum tolerated slowdown vs the committed baseline before the check
/// fails: `new <= committed * (1 + tolerance)`.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// The gated cell: `{"kernel": "K", "tier": "T", "ns_per_op": N}`, one per
/// line. The informational JIT columns and the overhead row (which has no
/// `ns_per_op`) are not cells.
const CELLS: [CellSpec; 1] = [CellSpec {
    section: None,
    key_fields: &["kernel", "tier"],
    value_field: "ns_per_op",
    better: Better::Lower,
}];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_tiers.json".to_string();
    let mut check_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--check" {
            check_path = Some(it.next().expect("--check needs a baseline path"));
        } else {
            out_path = a;
        }
    }

    let runner = Runner::new();
    let ks = kernels();
    let mut lines = Vec::new();
    for k in &ks {
        for tier in Tier::ALL {
            let cell = bench_one(&runner, &k.wasm, tier);
            let tier_key = tier.flag();
            // Informational (non-gated) JIT profiling columns: only the
            // ns_per_op cell participates in the --check regression gate.
            let jit_cols = match &cell.jit {
                Some(s) => format!(
                    ", \"chains_entered\": {}, \"guard_exits\": {}",
                    s.chains_entered, s.guard_exits
                ),
                None => String::new(),
            };
            let jit_note = match &cell.jit {
                Some(s) => format!(
                    "  (chains {}, guard exits {})",
                    s.chains_entered, s.guard_exits
                ),
                None => String::new(),
            };
            println!("{:>8} {:<10} {:>12} ns/op{}", k.name, tier_key, cell.ns, jit_note);
            lines.push(format!(
                "  {{\"kernel\": \"{}\", \"tier\": \"{}\", \"ns_per_op\": {}{}}}",
                k.name, tier_key, cell.ns, jit_cols
            ));
        }
    }

    // Flight-recorder overhead gate: an attached-but-disabled recorder must
    // not slow hpcg down measurably. Recorded in the JSON for trend-watching
    // (the cell has no ns_per_op, so --check never reads it).
    let overhead = check_trace_overhead(&runner, &ks[0].wasm);
    let (plain, off) = match overhead {
        Ok(p) | Err(p) => p,
    };
    let pct = (off as f64 / plain as f64 - 1.0) * 100.0;
    println!("trace-off overhead (hpcg/max): plain {plain} ns, recorder-off {off} ns ({pct:+.2}%)");
    lines.push(format!(
        "  {{\"overhead_kernel\": \"hpcg\", \"plain_ns\": {plain}, \"recorder_off_ns\": {off}}}"
    ));

    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(&out_path, &json).expect("write json");
    println!("wrote {out_path}");

    if overhead.is_err() {
        eprintln!(
            "TRACE OVERHEAD: disabled recorder costs {pct:+.2}% (budget {:.0}%)",
            TRACE_OVERHEAD_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }

    if let Some(path) = check_path {
        gate::check_against(&path, &json, &CELLS, REGRESSION_TOLERANCE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_ns_per_op_rows_are_gated_cells() {
        // The max+jit informational columns and the overhead cell must be
        // invisible to the regression parser.
        let json = "[\n  {\"kernel\": \"hpcg\", \"tier\": \"max\", \"ns_per_op\": 1000, \"chains_entered\": 42, \"guard_exits\": 3},\n  {\"kernel\": \"is\", \"tier\": \"baseline\", \"ns_per_op\": 2000},\n  {\"overhead_kernel\": \"hpcg\", \"plain_ns\": 500, \"recorder_off_ns\": 505}\n]\n";
        let cells: Vec<(String, f64)> =
            gate::parse_cells(json, &CELLS).into_iter().map(|c| (c.key, c.value)).collect();
        assert_eq!(cells, vec![("hpcg/max".into(), 1000.0), ("is/baseline".into(), 2000.0)]);
    }
}
