//! The measured inputs of the figures: one traced `benchmark/` run.
//!
//! [`TRACED_RUN`] leaves one `W.traced.json` per workload in
//! `benchmark/results/`. [`Measured::load`] reads the four the figures use
//! ([`HPCG`], [`IS`], [`DT`] and [`IMB_SMALL`]) with `benchmark/`'s own JSON
//! reader, and refuses a file that is missing, untraced, not correct, has
//! failed jobs, or lacks a metric: a figure is drawn from a whole run or
//! not at all.

use std::path::{Path, PathBuf};

use hpc_benchmarks::hpcg::HpcgParams;
use hpc_benchmarks::npb_dt::{DtParams, Topology};
use hpc_benchmarks::npb_is::IsParams;
use wasm_engine::Tier;

#[allow(dead_code)]
#[path = "../../../benchmark/src/json.rs"]
mod json;
pub use json::Json;

/// The command that writes the files [`Measured::load`] reads.
pub const TRACED_RUN: &str =
    "cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --trace 1";

/// A `benchmark/` workload the figures read, with the parameters it runs.
/// `benchmark/src/workloads.rs` is the source; `tests/traced_run.rs` holds
/// this table to it.
pub struct Workload<P> {
    pub name: &'static str,
    pub np: u32,
    pub params: P,
}

pub const HPCG: Workload<HpcgParams> =
    Workload { name: "hpcg_np1", np: 1, params: HpcgParams { nx: 24, ny: 24, nz: 24, iters: 10 } };

pub const IS: Workload<IsParams> = Workload {
    name: "is_np2",
    np: 2,
    params: IsParams { keys_per_rank: 1 << 18, max_key: 1 << 16, iters: 4 },
};

pub const DT: Workload<DtParams> = Workload {
    name: "dt_simd_np2",
    np: 2,
    params: DtParams { elems: 1 << 16, topology: Topology::Shuffle, iters: 32, simd: true },
};

/// The 8-byte IMB workload, whose per-call overheads the modelled figures add.
pub const IMB_SMALL: &str = "imb_small_np2";

/// A compute kernel as one workload measured it, over all its iterations.
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    /// `benchmarks.native_s`: the native formulation's kernel.
    pub native_s: f64,
    /// `benchmarks.guest_over_native_x`: the guest's `kernel_s` over it.
    pub guest_over_native_x: f64,
}

impl Kernel {
    /// `(native, guest)` seconds of one of `iters` iterations.
    pub fn per_iter(&self, iters: u32) -> (f64, f64) {
        let native = self.native_s / iters as f64;
        (native, native * self.guest_over_native_x)
    }
}

/// Everything the figures take from the traced run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// [`HPCG`] at each tier: `wasm.compile_<tier>_us`, `wasm.kernel_<tier>_s`.
    pub tiers: [(Tier, f64, f64); 3],
    pub hpcg: Kernel,
    pub is: Kernel,
    pub dt: Kernel,
    /// `wasm.simd_over_scalar_x` of [`DT`]: the SIMD build's kernel over
    /// the scalar build's.
    pub simd_over_scalar_x: f64,
    /// `core.trampoline_ns` of [`IMB_SMALL`]: one host call.
    pub trampoline_ns: f64,
    /// `core.translate_ns` of [`IMB_SMALL`]: one call's handle and
    /// datatype translation.
    pub translate_ns: f64,
}

impl Measured {
    /// `benchmark/results/` of this checkout.
    pub fn default_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmark/results")
    }

    pub fn load(dir: &Path) -> Result<Measured, String> {
        let [hpcg, is, dt, imb] = [HPCG.name, IS.name, DT.name, IMB_SMALL].map(|w| File::open(dir, w));
        let (hpcg, is, dt, imb) = (hpcg?, is?, dt?, imb?);
        let tier = |tier: Tier| -> Result<(Tier, f64, f64), String> {
            let flag = tier.flag();
            let compile_us = hpcg.metric(&format!("wasm.compile_{flag}_us"))?;
            Ok((tier, compile_us, hpcg.metric(&format!("wasm.kernel_{flag}_s"))?))
        };
        Ok(Measured {
            tiers: [tier(Tier::Baseline)?, tier(Tier::Optimizing)?, tier(Tier::Max)?],
            hpcg: hpcg.kernel()?,
            is: is.kernel()?,
            dt: dt.kernel()?,
            simd_over_scalar_x: dt.metric("wasm.simd_over_scalar_x")?,
            trampoline_ns: imb.metric("core.trampoline_ns")?,
            translate_ns: imb.metric("core.translate_ns")?,
        })
    }

    /// What the Wasm path adds to every MPI call, µs.
    pub fn call_overhead_us(&self) -> f64 {
        (self.trampoline_ns + self.translate_ns) / 1e3
    }
}

/// One workload's result file, checked whole.
struct File {
    path: PathBuf,
    json: Json,
}

impl File {
    fn open(dir: &Path, workload: &str) -> Result<File, String> {
        let path = dir.join(format!("{workload}.traced.json"));
        let text = std::fs::read_to_string(&path).map_err(|e| refuse(&path, &e.to_string()))?;
        let json = Json::parse(&text).map_err(|e| refuse(&path, &e))?;
        let flag = |key: &str| json.get(key).and_then(Json::as_bool);
        if flag("traced") != Some(true) {
            return Err(refuse(&path, "not a traced run"));
        }
        if flag("correct") != Some(true) {
            return Err(refuse(&path, "the run was not correct"));
        }
        match json.get("jobs_failed").and_then(Json::as_f64) {
            Some(0.0) => Ok(File { path, json }),
            n => Err(refuse(&path, &format!("jobs_failed is {n:?}"))),
        }
    }

    /// A metric's value. Absent, not finite or not positive is an error:
    /// every time, count and ratio read here is positive when measured.
    fn metric(&self, name: &str) -> Result<f64, String> {
        let value = self.json.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64());
        match value {
            Some(v) if v.is_finite() && v > 0.0 => Ok(v),
            v => Err(refuse(&self.path, &format!("metric {name} is {v:?}"))),
        }
    }

    fn kernel(&self) -> Result<Kernel, String> {
        Ok(Kernel {
            native_s: self.metric("benchmarks.native_s")?,
            guest_over_native_x: self.metric("benchmarks.guest_over_native_x")?,
        })
    }
}

fn refuse(path: &Path, why: &str) -> String {
    format!("{}: {why}; `{TRACED_RUN}` writes it", path.display())
}
