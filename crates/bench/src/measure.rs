//! The runs behind the figures `benchmark/` does not measure: IOR's
//! bandwidths (Figure 5b) and the executed virtual-clock IMB runs
//! (Figure 3). Figure 6 and Figure 7 run their own guests in their binaries.

use hpc_benchmarks::{imb, ior};
use mpi_substrate::{run_world, run_world_with, ClockMode};
use mpiwasm::{JobConfig, Runner};
use netsim::{CostModel, SystemProfile};

fn report_value(reports: &[(i32, f64)], key: i32) -> f64 {
    reports.iter().find(|(k, _)| *k == key).map(|(_, v)| *v).expect("report key present")
}

/// IOR bandwidths in MiB/s: `((native_write, native_read), (wasm_write, wasm_read))`.
/// Median of five repetitions per phase — short memcpy-bound phases are
/// scheduler-noisy on shared single-core hosts.
pub fn measure_ior(np: u32, params: ior::IorParams) -> ((f64, f64), (f64, f64)) {
    let total_mib = params.total_bytes() as f64 * np as f64 / (1 << 20) as f64;
    let reps = 5;
    let mut nw = Vec::new();
    let mut nr = Vec::new();
    let mut ww = Vec::new();
    let mut wr = Vec::new();
    let wasm = ior::build_guest(params);
    for _ in 0..reps {
        let p = params;
        let native = run_world(np, move |comm| ior::run_native(&comm, p));
        nw.push(total_mib / native.iter().map(|o| o.0).fold(0.0, f64::max).max(1e-9));
        nr.push(total_mib / native.iter().map(|o| o.1).fold(0.0, f64::max).max(1e-9));

        let result = Runner::new()
            .run(&wasm, JobConfig { np, ..Default::default() })
            .unwrap();
        assert!(result.success(), "{:?}", result.ranks[0].error);
        let ww_t =
            result.ranks.iter().map(|r| report_value(&r.reports, 0)).fold(0.0, f64::max);
        let wr_t =
            result.ranks.iter().map(|r| report_value(&r.reports, 1)).fold(0.0, f64::max);
        ww.push(total_mib / ww_t.max(1e-9));
        wr.push(total_mib / wr_t.max(1e-9));
    }
    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (
        (median(&mut nw), median(&mut nr)),
        (median(&mut ww), median(&mut wr)),
    )
}

/// Executed IMB under virtual clocks: returns `(native, wasm)` series of
/// `(log2 bytes, us)` at a rank count the host can actually thread.
pub fn imb_executed_virtual(
    profile: &SystemProfile,
    routine: imb::ImbRoutine,
    np: u32,
    sweep: &[(u32, u32)],
    wasm_overhead_us: f64,
) -> (Vec<(i32, f64)>, Vec<(i32, f64)>) {
    let mode = ClockMode::Virtual(CostModel::native(profile.clone()));
    let sweep_owned: Vec<(u32, u32)> = sweep.to_vec();
    let native = {
        let sweep = sweep_owned.clone();
        run_world_with(np, mode.clone(), move |comm| imb::run_native(&comm, routine, &sweep))
            .swap_remove(0)
    };
    let wasm_bytes = imb::build_guest(routine, sweep);
    let result = Runner::new()
        .run(
            &wasm_bytes,
            JobConfig {
                np,
                clock: mode,
                wasm_call_overhead_us: wasm_overhead_us,
                ..Default::default()
            },
        )
        .unwrap();
    assert!(result.success(), "{:?}", result.ranks[0].error);
    (native, result.ranks[0].reports.clone())
}

/// Quick-mode switch for CI/tests: smaller problems.
pub fn quick() -> bool {
    std::env::var("MPIWASM_QUICK").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executed_imb_wasm_is_slower_by_bounded_margin() {
        let profile = SystemProfile::container();
        let (native, wasm) = imb_executed_virtual(
            &profile,
            imb::ImbRoutine::Allreduce,
            4,
            &[(256, 4)],
            0.2,
        );
        assert_eq!(native.len(), 1);
        assert_eq!(wasm.len(), 1);
        let (n, w) = (native[0].1, wasm[0].1);
        assert!(w > n, "wasm {w}us <= native {n}us");
        assert!(w / n < 2.0, "overhead out of band: {w} vs {n}");
    }
}
