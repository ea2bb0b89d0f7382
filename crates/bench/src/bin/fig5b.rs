//! Figure 5b: IOR aggregate read/write bandwidth over block sizes.
//!
//! The Wasm/native efficiency is *measured* by running IOR through the
//! embedder's WASI + virtual-filesystem path vs the native path; the
//! absolute axis comes from the parallel-filesystem model (the paper's
//! Spectrum Scale system). The measured efficiency ≈ 1 reproduces the
//! paper's finding that userspace permission handling and the virtual
//! directory tree have no significant bandwidth impact.

use hpc_benchmarks::ior;
use mpiwasm_bench::figures::ior_figure;
use mpiwasm_bench::measure::{measure_ior, quick};
use mpiwasm_bench::write_csv;
use netsim::SystemProfile;

fn main() {
    let profile = SystemProfile::supermuc_ng();
    println!("Figure 5b — IOR on {}\n", profile.name);

    // Efficiency is measured at one rank: this host has a single core, so
    // multi-rank wall-clock phases interleave arbitrarily and measure the
    // scheduler, not the I/O path. Multi-rank correctness is covered by
    // the test suite; aggregate bandwidth scaling comes from the model.
    let np = 1;
    // Phases must be ms-scale so single-core scheduling noise does not
    // swamp the memcpy-bound measurement.
    let params = if quick() {
        ior::IorParams { block_bytes: 512 << 10, blocks: 8 }
    } else {
        ior::IorParams { block_bytes: 1 << 20, blocks: 16 }
    };
    let ((nw, nr), (ww, wr)) = measure_ior(np, params);
    let write_eff = ww / nw;
    let read_eff = wr / nr;
    println!("measured at {np} ranks, {} KiB blocks:", params.block_bytes >> 10);
    println!("  native  write {nw:>10.0} MiB/s   read {nr:>10.0} MiB/s");
    println!("  wasm    write {ww:>10.0} MiB/s   read {wr:>10.0} MiB/s");
    println!("  efficiency: write {write_eff:.3}, read {read_eff:.3}\n");

    let rows_data = ior_figure(&profile, &[1, 4, 8, 12, 16], 4, write_eff, read_eff);
    println!("  modelled 4-node aggregate bandwidth (MiB/s):");
    println!(
        "  {:>10} {:>14} {:>14} {:>14} {:>14}",
        "block MiB", "native write", "wasm write", "native read", "wasm read"
    );
    let mut rows = Vec::new();
    for r in &rows_data {
        println!(
            "  {:>10} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
            r.block_mib, r.native_write_mibs, r.wasm_write_mibs, r.native_read_mibs, r.wasm_read_mibs
        );
        rows.push(vec![
            r.block_mib.to_string(),
            format!("{:.0}", r.native_write_mibs),
            format!("{:.0}", r.wasm_write_mibs),
            format!("{:.0}", r.native_read_mibs),
            format!("{:.0}", r.wasm_read_mibs),
        ]);
    }
    println!("\n  (paper: wasm ~40206 MiB/s write, ~29411 MiB/s read — no significant wasm penalty)");
    let path = write_csv(
        "fig5b.csv",
        "block_mib,native_write,wasm_write,native_read,wasm_read",
        &rows,
    );
    println!("wrote {}", path.display());
}
