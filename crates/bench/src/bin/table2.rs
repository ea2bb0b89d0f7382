//! Table 2: binary sizes — "native dynamically linked" vs "statically
//! linked" vs Wasm — for the five benchmark applications.
//!
//! Size analogs (a substitution: there is no native toolchain here, so
//! the engine's own artifacts stand in for the paper's binaries):
//! * **Wasm** — the actual bytes of the generated module,
//! * **native dynamic** — the compiled-code artifact for the application
//!   alone (the engine's cache artifact minus the embedded module copy),
//!   i.e. code that links against a shared runtime. Since artifact
//!   VERSION 4 that is the register code the engine executes, as stored —
//!   the faithful analog of a shared object,
//! * **native static** — the application artifact plus the runtime image
//!   every static binary must carry (measured as this harness binary,
//!   which statically contains the MPI substrate, engine and WASI layer —
//!   the `libmpi.a`/`libc.a` analog).

use hpc_benchmarks::{hpcg, imb, ior, npb_dt, npb_is};
use mpiwasm::cache::store_artifact;
use mpiwasm_bench::write_csv;
use wasm_engine::runtime::CompiledModule;
use wasm_engine::Tier;

fn main() {
    let builders: Vec<(&str, fn() -> Vec<u8>)> = vec![
        ("Intel MPI Benchmarks", || {
            imb::build_guest(
                imb::ImbRoutine::Allreduce,
                &hpc_benchmarks::imb_message_sizes()
                    .iter()
                    .map(|&b| (b, 10))
                    .collect::<Vec<_>>(),
            )
        }),
        ("HPCG", || hpcg::build_guest(hpcg::HpcgParams::default())),
        ("IOR", || ior::build_guest(ior::IorParams::default())),
        ("IS", || npb_is::build_guest(npb_is::IsParams::default())),
        ("DT", || {
            npb_dt::build_guest(npb_dt::DtParams { simd: true, ..Default::default() })
        }),
    ];
    let apps: Vec<(&str, Vec<u8>)> =
        builders.into_iter().map(|(name, build)| (name, build())).collect();

    let runtime_image = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| m.len())
        .unwrap_or(16 << 20);

    println!("Table 2 — binary sizes (KiB unless noted)");
    println!("(dynamic = the serialized register code the engine executes)");
    println!(
        "{:<24} {:>16} {:>18} {:>12} {:>14}",
        "Application", "Dynamic (KiB)", "Static (MiB)", "Wasm (KiB)", "static/wasm"
    );
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (name, wasm_bytes) in &apps {
        let module = wasm_engine::decode_module(wasm_bytes).unwrap();
        let compiled = CompiledModule::compile(module, Tier::Max).unwrap();
        let artifact = store_artifact(wasm_bytes, &compiled);
        let dynamic = (artifact.len() - wasm_bytes.len()) as f64;
        let static_size = dynamic + runtime_image as f64;
        let wasm = wasm_bytes.len() as f64;
        let ratio = static_size / wasm;
        ratios.push(ratio);
        println!(
            "{:<24} {:>16.1} {:>18.2} {:>12.2} {:>13.1}x",
            name,
            dynamic / 1024.0,
            static_size / (1 << 20) as f64,
            wasm / 1024.0,
            ratio
        );
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", dynamic),
            format!("{:.0}", static_size),
            format!("{:.0}", wasm),
            format!("{:.1}", ratio),
        ]);
    }
    let gm = mpiwasm_bench::geometric_mean(&ratios);
    println!("\nstatically-linked binaries are {gm:.1}x larger than Wasm on average");
    println!("(paper: 139.5x; ordering static >> wasm reproduced structurally)");
    let path = write_csv(
        "table2.csv",
        "application,dynamic_bytes,static_bytes,wasm_bytes,static_over_wasm",
        &rows,
    );
    println!("wrote {}", path.display());
}
