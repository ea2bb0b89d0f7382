//! Figure 6: datatype-translation overhead in the embedder's Send path,
//! per MPI datatype and message size — measured directly from the
//! instrumented embedder running the custom datatype PingPong of §4.6.

use hpc_benchmarks::fig6::{build_guest, figure6_datatypes, figure6_sizes};
use mpiwasm::{JobConfig, Runner};
use mpiwasm_bench::measure::quick;
use mpiwasm_bench::write_csv;

fn main() {
    println!("Figure 6 — datatype translation overhead (ns) in the Send path\n");
    let iters = if quick() { 30 } else { 300 };
    let sizes = figure6_sizes();
    let wasm = build_guest(&sizes, iters);
    let result = Runner::new()
        .run(&wasm, JobConfig { np: 2, instrument: true, ..Default::default() })
        .expect("fig6 probe");
    assert!(result.success(), "{:?}", result.ranks[0].error);
    let stats = result.merged_stats();

    print!("{:>20}", "datatype \\ bytes");
    for s in &sizes {
        print!(" {:>9}", s);
    }
    println!();
    let mut rows = Vec::new();
    for (_, dt, name) in figure6_datatypes() {
        print!("{name:>20}");
        let mut row = vec![name.to_string()];
        for &s in &sizes {
            let mean = stats.mean_ns(dt, s).unwrap_or(f64::NAN);
            print!(" {mean:>9.1}");
            row.push(format!("{mean:.2}"));
        }
        println!();
        rows.push(row);
    }

    println!("\nmean across all sizes:");
    for (_, dt, name) in figure6_datatypes() {
        println!(
            "  {:>12}: {:>8.2} ns",
            name,
            stats.mean_ns_all_sizes(dt).unwrap_or(f64::NAN)
        );
    }
    println!("\n(paper: 85.44/84.72/99.78/96.32/103.35/104.79 ns for");
    println!(" BYTE/CHAR/INT/FLOAT/DOUBLE/LONG on Skylake-SP; our numbers are the");
    println!(" measured cost of this embedder's translation path on this host)");

    let header = {
        let mut h = String::from("datatype");
        for s in &sizes {
            h.push(',');
            h.push_str(&s.to_string());
        }
        h
    };
    let path = write_csv("fig6.csv", &header, &rows);
    println!("wrote {}", path.display());
}
