//! The figures drawn from one traced `benchmark/` run.
//!
//! `fixtures/results/` holds trimmed copies (no samples) of a real
//! `run --trace 1` output for the four workloads the figures read;
//! `fixtures/expected/` holds the CSVs drawn from it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mpiwasm_bench::traced::{Json, Measured, DT, HPCG, IMB_SMALL, IS, TRACED_RUN};
use mpiwasm_bench::{csv, emit, paper, Figure};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_metric(workload: &str, name: &str) -> f64 {
    let path = fixtures().join(format!("results/{workload}.traced.json"));
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    json.get("metrics")
        .and_then(|m| m.get(name)?.get("value")?.as_f64())
        .unwrap()
}

#[test]
fn the_figures_of_the_fixture_run_are_the_committed_csvs() {
    let m = Measured::load(&fixtures().join("results")).unwrap();
    let figures: [fn(&Measured) -> Figure; 4] =
        [paper::table1, paper::fig4, paper::fig5a, paper::fig5c];
    for figure in figures {
        let f = figure(&m);
        let expected = std::fs::read_to_string(fixtures().join("expected").join(f.name)).unwrap();
        assert_eq!(csv(&f.header, &f.rows), expected, "{}", f.name);
        // The same run draws the same figure.
        assert_eq!(
            csv(&f.header, &f.rows),
            csv(&figure(&m).header, &figure(&m).rows)
        );
    }
}

#[test]
fn the_ratios_the_figures_print_are_the_runs_guest_over_native() {
    let m = Measured::load(&fixtures().join("results")).unwrap();
    for (f, workload) in [
        (paper::fig4(&m), HPCG.name),
        (paper::fig5c(&m), HPCG.name),
        (paper::fig5a(&m), IS.name),
    ] {
        let measured = fixture_metric(workload, "benchmarks.guest_over_native_x");
        assert_eq!(f.ratios.len(), 1, "{}", f.name);
        let (printed_for, ratio) = f.ratios[0];
        assert_eq!(printed_for, workload, "{}", f.name);
        assert!(
            (ratio / measured - 1.0).abs() < 1e-12,
            "{}: {ratio} vs {measured}",
            f.name
        );
        assert!(
            f.text.contains(&format!("guest/native {ratio:.2}x")),
            "{}",
            f.name
        );
    }
}

/// A scratch copy of the fixture run, `edit` applied to one workload's
/// file (`None` deletes it).
fn broken_run(name: &str, workload: &str, edit: impl Fn(&str) -> Option<String>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpiwasm-bench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for w in [HPCG.name, IS.name, DT.name, IMB_SMALL] {
        let file = format!("{w}.traced.json");
        let text = std::fs::read_to_string(fixtures().join("results").join(&file)).unwrap();
        let text = if w == workload {
            edit(&text)
        } else {
            Some(text)
        };
        let _ = std::fs::remove_file(dir.join(&file));
        if let Some(text) = text {
            std::fs::write(dir.join(&file), text).unwrap();
        }
    }
    dir
}

#[test]
fn a_run_that_is_not_whole_is_refused_by_name_and_a_figure_exits_non_zero() {
    type Edit = fn(&str) -> Option<String>;
    let cases: [(&str, &str, &str, Edit); 5] = [
        ("missing", IS.name, "No such file", |_| None),
        ("untraced", HPCG.name, "not a traced run", |t| {
            Some(t.replace("\"traced\": true", "\"traced\": false"))
        }),
        ("incorrect", DT.name, "not correct", |t| {
            Some(t.replace("\"correct\": true", "\"correct\": false"))
        }),
        ("failed_jobs", IMB_SMALL, "jobs_failed", |t| {
            Some(t.replace("\"jobs_failed\": 0", "\"jobs_failed\": 2"))
        }),
        ("renamed_metric", IMB_SMALL, "core.translate_ns", |t| {
            Some(t.replace("core.translate_ns", "core.translation_ns"))
        }),
    ];
    for (name, workload, why, edit) in cases {
        let dir = broken_run(name, workload, edit);
        let err = Measured::load(&dir).unwrap_err();
        let file = dir.join(format!("{workload}.traced.json"));
        assert!(err.contains(&file.display().to_string()), "{name}: {err}");
        assert!(err.contains(why), "{name}: {err}");
        assert!(err.contains(TRACED_RUN), "{name}: {err}");
        assert_ne!(emit(&dir, paper::table1), ExitCode::SUCCESS, "{name}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `Spec { … }` of `workload` in `benchmark/src/workloads.rs`: its `np`
/// and the fields of its `kind`'s parameters, each as written there with
/// a `1 << k` evaluated.
fn spec_in_workloads_rs(workload: &str) -> (u32, Vec<(String, String)>) {
    let source = include_str!("../../../benchmark/src/workloads.rs");
    let start = source
        .find(&format!("name: \"{workload}\","))
        .expect("workload in workloads.rs");
    let spec = &source[start..start + source[start..].find("},\n").unwrap()];
    let line = |key: &str| {
        let at = spec
            .find(&format!("\n        {key}: "))
            .unwrap_or_else(|| panic!("{workload}: {key}"));
        let rest = &spec[at + key.len() + 11..];
        rest[..rest.find('\n').unwrap()]
            .trim_end_matches(',')
            .to_string()
    };
    let kind = line("kind");
    let fields = &kind[kind.find('{').unwrap() + 1..kind.rfind('}').unwrap()];
    let value = |v: &str| match v.split_once(" << ") {
        Some((a, b)) => (a.parse::<u32>().unwrap() << b.parse::<u32>().unwrap()).to_string(),
        None => v.to_string(),
    };
    let fields = fields
        .split(',')
        .map(|f| f.trim().split_once(": ").unwrap())
        .map(|(k, v)| (k.to_string(), value(v)))
        .collect();
    (line("np").parse().unwrap(), fields)
}

#[test]
fn the_workload_table_is_what_benchmark_runs() {
    let pairs = |fields: &[(&str, String)]| -> Vec<(String, String)> {
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    };
    let (h, i, d) = (HPCG.params, IS.params, DT.params);
    let hpcg = pairs(&[
        ("nx", h.nx.to_string()),
        ("ny", h.ny.to_string()),
        ("nz", h.nz.to_string()),
        ("iters", h.iters.to_string()),
    ]);
    let is = pairs(&[
        ("keys_per_rank", i.keys_per_rank.to_string()),
        ("max_key", i.max_key.to_string()),
        ("iters", i.iters.to_string()),
    ]);
    let dt = pairs(&[
        ("elems", d.elems.to_string()),
        ("topology", format!("Topology::{:?}", d.topology)),
        ("iters", d.iters.to_string()),
        ("simd", d.simd.to_string()),
    ]);
    assert_eq!(spec_in_workloads_rs(HPCG.name), (HPCG.np, hpcg));
    assert_eq!(spec_in_workloads_rs(IS.name), (IS.np, is));
    assert_eq!(spec_in_workloads_rs(DT.name), (DT.np, dt));
    assert!(include_str!("../../../benchmark/src/workloads.rs")
        .contains(&format!("name: \"{IMB_SMALL}\",")));
}
