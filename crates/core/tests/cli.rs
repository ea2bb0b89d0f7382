//! Integration tests for the `mpiwasm` CLI binary (the paper's Listing 4
//! interface).

use std::path::PathBuf;
use std::process::Command;

use mpiwasm::handles;
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder};

fn mpiwasm_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mpiwasm")
}

/// A self-contained guest: prints "rank <r> of <n>\n" on every rank and
/// exits with code 0.
fn build_hello() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("cli-hello");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let comm_size = b.import_func("env", "MPI_Comm_size", vec![I32; 2], vec![I32]);
    let finalize = b.import_func("env", "MPI_Finalize", vec![], vec![I32]);
    let fd_write =
        b.import_func("wasi_snapshot_preview1", "fd_write", vec![I32; 4], vec![I32]);
    b.data(512, b"rank ? of ?\n".to_vec());
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let size = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(ValType::I32, 0)),
            call_drop(comm_size, vec![int(0), int(16)]),
            size.set(int(16).load(ValType::I32, 0)),
            // Patch the digits into the template (single digits suffice).
            store_u8(int(512), 5, int('0' as i32) + rank.get()),
            store_u8(int(512), 10, int('0' as i32) + size.get()),
            store(int(64), 0, int(512)),
            store(int(64), 4, int(12)),
            call_drop(fd_write, vec![int(1), int(64), int(1), int(32)]),
            call_drop(finalize, vec![]),
        ]);
    });
    encode_module(&b.finish())
}

fn write_module(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mpiwasm-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

#[test]
fn runs_hello_on_three_ranks() {
    let module = write_module("hello.wasm", &build_hello());
    let out = Command::new(mpiwasm_bin())
        .args(["-np", "3", "-quiet"])
        .arg(&module)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&module).ok();
}

#[test]
fn echoes_guest_stdout_by_default() {
    let module = write_module("echo.wasm", &build_hello());
    let out = Command::new(mpiwasm_bin()).args(["-np", "2"]).arg(&module).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rank 0 of 2"), "{stdout}");
    assert!(stdout.contains("rank 1 of 2"), "{stdout}");
    std::fs::remove_file(&module).ok();
}

#[test]
fn cache_flag_reports_hit_on_second_run() {
    let module = write_module("cached.wasm", &build_hello());
    let cache_dir =
        std::env::temp_dir().join(format!("mpiwasm-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = || {
        Command::new(mpiwasm_bin())
            .args(["-np", "1", "-cache"])
            .arg(&cache_dir)
            .arg(&module)
            .output()
            .unwrap()
    };
    let first = run();
    assert!(first.status.success());
    assert!(!String::from_utf8_lossy(&first.stderr).contains("cache hit"));
    let second = run();
    assert!(second.status.success());
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("cache hit"),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    std::fs::remove_file(&module).ok();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn closing_line_splits_an_uncached_prepare_and_metrics_carry_the_split() {
    let module = write_module("split.wasm", &build_hello());
    let cache_dir =
        std::env::temp_dir().join(format!("mpiwasm-cli-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = |extra: &[&std::ffi::OsStr]| {
        let out = Command::new(mpiwasm_bin())
            .args(["-np", "1", "--metrics"])
            .args(extra)
            .arg(&module)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    // `prepare P ms (decode D + validate V; L/T functions lowered)`.
    let (stdout, stderr) = run(&[]);
    let line = stderr.lines().find(|l| l.contains("prepare ")).expect(&stderr);
    let number_after = |key: &str| -> f64 {
        let rest = &line[line.find(key).unwrap_or_else(|| panic!("{key:?} in {line:?}")) + key.len()..];
        let end = rest.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(rest.len());
        rest[..end].parse().unwrap_or_else(|_| panic!("a number after {key:?} in {line:?}"))
    };
    let (prepare, decode, validate) =
        (number_after("prepare "), number_after("(decode "), number_after(" + validate "));
    // Each figure is rounded to 0.1 ms on its own.
    assert!(decode + validate <= prepare + 0.2, "{line}");
    assert!(line.ends_with("functions lowered)"), "{line}");
    for row in ["wasm.decode_us", "wasm.validate_us", "wasm.funcs_lowered"] {
        assert!(stdout.lines().any(|l| l.starts_with(row)), "{row} missing from:\n{stdout}");
    }

    // A cache hit or miss is one step: no split, no rows.
    let (stdout, stderr) = run(&["-cache".as_ref(), cache_dir.as_os_str()]);
    let line = stderr.lines().find(|l| l.contains("prepare ")).expect(&stderr);
    assert!(!line.contains("decode") && !line.contains("validate"), "{line}");
    assert!(!stdout.contains("wasm.decode_us"), "{stdout}");

    std::fs::remove_file(&module).ok();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A guest with real p2p traffic: rank 0 sends 64 bytes to rank 1.
fn build_pingpong() -> Vec<u8> {
    use ValType::I32;
    let mut b = ModuleBuilder::new();
    b.name("cli-pingpong");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let send = b.import_func("env", "MPI_Send", vec![I32; 6], vec![I32]);
    let recv = b.import_func("env", "MPI_Recv", vec![I32; 7], vec![I32]);
    let finalize = b.import_func("env", "MPI_Finalize", vec![], vec![I32]);
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(ValType::I32, 0)),
            // MPI_BYTE handle is 0, as is COMM_WORLD; ignore status.
            if_else(
                rank.get().eq(int(0)),
                &[call_drop(send, vec![int(1024), int(64), int(0), int(1), int(9), int(0)])],
                &[call_drop(
                    recv,
                    vec![int(2048), int(64), int(0), int(0), int(9), int(0), int(128)],
                )],
            ),
            call_drop(finalize, vec![]),
        ]);
    });
    encode_module(&b.finish())
}

#[test]
fn trace_flag_writes_chrome_json_and_metrics_prints_table() {
    let module = write_module("traced.wasm", &build_pingpong());
    for clock in ["real", "virtual"] {
        let trace_path = std::env::temp_dir()
            .join(format!("mpiwasm-cli-trace-{}-{clock}.json", std::process::id()));
        let out = Command::new(mpiwasm_bin())
            .args(["-np", "2", "-quiet", "--clock", clock, "--metrics", "--trace"])
            .arg(&trace_path)
            .arg(&module)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "clock {clock} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&trace_path).unwrap();
        assert!(doc.contains("\"traceEvents\": ["), "{clock}: {doc}");
        assert!(doc.contains("\"name\":\"rank 0\""), "{clock}: missing rank track");
        assert!(doc.contains("\"name\":\"rank 1\""), "{clock}: missing rank track");
        assert!(doc.contains("\"ph\":\"s\""), "{clock}: no flow start");
        assert!(doc.contains("\"ph\":\"f\""), "{clock}: no flow finish");
        assert!(doc.contains(&format!("\"clock\": \"{clock}\"")));

        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("mpi.eager_messages"), "{clock}: {stdout}");
        assert!(stdout.contains("trace.events"), "{clock}: {stdout}");
        std::fs::remove_file(&trace_path).ok();
    }
    std::fs::remove_file(&module).ok();
}

/// Every rank allreduces 64 KiB of `MPI_INT` — element `i` is
/// `i * (rank + 1)` — and exits 0 only if every element of the result is
/// the exact four-rank sum `10 * i`.
fn build_allreduce() -> Vec<u8> {
    use ValType::I32;
    const COUNT: i32 = 16 << 10;
    const SEND: i32 = 64 << 10;
    const RECV: i32 = 128 << 10;
    let mut b = ModuleBuilder::new();
    b.name("cli-allreduce");
    b.memory(4, None);
    let init = b.import_func("env", "MPI_Init", vec![I32; 2], vec![I32]);
    let comm_rank = b.import_func("env", "MPI_Comm_rank", vec![I32; 2], vec![I32]);
    let allreduce = b.import_func("env", "MPI_Allreduce", vec![I32; 6], vec![I32]);
    let proc_exit = b.import_func("wasi_snapshot_preview1", "proc_exit", vec![I32], vec![]);
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, I32);
        let i = Var::new(f, I32);
        let wrong = Var::new(f, I32);
        emit_block(f, &[
            call_drop(init, vec![int(0), int(0)]),
            call_drop(comm_rank, vec![int(0), int(16)]),
            rank.set(int(16).load(I32, 0)),
            for_range(i, int(0), int(COUNT), &[store(
                int(SEND) + i.get() * int(4),
                0,
                i.get() * (rank.get() + int(1)),
            )]),
            wrong.set(call(
                allreduce,
                vec![
                    int(SEND),
                    int(RECV),
                    int(COUNT),
                    int(handles::MPI_INT),
                    int(handles::MPI_SUM),
                    int(handles::MPI_COMM_WORLD),
                ],
                I32,
            )),
            for_range(i, int(0), int(COUNT), &[if_then(
                (int(RECV) + i.get() * int(4)).load(I32, 0).ne(i.get() * int(10)),
                &[wrong.set(int(1))],
            )]),
            call_stmt(proc_exit, vec![wrong.get()]),
        ]);
    });
    encode_module(&b.finish())
}

/// A guest's blocking collective runs the schedule the tuning table
/// selects — here forced through the environment, in a subprocess so the
/// variable cannot race other tests — and its trace span names it.
#[test]
fn forced_allreduce_schedule_reaches_guests_and_the_trace_names_it() {
    let module = write_module("allreduce.wasm", &build_allreduce());
    for algo in ["rabenseifner", "recursive-doubling"] {
        let trace_path = std::env::temp_dir()
            .join(format!("mpiwasm-cli-forced-{}-{algo}.json", std::process::id()));
        let out = Command::new(mpiwasm_bin())
            .env("MPIWASM_COLL_ALLREDUCE", algo)
            .args(["-np", "4", "-quiet", "--trace"])
            .arg(&trace_path)
            .arg(&module)
            .output()
            .unwrap();
        // Exit 0: all four ranks verified all 16 Ki sums, under either
        // schedule.
        assert!(
            out.status.success(),
            "{algo} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(&trace_path).unwrap();
        let begins: Vec<&str> = doc
            .lines()
            .filter(|l| l.contains("\"name\":\"allreduce\"") && l.contains("\"ph\":\"b\""))
            .collect();
        assert_eq!(begins.len(), 4, "{algo}: one allreduce span per rank");
        for begin in begins {
            assert!(begin.contains(&format!("\"algorithm\":\"{algo}\"")), "{algo}: {begin}");
        }
        std::fs::remove_file(&trace_path).ok();
    }
    std::fs::remove_file(&module).ok();
}

#[test]
fn bad_usage_exits_2() {
    let out = Command::new(mpiwasm_bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = Command::new(mpiwasm_bin()).args(["-np", "zero", "x.wasm"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// `-tier` names the three tiers (or the paper's backends); `max+jit`,
/// which ran exactly as `max`, is not one of them.
#[test]
fn an_alias_tier_is_unknown() {
    for tier in ["max+jit", "maxjit"] {
        let out = Command::new(mpiwasm_bin()).args(["-tier", tier, "x.wasm"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{tier}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown tier"), "{tier}");
    }
}

#[test]
fn missing_module_exits_1() {
    let out = Command::new(mpiwasm_bin()).arg("/nonexistent/app.wasm").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn trapping_guest_exits_nonzero_with_rank_report() {
    // A guest that hits unreachable on rank 0.
    let mut b = ModuleBuilder::new();
    b.memory(1, None);
    b.func("_start", vec![], vec![], |f| {
        f.unreachable();
    });
    let module = write_module("trap.wasm", &encode_module(&b.finish()));
    let out = Command::new(mpiwasm_bin()).args(["-np", "1", "-quiet"]).arg(&module).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("trapped"));
    std::fs::remove_file(&module).ok();
}

#[test]
fn host_dir_preopen_via_d_flag() {
    // Guest writes a file into the preopened directory.
    use ValType::{I32, I64};
    let mut b = ModuleBuilder::new();
    b.memory(4, None);
    let path_open = b.import_func(
        "wasi_snapshot_preview1",
        "path_open",
        vec![I32, I32, I32, I32, I32, I64, I64, I32, I32],
        vec![I32],
    );
    let fd_write =
        b.import_func("wasi_snapshot_preview1", "fd_write", vec![I32; 4], vec![I32]);
    b.data(512, b"out.txt".to_vec());
    b.data(600, b"written-from-wasm".to_vec());
    b.func("_start", vec![], vec![], |f| {
        emit_block(f, &[
            call_drop(path_open, vec![
                int(3), int(0), int(512), int(7),
                int(1 /* CREAT */),
                long(1 << 6 | 1 << 1), long(0), int(0), int(16),
            ]),
            store(int(64), 0, int(600)),
            store(int(64), 4, int(17)),
            call_drop(fd_write, vec![
                int(16).load(ValType::I32, 0), int(64), int(1), int(32),
            ]),
        ]);
    });
    let module = write_module("io.wasm", &encode_module(&b.finish()));
    let dir = std::env::temp_dir().join(format!("mpiwasm-cli-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(mpiwasm_bin())
        .args(["-np", "1", "-quiet", "-d"])
        .arg(&dir)
        .arg(&module)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let contents = std::fs::read_to_string(dir.join("out.txt")).unwrap();
    assert_eq!(contents, "written-from-wasm");
    std::fs::remove_file(&module).ok();
    let _ = std::fs::remove_dir_all(&dir);
}
