//! Guest-level flight-recorder tests: the Perfetto/Chrome trace-event
//! export of a real 4-rank PingPong guest (both clock modes), a
//! differential check that tracing never changes guest-visible behavior,
//! and the `mpiwasm_stats` embedder extension.

use std::sync::Arc;

use hpc_benchmarks::guest::{layout, MpiImports, MPI_BYTE};
use hpc_benchmarks::imb::{build_guest, ImbRoutine};
use mpi_substrate::ClockMode;
use mpiwasm::{JobConfig, Runner};
use netsim::{CostModel, SystemProfile};
use obs::{Recorder, TraceClock};
use wasm_engine::dsl::*;
use wasm_engine::types::ValType;
use wasm_engine::{encode_module, ModuleBuilder, Tier};

fn virtual_mode() -> ClockMode {
    ClockMode::Virtual(CostModel::native(SystemProfile::container()))
}

fn traced_run(wasm: &[u8], np: u32, clock: ClockMode, tc: TraceClock) -> Arc<Recorder> {
    let rec = Recorder::new(np as usize, obs::DEFAULT_CAPACITY, tc);
    let result = Runner::new()
        .run(
            wasm,
            JobConfig { np, clock, recorder: Some(Arc::clone(&rec)), ..Default::default() },
        )
        .expect("job launches");
    assert!(
        result.success(),
        "{:?}",
        result.ranks.iter().filter_map(|r| r.error.clone()).collect::<Vec<_>>()
    );
    rec
}

// --- A minimal JSON validator (the container has no serde): accepts the
// --- value grammar the exporter emits, rejects truncation and bad nesting.
fn json_value(s: &[u8], mut i: usize) -> Result<usize, String> {
    let err = |i: usize, m: &str| Err(format!("offset {i}: {m}"));
    while i < s.len() && s[i].is_ascii_whitespace() {
        i += 1;
    }
    if i >= s.len() {
        return err(i, "unexpected end");
    }
    match s[i] {
        b'{' => {
            i += 1;
            loop {
                while i < s.len() && s[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < s.len() && s[i] == b'}' {
                    return Ok(i + 1);
                }
                i = json_value(s, i)?; // key
                while i < s.len() && s[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i >= s.len() || s[i] != b':' {
                    return err(i, "expected ':'");
                }
                i = json_value(s, i + 1)?;
                while i < s.len() && s[i].is_ascii_whitespace() {
                    i += 1;
                }
                match s.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok(i + 1),
                    _ => return err(i, "expected ',' or '}'"),
                }
            }
        }
        b'[' => {
            i += 1;
            loop {
                while i < s.len() && s[i].is_ascii_whitespace() {
                    i += 1;
                }
                if i < s.len() && s[i] == b']' {
                    return Ok(i + 1);
                }
                i = json_value(s, i)?;
                while i < s.len() && s[i].is_ascii_whitespace() {
                    i += 1;
                }
                match s.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok(i + 1),
                    _ => return err(i, "expected ',' or ']'"),
                }
            }
        }
        b'"' => {
            i += 1;
            while i < s.len() {
                match s[i] {
                    b'\\' => i += 2,
                    b'"' => return Ok(i + 1),
                    _ => i += 1,
                }
            }
            err(i, "unterminated string")
        }
        b't' if s[i..].starts_with(b"true") => Ok(i + 4),
        b'f' if s[i..].starts_with(b"false") => Ok(i + 5),
        b'n' if s[i..].starts_with(b"null") => Ok(i + 4),
        c if c == b'-' || c.is_ascii_digit() => {
            while i < s.len()
                && (s[i].is_ascii_digit() || matches!(s[i], b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                i += 1;
            }
            Ok(i)
        }
        _ => err(i, "unexpected character"),
    }
}

fn assert_valid_json(doc: &str) {
    let s = doc.as_bytes();
    let end = json_value(s, 0).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
    assert!(
        s[end..].iter().all(|b| b.is_ascii_whitespace()),
        "trailing garbage after JSON document"
    );
}

/// Extract the per-line event objects between `"traceEvents": [` and `]`.
fn event_lines(doc: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in doc.lines() {
        let t = line.trim();
        if t.starts_with("\"traceEvents\"") {
            inside = true;
            continue;
        }
        if inside {
            if t.starts_with(']') {
                break;
            }
            out.push(t.trim_end_matches(','));
        }
    }
    out
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"').parse().ok()
}

/// Tentpole acceptance: a 4-rank PingPong traced under both clock modes
/// yields schema-valid Chrome trace JSON with one named track per rank and
/// send→recv flow arrows.
#[test]
fn traced_pingpong_exports_perfetto_json_in_both_clock_modes() {
    let wasm = build_guest(ImbRoutine::PingPong, &[(1024, 4)]);
    for (clock, tc) in
        [(ClockMode::Real, TraceClock::Real), (virtual_mode(), TraceClock::Virtual)]
    {
        let rec = traced_run(&wasm, 4, clock, tc);
        let doc = obs::export_chrome_trace(&rec);
        assert_valid_json(&doc);
        assert!(doc.contains(&format!("\"clock\": \"{}\"", tc.name())));

        let lines = event_lines(&doc);
        assert!(!lines.is_empty(), "no trace events exported");
        for line in &lines {
            assert_valid_json(line);
        }
        // One named thread track per rank, plus the engine track.
        for r in 0..4 {
            assert!(
                lines.iter().any(|l| l.contains(&format!("\"name\":\"rank {r}\""))),
                "missing rank {r} track metadata"
            );
        }
        // The engine track only materializes when the engine logged
        // something (e.g. the watchdog firing).
        if !rec.engine_events().is_empty() {
            assert!(lines.iter().any(|l| l.contains("\"name\":\"engine\"")));
        }

        // Flow arrows: every finish ("f") has a matching start ("s").
        let ids = |ph: &str| -> Vec<u64> {
            lines
                .iter()
                .filter(|l| l.contains(&format!("\"ph\":\"{ph}\"")))
                .filter_map(|l| field_u64(l, "id"))
                .collect()
        };
        let (starts, finishes) = (ids("s"), ids("f"));
        assert!(!starts.is_empty(), "PingPong trace has no send flow events");
        assert!(!finishes.is_empty(), "PingPong trace has no recv flow events");
        for f in &finishes {
            assert!(starts.contains(f), "flow finish {f} has no start");
        }
        // Send slices ("X") exist and dropped counts are surfaced.
        assert!(lines.iter().any(|l| l.contains("\"ph\":\"X\"")));
        assert!(doc.contains("\"dropped_events\": 0"));
    }
}

/// Differential: the same guest run with tracing on, off, and absent is
/// byte-identical in guest-visible results and virtual completion times.
#[test]
fn tracing_is_invisible_to_the_guest() {
    let wasm = build_guest(ImbRoutine::Allreduce, &[(512, 3)]);
    let run = |recorder: Option<Arc<Recorder>>| {
        let result = Runner::new()
            .run(
                &wasm,
                JobConfig { np: 4, clock: virtual_mode(), recorder, ..Default::default() },
            )
            .expect("job launches");
        assert!(result.success());
        result
            .ranks
            .iter()
            .map(|r| (r.stdout.clone(), r.reports.clone(), r.virtual_time_us))
            .collect::<Vec<_>>()
    };

    let plain = run(None);
    let traced = run(Some(Recorder::new(4, obs::DEFAULT_CAPACITY, TraceClock::Virtual)));
    let off_rec = Recorder::new(4, obs::DEFAULT_CAPACITY, TraceClock::Virtual);
    off_rec.set_enabled(false);
    let disabled = run(Some(off_rec));

    assert_eq!(plain, traced, "tracing changed guest-visible behavior");
    assert_eq!(plain, disabled, "a disabled recorder changed guest-visible behavior");
}

/// Satellite: guests can read this rank's protocol counters through the
/// `mpiwasm_stats` host call and assert protocol behavior from inside.
#[test]
fn guest_reads_protocol_stats_through_mpiwasm_stats() {
    const STATS_PTR: i32 = layout::SCRATCH + 64;
    let mut b = ModuleBuilder::new();
    b.memory(4, None);
    let mpi = MpiImports::declare(&mut b);
    b.func("_start", vec![], vec![], |f| {
        let rank = Var::new(f, ValType::I32);
        let written = Var::new(f, ValType::I32);
        let mut body = vec![mpi.init()];
        body.extend(mpi.load_rank(layout::SCRATCH, rank));
        // Rank 0 sends 1 KiB to rank 1 (eager path).
        body.push(if_else(
            rank.get().eq(int(0)),
            &[mpi.send(int(layout::HEAP), int(1024), MPI_BYTE, int(1), int(5))],
            &[mpi.recv(int(layout::HEAP), int(1024), MPI_BYTE, int(0), int(5))],
        ));
        body.push(mpi.barrier_world());
        body.push(mpi.stats(int(STATS_PTR), int(64), written));
        // Report bytes written and the first word (eager_messages).
        body.push(mpi.report(int(1), written.get().to(ValType::F64)));
        body.push(
            mpi.report(int(2), int(STATS_PTR).load(ValType::I64, 0).to(ValType::F64)),
        );
        body.push(mpi.finalize());
        emit_block(f, &body);
    });
    let module = b.finish();
    wasm_engine::validate_module(&module).unwrap();
    let wasm = encode_module(&module);

    let result = Runner::new()
        .run(&wasm, JobConfig { np: 2, tier: Tier::Max, ..Default::default() })
        .expect("job launches");
    assert!(
        result.success(),
        "{:?}",
        result.ranks.iter().filter_map(|r| r.error.clone()).collect::<Vec<_>>()
    );
    for r in &result.ranks {
        let bytes = r.reports.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert_eq!(bytes, 64.0, "rank {}: snapshot is 8 LE u64 words", r.rank);
    }
    // eager_messages is a world-level counter: both ranks see the 1 KiB
    // eager send (plus barrier token traffic).
    let eager = result.ranks[0].reports.iter().find(|(k, _)| *k == 2).unwrap().1;
    assert!(eager >= 1.0, "expected at least one eager message, saw {eager}");
}
