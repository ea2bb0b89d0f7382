//! Chrome trace-event JSON exporter (the format Perfetto and
//! `chrome://tracing` load).
//!
//! Layout: one process (`mpiwasm`), one thread track per rank plus an
//! `engine` track for the watchdog. P2p activity exports as `X`
//! (complete) slices; each send/recv pair shares a flow id emitted as
//! `s`/`f` events, which Perfetto renders as an arrow from the send slice
//! on the sender's track to the recv slice on the receiver's track.
//! Collectives export as async `b`/`e` spans keyed by their instance id so
//! overlapping nonblocking collectives stay distinct. Dropped-event counts
//! appear both in `otherData` and as instant events on the affected track,
//! so a truncated trace says so on the timeline itself.
//!
//! The writer emits exactly one JSON object per line between the
//! `"traceEvents": [` and `]` lines — the schema tests lean on that.

use std::io::{self, Write};

use crate::event::{Event, EventKind};
use crate::Recorder;

/// Export the recorder's contents as a Chrome trace-event JSON string.
pub fn export_chrome_trace(rec: &Recorder) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(rec, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// Stream the recorder's contents as Chrome trace-event JSON.
pub fn write_chrome_trace(rec: &Recorder, w: &mut dyn Write) -> io::Result<()> {
    let n_ranks = rec.n_ranks();
    let engine_tid = n_ranks;

    // Per-rank snapshots, sorted by timestamp (stable: emission order
    // breaks ties, which preserves causality for equal virtual times).
    let mut tracks: Vec<Vec<Event>> = (0..n_ranks).map(|r| rec.rank_events(r)).collect();
    for t in &mut tracks {
        t.sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).unwrap_or(std::cmp::Ordering::Equal));
    }
    let engine = rec.engine_events();

    // Index send completions so the send slice can span start→done.
    let mut done_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for t in &tracks {
        for e in t {
            if let EventKind::SendDone { flow, .. } = e.kind {
                done_ts.insert(flow, e.ts_us);
            }
        }
    }

    let mut lines: Vec<String> = Vec::new();

    // Track metadata: process and per-rank thread names.
    lines.push(meta_line("process_name", 0, "mpiwasm"));
    for r in 0..n_ranks {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\"args\":{{\"name\":\"rank {r}\"}}}}"
        ));
    }
    if !engine.is_empty() {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{engine_tid},\"args\":{{\"name\":\"engine\"}}}}"
        ));
    }

    for (rank, t) in tracks.iter().enumerate() {
        for e in t {
            emit_event(&mut lines, rank, e, &done_ts);
        }
        let dropped = rec.dropped(rank);
        if dropped > 0 {
            let ts = t.last().map(|e| e.ts_us).unwrap_or(0.0);
            lines.push(format!(
                "{{\"name\":\"events dropped\",\"cat\":\"trace\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{rank},\"args\":{{\"count\":{dropped}}}}}",
                fmt_ts(ts)
            ));
        }
    }
    for e in &engine {
        // The engine track renders through the same per-event emitter (the
        // watchdog lands here).
        emit_event(&mut lines, engine_tid, e, &done_ts);
    }

    writeln!(w, "{{")?;
    writeln!(w, "\"traceEvents\": [")?;
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        writeln!(w, "{line}{comma}")?;
    }
    writeln!(w, "],")?;
    writeln!(w, "\"displayTimeUnit\": \"ms\",")?;
    let mut other = format!(
        "\"otherData\": {{\"clock\": \"{}\", \"ranks\": {}, \"dropped_events\": {}",
        rec.clock().name(),
        n_ranks,
        rec.total_dropped()
    );
    for (key, value) in rec.annotations() {
        other.push_str(&format!(", \"{}\": \"{}\"", json_escape(&key), json_escape(&value)));
    }
    other.push('}');
    writeln!(w, "{other}")?;
    writeln!(w, "}}")?;
    Ok(())
}

/// Minimal JSON string escaping for annotation keys/values.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn meta_line(name: &str, pid: u32, value: &str) -> String {
    format!("{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{value}\"}}}}")
}

/// Format a µs timestamp with ns precision (Chrome ts unit is µs).
fn fmt_ts(ts: f64) -> String {
    format!("{ts:.3}")
}

fn emit_event(
    lines: &mut Vec<String>,
    rank: usize,
    e: &Event,
    done_ts: &std::collections::HashMap<u64, f64>,
) {
    let ts = fmt_ts(e.ts_us);
    match e.kind {
        EventKind::SendStart { peer, tag, bytes, protocol, matched_posted, flow } => {
            // Sends with a recorded completion (rendezvous/deferred) span
            // start→done; fire-and-forget eager sends get a nominal width
            // so the slice is visible and can anchor the flow arrow.
            let dur = done_ts
                .get(&flow)
                .map(|d| (d - e.ts_us).max(0.1))
                .unwrap_or(0.1);
            let matched = if matched_posted { "posted" } else { "queued" };
            lines.push(format!(
                "{{\"name\":\"send \\u2192{peer}\",\"cat\":\"p2p\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":0,\"tid\":{rank},\"args\":{{\"protocol\":\"{}\",\"bytes\":{bytes},\"tag\":{tag},\"match\":\"{matched}\",\"flow\":{flow}}}}}",
                fmt_ts(dur),
                protocol.name()
            ));
            if flow != 0 {
                lines.push(format!(
                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{flow},\"ts\":{ts},\"pid\":0,\"tid\":{rank}}}"
                ));
            }
        }
        EventKind::SendDone { peer, flow } => {
            // The span is folded into the SendStart slice; keep a thin
            // marker so sender-side completion order stays visible.
            lines.push(format!(
                "{{\"name\":\"send-complete \\u2192{peer}\",\"cat\":\"p2p\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"flow\":{flow}}}}}"
            ));
        }
        EventKind::RecvPost { peer, tag } => {
            lines.push(format!(
                "{{\"name\":\"recv-post\",\"cat\":\"p2p\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"src\":{peer},\"tag\":{tag}}}}}"
            ));
        }
        EventKind::RecvDone { peer, tag, bytes, protocol, flow } => {
            lines.push(format!(
                "{{\"name\":\"recv \\u2190{peer}\",\"cat\":\"p2p\",\"ph\":\"X\",\"ts\":{ts},\"dur\":0.100,\"pid\":0,\"tid\":{rank},\"args\":{{\"protocol\":\"{}\",\"bytes\":{bytes},\"tag\":{tag},\"flow\":{flow}}}}}",
                protocol.name()
            ));
            if flow != 0 {
                lines.push(format!(
                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{flow},\"ts\":{ts},\"pid\":0,\"tid\":{rank}}}"
                ));
            }
        }
        EventKind::CollBegin { kind, algo, id } => {
            lines.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"coll\",\"ph\":\"b\",\"id\":{id},\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"algorithm\":\"{}\"}}}}",
                kind.name(),
                algo.name()
            ));
        }
        EventKind::CollRound { kind, round, id } => {
            lines.push(format!(
                "{{\"name\":\"{} round {round}\",\"cat\":\"coll\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"id\":{id}}}}}",
                kind.name()
            ));
        }
        EventKind::CollEnd { kind, id } => {
            lines.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"coll\",\"ph\":\"e\",\"id\":{id},\"ts\":{ts},\"pid\":0,\"tid\":{rank}}}",
                kind.name()
            ));
        }
        EventKind::ReqTransition { req, state } => {
            lines.push(format!(
                "{{\"name\":\"req\\u2192{}\",\"cat\":\"request\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"req\":{req}}}}}",
                state.name()
            ));
        }
        EventKind::RankFailed { rank: failed } => {
            // Process-scoped instant ("s":"p") so the failure is visible
            // from any zoom level, anchored on the failed rank's track.
            lines.push(format!(
                "{{\"name\":\"RANK {failed} FAILED\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"rank\":{failed}}}}}"
            ));
        }
        EventKind::WatchdogFired { stalled_us } => {
            lines.push(format!(
                "{{\"name\":\"WATCHDOG\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"stalled_us\":{}}}}}",
                fmt_ts(stalled_us)
            ));
        }
        EventKind::FuelExhausted { rank: victim } => {
            lines.push(format!(
                "{{\"name\":\"fuel exhausted\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\"tid\":{rank},\"args\":{{\"rank\":{victim}}}}}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Algorithm, CollKind, Protocol};
    use crate::TraceClock;

    #[test]
    fn export_shape_has_tracks_flows_and_metadata() {
        let rec = Recorder::new(2, 16, TraceClock::Virtual);
        let flow = rec.next_flow();
        rec.emit(0, 1.0, EventKind::SendStart {
            peer: 1,
            tag: 5,
            bytes: 64,
            protocol: Protocol::Eager,
            matched_posted: true,
            flow,
        });
        rec.emit(1, 0.5, EventKind::RecvPost { peer: 0, tag: 5 });
        rec.emit(1, 2.0, EventKind::RecvDone {
            peer: 0,
            tag: 5,
            bytes: 64,
            protocol: Protocol::Eager,
            flow,
        });
        rec.emit(0, 3.0, EventKind::CollBegin {
            kind: CollKind::Allreduce,
            algo: Algorithm::RecursiveDoubling,
            id: 9,
        });
        rec.emit(0, 4.0, EventKind::CollEnd { kind: CollKind::Allreduce, id: 9 });

        let json = export_chrome_trace(&rec);
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        assert!(json.contains(&format!("\"id\":{flow}")));
        assert!(json.contains("recursive-doubling"));
        assert!(json.contains("\"clock\": \"virtual\""));
        assert!(json.contains("\"dropped_events\": 0"));
        // Every traceEvents line parses as a single self-contained object.
        let body: Vec<&str> = json
            .lines()
            .skip_while(|l| !l.starts_with("\"traceEvents\""))
            .skip(1)
            .take_while(|l| !l.starts_with(']'))
            .collect();
        assert!(body.len() >= 7);
        for line in body {
            let line = line.trim_end_matches(',');
            assert!(line.starts_with('{') && line.ends_with('}'), "bad line: {line}");
        }
    }

    #[test]
    fn dropped_events_surface_on_the_timeline() {
        let rec = Recorder::new(1, 2, TraceClock::Real);
        for i in 0..5 {
            rec.emit(0, i as f64, EventKind::RecvPost { peer: 0, tag: i });
        }
        let json = export_chrome_trace(&rec);
        assert!(json.contains("events dropped"));
        assert!(json.contains("\"dropped_events\": 3"));
    }
}
