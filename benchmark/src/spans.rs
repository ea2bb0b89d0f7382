//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as Chrome-trace JSON when the workload ends.
//!
//! Spans live in `benchmark/` only: they bracket public functions of the
//! crates from outside. A span's layer is the part of its name before the
//! first `.` (`wasm.decode` → `wasm`); a name without one is its own layer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Shared by all spans of one job; 0 outside any job.
    pub job: u64,
    /// Not timed by the benchmark: placed from a duration the guest
    /// reported.
    pub synthesized: bool,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. Spans nest by call order: `enter` makes the innermost
/// open span the parent. A tracer that is off records nothing, so the
/// untraced pass runs the same code without the spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Spans entered from now on carry this job id (0 = none).
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            job: self.job,
            synthesized: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let now = self.now_us();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = now;
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Add a child of the closed span `parent` that lasts `duration_us`
    /// and ends where the parent ends (clamped to the parent's start).
    pub fn synthesize(&mut self, name: &'static str, parent: usize, duration_us: f64) {
        if !self.on {
            return;
        }
        let p = &self.spans[parent];
        let span = Span {
            name,
            start_us: (p.end_us - duration_us).max(p.start_us),
            end_us: p.end_us,
            parent: Some(parent),
            job: p.job,
            synthesized: true,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`X`) event per span, all in
    /// the trace process `pid`, which is named after the workload.
    pub fn chrome_trace(&self, workload: &str, pid: usize) -> Json {
        let process_name = Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(pid as f64)),
            ("args", Json::obj([("name", Json::str(workload))])),
        ]);
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.duration_us())),
                ("pid", Json::Num(pid as f64)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("job", Json::Num(s.job as f64)),
                        ("synthesized", Json::Bool(s.synthesized)),
                    ]),
                ),
            ])
        });
        Json::obj([
            (
                "traceEvents",
                Json::Arr(std::iter::once(process_name).chain(spans).collect()),
            ),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not double counted).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (start, end) = (
                s.start_us.max(spans[p].start_us),
                s.end_us.min(spans[p].end_us),
            );
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Self time per layer, in µs, summed over the subtrees of every span
/// named `root` (e.g. every `job`), and the total duration of those roots.
pub fn layer_self_times_us(spans: &[Span], root: &str) -> (BTreeMap<&'static str, f64>, f64) {
    let self_us = self_times_us(spans);
    // A span belongs to a root's subtree if walking its parents reaches one.
    let mut in_root = vec![false; spans.len()];
    let mut total = 0.0;
    for (id, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        in_root[id] = s.name == root || s.parent.is_some_and(|p| in_root[p]);
        if s.name == root {
            total += s.duration_us();
        }
    }
    let mut layers = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        if in_root[id] {
            *layers.entry(s.layer()).or_insert(0.0) += self_us[id];
        }
    }
    (layers, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            job: 1,
            synthesized: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("job", 0.0, 100.0, None),
            span("core.run_compiled", 10.0, 90.0, Some(0)),
            span("kernel", 30.0, 90.0, Some(1)),
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 20.0, 60.0]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("job", 0.0, 100.0, None),
            span("a.x", 10.0, 60.0, Some(0)),
            span("a.y", 40.0, 80.0, Some(0)),
            // Sticks out of the parent: only the inside part counts.
            span("a.z", 95.0, 120.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 100.0 - 70.0 - 5.0);
    }

    #[test]
    fn layer_self_times_sum_to_the_root_durations() {
        let spans = vec![
            span("setup", 0.0, 50.0, None),
            span("wasm.compile", 5.0, 45.0, Some(0)),
            span("job", 50.0, 150.0, None),
            span("core.run_compiled", 52.0, 149.0, Some(2)),
            span("kernel", 60.0, 149.0, Some(3)),
            span("job", 150.0, 250.0, None),
            span("core.run_compiled", 151.0, 250.0, Some(5)),
        ];
        let (layers, total) = layer_self_times_us(&spans, "job");
        assert_eq!(total, 200.0);
        assert!((layers.values().sum::<f64>() - total).abs() < 1e-9);
        assert_eq!(layers["kernel"], 89.0);
        assert_eq!(layers["core"], 8.0 + 99.0);
        assert_eq!(layers["job"], 3.0 + 1.0);
        assert!(!layers.contains_key("wasm"));
    }

    #[test]
    fn tracer_nests_by_call_order_and_anchors_synthesized_spans() {
        let mut t = Tracer::new(true);
        t.set_job(7);
        let job = t.enter("job");
        let run = t.span("core.run_compiled", || 1 + 1);
        assert_eq!(run, 2);
        t.exit(job);
        let run_id = 1;
        t.synthesize("kernel", run_id, 1e12);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(job));
        assert_eq!(spans[1].job, 7);
        let kernel = &spans[2];
        assert!(kernel.synthesized);
        assert_eq!(kernel.end_us, spans[run_id].end_us);
        // Clamped to the parent, never before it.
        assert_eq!(kernel.start_us, spans[run_id].start_us);
        let text = t.chrome_trace("w", 2).to_string();
        let parsed = Json::parse(&text).unwrap();
        // The process-name record plus the three spans.
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.get("pid") == Some(&Json::Num(2.0))));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("job");
        t.span("core.run", || ());
        t.exit(id);
        t.synthesize("kernel", id, 5.0);
        assert!(t.spans().is_empty());
    }
}
