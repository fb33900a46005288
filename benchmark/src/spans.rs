//! In-memory spans recorded by the harness around calls into each layer.
//!
//! A span is a name, a start, an end and the span that caused it; every
//! span of one recorder shares its workload name. Spans stay in memory for
//! the whole run and are written once, as Chrome trace events, when the
//! run ends. Lane 0 is the harness thread; lanes `1..` carry the runtime's
//! task records of one traced solve (worker `w` on lane `w + 1`), attached
//! under the harness span that caused them.

use dcst_runtime::Trace;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub lane: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder for one workload run.
pub struct Spans {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one; close it with [`exit`].
    ///
    /// [`exit`]: Spans::exit
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_us = self.now_us();
    }

    /// Run `f` inside a leaf span; returns its result and the span id.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, usize) {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        (r, id)
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    pub fn dur_ms(&self, id: usize) -> f64 {
        self.spans[id].dur_us() / 1e3
    }

    /// Attach the task records of a traced solve as children of `parent`
    /// (a closed span that covered the solve). Record times are relative
    /// to the runtime's own epoch, created just after `parent` opened;
    /// they are shifted to the parent's start and clamped into it.
    pub fn add_tasks(&mut self, parent: usize, trace: &Trace) {
        let (p0, p1) = (self.spans[parent].start_us, self.spans[parent].end_us);
        for r in &trace.records {
            let start = (p0 + r.start_us as f64).clamp(p0, p1);
            let end = (p0 + r.end_us as f64).clamp(start, p1);
            self.spans.push(Span {
                name: r.name.to_string(),
                start_us: start,
                end_us: end,
                parent: Some(parent),
                lane: r.worker as u32 + 1,
            });
        }
    }

    /// Duration of span `id` minus the part of it its children cover
    /// (overlapping children, e.g. tasks on several lanes, count once).
    pub fn self_time_us(&self, id: usize) -> f64 {
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        self.spans[id].dur_us() - covered
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span, `cat` = workload, `args` = span id and parent.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let lanes = self.spans.iter().map(|s| s.lane).max().unwrap_or(0);
        for lane in 0..=lanes {
            let label = if lane == 0 {
                "harness".to_string()
            } else {
                format!("worker {}", lane - 1)
            };
            writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
                 \"args\":{{\"name\":\"{label}\"}}}},"
            )
            .unwrap();
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                self.workload,
                s.start_us,
                s.dur_us(),
                s.lane
            )
            .unwrap();
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut sp = Spans::new("w");
        let root = sp.enter("root");
        let (_, a) = sp.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, b) = sp.time("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.exit(root);
        for id in [a, b] {
            let (c, p) = (sp.get(id), sp.get(root));
            assert_eq!(c.parent, Some(root));
            assert!(c.start_us >= p.start_us && c.end_us <= p.end_us);
        }
        let own = sp.self_time_us(root);
        assert!(own >= 0.0 && own < sp.get(root).dur_us() - 3000.0);
    }

    #[test]
    fn chrome_export_parses_and_keeps_parent_links() {
        let mut sp = Spans::new("wl");
        let root = sp.enter("root");
        sp.time("leaf", || ());
        sp.exit(root);
        let doc = dcst_runtime::jsonv::parse(&sp.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[1].get("cat").unwrap().as_str(), Some("wl"));
        assert_eq!(
            xs[1].get("args").unwrap().get("parent").unwrap().as_num(),
            Some(0.0)
        );
    }
}
