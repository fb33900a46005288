//! Execution traces: one record per executed task (Figures 3 and 4).
//!
//! A [`Trace`] is the flat record list plus the dependency edges observed
//! at submission time, with exporters for the paper-style SVG timeline,
//! an ASCII stand-in, the Chrome trace-event format
//! ([`Trace::to_chrome_json`], the machine-readable one) that
//! `chrome://tracing` and Perfetto load directly — tasks as complete events on one lane per
//! worker, dependency edges as flow arrows — and the task graph itself in
//! Graphviz DOT ([`Trace::to_dot`], Figure 2).

/// Timing record for one executed task.
#[derive(Clone, Copy, Debug)]
pub struct TaskRecord {
    /// Submission id of the task (matches [`Trace::edges`] endpoints).
    pub id: usize,
    /// Kernel name as given at submission (`LAED4`, `UpdateVect`, ...).
    pub name: &'static str,
    /// Worker thread that executed the task.
    pub worker: usize,
    /// Start time in microseconds since the runtime epoch.
    pub start_us: u64,
    /// End time in microseconds since the runtime epoch.
    pub end_us: u64,
}

/// A collected execution trace.
#[derive(Clone, Debug)]
pub struct Trace {
    pub records: Vec<TaskRecord>,
    /// Dependency edges `(predecessor id, successor id)` inferred at
    /// submission while tracing was enabled.
    pub edges: Vec<(usize, usize)>,
    pub num_workers: usize,
}

/// Per-kernel aggregate used in textual trace summaries.
#[derive(Clone, Debug)]
pub struct KernelStat {
    pub name: &'static str,
    pub count: usize,
    pub total_us: u64,
}

/// One worker's activity profile inside the traced span
/// ([`Trace::worker_timelines`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTimeline {
    /// Worker id (lane index).
    pub worker: usize,
    /// Tasks this worker executed.
    pub tasks: usize,
    /// Time spent inside task bodies, in microseconds.
    pub busy_us: u64,
    /// Idle time inside the traced span (makespan − busy), in microseconds.
    pub idle_us: u64,
    /// Idle gaps: before the first task, between tasks, after the last.
    pub gaps: usize,
    /// Longest single idle gap, in microseconds.
    pub largest_gap_us: u64,
}

/// Index of `name` among the kernels seen so far, appending it when new:
/// the figures color kernels in order of first appearance.
fn kernel_index(seen: &mut Vec<&'static str>, name: &'static str) -> usize {
    seen.iter().position(|n| *n == name).unwrap_or_else(|| {
        seen.push(name);
        seen.len() - 1
    })
}

impl Trace {
    /// Wall-clock span covered by the trace, in microseconds.
    pub fn makespan_us(&self) -> u64 {
        let start = self.records.iter().map(|r| r.start_us).min().unwrap_or(0);
        let end = self.records.iter().map(|r| r.end_us).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Total busy time across all workers, in microseconds.
    pub fn busy_us(&self) -> u64 {
        self.records.iter().map(|r| r.end_us - r.start_us).sum()
    }

    /// Fraction of worker time spent idle inside the traced span, clamped
    /// to [0, 1]: microsecond rounding of `start_us`/`end_us` can push the
    /// summed busy time past `makespan × workers`, which would otherwise
    /// surface as a (nonsense) negative idle fraction.
    pub fn idle_fraction(&self) -> f64 {
        let span = self.makespan_us() * self.num_workers as u64;
        if span == 0 {
            return 0.0;
        }
        (1.0 - self.busy_us() as f64 / span as f64).clamp(0.0, 1.0)
    }

    /// Per-kernel totals, sorted by descending total time.
    pub fn kernel_stats(&self) -> Vec<KernelStat> {
        let mut map: std::collections::HashMap<&'static str, (usize, u64)> = Default::default();
        for r in &self.records {
            let e = map.entry(r.name).or_default();
            e.0 += 1;
            e.1 += r.end_us - r.start_us;
        }
        let mut out: Vec<KernelStat> = map
            .into_iter()
            .map(|(name, (count, total_us))| KernelStat {
                name,
                count,
                total_us,
            })
            .collect();
        out.sort_by_key(|s| std::cmp::Reverse(s.total_us));
        out
    }

    /// Per-worker busy/idle profile over the traced span: task count, busy
    /// and idle totals, and the idle gaps (leading, between-task, and
    /// trailing) with the largest one called out — the "where does the 35%
    /// idle time live" question Figures 3–4 answer visually.
    pub fn worker_timelines(&self) -> Vec<WorkerTimeline> {
        let t0 = self.records.iter().map(|r| r.start_us).min().unwrap_or(0);
        let t1 = self.records.iter().map(|r| r.end_us).max().unwrap_or(0);
        let mut lanes: Vec<Vec<&TaskRecord>> = vec![Vec::new(); self.num_workers];
        for r in &self.records {
            if r.worker < lanes.len() {
                lanes[r.worker].push(r);
            }
        }
        lanes
            .iter_mut()
            .enumerate()
            .map(|(worker, lane)| {
                lane.sort_by_key(|r| (r.start_us, r.end_us));
                let busy_us: u64 = lane.iter().map(|r| r.end_us - r.start_us).sum();
                let mut gaps = 0usize;
                let mut largest_gap_us = 0u64;
                // `cursor` walks the lane; each jump forward is an idle gap.
                let mut cursor = t0;
                for r in lane.iter() {
                    if r.start_us > cursor {
                        gaps += 1;
                        largest_gap_us = largest_gap_us.max(r.start_us - cursor);
                    }
                    cursor = cursor.max(r.end_us);
                }
                if t1 > cursor {
                    gaps += 1;
                    largest_gap_us = largest_gap_us.max(t1 - cursor);
                }
                WorkerTimeline {
                    worker,
                    tasks: lane.len(),
                    busy_us,
                    idle_us: (t1 - t0).saturating_sub(busy_us),
                    gaps,
                    largest_gap_us,
                }
            })
            .collect()
    }

    /// Export in the Chrome trace-event format (the `{"traceEvents": [...]}`
    /// object form) consumed by `chrome://tracing` and Perfetto: one
    /// metadata event naming each worker lane, one "X" (complete) event per
    /// task with its submission id in `args`, and an "s"/"f" flow-event
    /// pair per dependency edge whose two endpoints both executed, drawn
    /// from the predecessor's end to the successor's start. Timestamps are
    /// the trace's native microseconds.
    pub fn to_chrome_json(&self) -> String {
        self.to_chrome_json_with_metrics(None)
    }

    /// [`to_chrome_json`](Self::to_chrome_json) plus, when scheduler
    /// metrics are supplied, one `dcst_sched_counters` metadata event per
    /// worker lane carrying that worker's counters (tasks executed, lost
    /// injector races, priority-lane hits, parks) and one pool-level
    /// `dcst_sched_pool` event with the peak ready-queue depth, so a trace
    /// viewed in Perfetto carries the contention story alongside the
    /// timeline.
    pub fn to_chrome_json_with_metrics(&self, metrics: Option<&crate::RuntimeMetrics>) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, event: std::fmt::Arguments<'_>| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n  ");
            out.write_fmt(event).unwrap();
        };
        for worker in 0..self.num_workers {
            push(
                &mut out,
                format_args!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{worker},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"worker-{worker}\"}}}}"
                ),
            );
        }
        if let Some(rm) = metrics {
            for (worker, w) in rm.workers.iter().enumerate() {
                push(
                    &mut out,
                    format_args!(
                        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{worker},\
                         \"name\":\"dcst_sched_counters\",\"args\":{{\
                         \"executed\":{},\"priority_hits\":{},\"parks\":{}}}}}",
                        w.executed, w.priority_hits, w.parks
                    ),
                );
            }
            push(
                &mut out,
                format_args!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"dcst_sched_pool\",\
                     \"args\":{{\"max_queue_depth\":{}}}}}",
                    rm.max_queue_depth
                ),
            );
        }
        for r in &self.records {
            push(
                &mut out,
                format_args!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"cat\":\"task\",\"args\":{{\"id\":{}}}}}",
                    r.worker,
                    r.start_us,
                    r.end_us - r.start_us,
                    r.name,
                    r.id
                ),
            );
        }
        let by_id: std::collections::HashMap<usize, &TaskRecord> =
            self.records.iter().map(|r| (r.id, r)).collect();
        for (i, (from, to)) in self.edges.iter().enumerate() {
            let (Some(src), Some(dst)) = (by_id.get(from), by_id.get(to)) else {
                continue;
            };
            push(
                &mut out,
                format_args!(
                    "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{i},\
                     \"name\":\"dep\",\"cat\":\"dep\"}}",
                    src.worker, src.end_us
                ),
            );
            // bp:"e" binds the arrow head to the enclosing slice rather
            // than the next event on the lane.
            push(
                &mut out,
                format_args!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{i},\
                     \"name\":\"dep\",\"cat\":\"dep\"}}",
                    dst.worker,
                    dst.start_us.max(src.end_us)
                ),
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Longest dependency chain of the traced graph, in tasks. Edges with
    /// an endpoint that never executed are skipped, as in the Chrome export.
    pub fn critical_path_len(&self) -> usize {
        // A predecessor is submitted before its successor, so its id is
        // lower: visiting edges by ascending target finalizes every depth
        // before it is read.
        let mut edges = self.edges.clone();
        edges.sort_unstable_by_key(|&(_, to)| to);
        let mut depth: std::collections::HashMap<usize, usize> =
            self.records.iter().map(|r| (r.id, 1)).collect();
        for (from, to) in edges {
            let Some(&d) = depth.get(&from) else { continue };
            if let Some(e) = depth.get_mut(&to) {
                *e = (*e).max(d + 1);
            }
        }
        depth.into_values().max().unwrap_or(0)
    }

    /// Render the traced task graph in Graphviz DOT (the paper's Figure 2):
    /// one node per executed task in submission order, colored per kernel,
    /// and one arrow per dependency edge.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        const PALETTE: [&str; 10] = [
            "lightblue",
            "salmon",
            "palegreen",
            "gold",
            "plum",
            "khaki",
            "lightcyan",
            "orange",
            "lightpink",
            "lightgray",
        ];
        let mut nodes: Vec<&TaskRecord> = self.records.iter().collect();
        nodes.sort_unstable_by_key(|r| r.id);
        let mut kernels: Vec<&'static str> = Vec::new();
        let mut s =
            String::from("digraph dcst {\n  rankdir=TB;\n  node [style=filled, shape=box];\n");
        for r in nodes {
            let color = PALETTE[kernel_index(&mut kernels, r.name) % PALETTE.len()];
            writeln!(s, "  t{} [label=\"{}\", fillcolor={color}];", r.id, r.name).unwrap();
        }
        for &(from, to) in &self.edges {
            writeln!(s, "  t{from} -> t{to};").unwrap();
        }
        s.push_str("}\n");
        s
    }

    /// Render the trace as an SVG timeline — one lane per worker, one
    /// colored rectangle per task, kernel colors assigned in order of
    /// first appearance (the paper's Figures 3 and 4 are exactly this
    /// visualization). Returns a standalone SVG document.
    pub fn to_svg(&self, width: u32, lane_height: u32) -> String {
        use std::fmt::Write;
        const PALETTE: [&str; 12] = [
            "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
            "#9c755f", "#bab0ac", "#1b9e77", "#d95f02",
        ];
        let t0 = self.records.iter().map(|r| r.start_us).min().unwrap_or(0);
        let t1 = self
            .records
            .iter()
            .map(|r| r.end_us)
            .max()
            .unwrap_or(1)
            .max(t0 + 1);
        let scale = width as f64 / (t1 - t0) as f64;
        let legend_h = 18;
        let height = self.num_workers as u32 * (lane_height + 4) + legend_h + 8;
        let mut kernels: Vec<&'static str> = Vec::new();
        let mut svg = String::new();
        write!(
            svg,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
             font-family=\"monospace\" font-size=\"10\">\n\
             <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
        )
        .unwrap();
        for r in &self.records {
            let color = PALETTE[kernel_index(&mut kernels, r.name) % PALETTE.len()];
            let x = (r.start_us - t0) as f64 * scale;
            let w = (((r.end_us - r.start_us) as f64) * scale).max(0.5);
            let y = legend_h as f64 + r.worker as f64 * (lane_height + 4) as f64;
            writeln!(
                svg,
                "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{lane_height}\" \
                 fill=\"{color}\"><title>{} [w{}] {}us</title></rect>",
                r.name,
                r.worker,
                r.end_us - r.start_us
            )
            .unwrap();
        }
        // Legend.
        let mut x = 2.0f64;
        for (i, name) in kernels.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            writeln!(
                svg,
                "<rect x=\"{x:.1}\" y=\"2\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
                 <text x=\"{:.1}\" y=\"11\">{name}</text>",
                x + 13.0
            )
            .unwrap();
            x += 13.0 + 7.0 * (name.len() as f64 + 2.0);
        }
        svg.push_str("</svg>\n");
        svg
    }

    /// Render an ASCII timeline: one row per worker, time binned into
    /// `width` columns, each cell showing the initial of the kernel that
    /// was running (or '.' for idle). A compact stand-in for the paper's
    /// colored trace figures.
    pub fn ascii_timeline(&self, width: usize) -> String {
        if self.records.is_empty() {
            return String::new();
        }
        let t0 = self.records.iter().map(|r| r.start_us).min().unwrap();
        let t1 = self
            .records
            .iter()
            .map(|r| r.end_us)
            .max()
            .unwrap()
            .max(t0 + 1);
        let scale = width as f64 / (t1 - t0) as f64;
        let mut rows = vec![vec!['.'; width]; self.num_workers];
        for r in &self.records {
            let c = r.name.chars().next().unwrap_or('?');
            let a = ((r.start_us - t0) as f64 * scale) as usize;
            let b = (((r.end_us - t0) as f64 * scale) as usize).min(width - 1);
            if r.worker < rows.len() {
                for cell in &mut rows[r.worker][a..=b.max(a)] {
                    *cell = c;
                }
            }
        }
        rows.iter()
            .enumerate()
            .map(|(w, row)| format!("w{w:02} |{}|", row.iter().collect::<String>()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv;

    fn sample() -> Trace {
        Trace {
            records: vec![
                TaskRecord {
                    id: 0,
                    name: "LAED4",
                    worker: 0,
                    start_us: 0,
                    end_us: 10,
                },
                TaskRecord {
                    id: 1,
                    name: "LAED4",
                    worker: 1,
                    start_us: 0,
                    end_us: 10,
                },
                TaskRecord {
                    id: 2,
                    name: "UpdateVect",
                    worker: 0,
                    start_us: 10,
                    end_us: 35,
                },
            ],
            edges: vec![(0, 2), (1, 2)],
            num_workers: 2,
        }
    }

    #[test]
    fn makespan_and_busy() {
        let t = sample();
        assert_eq!(t.makespan_us(), 35);
        assert_eq!(t.busy_us(), 45);
        let idle = t.idle_fraction();
        assert!((idle - (1.0 - 45.0 / 70.0)).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction_clamps_rounding_overshoot() {
        // Microsecond rounding can make per-record durations sum past the
        // makespan (start rounded down, end rounded up): busy 12us over a
        // 10us span on one worker used to yield idle_fraction == -0.2.
        let t = Trace {
            records: vec![
                TaskRecord {
                    id: 0,
                    name: "A",
                    worker: 0,
                    start_us: 0,
                    end_us: 6,
                },
                TaskRecord {
                    id: 1,
                    name: "B",
                    worker: 0,
                    start_us: 4,
                    end_us: 10,
                },
            ],
            edges: vec![],
            num_workers: 1,
        };
        assert!(t.busy_us() > t.makespan_us() * t.num_workers as u64);
        assert_eq!(t.idle_fraction(), 0.0);
        let full = sample().idle_fraction();
        assert!((0.0..=1.0).contains(&full));
    }

    #[test]
    fn kernel_stats_sorted_by_time() {
        let t = sample();
        let stats = t.kernel_stats();
        assert_eq!(stats[0].name, "UpdateVect");
        assert_eq!(stats[0].count, 1);
        assert_eq!(stats[1].name, "LAED4");
        assert_eq!(stats[1].count, 2);
        assert_eq!(stats[1].total_us, 20);
        assert_eq!(stats[0].total_us, 25);
    }

    #[test]
    fn chrome_export_structure() {
        let t = sample();
        let doc = jsonv::parse(&t.to_chrome_json()).expect("chrome export must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(p))
                .count()
        };
        assert_eq!(ph("M"), 2, "one thread_name metadata event per worker");
        assert_eq!(ph("X"), 3, "one complete event per record");
        assert_eq!(ph("s"), 2, "one flow start per edge");
        assert_eq!(ph("f"), 2, "one flow finish per edge");
        // The UpdateVect slice carries its submission id and lane.
        let x = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("UpdateVect"))
            .unwrap();
        assert_eq!(x.get("tid").unwrap().as_num(), Some(0.0));
        assert_eq!(x.get("dur").unwrap().as_num(), Some(25.0));
        assert_eq!(
            x.get("args").unwrap().get("id").unwrap().as_num(),
            Some(2.0)
        );
    }

    #[test]
    fn chrome_export_with_metrics_adds_counter_metadata() {
        let t = sample();
        let rm = crate::RuntimeMetrics {
            workers: vec![
                crate::WorkerMetrics {
                    executed: 5,
                    priority_hits: 4,
                    parks: 6,
                },
                crate::WorkerMetrics::default(),
            ],
            max_queue_depth: 9,
        };
        let doc = jsonv::parse(&t.to_chrome_json_with_metrics(Some(&rm)))
            .expect("chrome export with metrics must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("dcst_sched_counters"))
            .collect();
        assert_eq!(counters.len(), 2, "one counter event per worker");
        let args = counters[0].get("args").unwrap();
        assert_eq!(args.get("executed").unwrap().as_num(), Some(5.0));
        assert_eq!(args.get("priority_hits").unwrap().as_num(), Some(4.0));
        assert_eq!(args.get("parks").unwrap().as_num(), Some(6.0));
        let keys: Vec<&str> = match args {
            jsonv::Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("counter args must be an object"),
        };
        assert_eq!(
            keys,
            ["executed", "priority_hits", "parks"],
            "one field per counter the pool keeps"
        );
        let pool = events
            .iter()
            .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("dcst_sched_pool"))
            .expect("pool-level metadata event");
        assert_eq!(
            pool.get("args")
                .unwrap()
                .get("max_queue_depth")
                .unwrap()
                .as_num(),
            Some(9.0)
        );
        // The plain export stays metrics-free so viewers and the mirror
        // tests above see the same event set as before.
        let plain = jsonv::parse(&t.to_chrome_json()).unwrap();
        assert!(!plain
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|e| e.get("name").and_then(|v| v.as_str()) == Some("dcst_sched_counters")));
    }

    #[test]
    fn chrome_export_skips_edges_without_records() {
        let mut t = sample();
        t.edges.push((0, 99)); // successor never executed (e.g. cancelled)
        let doc = jsonv::parse(&t.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(|v| v.as_str()), Some("s" | "f")))
            .count();
        assert_eq!(flows, 4, "dangling edge must not emit flow events");
    }

    #[test]
    fn worker_timelines_account_gaps() {
        let t = sample();
        let lanes = t.worker_timelines();
        assert_eq!(lanes.len(), 2);
        // Worker 0: LAED4 0-10, UpdateVect 10-35 — fully busy, no gaps.
        assert_eq!(lanes[0].tasks, 2);
        assert_eq!(lanes[0].busy_us, 35);
        assert_eq!(lanes[0].idle_us, 0);
        assert_eq!(lanes[0].gaps, 0);
        // Worker 1: LAED4 0-10, then idle until 35.
        assert_eq!(lanes[1].tasks, 1);
        assert_eq!(lanes[1].busy_us, 10);
        assert_eq!(lanes[1].idle_us, 25);
        assert_eq!(lanes[1].gaps, 1);
        assert_eq!(lanes[1].largest_gap_us, 25);
    }

    /// A trace of instantaneous tasks `(id, name, predecessor ids)`.
    fn graph(tasks: &[(usize, &'static str, &[usize])]) -> Trace {
        Trace {
            records: tasks
                .iter()
                .map(|&(id, name, _)| TaskRecord {
                    id,
                    name,
                    worker: 0,
                    start_us: 0,
                    end_us: 0,
                })
                .collect(),
            edges: tasks
                .iter()
                .flat_map(|&(id, _, deps)| deps.iter().map(move |&d| (d, id)))
                .collect(),
            num_workers: 1,
        }
    }

    #[test]
    fn critical_path_takes_the_longest_chain() {
        // a → b → c with the shortcut a → c: three tasks deep, not two.
        let mut t = graph(&[(0, "a", &[]), (1, "b", &[0]), (2, "c", &[0, 1])]);
        assert_eq!(t.critical_path_len(), 3);
        // Neither the order of the edge list nor an edge to a task that
        // never executed (cancelled) changes the answer.
        t.edges.reverse();
        t.edges.push((2, 99));
        assert_eq!(t.critical_path_len(), 3);
    }

    #[test]
    fn dot_output_has_all_nodes() {
        let dot = graph(&[(0, "Scale", &[]), (1, "STEDC", &[0])]).to_dot();
        assert!(dot.contains("t0 [label=\"Scale\""));
        assert!(dot.contains("t1 [label=\"STEDC\""));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn parallel_tasks_do_not_extend_critical_path() {
        let fan: Vec<usize> = (1..=10).collect();
        let mut tasks: Vec<(usize, &'static str, &[usize])> = vec![(0, "root", &[])];
        tasks.extend(fan.iter().map(|&i| (i, "leaf", &[0][..])));
        tasks.push((11, "join", &fan));
        assert_eq!(graph(&tasks).critical_path_len(), 3);
    }

    #[test]
    fn ascii_timeline_shapes() {
        let t = sample();
        let art = t.ascii_timeline(30);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('L'));
        assert!(lines[0].contains('U'));
        assert!(lines[1].contains('L'));
    }

    #[test]
    fn svg_contains_lanes_and_legend() {
        let t = sample();
        let svg = t.to_svg(400, 14);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // One rect per record plus background plus 2 legend swatches.
        assert_eq!(svg.matches("<rect").count(), 1 + 3 + 2);
        assert!(svg.contains(">LAED4</text>"));
        assert!(svg.contains(">UpdateVect</text>"));
    }

    #[test]
    fn svg_of_empty_trace_is_valid() {
        let t = Trace {
            records: vec![],
            edges: vec![],
            num_workers: 2,
        };
        let svg = t.to_svg(100, 10);
        assert!(svg.starts_with("<svg") && svg.contains("</svg>"));
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = Trace {
            records: vec![],
            edges: vec![],
            num_workers: 4,
        };
        assert_eq!(t.makespan_us(), 0);
        assert_eq!(t.idle_fraction(), 0.0);
        assert!(t.ascii_timeline(10).is_empty());
        assert!(jsonv::parse(&t.to_chrome_json()).is_ok());
        assert_eq!(t.worker_timelines().len(), 4);
        assert_eq!(t.critical_path_len(), 0);
    }
}
