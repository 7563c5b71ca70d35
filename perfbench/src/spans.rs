//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into the workspace's public functions; nothing inside the program is
//! instrumented. A span records its name, start and end (nanoseconds since
//! the tracer was created), its parent and a run id (0 for set-up and
//! probes, `k` for the `k`-th timed pass). Per-stream source pulls are too
//! many to keep one span each, so each pulling span gets one *aggregate*
//! child instead: a count, summed nanoseconds and summed allocations.
//! Everything stays in memory until [`Tracer::write_jsonl`] at the end.

use std::io::Write;
use std::time::Instant;

/// Id of an open or closed span (its index); [`NONE`] when tracing is off.
pub type SpanId = usize;

/// The id handed out by a disabled tracer.
pub const NONE: SpanId = usize::MAX;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.engine`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch (equal to start while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Which run (0 = set-up and probes, k = timed pass k) it belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Many short intervals of one kind inside one parent span, summed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Layer-qualified name, e.g. `workloads.source`.
    pub name: &'static str,
    /// The span the intervals happened inside.
    pub parent: SpanId,
    /// Number of intervals.
    pub count: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// Allocations made by the recording thread inside them.
    pub allocs: u64,
}

/// The span recorder. A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    stack: Vec<SpanId>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            aggregates: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (between spans only).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle tracing only between spans");
        self.enabled = enabled;
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Adds an aggregate child to span `parent`.
    pub fn aggregate(&mut self, agg: Aggregate) {
        if self.enabled && agg.parent != NONE && agg.count > 0 {
            self.aggregates.push(agg);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by id: its duration minus the union of
    /// the intervals its child spans cover, minus its aggregate children.
    /// Negative only if the recording is inconsistent.
    pub fn self_times(&self) -> Vec<i64> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut aggregated = vec![0u64; self.spans.len()];
        for g in &self.aggregates {
            aggregated[g.parent] += g.total_ns;
        }
        self.spans
            .iter()
            .zip(children)
            .zip(aggregated)
            .map(|((s, mut children), aggregated)| {
                children.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in children {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() as i64 - covered as i64 - aggregated as i64
            })
            .collect()
    }

    /// Summed duration of every closed span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
    }

    /// Summed self time of every span named `name`.
    pub fn total_self_ns(&self, name: &str) -> i64 {
        let own = self.self_times();
        (0..self.spans.len()).filter(|&i| self.spans[i].name == name).map(|i| own[i]).sum()
    }

    /// Summed aggregate children named `name`: (count, ns, allocs).
    pub fn aggregate_totals(&self, name: &str) -> (u64, u64, u64) {
        self.aggregates
            .iter()
            .filter(|g| g.name == name)
            .fold((0, 0, 0), |acc, g| (acc.0 + g.count, acc.1 + g.total_ns, acc.2 + g.allocs))
    }

    /// Checks that the recording is a forest of properly nested spans:
    /// every span is closed, lies inside its parent, and has a
    /// non-negative self time.
    pub fn check(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans still open", self.stack.len()));
        }
        let own = self.self_times();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                    return Err(format!("span {i} ({}) escapes its parent {}", s.name, ps.name));
                }
            }
            if own[i] < 0 {
                return Err(format!("span {i} ({}) has negative self time", s.name));
            }
        }
        Ok(())
    }

    /// Writes every span and aggregate as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"run\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run, own[i]
            )?;
        }
        for g in &self.aggregates {
            writeln!(
                out,
                "{{\"aggregate\":\"{}\",\"parent\":{},\"count\":{},\"total_ns\":{},\"allocs\":{}}}",
                g.name, g.parent, g.count, g.total_ns, g.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_nested_spans_partition_the_root() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        t.span("a", || std::hint::black_box(0));
        let b = t.enter("b");
        t.span("c", || std::hint::black_box(0));
        t.exit(b);
        t.exit(root);
        t.aggregate(Aggregate { name: "pulls", parent: b, count: 1, total_ns: 0, allocs: 0 });
        t.check().expect("properly nested");
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[3].parent, Some(b));
        let own = t.self_times();
        assert!(own.iter().all(|&ns| ns >= 0));
        assert_eq!(own.iter().sum::<i64>(), t.spans()[root].duration_ns() as i64);
    }

    #[test]
    fn an_aggregate_longer_than_its_parent_is_refused() {
        let mut t = Tracer::new(true);
        let root = t.enter("root");
        t.exit(root);
        t.aggregate(Aggregate {
            name: "pulls",
            parent: root,
            count: 1,
            total_ns: 1 << 40,
            allocs: 0,
        });
        assert!(t.check().is_err());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("root");
        t.exit(id);
        assert_eq!(id, NONE);
        assert!(t.spans().is_empty());
    }
}
