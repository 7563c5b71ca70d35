//! The GSpecPal workspace benchmark: four workloads, end-to-end metrics
//! with tracing off, and a traced run that times each crate from outside.
//!
//! Each run serves one workload's seeded trace over and over for a fixed
//! number of host seconds ("passes"). Host times are taken per pass and
//! reduced with one fixed statistic; simulated figures repeat exactly on
//! every pass, and every pass's digest of simulated statistics must equal
//! the first one's. Outputs are checked against `Dfa::run`, and stream and
//! byte conservation is checked on every report. See `README.md` in this
//! directory for the workloads, metrics and how to run it.

pub mod alloc;
pub mod fleet;
pub mod report;
pub mod serve_stream;
pub mod sim;
pub mod source;
pub mod spans;
pub mod suite_scan;

use std::time::Instant;

use report::{segment_floor, Metrics};
use sim::Sim;
use spans::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 36-FSM suite, chunk-parallel, Full detail.
    SuiteScan,
    /// Tiny streams on one small machine, one device, Bounded detail.
    ServeStream,
    /// Medium streams on the fleet's batch path with a device crash.
    FleetFailover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::SuiteScan, Workload::ServeStream, Workload::FleetFailover];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteScan => "suite-scan",
            Workload::ServeStream => "serve-stream",
            Workload::FleetFailover => "fleet-failover",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up slots per timed phase (see [`Harness::timed`]): few on
    /// suite-scan, whose set-up takes seconds, many elsewhere.
    pub fn setup_slots(self) -> usize {
        match self {
            Workload::SuiteScan => 5,
            _ => 25,
        }
    }

    /// Host pool width (`RAYON_NUM_THREADS`): every core for the
    /// single-engine workloads; 1 on the fleet, whose streaming path runs
    /// a thread per device that already fill the cores (the batch path
    /// keeps the same width).
    pub fn pool_width(self, nproc: usize) -> usize {
        match self {
            Workload::SuiteScan | Workload::ServeStream => nproc,
            Workload::FleetFailover => 1,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Host seconds of timed passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What a run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Streams attempted over every timed pass.
    pub attempted: u64,
    /// Streams shed, lost, failed or answered wrong.
    pub failed: u64,
    /// Digest of every simulated statistic of one pass.
    pub digest: u64,
    /// Check failures and other remarks, one line each.
    pub notes: Vec<String>,
    /// The recorded spans (empty in an untraced run).
    pub tracer: Tracer,
}

/// End-to-end metrics: `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_mib_per_s", "MiB/s"),
    ("host_kstreams_per_s", "kstreams/s"),
    ("host_allocs_per_stream", "allocs/stream"),
    ("peak_rss_mib", "MiB"),
    ("sim_makespan_mcycles", "Mcycles"),
    ("sim_p50_kcycles", "kcycles"),
    ("sim_p99_kcycles", "kcycles"),
    ("ok_permille", "permille"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports every one; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("workloads.suite_build_s", "s"),
    ("workloads.source_ns_per_stream", "ns/stream"),
    ("workloads.source_allocs_per_stream", "allocs/stream"),
    ("regexc.compile_s", "s"),
    ("fsm.minimize_s", "s"),
    ("fsm.minimize_max_ms", "ms"),
    ("core.prepare_s", "s"),
    ("core.run_ns_per_byte", "ns/B"),
    ("core.batches.Seq", "count"),
    ("core.batches.NaiveSpec", "count"),
    ("core.batches.Enum", "count"),
    ("core.batches.PM", "count"),
    ("core.batches.SRE", "count"),
    ("core.batches.RR", "count"),
    ("core.batches.NF", "count"),
    ("core.batches.SFA", "count"),
    ("gpu.predict_permille", "permille"),
    ("gpu.spec_exec_permille", "permille"),
    ("gpu.verify_permille", "permille"),
    ("gpu.recovery_permille", "permille"),
    ("gpu.stitch_permille", "permille"),
    ("gpu.transfer_permille", "permille"),
    ("gpu.recovery_runs", "count"),
    ("gpu.rounds", "count"),
    ("gpu.global_transactions_per_kib", "count/KiB"),
    ("gpu.coalesced_permille", "permille"),
    ("gpu.shared_accesses_per_kib", "count/KiB"),
    ("serve.engine_ns_per_stream", "ns/stream"),
    ("serve.engine_allocs_per_stream", "allocs/stream"),
    ("serve.batches", "count"),
    ("serve.streams_per_batch", "streams"),
    ("serve.chunk_parallel_permille", "permille"),
    ("serve.busy_permille", "permille"),
    ("serve.overlap_permille", "permille"),
    ("serve.peak_queue", "streams"),
    ("serve.backpressure_events", "count"),
    ("serve.backpressure_wait_mcycles", "Mcycles"),
    ("serve.residency_hit_permille", "permille"),
    ("serve.residency_misses", "count"),
    ("serve.residency_copied_kib", "KiB"),
    ("serve.checkpoint_encode_us", "us"),
    ("serve.checkpoint_decode_us", "us"),
    ("serve.checkpoint_kib", "KiB"),
    ("cluster.route_ns_per_stream", "ns/stream"),
    ("cluster.share_permille.a100", "permille"),
    ("cluster.share_permille.rtx3090", "permille"),
    ("cluster.share_permille.t4", "permille"),
    ("cluster.imbalance_permille", "permille"),
    ("cluster.checkpoints", "count"),
    ("cluster.checkpoint_kib", "KiB"),
    ("cluster.replay_mcycles", "Mcycles"),
    ("cluster.migration_retries", "count"),
    ("cluster.lost_streams", "count"),
    ("bench.trace_overhead_permille", "permille"),
    ("bench.unattributed_permille", "permille"),
    ("bench.passes", "count"),
];

/// Runs one workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::SuiteScan => suite_scan::run(cfg),
        Workload::ServeStream => serve_stream::run(cfg),
        Workload::FleetFailover => fleet::run_failover(cfg),
    }
}

/// One timed pass: host seconds, per segment, and heap allocations.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds of each segment, in order; they sum to the pass.
    pub segments: Vec<f64>,
    /// Allocations by every thread during the pass.
    pub allocs: u64,
}

/// Runs `f`, cutting its host time into segments at every `every`-th
/// allocation of the calling thread (one segment when `every` is 0).
fn segmented<R>(every: u64, f: impl FnOnce() -> R) -> (R, Vec<f64>) {
    alloc::mark_every(every);
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    let marks = alloc::take_marks();
    let mut segments = Vec::with_capacity(marks.len() + 1);
    let mut from = t0;
    for mark in marks.into_iter().chain([t1]) {
        segments.push(mark.duration_since(from).as_secs_f64());
        from = mark;
    }
    (r, segments)
}

/// Segments a timed pass is split into for the host-time statistic (see
/// [`report::segment_floor`]), at equal counts of the calling thread's
/// allocations (see [`alloc::mark_every`]). Finer segments catch shorter
/// quiet moments of the host.
const PASS_SEGMENTS: u64 = 400;
/// Most segments a set-up is cut into for its segment floor.
const SETUP_SEGMENTS: u64 = 400;
/// Shortest set-up segment: the clock is read at every cut, so cuts
/// closer than this would time the clock more than the set-up.
const SETUP_SEGMENT_S: f64 = 50e-6;
/// Host seconds of set-up repetitions per slot (at least one repetition).
const SETUP_SLOT_S: f64 = 0.02;

/// The run loop every workload shares: repeated set-up, timed passes with
/// digest checks, tracing, and the end-to-end metric arithmetic.
pub(crate) struct Harness<'c> {
    pub cfg: &'c RunCfg,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Statistic of the untraced passes of a traced run.
    plain_secs: Option<f64>,
    pub passes: Vec<Pass>,
    /// Calling-thread allocations per segment (0: the pass is one
    /// segment).
    segment_every: u64,
    /// Calling-thread allocations per set-up segment.
    setup_every: u64,
    /// Segment floor of the timed set-up repetitions.
    setups: report::Floor,
    /// Peak RSS in KiB when the timed phase began: set-up plus the
    /// reference pass, which every timed pass repeats. Read there because
    /// the timed phase's set-up repetitions hold a second copy of what
    /// the workload serves.
    peak_rss_kib: u64,
}

impl<'c> Harness<'c> {
    pub fn new(cfg: &'c RunCfg) -> Self {
        Harness {
            cfg,
            tracer: Tracer::new(cfg.trace),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            plain_secs: None,
            passes: Vec::new(),
            segment_every: 0,
            setup_every: 0,
            setups: report::Floor::default(),
            peak_rss_kib: 0,
        }
    }

    /// Records a failed check that affects `streams` streams.
    pub fn check(&mut self, ok: bool, streams: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += streams.max(1);
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// The first set-up: builds what the workload serves and sizes the
    /// segments of the timed repetitions from the time it took and the
    /// allocations it made. Not part of `setup_s`, so first-touch and lazy
    /// initialisation stay out of it.
    pub fn setup<T>(&mut self, build: impl FnOnce(&mut Tracer) -> T) -> T {
        let a0 = alloc::this_thread();
        let t0 = Instant::now();
        let span = self.tracer.enter("bench.setup");
        let built = build(&mut self.tracer);
        self.tracer.exit(span);
        let segments = (t0.elapsed().as_secs_f64() / SETUP_SEGMENT_S) as u64;
        self.setup_every = (alloc::this_thread() - a0) / segments.clamp(1, SETUP_SEGMENTS);
        built
    }

    /// One slot of timed set-up repetitions; returns its host seconds.
    fn setup_slot(&mut self, rebuild: &mut impl FnMut(&mut Tracer)) -> f64 {
        let started = Instant::now();
        loop {
            let span = self.tracer.enter("bench.setup");
            let ((), segments) = segmented(self.setup_every, || rebuild(&mut self.tracer));
            self.tracer.exit(span);
            self.setups.add(&segments);
            let spent = started.elapsed().as_secs_f64();
            if spent >= SETUP_SLOT_S {
                return spent;
            }
        }
    }

    /// Runs the untimed reference pass and sizes the timed passes'
    /// segments from the allocations it made on the calling thread, which
    /// every pass repeats in the same order.
    pub fn reference<R>(&mut self, pass: impl FnOnce() -> R) -> R {
        let a0 = alloc::this_thread();
        let report = pass();
        self.segment_every = (alloc::this_thread() - a0) / PASS_SEGMENTS;
        report
    }

    /// The timed phase. An untraced run makes passes for `--seconds`; a
    /// traced run makes untraced passes for half of it and traced passes
    /// for the other half, which gives the tracing overhead. After the
    /// clock stops, `verdict` turns each pass's report into its digest,
    /// which must equal `expect`, and the number of streams the report's
    /// own checks failed.
    ///
    /// Between passes, every `--seconds` / [`Workload::setup_slots`] of
    /// pass time (and before the first pass of each half), `rebuild`
    /// repeats the set-up outside the passes' budget. The host
    /// switches between speeds every second or so; spreading the
    /// repetitions over the run lets `setup_s` see the same speeds the
    /// passes see.
    pub fn timed<R>(
        &mut self,
        streams: u64,
        expect: u64,
        mut rebuild: impl FnMut(&mut Tracer),
        mut pass: impl FnMut(&mut Tracer) -> Result<R, String>,
        verdict: impl Fn(&R) -> (u64, u64),
    ) -> Result<(), String> {
        self.peak_rss_kib = peak_rss_kib();
        let mut run = |h: &mut Self, secs| {
            h.passes_for(secs, streams, expect, &mut rebuild, &mut pass, &verdict)
        };
        if self.cfg.trace {
            self.tracer.set_enabled(false);
            let plain = run(self, self.cfg.seconds / 2.0)?;
            self.plain_secs = Some(floor_secs(&plain));
            self.tracer.set_enabled(true);
            self.passes = run(self, self.cfg.seconds / 2.0)?;
        } else {
            self.passes = run(self, self.cfg.seconds)?;
        }
        self.tracer.set_run(0);
        Ok(())
    }

    fn passes_for<R>(
        &mut self,
        budget_s: f64,
        streams: u64,
        expect: u64,
        rebuild: &mut impl FnMut(&mut Tracer),
        pass: &mut impl FnMut(&mut Tracer) -> Result<R, String>,
        verdict: &impl Fn(&R) -> (u64, u64),
    ) -> Result<Vec<Pass>, String> {
        const MIN_PASSES: usize = 3;
        let slot_every_s = self.cfg.seconds / self.cfg.workload.setup_slots() as f64;
        let started = Instant::now();
        let mut setup_s = 0.0;
        let mut next_slot_s = 0.0;
        let mut passes = Vec::new();
        loop {
            let spent = started.elapsed().as_secs_f64() - setup_s;
            if passes.len() >= MIN_PASSES && spent >= budget_s {
                break;
            }
            if spent >= next_slot_s {
                self.tracer.set_run(0);
                setup_s += self.setup_slot(rebuild);
                next_slot_s += slot_every_s;
            }
            self.tracer.set_run(self.passes.len() as u32 + passes.len() as u32 + 1);
            let span = self.tracer.enter("bench.pass");
            let a0 = alloc::total();
            let (report, segments) = segmented(self.segment_every, || pass(&mut self.tracer));
            let report = report?;
            let allocs = alloc::total() - a0;
            self.tracer.exit(span);
            let (digest, failed) = verdict(&report);
            drop(report);
            self.attempted += streams;
            let n = passes.len();
            self.check(failed == 0, failed, || format!("pass {n} failed {failed} streams"));
            self.check(digest == expect, streams, || {
                format!("pass {n} simulated digest {digest:#x} differs from {expect:#x}")
            });
            passes.push(Pass { segments, allocs });
        }
        Ok(passes)
    }

    /// Reduced host seconds of the timed passes.
    pub fn pass_secs(&self) -> f64 {
        floor_secs(&self.passes)
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, streams: u64, bytes: u64, sim: &Sim) -> Metrics {
        let secs = self.pass_secs();
        let allocs: Vec<f64> = self.passes.iter().map(|p| p.allocs as f64).collect();
        let tail = report::beyond_p99(sim.latency_samples);
        self.check(tail >= 10, 0, || {
            format!("p99 has only {tail} samples beyond it ({} streams)", sim.latency_samples)
        });
        let mut m = Metrics::default();
        m.put("setup_s", self.setups.value(), "s");
        m.put("host_mib_per_s", bytes as f64 / (1024.0 * 1024.0) / secs, "MiB/s");
        m.put("host_kstreams_per_s", streams as f64 / 1000.0 / secs, "kstreams/s");
        m.put("host_allocs_per_stream", report::median(&allocs) / streams as f64, "allocs/stream");
        m.put("peak_rss_mib", self.peak_rss_kib as f64 / 1024.0, "MiB");
        m.put("sim_makespan_mcycles", sim.makespan_cycles as f64 / 1e6, "Mcycles");
        m.put("sim_p50_kcycles", sim.delivery.p50 as f64 / 1e3, "kcycles");
        m.put("sim_p99_kcycles", sim.delivery.p99 as f64 / 1e3, "kcycles");
        let ok = 1000.0 * (self.attempted - self.failed.min(self.attempted)) as f64
            / self.attempted.max(1) as f64;
        m.put("ok_permille", ok, "permille");
        m
    }

    /// The per-layer metrics shared by every workload, completed with a 0
    /// for every layer the workload did not fill in.
    pub fn per_layer(&self, mut m: Metrics) -> Metrics {
        let traced = self.pass_secs();
        if let Some(plain) = self.plain_secs {
            m.put("bench.trace_overhead_permille", (traced / plain - 1.0) * 1000.0, "permille");
        }
        let passes: Vec<usize> = (0..self.tracer.spans().len())
            .filter(|&i| self.tracer.spans()[i].name == "bench.pass")
            .collect();
        let total: u64 = passes.iter().map(|&i| self.tracer.spans()[i].duration_ns()).sum();
        let own = self.tracer.self_times();
        let unattributed: i64 = passes.iter().map(|&i| own[i]).sum();
        m.put(
            "bench.unattributed_permille",
            unattributed as f64 * 1000.0 / total.max(1) as f64,
            "permille",
        );
        m.put("bench.passes", self.passes.len() as f64, "count");
        let mut out = Metrics::default();
        for (name, unit) in PER_LAYER {
            out.put(name, m.get(name).unwrap_or(0.0), unit);
        }
        out
    }

    /// Packs the run up.
    pub fn finish(self, metrics: Metrics, digest: u64) -> Outcome {
        let secs: Vec<String> =
            self.passes.iter().map(|p| format!("{:.4}", p.segments.iter().sum::<f64>())).collect();
        eprintln!("pass seconds: {}", secs.join(" "));
        let lens = self.passes.iter().map(|p| p.segments.len());
        eprintln!(
            "segment floor: {:.4} s over {}..={} segments per pass",
            self.pass_secs(),
            lens.clone().min().unwrap_or(0),
            lens.max().unwrap_or(0)
        );
        Outcome {
            metrics,
            attempted: self.attempted.max(1),
            failed: self.failed,
            digest,
            notes: self.notes,
            tracer: self.tracer,
        }
    }

    /// Mean seconds per set-up spent in spans named `name`.
    pub fn per_setup_s(&self, name: &str) -> f64 {
        let setups = self.tracer.spans().iter().filter(|s| s.name == "bench.setup").count();
        self.tracer.total_ns(name) as f64 / 1e9 / setups.max(1) as f64
    }

    /// `regexc.compile_s` and `core.prepare_s` from the set-up spans, and
    /// the per-stream cost of the `workloads.source` aggregates; with an
    /// `engine` span name, also that span's per-stream self time and
    /// allocations net of the source.
    pub fn common_layers(&self, engine: Option<&str>, m: &mut Metrics) {
        m.put("regexc.compile_s", self.per_setup_s("regexc.compile_set"), "s");
        m.put("core.prepare_s", self.per_setup_s("core.prepare"), "s");
        let (pulls, source_ns, source_allocs) = self.tracer.aggregate_totals("workloads.source");
        if pulls == 0 {
            return;
        }
        let per_stream = |v: f64| v / pulls as f64;
        m.put("workloads.source_ns_per_stream", per_stream(source_ns as f64), "ns/stream");
        m.put(
            "workloads.source_allocs_per_stream",
            per_stream(source_allocs as f64),
            "allocs/stream",
        );
        if let Some(engine) = engine {
            let engine_ns = self.tracer.total_self_ns(engine);
            m.put("serve.engine_ns_per_stream", per_stream(engine_ns as f64), "ns/stream");
            let pass_allocs: u64 = self.passes.iter().map(|p| p.allocs).sum();
            let engine_allocs = pass_allocs.saturating_sub(source_allocs);
            m.put(
                "serve.engine_allocs_per_stream",
                per_stream(engine_allocs as f64),
                "allocs/stream",
            );
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process in KiB, 0 where procfs
/// is absent.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from procfs, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?.to_string();
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// [`segment_floor`] of `passes`.
fn floor_secs(passes: &[Pass]) -> f64 {
    segment_floor(passes.iter().map(|p| p.segments.as_slice()))
}
