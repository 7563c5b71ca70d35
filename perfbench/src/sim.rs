//! What the simulation produced: the digest of every simulated statistic,
//! and the per-layer `gpu.*` / `serve.*` / `cluster.*` metrics read from
//! reports.
//!
//! Every number here comes from the repository's cost model, which has
//! never been validated against real hardware.

use gspecpal::SchemeKind;
use gspecpal_cluster::ClusterReport;
use gspecpal_gpu::{KernelStats, Phase};
use gspecpal_serve::{ExecMode, LatencySummary, ServeReport};

use crate::report::{Digest, Metrics};

/// The simulated end-to-end figures of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sim {
    /// Simulated time to serve the whole trace.
    pub makespan_cycles: u64,
    /// Delivery-latency percentiles (arrival → result on host).
    pub delivery: LatencySummary,
    /// Streams the percentiles are taken over.
    pub latency_samples: u64,
}

impl Sim {
    /// The figures of a single-device report.
    pub fn of_serve(r: &ServeReport) -> Self {
        Sim {
            makespan_cycles: r.makespan_cycles,
            delivery: r.delivery,
            latency_samples: r.served_streams() as u64,
        }
    }

    /// The figures of a fleet report.
    pub fn of_cluster(r: &ClusterReport) -> Self {
        Sim {
            makespan_cycles: r.makespan_cycles,
            delivery: r.delivery,
            latency_samples: r.devices.iter().map(|d| d.report.served_streams() as u64).sum(),
        }
    }
}

fn fold_latency(d: &mut Digest, l: &LatencySummary) {
    d.all([l.p50, l.p95, l.p99, l.max]);
}

fn fold_stats(d: &mut Digest, s: &KernelStats) {
    d.all([
        s.cycles,
        s.rounds,
        s.global_transactions,
        s.global_coalesced_hits,
        s.shared_accesses,
        s.alu_ops,
        s.shuffles,
        s.atomics,
        s.recovery_cycles,
        s.recovery_runs,
        s.fault_retries,
        s.fault_watchdog_kills,
        s.fault_degraded_blocks,
        s.fault_cycles,
    ]);
    for p in Phase::ALL {
        let c = s.profile.get(p);
        d.all([
            c.cycles,
            c.rounds,
            c.global_transactions,
            c.global_coalesced_hits,
            c.shared_accesses,
            c.alu_ops,
            c.shuffles,
            c.atomics,
            c.divergent_rounds,
            c.active_thread_rounds,
            c.thread_rounds,
        ]);
    }
    d.all(s.active_per_round.iter().chain(&s.recovering_per_round).map(|&v| u64::from(v)));
    d.all(s.round_durations.iter().copied());
}

fn scheme_index(s: SchemeKind) -> u64 {
    SchemeKind::all().iter().position(|&k| k == s).expect("every scheme is listed") as u64
}

/// Folds every simulated field of a serve report into `d`.
pub fn fold_serve(d: &mut Digest, r: &ServeReport) {
    d.all([r.streams as u64, r.total_bytes as u64, r.makespan_cycles]);
    fold_latency(d, &r.delivery);
    fold_latency(d, &r.kernel_latency);
    fold_stats(d, &r.stats);
    let rec = &r.recovery;
    d.all([
        r.backpressure_events,
        r.backpressure_wait_cycles,
        r.overlap_efficiency_permille,
        rec.block_retries,
        rec.watchdog_kills,
        rec.degraded_blocks,
        rec.copy_retries,
        rec.failed_batches,
        rec.shed_streams,
        rec.breaker_trips,
        rec.fault_cycles,
        r.batches_dispatched,
        r.peak_queue as u64,
        r.latency_error_permille,
        r.decisions_made,
        r.explore_decisions,
        r.residency.hits,
        r.residency.misses,
        r.residency.evictions,
        r.residency.copied_bytes,
        r.preemptions,
        r.preempted_cycles,
    ]);
    d.all(r.latencies.iter().copied());
    d.all(r.end_states.iter().map(|&s| u64::from(s)));
    d.all(r.accepted.iter().map(|&a| u64::from(a)));
    d.all(r.outcomes.iter().map(|&o| o as u64));
    for b in &r.batches {
        d.all([
            b.first_stream as u64,
            b.streams as u64,
            b.machine as u64,
            scheme_index(b.scheme),
            u64::from(b.mode == ExecMode::ChunkParallel),
            b.bytes as u64,
            b.h2d.start,
            b.h2d.end,
            b.compute.start,
            b.compute.end,
            b.d2h.start,
            b.d2h.end,
        ]);
    }
    for &(cycle, depth) in &r.queue_depth {
        d.all([cycle, depth as u64]);
    }
}

/// Folds every simulated field of a fleet report into `d`.
pub fn fold_cluster(d: &mut Digest, r: &ClusterReport) {
    for dev in &r.devices {
        fold_serve(d, &dev.report);
    }
    d.all([r.streams as u64, r.makespan_cycles]);
    fold_latency(d, &r.delivery);
    fold_latency(d, &r.bulk_delivery);
    fold_latency(d, &r.deadline_delivery);
    let (rt, fo) = (&r.router, &r.failover);
    d.all([
        u64::from(r.exact_latency),
        r.residency.hits,
        r.residency.misses,
        r.residency.evictions,
        r.residency.copied_bytes,
        r.preemptions,
        r.preempted_cycles,
        r.shed_streams,
        r.imbalance_permille,
        rt.migrations,
        rt.migration_bytes,
        rt.migration_cycles,
        rt.rebalance_epoch,
        rt.rerouted_streams,
        rt.doomed_streams,
        r.lost_streams,
        fo.checkpoints_taken,
        fo.checkpoint_bytes,
        fo.migrations_replayed,
        fo.migration_retries,
        fo.replay_cycles,
    ]);
}

/// Digest of one serve report.
pub fn serve_digest(r: &ServeReport) -> u64 {
    let mut d = Digest::default();
    fold_serve(&mut d, r);
    d.value()
}

/// Digest of one fleet report.
pub fn cluster_digest(r: &ClusterReport) -> u64 {
    let mut d = Digest::default();
    fold_cluster(&mut d, r);
    d.value()
}

fn permille(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1000.0 / whole as f64
    }
}

fn per_kib(count: u64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        count as f64 * 1024.0 / bytes as f64
    }
}

/// `gpu.*`: the merged kernel statistics of `reports` over `bytes` input
/// bytes.
pub fn gpu_metrics(m: &mut Metrics, reports: &[&ServeReport]) {
    let stat = |f: fn(&KernelStats) -> u64| reports.iter().map(|r| f(&r.stats)).sum::<u64>();
    let busy = stat(|s| s.cycles);
    let bytes: u64 = reports.iter().map(|r| r.total_bytes as u64).sum();
    for p in Phase::ALL {
        let cycles: u64 = reports.iter().map(|r| r.stats.profile.get(p).cycles).sum();
        m.put(format!("gpu.{}_permille", p.name()), permille(cycles, busy), "permille");
    }
    m.put("gpu.recovery_runs", stat(|s| s.recovery_runs) as f64, "count");
    m.put("gpu.rounds", stat(|s| s.rounds) as f64, "count");
    let tx = stat(|s| s.global_transactions);
    let hits = stat(|s| s.global_coalesced_hits);
    m.put("gpu.global_transactions_per_kib", per_kib(tx, bytes), "count/KiB");
    m.put("gpu.coalesced_permille", permille(hits, hits + tx), "permille");
    m.put("gpu.shared_accesses_per_kib", per_kib(stat(|s| s.shared_accesses), bytes), "count/KiB");
}

/// `serve.*` counters summed over `reports` (one per device).
pub fn serve_metrics(m: &mut Metrics, reports: &[&ServeReport]) {
    let sum = |f: fn(&ServeReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let batches = sum(|r| r.batches_dispatched);
    let streams = sum(|r| r.streams as u64);
    m.put("serve.batches", batches as f64, "count");
    m.put("serve.streams_per_batch", streams as f64 / batches.max(1) as f64, "streams");
    let busy = sum(|r| r.stats.cycles);
    let makespans = sum(|r| r.makespan_cycles);
    m.put("serve.busy_permille", permille(busy, makespans), "permille");
    let overlap = reports.iter().map(|r| r.overlap_efficiency_permille).max().unwrap_or(0);
    m.put("serve.overlap_permille", overlap as f64, "permille");
    let peak = reports.iter().map(|r| r.peak_queue as u64).max().unwrap_or(0);
    m.put("serve.peak_queue", peak as f64, "streams");
    m.put("serve.backpressure_events", sum(|r| r.backpressure_events) as f64, "count");
    m.put(
        "serve.backpressure_wait_mcycles",
        sum(|r| r.backpressure_wait_cycles) as f64 / 1e6,
        "Mcycles",
    );
    let hits = sum(|r| r.residency.hits);
    let misses = sum(|r| r.residency.misses);
    m.put("serve.residency_hit_permille", permille(hits, hits + misses), "permille");
    m.put("serve.residency_misses", misses as f64, "count");
    m.put("serve.residency_copied_kib", sum(|r| r.residency.copied_bytes) as f64 / 1024.0, "KiB");
}

/// `serve.chunk_parallel_permille` and `core.batches.<scheme>` from the
/// batch records of Full-detail reports.
pub fn batch_mix_metrics(m: &mut Metrics, reports: &[&ServeReport], per_scheme: bool) {
    let batches: Vec<_> = reports.iter().flat_map(|r| &r.batches).collect();
    let chunked = batches.iter().filter(|b| b.mode == ExecMode::ChunkParallel).count();
    m.put(
        "serve.chunk_parallel_permille",
        permille(chunked as u64, batches.len() as u64),
        "permille",
    );
    if per_scheme {
        for s in SchemeKind::all() {
            let n = batches.iter().filter(|b| b.scheme == s).count();
            m.put(format!("core.batches.{}", s.name()), n as f64, "count");
        }
    }
}

/// `cluster.*` placement and failover figures of a fleet report.
pub fn cluster_metrics(m: &mut Metrics, r: &ClusterReport, names: &[&str]) {
    let total: u64 = r.devices.iter().map(|d| d.report.streams as u64).sum();
    for (dev, name) in r.devices.iter().zip(names) {
        m.put(
            format!("cluster.share_permille.{name}"),
            permille(dev.report.streams as u64, total),
            "permille",
        );
    }
    m.put("cluster.imbalance_permille", r.imbalance_permille as f64, "permille");
    m.put("cluster.checkpoints", r.failover.checkpoints_taken as f64, "count");
    m.put("cluster.checkpoint_kib", r.failover.checkpoint_bytes as f64 / 1024.0, "KiB");
    m.put("cluster.replay_mcycles", r.failover.replay_cycles as f64 / 1e6, "Mcycles");
    m.put("cluster.migration_retries", r.failover.migration_retries as f64, "count");
    m.put("cluster.lost_streams", r.lost_streams as f64, "count");
}

/// Streams a single-device report failed: shed streams, plus every stream
/// when stream or byte conservation or the phase partition is broken.
pub fn serve_failures(r: &ServeReport, streams: u64, bytes: u64) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let served = r.served_streams() as u64;
    if r.streams as u64 != streams || served + r.recovery.shed_streams != streams {
        problems.push(format!(
            "stream conservation: {streams} in, report has {} ({served} served + {} shed)",
            r.streams, r.recovery.shed_streams
        ));
    }
    if r.total_bytes as u64 != bytes {
        problems.push(format!("byte conservation: {bytes} in, report has {}", r.total_bytes));
    }
    if r.stats.profile.total_cycles() != r.stats.cycles {
        problems.push("phase cycles do not partition busy cycles".into());
    }
    let failed = if problems.is_empty() { r.recovery.shed_streams } else { streams };
    if r.recovery.shed_streams > 0 {
        problems.push(format!("{} streams shed", r.recovery.shed_streams));
    }
    (failed, problems)
}

/// Streams a fleet report failed: shed and lost streams, plus every
/// stream when fleet-wide stream or byte conservation is broken.
pub fn cluster_failures(r: &ClusterReport, streams: u64, bytes: u64) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let per_device: u64 = r.devices.iter().map(|d| d.report.streams as u64).sum();
    let served: u64 = r.devices.iter().map(|d| d.report.served_streams() as u64).sum();
    let dev_bytes: u64 = r.devices.iter().map(|d| d.report.total_bytes as u64).sum();
    if r.streams as u64 != streams || per_device + r.lost_streams != streams {
        problems.push(format!(
            "stream conservation: {streams} in, fleet reports {}, devices {per_device}, lost {}",
            r.streams, r.lost_streams
        ));
    }
    if dev_bytes > bytes || (r.lost_streams == 0 && dev_bytes != bytes) {
        problems.push(format!("byte conservation: {bytes} in, devices report {dev_bytes}"));
    }
    for d in &r.devices {
        if d.report.stats.profile.total_cycles() != d.report.stats.cycles {
            problems.push(format!("{}: phase cycles do not partition busy cycles", d.device));
        }
    }
    let unserved = streams.saturating_sub(served);
    let failed = if problems.is_empty() { unserved } else { streams };
    if unserved > 0 {
        problems.push(format!("{unserved} streams shed or lost"));
    }
    (failed, problems)
}
