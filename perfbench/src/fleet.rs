//! The fleet workload: an A100 on NVLink, an RTX 3090 and a T4 on PCIe
//! behind the consistent-hash router, serving eight machines of different
//! table sizes with the residency LRU on (starting empty).
//!
//! `fleet-failover` sends medium streams through the batch path
//! (`run_cluster`), Full detail, with the busiest device killed mid-trace
//! and checkpoint failover on.

use std::time::Instant;

use gspecpal_cluster::{
    run_cluster, ClusterConfig, ClusterDevice, ClusterReport, DeviceOutage, FailoverConfig,
    FleetMachine, HashRing, Router,
};
use gspecpal_fsm::{Dfa, FrequencyProfile, StateId, TransformedDfa};
use gspecpal_regex::{compile_set, CompileConfig};
use gspecpal_serve::{
    serve_checkpoint, BatchPolicy, CheckpointOutcome, EngineCheckpoint, IterSource, PriorityClass,
    ReportDetail, ResidencyConfig, ServeConfig, ServeMachine, ServeReport, StreamArrival,
};

use crate::report::{median, Metrics};
use crate::sim::{self, Sim};
use crate::source::{BurstSource, Rng, Schedule};
use crate::spans::Tracer;
use crate::{Harness, Outcome, RunCfg};

/// Rule pool; machine `k` compiles the first `k + 1` rules, so the eight
/// tables differ in size.
const RULES: [&str; 8] = [
    "GET /[a-z]+",
    "attack[0-9]+",
    "x[0-9a-f][0-9a-f]y",
    "(ab|cd)+e",
    "user=[a-z]+&",
    "MZ..PE",
    "[0-9][0-9][0-9]-[0-9]+",
    "virus[a-f]+",
];
const ALPHABET: &[u8] = b"GET /adminattack0123456789xyMZPEvirusbcdef=&-";
/// Device names, in fleet order.
pub const DEVICE_NAMES: [&str; 3] = ["a100", "rtx3090", "t4"];

/// The fleet, in [`DEVICE_NAMES`] order.
pub fn devices() -> Vec<ClusterDevice> {
    vec![ClusterDevice::a100_nvlink(), ClusterDevice::rtx3090_pcie(), ClusterDevice::t4_pcie()]
}

/// The eight machines (frequency-transformed) and their training bytes.
pub struct Built {
    /// Each machine's DFA.
    pub dfas: Vec<Dfa>,
    training: Vec<Vec<u8>>,
}

impl Built {
    /// The fleet's view of the machines.
    pub fn fleet(&self) -> Vec<FleetMachine<'_>> {
        self.dfas
            .iter()
            .zip(&self.training)
            .map(|(dfa, training)| FleetMachine { dfa, training, class: PriorityClass::Bulk })
            .collect()
    }
}

/// Compiles and transforms the eight machines.
pub fn build(tr: &mut Tracer) -> Built {
    let training = Rng::new(0, 0xf1ee7).bytes(ALPHABET, 4096);
    let raw: Vec<Dfa> = tr.span("regexc.compile_set", || {
        (0..RULES.len())
            .map(|k| {
                compile_set(&RULES[..=k], CompileConfig::default()).expect("fixed rules compile")
            })
            .collect()
    });
    let dfas = tr.span("fsm.transform", || {
        raw.iter()
            .map(|d| {
                TransformedDfa::from_profile(d, &FrequencyProfile::collect(d, &training))
                    .dfa()
                    .clone()
            })
            .collect::<Vec<_>>()
    });
    let training = vec![training; dfas.len()];
    Built { dfas, training }
}

/// Prepares every machine on every device, as the fleet does before it
/// routes the first arrival: entry `[d][m]`.
pub fn prepare<'a>(
    devices: &[ClusterDevice],
    fleet: &[FleetMachine<'a>],
    tr: &mut Tracer,
) -> Vec<Vec<ServeMachine<'a>>> {
    tr.span("core.prepare", || {
        devices
            .iter()
            .map(|d| {
                fleet
                    .iter()
                    .map(|m| ServeMachine::prepare(&d.spec, m.dfa, m.training).with_class(m.class))
                    .collect()
            })
            .collect()
    })
}

/// Residency capacity: half of all tables, so the LRU both hits and
/// evicts.
fn residency(machines: &[ServeMachine<'_>]) -> ResidencyConfig {
    let total: usize = machines.iter().map(ServeMachine::table_footprint_bytes).sum();
    ResidencyConfig { capacity_bytes: (total / 2).max(1) }
}

fn cluster_config(machines: &[ServeMachine<'_>], detail: ReportDetail) -> ClusterConfig {
    ClusterConfig {
        serve: ServeConfig {
            policy: BatchPolicy::Fifo { batch: 32 },
            detail,
            residency: Some(residency(machines)),
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// The device the fleet's router sends each of `arrivals` to, in order.
pub fn placement(
    devices: &[ClusterDevice],
    machines: &[ServeMachine<'_>],
    cfg: &ClusterConfig,
    arrivals: &[StreamArrival],
) -> Vec<usize> {
    let footprints = machines.iter().map(|m| m.table_footprint_bytes() as u64).collect();
    let mut router = Router::new(devices, footprints, cfg);
    arrivals.iter().map(|a| router.route(a.machine, a.arrival_cycle, a.bytes.len())).collect()
}

/// Each device's share of `arrivals` under `placement`, in arrival order.
pub fn shares<'a>(
    arrivals: &'a [StreamArrival],
    placement: &[usize],
    devices: usize,
) -> Vec<Vec<&'a StreamArrival>> {
    let mut shares = vec![Vec::new(); devices];
    for (a, &d) in arrivals.iter().zip(placement) {
        shares[d].push(a);
    }
    shares
}

/// `(machine, end state, accepted)` of every stream a Full-detail device
/// report served, sorted.
fn served_answers(r: &ServeReport) -> Vec<(usize, StateId, bool)> {
    let mut out: Vec<_> = r
        .batches
        .iter()
        .flat_map(|b| {
            (b.first_stream..b.first_stream + b.streams)
                .map(move |i| (b.machine, r.end_states[i], r.accepted[i]))
        })
        .collect();
    out.sort_unstable();
    out
}

/// `(machine, end state, accepted)` of `arrivals` by `Dfa::run`, sorted.
fn expected_answers<'a>(
    dfas: &[Dfa],
    arrivals: impl Iterator<Item = &'a StreamArrival>,
) -> Vec<(usize, StateId, bool)> {
    let mut out: Vec<_> = arrivals
        .map(|a| {
            let end = dfas[a.machine].run(&a.bytes);
            (a.machine, end, dfas[a.machine].is_accepting(end))
        })
        .collect();
    out.sort_unstable();
    out
}

/// Set-up: compile and transform the machines, and prepare them on every
/// device.
fn setup(devices: &[ClusterDevice], tr: &mut Tracer) -> Built {
    let built = build(tr);
    drop(prepare(devices, &built.fleet(), tr));
    built
}

fn device_reports(r: &ClusterReport) -> Vec<&ServeReport> {
    r.devices.iter().map(|d| &d.report).collect()
}

fn fleet_layers(m: &mut Metrics, r: &ClusterReport) {
    let reports = device_reports(r);
    sim::gpu_metrics(m, &reports);
    sim::serve_metrics(m, &reports);
    sim::cluster_metrics(m, r, &DEVICE_NAMES);
}

/// Times `Router::route` over `arrivals`.
fn route_probe(
    h: &mut Harness<'_>,
    devices: &[ClusterDevice],
    machines: &[ServeMachine<'_>],
    cfg: &ClusterConfig,
    arrivals: &[StreamArrival],
    m: &mut Metrics,
) {
    h.tracer.span("cluster.route", || {
        std::hint::black_box(placement(devices, machines, cfg, arrivals));
    });
    m.put(
        "cluster.route_ns_per_stream",
        h.tracer.total_ns("cluster.route") as f64 / arrivals.len().max(1) as f64,
        "ns/stream",
    );
}

/// The fleet-failover schedule: medium streams in small bursts.
pub fn failover_schedule() -> Schedule {
    Schedule { streams: 3_000, burst: 1..9, mean_gap: 2_000, len: 128..512, machines: RULES.len() }
}

/// The failover configuration for `arrivals`: the device that receives the
/// most bytes dies when the middle arrival arrives.
pub fn failover_config(
    devices: &[ClusterDevice],
    machines: &[ServeMachine<'_>],
    arrivals: &[StreamArrival],
) -> ClusterConfig {
    let mut cfg = cluster_config(machines, ReportDetail::Full);
    cfg.serve.policy = BatchPolicy::Fifo { batch: 8 };
    // Eight chunks per medium stream: the default 256 would cut a
    // 300-byte stream into one-byte chunks.
    cfg.serve.scheme_config.n_chunks = 8;
    let routed = shares(arrivals, &placement(devices, machines, &cfg, arrivals), devices.len());
    let victim = (0..devices.len())
        .max_by_key(|&d| (routed[d].iter().map(|a| a.bytes.len()).sum::<usize>(), d))
        .expect("a fleet has devices");
    let at_cycle = arrivals[arrivals.len() / 2].arrival_cycle;
    cfg.outage = Some(DeviceOutage { device: victim, at_cycle });
    cfg.failover = Some(FailoverConfig::default());
    cfg
}

/// Streams whose answers differ from `Dfa::run`, device by device: the
/// victim keeps its durable prefix, and its orphans replay where the
/// surviving ring routes them.
fn failover_wrong(
    dfas: &[Dfa],
    devices: &[ClusterDevice],
    machines: &[ServeMachine<'_>],
    cfg: &ClusterConfig,
    arrivals: &[StreamArrival],
    r: &ClusterReport,
) -> u64 {
    let outage = cfg.outage.expect("failover runs have an outage");
    let mut expected =
        shares(arrivals, &placement(devices, machines, cfg, arrivals), devices.len());
    let mut orphans = std::mem::take(&mut expected[outage.device]);
    let durable = r.devices[outage.device].report.streams.min(orphans.len());
    expected[outage.device] = orphans.drain(..durable).collect();
    let survivors = HashRing::new(devices.len(), cfg.vnodes).without(outage.device);
    for a in orphans {
        expected[survivors.route(a.machine)].push(a);
    }
    let mut wrong = 0u64;
    for (d, want) in expected.iter().enumerate() {
        let got = served_answers(&r.devices[d].report);
        let want = expected_answers(dfas, want.iter().copied());
        if got != want {
            let matched = got.iter().zip(&want).filter(|(a, b)| a == b).count();
            wrong += want.len().max(got.len()) as u64 - matched as u64;
        }
    }
    wrong
}

/// Runs `fleet-failover`.
pub fn run_failover(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut h = Harness::new(cfg);
    let devices = devices();
    let built = h.setup(|tr| setup(&devices, tr));
    let fleet = built.fleet();
    let machines = prepare(&devices, &fleet, &mut Tracer::new(false));
    let arrivals = Vec::from_iter(BurstSource::new(cfg.seed, failover_schedule(), ALPHABET));
    let trace = gspecpal_serve::Trace::from_arrivals(arrivals.clone());
    let streams = arrivals.len() as u64;
    let bytes: u64 = arrivals.iter().map(|a| a.bytes.len() as u64).sum();
    let cluster_cfg = failover_config(&devices, &machines[0], &arrivals);

    let reference = h
        .reference(|| run_cluster(&devices, &fleet, &trace, &cluster_cfg))
        .map_err(|e| format!("fleet-failover does not serve: {e}"))?;
    let (failed, problems) = sim::cluster_failures(&reference, streams, bytes);
    h.check(problems.is_empty(), failed, || problems.join("; "));
    h.check(reference.lost_streams == 0, reference.lost_streams, || {
        format!("{} streams lost", reference.lost_streams)
    });
    h.check(reference.failover.migrations_replayed > 0, 0, || {
        "the crash left no orphans to replay; the workload does not exercise failover".into()
    });
    let wrong =
        failover_wrong(&built.dfas, &devices, &machines[0], &cluster_cfg, &arrivals, &reference);
    h.check(wrong == 0, wrong, || format!("{wrong} answers differ from Dfa::run"));
    let expect = sim::cluster_digest(&reference);

    h.timed(
        streams,
        expect,
        |tr| drop(setup(&devices, tr)),
        |tr| {
            tr.span("cluster.run_cluster", || run_cluster(&devices, &fleet, &trace, &cluster_cfg))
                .map_err(|e| e.to_string())
        },
        |report| (sim::cluster_digest(report), sim::cluster_failures(report, streams, bytes).0),
    )?;

    let metrics = if cfg.trace {
        let mut m = Metrics::default();
        h.common_layers(None, &mut m);
        let mut plain = cluster_cfg.clone();
        plain.outage = None;
        plain.failover = None;
        route_probe(&mut h, &devices, &machines[0], &plain, &arrivals, &mut m);
        checkpoint_probe(&mut h, &devices, &machines, &cluster_cfg, &arrivals, &mut m)?;
        fleet_layers(&mut m, &reference);
        sim::batch_mix_metrics(&mut m, &device_reports(&reference), false);
        h.per_layer(m)
    } else {
        h.end_to_end(streams, bytes, &Sim::of_cluster(&reference))
    };
    Ok(h.finish(metrics, expect))
}

/// Times `EngineCheckpoint::encode` and `decode` on a snapshot of the
/// victim's engine halfway through its share.
fn checkpoint_probe(
    h: &mut Harness<'_>,
    devices: &[ClusterDevice],
    machines: &[Vec<ServeMachine<'_>>],
    cfg: &ClusterConfig,
    arrivals: &[StreamArrival],
    m: &mut Metrics,
) -> Result<(), String> {
    const REPS: usize = 50;
    let victim = cfg.outage.expect("failover runs have an outage").device;
    let placed = placement(devices, &machines[0], cfg, arrivals);
    let share = shares(arrivals, &placed, devices.len()).swap_remove(victim);
    let formed = share.len() / 16;
    let outcome = serve_checkpoint(
        &devices[victim].spec,
        &machines[victim],
        IterSource(share.iter().map(|&a| a.clone())),
        &cfg.serve,
        formed,
    )
    .map_err(|e| e.to_string())?;
    let CheckpointOutcome::Checkpoint(ck) = outcome else {
        return Err("the victim finished before its checkpoint boundary".into());
    };
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut blob = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        blob = h.tracer.span("serve.checkpoint_encode", || ck.encode());
        enc.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let back = h.tracer.span("serve.checkpoint_decode", || EngineCheckpoint::decode(&blob));
        dec.push(t0.elapsed().as_secs_f64() * 1e6);
        h.check(back.as_ref() == Ok(&*ck), 0, || "checkpoint does not round-trip".into());
    }
    m.put("serve.checkpoint_encode_us", median(&enc), "us");
    m.put("serve.checkpoint_decode_us", median(&dec), "us");
    m.put("serve.checkpoint_kib", blob.len() as f64 / 1024.0, "KiB");
    Ok(())
}
