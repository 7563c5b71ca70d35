//! `suite-scan`: the paper's traffic. All 36 suite FSMs (three families,
//! four tiers), each stream drawn from its FSM's own input generator,
//! arriving faster than one RTX 3090 serves them, Full detail so every
//! answer is checked. Host time goes to building the suite (set-up) and
//! to simulating speculative chunk-parallel kernels.

use std::time::Instant;

use gspecpal::GSpecPal;
use gspecpal_fsm::{Dfa, FrequencyProfile, TransformedDfa};
use gspecpal_gpu::DeviceSpec;
use gspecpal_serve::{
    serve_source, BatchPolicy, IterSource, ReportDetail, ServeConfig, ServeMachine, StreamArrival,
};
use gspecpal_workloads::suite::tier_layout;
use gspecpal_workloads::tiers::signature_dfa_with;
use gspecpal_workloads::{build_suite, Benchmark, Family, Tier};
use rand::SeedableRng;

use crate::report::Metrics;
use crate::sim::{self, Sim};
use crate::source::{Pulls, Rng, Rounds, Timed};
use crate::spans::{Aggregate, Tracer};
use crate::{Harness, Outcome, RunCfg};

/// The suite is the paper's fixed benchmark set; `--seed` varies the
/// streams, not the machines.
const SUITE_SEED: u64 = 1;
/// At least 1000 streams, so p99 has at least 10 samples beyond it.
pub const STREAMS: usize = 1200;
/// Multi-KiB streams: long enough that every batch runs chunk-parallel.
pub const LEN: std::ops::Range<usize> = 1024..3072;
/// Chunks per stream: 256-byte chunks on a 2 KiB stream. The simulator's
/// host cost grows with the chunk count; at 256 chunks of 8 bytes one pass
/// would take 20 s, and cheap passes give the host-time statistic more
/// samples.
pub const N_CHUNKS: usize = 8;
/// Mean cycles between arrivals, below the RTX 3090's service time per
/// stream, so arrivals outpace service.
pub const MEAN_GAP: u64 = 2_000;
/// Bytes of each FSM's own generator used to profile it in set-up.
const TRAINING_LEN: usize = 4096;
/// Streams `GSpecPal::run_with` is timed on in the traced run.
const RUN_WITH_STREAMS: usize = 120;

/// The suite plus its frequency-transformed machines and training bytes.
pub struct Built {
    /// The 36 benchmarks.
    pub suite: Vec<Benchmark>,
    /// Each benchmark's DFA, frequency-permuted: what its machine serves.
    pub dfas: Vec<Dfa>,
    training: Vec<Vec<u8>>,
}

/// Builds the suite and transforms every machine (set-up, part one).
pub fn build(tr: &mut Tracer) -> Built {
    let suite = tr.span("workloads.build_suite", || build_suite(SUITE_SEED));
    let (dfas, training) = tr.span("fsm.transform", || {
        suite
            .iter()
            .map(|b| {
                let training = b.generate_input(TRAINING_LEN, 0);
                let freq = FrequencyProfile::collect(&b.dfa, &training);
                (TransformedDfa::from_profile(&b.dfa, &freq).dfa().clone(), training)
            })
            .unzip()
    });
    Built { suite, dfas, training }
}

/// Prepares every machine for the device (set-up, part two).
pub fn prepare<'a>(b: &'a Built, spec: &DeviceSpec, tr: &mut Tracer) -> Vec<ServeMachine<'a>> {
    tr.span("core.prepare", || {
        b.dfas.iter().zip(&b.training).map(|(d, t)| ServeMachine::prepare(spec, d, t)).collect()
    })
}

/// The seeded trace: machines in shuffled rounds, lengths in [`LEN`],
/// gaps in `0..=2 × MEAN_GAP`.
pub fn arrivals(seed: u64, suite: &[Benchmark]) -> Vec<StreamArrival> {
    let mut rng = Rng::new(seed, 0x5c4a);
    let mut rounds = Rounds::new(suite.len());
    let mut clock = 0u64;
    (0..STREAMS)
        .map(|_| {
            clock += rng.below(2 * MEAN_GAP + 1);
            let machine = rounds.next(&mut rng);
            let len = rng.range(LEN);
            let bytes = suite[machine].generate_input(len, rng.next_u64());
            StreamArrival { arrival_cycle: clock, machine, bytes }
        })
        .collect()
}

/// The serving configuration.
pub fn config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy::Fifo { batch: 8 },
        detail: ReportDetail::Full,
        scheme_config: gspecpal::SchemeConfig {
            n_chunks: N_CHUNKS,
            ..gspecpal::SchemeConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut h = Harness::new(cfg);
    let spec = DeviceSpec::rtx3090();
    let setup = |tr: &mut Tracer| {
        let built = build(tr);
        drop(prepare(&built, &spec, tr));
        built
    };
    let built = h.setup(setup);
    let machines = prepare(&built, &spec, &mut Tracer::new(false));
    let arrivals = arrivals(cfg.seed, &built.suite);
    let streams = arrivals.len() as u64;
    let bytes: u64 = arrivals.iter().map(|a| a.bytes.len() as u64).sum();
    let serve_cfg = config();

    // Reference pass, untimed: every answer against `Dfa::run`.
    let reference = h
        .reference(|| {
            serve_source(&spec, &machines, IterSource(arrivals.iter().cloned()), &serve_cfg)
        })
        .map_err(|e| format!("suite-scan does not serve: {e}"))?;
    let (failed, problems) = sim::serve_failures(&reference, streams, bytes);
    h.check(problems.is_empty(), failed, || problems.join("; "));
    let wrong = arrivals
        .iter()
        .enumerate()
        .filter(|&(i, a)| {
            let dfa = &built.dfas[a.machine];
            let end = dfa.run(&a.bytes);
            reference.end_states.get(i) != Some(&end)
                || reference.accepted.get(i) != Some(&dfa.is_accepting(end))
        })
        .count() as u64;
    h.check(wrong == 0, wrong, || format!("{wrong} answers differ from Dfa::run"));
    let expect = sim::serve_digest(&reference);

    h.timed(
        streams,
        expect,
        |tr| drop(setup(tr)),
        |tr| {
            let pulls = Pulls::default();
            let span = tr.enter("serve.engine");
            let source =
                Timed::new(IterSource(arrivals.iter().cloned()), tr.enabled().then_some(&pulls));
            let report =
                serve_source(&spec, &machines, source, &serve_cfg).map_err(|e| e.to_string())?;
            tr.exit(span);
            tr.aggregate(Aggregate {
                name: "workloads.source",
                parent: span,
                count: pulls.count.get(),
                total_ns: pulls.ns.get(),
                allocs: pulls.allocs.get(),
            });
            Ok(report)
        },
        |report| (sim::serve_digest(report), sim::serve_failures(report, streams, bytes).0),
    )?;

    let metrics = if cfg.trace {
        let mut m = Metrics::default();
        h.common_layers(Some("serve.engine"), &mut m);
        m.put("workloads.suite_build_s", h.per_setup_s("workloads.build_suite"), "s");
        probes(&mut h, &built, &machines, &arrivals, &mut m);
        sim::gpu_metrics(&mut m, &[&reference]);
        sim::serve_metrics(&mut m, &[&reference]);
        sim::batch_mix_metrics(&mut m, &[&reference], true);
        h.per_layer(m)
    } else {
        h.end_to_end(streams, bytes, &Sim::of_serve(&reference))
    };
    Ok(h.finish(metrics, expect))
}

/// The traced run's probes: compile, minimize and `run_with`, each timed
/// on its own.
fn probes(
    h: &mut Harness<'_>,
    built: &Built,
    machines: &[ServeMachine<'_>],
    arrivals: &[StreamArrival],
    m: &mut Metrics,
) {
    // The suite's signature rule sets, recompiled exactly as the suite
    // builder draws them.
    let compile = h.tracer.enter("regexc.compile_set");
    for family in Family::all() {
        for (i, tier) in tier_layout(family).into_iter().enumerate() {
            if tier == Tier::SlowConvergence {
                continue;
            }
            let bench_seed = SUITE_SEED
                .wrapping_mul(0x100000001b3)
                .wrapping_add((family as u64) << 32 | (i + 1) as u64);
            let mut rng = rand::rngs::StdRng::seed_from_u64(bench_seed);
            std::hint::black_box(signature_dfa_with(family, &mut rng, tier == Tier::SpecKFriendly));
        }
    }
    h.tracer.exit(compile);
    m.put("regexc.compile_s", h.tracer.total_ns("regexc.compile_set") as f64 / 1e9, "s");

    let minimize = h.tracer.enter("fsm.minimize");
    let mut worst = 0.0f64;
    for b in &built.suite {
        let t0 = Instant::now();
        std::hint::black_box(gspecpal_fsm::minimize::minimize(&b.dfa));
        worst = worst.max(t0.elapsed().as_secs_f64());
    }
    h.tracer.exit(minimize);
    m.put("fsm.minimize_s", h.tracer.total_ns("fsm.minimize") as f64 / 1e9, "s");
    m.put("fsm.minimize_max_ms", worst * 1e3, "ms");

    let fw = GSpecPal::new(DeviceSpec::rtx3090()).with_config(config().scheme_config);
    let run_with = h.tracer.enter("core.run_with");
    let mut run_bytes = 0u64;
    for a in arrivals.iter().take(RUN_WITH_STREAMS) {
        let dfa = &built.suite[a.machine].dfa;
        let out = fw.run_with(dfa, &a.bytes, machines[a.machine].scheme());
        run_bytes += a.bytes.len() as u64;
        let expect = dfa.run(&a.bytes);
        h.check(out.end_state == expect, 1, || format!("run_with answer differs ({})", a.machine));
    }
    h.tracer.exit(run_with);
    m.put(
        "core.run_ns_per_byte",
        h.tracer.total_ns("core.run_with") as f64 / run_bytes.max(1) as f64,
        "ns/B",
    );
}
