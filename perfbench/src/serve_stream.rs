//! `serve-stream`: one small machine on one device. Many tiny streams in
//! bursts that keep the admission queue full, Bounded detail. Host time
//! goes to source pulls, admission, batching, accounting and sketches;
//! kernels are trivial stream-parallel scans.

use gspecpal_fsm::{Dfa, FrequencyProfile, TransformedDfa};
use gspecpal_gpu::DeviceSpec;
use gspecpal_regex::{compile_set, CompileConfig};
use gspecpal_serve::{
    serve_source, BatchPolicy, IterSource, ReportDetail, ServeConfig, ServeMachine,
};

use crate::report::Metrics;
use crate::sim::{self, Sim};
use crate::source::{BurstSource, Pulls, Rng, Schedule, Timed};
use crate::spans::{Aggregate, Tracer};
use crate::{Harness, Outcome, RunCfg};

const RULES: [&str; 2] = ["ab+c", "x[0-9]+y"];
const ALPHABET: &[u8] = b"abcxy0129";
/// Streams replayed with Full detail to check answers.
const CHECKED_PREFIX: usize = 4096;

/// The arrival schedule: bursts of tiny streams, faster than the device
/// drains them.
pub fn schedule() -> Schedule {
    Schedule { streams: 200_000, burst: 16..97, mean_gap: 1_500, len: 16..64, machines: 1 }
}

/// Compiles and transforms the machine.
pub fn build(tr: &mut Tracer) -> (Dfa, Vec<u8>) {
    let dfa = tr.span("regexc.compile_set", || {
        compile_set(&RULES, CompileConfig::default()).expect("fixed rules compile")
    });
    let training = Rng::new(0, 0x7a11).bytes(ALPHABET, 4096);
    let dfa = tr.span("fsm.transform", || {
        let freq = FrequencyProfile::collect(&dfa, &training);
        TransformedDfa::from_profile(&dfa, &freq).dfa().clone()
    });
    (dfa, training)
}

/// The serving configuration.
pub fn config(detail: ReportDetail) -> ServeConfig {
    ServeConfig { policy: BatchPolicy::Fifo { batch: 32 }, detail, ..ServeConfig::default() }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut h = Harness::new(cfg);
    let spec = DeviceSpec::rtx3090();
    let setup = |tr: &mut Tracer| {
        let built = build(tr);
        tr.span("core.prepare", || drop(ServeMachine::prepare(&spec, &built.0, &built.1)));
        built
    };
    let (dfa, training) = h.setup(setup);
    let machines = [ServeMachine::prepare(&spec, &dfa, &training)];
    let shape = schedule();
    let streams = shape.streams as u64;
    let bytes: u64 =
        BurstSource::new(cfg.seed, shape.clone(), ALPHABET).map(|a| a.bytes.len() as u64).sum();

    // Answers: a Full-detail replay of the trace's prefix, untimed.
    let prefix: Vec<_> = Vec::from_iter(BurstSource::new(
        cfg.seed,
        Schedule { streams: CHECKED_PREFIX, ..shape.clone() },
        ALPHABET,
    ));
    let full = serve_source(
        &spec,
        &machines,
        IterSource(prefix.iter().cloned()),
        &config(ReportDetail::Full),
    )
    .map_err(|e| format!("serve-stream prefix does not serve: {e}"))?;
    let wrong = prefix
        .iter()
        .enumerate()
        .filter(|&(i, a)| full.end_states.get(i) != Some(&dfa.run(&a.bytes)))
        .count() as u64;
    h.check(wrong == 0, wrong, || format!("{wrong} prefix answers differ from Dfa::run"));

    let serve_cfg = config(ReportDetail::Bounded);
    let reference = h
        .reference(|| {
            let source = IterSource(BurstSource::new(cfg.seed, shape.clone(), ALPHABET));
            serve_source(&spec, &machines, source, &serve_cfg)
        })
        .map_err(|e| format!("serve-stream does not serve: {e}"))?;
    let (failed, problems) = sim::serve_failures(&reference, streams, bytes);
    h.check(problems.is_empty(), failed, || problems.join("; "));
    let expect = sim::serve_digest(&reference);

    h.timed(
        streams,
        expect,
        |tr| drop(setup(tr)),
        |tr| {
            let pulls = Pulls::default();
            let span = tr.enter("serve.engine");
            let source = Timed::new(
                IterSource(BurstSource::new(cfg.seed, shape.clone(), ALPHABET)),
                tr.enabled().then_some(&pulls),
            );
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
        sim::gpu_metrics(&mut m, &[&reference]);
        sim::serve_metrics(&mut m, &[&reference]);
        sim::batch_mix_metrics(&mut m, &[&full], false);
        h.per_layer(m)
    } else {
        h.end_to_end(streams, bytes, &Sim::of_serve(&reference))
    };
    Ok(h.finish(metrics, expect))
}
