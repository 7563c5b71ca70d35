//! `gspecpal-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--width <n>]`
//!
//! Prints a host record, the simulated digest and notes, then one JSON
//! result line last. Exits 0 only when every output check passed.

use std::process::ExitCode;

use gspecpal_perfbench::{report, run, RunCfg, Workload};

#[global_allocator]
static ALLOC: gspecpal_perfbench::alloc::CountingAlloc = gspecpal_perfbench::alloc::CountingAlloc;

const USAGE: &str =
    "usage: gspecpal-perfbench --workload <suite-scan|serve-stream|fleet-failover> \
                     --seed <n> --seconds <s> --trace <0|1> [--width <n>]";

struct Args {
    cfg: RunCfg,
    width: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut width = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--width" => {
                let w = value.parse::<usize>().map_err(|_| bad("not a width"))?;
                if w == 0 {
                    return Err(bad("must be at least 1"));
                }
                width = Some(w);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cfg: RunCfg {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        width,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args { cfg, width } = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = gspecpal_perfbench::nproc();
    let width = width.unwrap_or_else(|| cfg.workload.pool_width(nproc));
    // The simulator's pool reads its width from the environment on every
    // parallel call, on every thread; set it before any thread starts.
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());
    println!(
        "host workload={} seed={} trace={} nproc={nproc} width={width} stat=segment-floor cpu=\"{}\"",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        gspecpal_perfbench::cpu_model(),
    );
    println!(
        "note: simulated figures come from the repository's cost model, which has never been \
         validated against real hardware; the residency LRU starts empty"
    );
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("sim_digest {} {:#018x}", cfg.workload.name(), outcome.digest);
    for note in &outcome.notes {
        println!("{note}");
    }
    if cfg.trace {
        let path = std::path::PathBuf::from(".perfbench").join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = outcome.tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if let Err(e) = outcome.tracer.check() {
            eprintln!("span recording is inconsistent: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans {}", path.display());
    }
    let malformed = |m: &&report::Metric| {
        !m.value.is_finite() || !report::valid_name(&m.name) || !report::valid_unit(m.unit)
    };
    if let Some(m) = outcome.metrics.0.iter().find(malformed) {
        eprintln!("metric {} = {} {} is malformed", m.name, m.value, m.unit);
        return ExitCode::FAILURE;
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
