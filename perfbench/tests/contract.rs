//! The benchmark's own checks: metric names and units, p99 tail sizes,
//! span nesting on a real traced run, and seed and pool-width behaviour.
//! The binary is run with a short `--seconds`; build with `--release` to
//! keep these fast.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use gspecpal_perfbench::report::{beyond_p99, valid_name, valid_unit};
use gspecpal_perfbench::source::BurstSource;
use gspecpal_perfbench::{fleet, serve_stream, suite_scan, END_TO_END, PER_LAYER};

/// One finished run: its stdout lines and the metrics of the result line.
struct RunOut {
    lines: Vec<String>,
    metrics: BTreeMap<String, f64>,
    correct: bool,
}

impl RunOut {
    fn digest(&self) -> &str {
        self.lines.iter().find(|l| l.starts_with("sim_digest")).expect("a digest line")
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

/// Runs the binary and parses the last stdout line.
fn run(dir: &str, args: &[&str]) -> RunOut {
    let out = Command::new(env!("CARGO_BIN_EXE_gspecpal-perfbench"))
        .args(args)
        .current_dir(scratch(dir))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.last().expect("a result line");
    let metrics = parse_metrics(last);
    RunOut { correct: last.contains("\"correct\": true"), lines, metrics }
}

/// Pulls `"name": {"value": v, ...}` pairs out of the result line.
fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let body = line.split_once("\"metrics\": {").expect("a metrics object").1;
    body.split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry.trim_start_matches('"').split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

#[test]
fn metric_names_are_valid_unique_units_present_and_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{name}: {unit}");
        assert!(seen.insert(*name), "{name} listed twice");
        let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&declared), "BENCHMARK.json lacks {declared}");
    }
    let declared = json.matches("\"name\": ").count();
    let workloads = gspecpal_perfbench::Workload::ALL.len();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + workloads,
        "stray metric in BENCHMARK.json"
    );
}

#[test]
fn every_workload_has_ten_samples_beyond_p99() {
    for n in
        [suite_scan::STREAMS, serve_stream::schedule().streams, fleet::failover_schedule().streams]
    {
        assert!(beyond_p99(n as u64) >= 10, "{n} streams");
    }
}

#[test]
fn equal_seeds_repeat_every_simulated_figure_other_seeds_change_the_inputs() {
    let args =
        |seed| ["--workload", "serve-stream", "--seed", seed, "--seconds", "0.1", "--trace", "0"];
    let a = run("seed-a", &args("11"));
    let b = run("seed-b", &args("11"));
    assert!(a.correct && b.correct);
    assert_eq!(a.digest(), b.digest());
    for (name, _) in END_TO_END.iter().filter(|(n, _)| n.starts_with("sim_")) {
        assert_eq!(a.metrics[*name], b.metrics[*name], "{name}");
    }
    assert_eq!(a.metrics["host_allocs_per_stream"], b.metrics["host_allocs_per_stream"]);
    let c = run("seed-c", &args("12"));
    assert_ne!(a.digest(), c.digest());
    let inputs = |seed| Vec::from_iter(BurstSource::new(seed, serve_stream::schedule(), b"ab"));
    assert_ne!(inputs(11), inputs(12));
}

#[test]
fn digest_is_the_same_at_pool_widths_one_and_two() {
    for workload in ["serve-stream", "fleet-failover"] {
        let args = |w| {
            [
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.1",
                "--trace",
                "0",
                "--width",
                w,
            ]
        };
        let one = run(&format!("{workload}-w1"), &args("1"));
        let two = run(&format!("{workload}-w2"), &args("2"));
        assert_eq!(one.digest(), two.digest(), "{workload}");
    }
}

#[test]
fn traced_run_reports_every_layer_with_nested_spans() {
    let dir = "traced";
    let out = run(
        dir,
        &["--workload", "serve-stream", "--seed", "5", "--seconds", "0.2", "--trace", "1"],
    );
    assert!(out.correct);
    let names: Vec<&String> = out.metrics.keys().collect();
    let mut expect: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    expect.sort_unstable();
    assert_eq!(names, expect);
    assert!(out.metrics["serve.engine_ns_per_stream"] > 0.0);
    assert!(out.metrics["workloads.source_ns_per_stream"] > 0.0);
    // The binary refuses to print a result when spans do not nest or a
    // self time is negative; check the written file agrees.
    let spans =
        std::fs::read_to_string(scratch(dir).join(".perfbench/spans-serve-stream-seed5.jsonl"))
            .expect("spans written");
    assert!(spans.lines().any(|l| l.contains("\"name\":\"serve.engine\"")));
    assert!(spans.lines().all(|l| !l.contains("\"self_ns\":-")));
}
