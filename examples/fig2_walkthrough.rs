//! A textual re-enactment of the paper's Figure 2: Parallel Merge running
//! *div7* with two speculative paths per thread, showing the per-chunk
//! paths, which speculations matched, and where the delayed sequential
//! recovery had to step in.
//!
//! ```text
//! cargo run --release --example fig2_walkthrough
//! ```

use gspecpal::partition::partition;
use gspecpal::predict::predict;
use gspecpal::schemes::{run_scheme, Job};
use gspecpal::table::DeviceTable;
use gspecpal::{SchemeConfig, SchemeKind};
use gspecpal_fsm::examples::div7;
use gspecpal_fsm::render::to_table;
use gspecpal_gpu::DeviceSpec;

fn main() {
    let d = div7();
    println!("div7 transition table (Figure 1(b)):\n{}", to_table(&d, 10));

    // A short bit stream split into 8 chunks, like Fig 2's row of chunks.
    let input: Vec<u8> = b"110100111010101101001110".repeat(4);
    let n = 8usize;
    let chunks = partition(input.len(), n);
    let spec = DeviceSpec::rtx3090();

    // Phase 1: all-state lookback-2 prediction (§IV-A).
    let table = DeviceTable::transformed(&d, d.n_states());
    let pred = predict(&table, &input, &chunks, 2, &spec);
    println!("speculation queues (top-2 of each, as in Fig 2's spec-2):");
    for (i, q) in pred.queues.iter().enumerate() {
        let top: Vec<String> = q.candidates().take(2).map(|s| format!("s{s}")).collect();
        println!("  chunk {i}: QS = [{}] ({} candidates)", top.join(", "), q.initial_len());
    }

    // Phase 2+3: run PM with spec-2 and narrate the result.
    let config = SchemeConfig { n_chunks: n, spec_k: 2, ..SchemeConfig::default() };
    let job = Job::new(&spec, &table, &input, config).expect("valid");
    let out = run_scheme(SchemeKind::Pm, &job);

    println!("\nper-chunk speculative paths (start -> end over the chunk):");
    let mut truth = d.start();
    for (i, range) in chunks.iter().enumerate() {
        let piece = &input[range.clone()];
        let starts: Vec<_> = pred.queues[i].candidates().take(2).collect();
        let paths: Vec<String> =
            starts.iter().map(|&s0| format!("s{s0}->s{}", d.run_from(s0, piece))).collect();
        let new_truth = d.run_from(truth, piece);
        let covered = starts.contains(&truth);
        println!(
            "  chunk {i}: {}  | truth s{truth}->s{new_truth}  {}",
            paths.join("  "),
            if i == 0 {
                "(certain)".to_string()
            } else if covered {
                "MATCH".to_string()
            } else {
                "miss -> delayed recovery".to_string()
            }
        );
        truth = new_truth;
    }

    println!(
        "\nPM(spec-2): {} of {} chunks verified from speculation, {} sequential \
         recoveries, {} total cycles",
        out.verification_matches,
        n - 1,
        out.recovery_runs(),
        out.total_cycles()
    );
    println!(
        "verified end state: s{} ({})",
        out.end_state,
        if out.accepted { "divisible by 7" } else { "not divisible by 7" }
    );
    assert_eq!(out.end_state, d.run(&input));
}
