//! A `perf c2c`-style contention report (§5 compares TMI's HITM machinery
//! to Intel VTune and Linux `perf c2c`, which report but do not repair),
//! plus a Cheetah-style prediction of the manual-fix speedup — validated
//! against the actually measured manual fix.
//!
//! ```sh
//! cargo run --release --example detect_report [workload]
//! ```

use tmi_repro::bench::JobSpec;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "lreg".to_string());

    let (result, report, predicted) = JobSpec::repair(&name)
        .scale(1.0)
        .misaligned()
        .run_detect_report();
    assert!(result.ok(), "{name}: {:?}", result.verified);

    println!("{}", report.render());
    println!(
        "true-sharing : false-sharing event ratio = {:.2}",
        report.true_to_false_ratio()
    );
    println!("\npredicted manual-fix speedup (Cheetah-style): {predicted:.2}x");

    // Validate the prediction against reality.
    let base = JobSpec::repair(&name).scale(1.0).misaligned().run();
    let fixed = JobSpec::repair(&name).scale(1.0).fixed().run();
    if base.ok() && fixed.ok() {
        println!(
            "measured manual-fix speedup:                  {:.2}x",
            base.cycles as f64 / fixed.cycles as f64
        );
    }
}
