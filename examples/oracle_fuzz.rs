//! Differential-oracle walkthrough: check one litmus seed through the
//! full TMI repair path, then flip code-centric consistency off and watch
//! the same program population diverge — the §3.4 correctness argument
//! and its Figs. 11–12 ablation in miniature.
//!
//! ```text
//! cargo run --release --example oracle_fuzz [seed]
//! ```

use tmi_repro::bench::fuzz::{run_campaign, FuzzConfig};
use tmi_repro::oracle::{check_seed, CheckConfig, Litmus};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(2);

    println!("=== litmus program for seed {seed} ===");
    println!("{}", Litmus::generate(seed).listing());

    println!("=== repaired run vs sequential oracle (code-centric on) ===");
    let on = check_seed(seed, &CheckConfig::default());
    print!("{}", on.render());
    assert!(
        on.clean(),
        "repair with code-centric consistency must agree"
    );

    println!("=== the same seed without code-centric consistency ===");
    let off = check_seed(
        seed,
        &CheckConfig {
            code_centric: false,
            ..CheckConfig::default()
        },
    );
    print!("{}", off.render());
    if off.clean() {
        println!("(this seed happens to survive the ablation — many do not)");
    }

    println!("=== a small ablated campaign ===");
    let campaign = run_campaign(&FuzzConfig {
        seeds: 32,
        check: CheckConfig {
            code_centric: false,
            ..CheckConfig::default()
        },
        ..FuzzConfig::default()
    });
    print!("{}", campaign.render());
}
