// Developer tool binary: aborting on unexpected state is the correct
// failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Repository auditor CLI: `cargo xtask lint` / `cargo xtask analyze`.
//!
//! Both subcommands run the full three-pass static-analysis suite (see
//! `xtask::analyze` and DESIGN.md §15–16). Exit status is 0 when clean,
//! 1 otherwise, so CI can gate on it. `--timings` prints per-pass wall
//! time so CI output shows which pass is slow as the suite grows.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_default();
    let timings = args.iter().any(|a| a == "--timings");
    let unknown = args.iter().skip(1).any(|a| a != "--timings");
    if (mode != "lint" && mode != "analyze") || unknown {
        eprintln!("usage: cargo xtask <lint|analyze> [--timings]");
        return ExitCode::from(2);
    }
    let report = xtask::analyze::run(&xtask::workspace_root());
    if timings {
        println!("xtask {mode}: per-pass wall time");
        for (name, took) in &report.timings {
            println!("  {name:<14} {:8.2} ms", took.as_secs_f64() * 1e3);
        }
    }
    for e in &report.io_errors {
        eprintln!("xtask: io error: {e}");
    }
    for v in &report.violations {
        eprintln!("{v}");
    }
    let passes: Vec<String> = report
        .passes
        .iter()
        .map(|(name, n)| format!("{name}: {n}"))
        .collect();
    if report.is_clean() {
        println!("xtask {mode}: ok ({})", passes.join(", "));
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xtask {mode}: {} violation(s), {} io error(s) ({})",
            report.violations.len(),
            report.io_errors.len(),
            passes.join(", ")
        );
        ExitCode::FAILURE
    }
}
