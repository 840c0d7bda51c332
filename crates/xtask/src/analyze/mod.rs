//! The `cargo xtask analyze` driver: wires every pass to the workspace.
//!
//! Three passes run as one suite (`lint` and `analyze` are synonyms —
//! CI gates on the union), **cheapest first** so a dirty tree fails in
//! milliseconds instead of waiting out the expensive scans. Measured on
//! this workspace (see `--timings`; debug build, 2-core x86-64 Linux):
//! hotpath ≈ 50–80 ms, conservation ≈ 190–230 ms, dead-config ≈ 2.0 s.
//!
//! 1. hot-path allocation discipline ([`hotpath`]),
//! 2. counter conservation: every `RunStats` counter fed by behavior
//!    code and emitted by a `summary!` row or a harness ([`conservation`]),
//! 3. dead config ([`dead_config`]).
//!
//! What the toolchain can check lives there instead (DESIGN.md §15):
//! panic-free library code, ambient nondeterminism and shared
//! mutability in the workspace lints and the root `clippy.toml`; enum
//! exhaustiveness in rustc's match checking plus a fn-level
//! `#[deny(clippy::wildcard_enum_match_arm)]` on each protocol-enum
//! consumer; the configuration reference in the `Config` rustdoc, which
//! `#![warn(missing_docs)]` keeps complete.
//!
//! Every pass is timed; `cargo xtask analyze --timings` prints the
//! per-pass wall clock so CI output shows which pass is slow as the
//! suite grows (CI always passes `--timings` for exactly that reason).
// Pass timings read the wall clock: they measure the tool, not a run.
#![allow(clippy::disallowed_methods)]

pub mod conservation;
pub mod dead_config;
pub mod hotpath;

use std::path::Path;
use std::time::{Duration, Instant};

use crate::checks::Violation;
use crate::lexer::{out_of_line_test_modules, scrub};
use crate::{load_sources, read};

/// Everything one suite run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Rule violations, in pass order.
    pub violations: Vec<Violation>,
    /// Files the driver could not read.
    pub io_errors: Vec<String>,
    /// `(pass name, violations found)` per pass, for the summary line.
    pub passes: Vec<(&'static str, usize)>,
    /// `(pass name, wall time)` per pass, for `--timings`.
    pub timings: Vec<(&'static str, Duration)>,
}

impl Report {
    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.io_errors.is_empty()
    }

    fn record(&mut self, pass: &'static str, vs: Vec<Violation>, started: Instant) {
        self.passes.push((pass, vs.len()));
        self.timings.push((pass, started.elapsed()));
        self.violations.extend(vs);
    }
}

/// Loads every non-test source file under the given crate `src/` trees:
/// out-of-line `#[cfg(test)]` modules (e.g. `soft_state_tests.rs`) are
/// dropped; inline test modules are left for `behavior_text` to blank.
fn non_test_sources(
    root: &Path,
    crates: &[&str],
    io_errors: &mut Vec<String>,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for krate in crates {
        let dir = root.join("crates").join(krate).join("src");
        let files = load_sources(root, &dir, io_errors);
        let mut test_stems: Vec<String> = Vec::new();
        for (_, src) in &files {
            test_stems.extend(out_of_line_test_modules(&scrub(src)));
        }
        for (label, src) in files {
            let stem = Path::new(&label)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            if test_stems.contains(&stem) {
                continue;
            }
            out.push((label, src));
        }
    }
    out
}

/// Runs the full suite against the workspace rooted at `root`,
/// cheapest pass first (timings in the module docs).
pub fn run(root: &Path) -> Report {
    let mut report = Report::default();

    // Pass 1: hot-path allocation discipline.
    let t = Instant::now();
    let mut vs = Vec::new();
    for rel in hotpath::HOT_PATH_FILES {
        match read(root, rel) {
            Ok(src) => vs.extend(hotpath::check_hotpath(rel, &src)),
            Err(e) => report.io_errors.push(e),
        }
    }
    report.record("hotpath", vs, t);

    // Pass 2: counter conservation.
    let t = Instant::now();
    let mut vs = Vec::new();
    let stats_label = "crates/terradir/src/stats.rs";
    match read(root, stats_label) {
        Ok(stats) => {
            let writer_crates = ["namespace", "bloom", "workload", "sim", "terradir", "net"];
            let writers: Vec<(String, String)> =
                non_test_sources(root, &writer_crates, &mut report.io_errors)
                    .into_iter()
                    .filter(|(label, _)| label != stats_label)
                    .collect();
            let emitters = non_test_sources(root, &["bench", "cli"], &mut report.io_errors);
            vs.extend(conservation::check_conservation(
                &stats, &writers, &emitters,
            ));
        }
        Err(e) => report.io_errors.push(e),
    }
    report.record("conservation", vs, t);

    // Pass 3: dead config (the expensive one — a full cross-reference
    // of every knob against every reader — so it runs last).
    let t = Instant::now();
    let mut vs = Vec::new();
    match read(root, "crates/terradir/src/config.rs") {
        Ok(config) => {
            let config_label = "crates/terradir/src/config.rs";
            let reader_crates = [
                "namespace",
                "bloom",
                "workload",
                "sim",
                "terradir",
                "net",
                "bench",
                "cli",
            ];
            let readers: Vec<(String, String)> =
                non_test_sources(root, &reader_crates, &mut report.io_errors)
                    .into_iter()
                    .filter(|(label, _)| label != config_label)
                    .collect();
            for name in dead_config::CONFIG_STRUCTS {
                vs.extend(dead_config::check_dead_config(&config, name, &readers));
            }
        }
        Err(e) => report.io_errors.push(e),
    }
    report.record("dead-config", vs, t);

    report
}
