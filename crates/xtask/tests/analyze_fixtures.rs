// Test code: panicking asserts are the point.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! Fixture tests for the `cargo xtask analyze` passes: each known-bad
//! fixture under `tests/fixtures/` seeds violations on annotated lines,
//! and the passes must report exactly those `path:line` locations —
//! while the known-clean fixture sails through every pass untouched.
//! `lint_wall_bad.rs` does the same job for the bans in `clippy.toml`,
//! and `exhaustive_bad.rs` for the wildcard deny on protocol-enum
//! consumers (CI compiles both with `clippy-driver`).

use std::path::Path;

use xtask::analyze::{conservation, dead_config, hotpath};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn srcs(label: &str, s: &str) -> Vec<(String, String)> {
    vec![(label.to_string(), s.to_string())]
}

#[test]
fn conservation_fixture_is_flagged_at_the_field_declaration() {
    let stats = fixture("conservation_bad.rs");
    let writers = srcs(
        "crates/terradir/src/system.rs",
        "fn f(st: &mut RunStats) { st.injected += 1; }",
    );
    let emitters = srcs(
        "crates/bench/src/bin/fig.rs",
        "fn g(st: &RunStats) { let _ = st.summary(); }",
    );
    let vs = conservation::check_conservation(&stats, &writers, &emitters);
    let whats: Vec<String> = vs.iter().map(ToString::to_string).collect();
    assert_eq!(vs.len(), 2, "{whats:#?}");
    // ghost_counter: unfed and unemitted, both at line 9.
    assert!(whats
        .iter()
        .any(|w| w.contains(":9: ") && w.contains("`ghost_counter` is never fed")));
    assert!(whats
        .iter()
        .any(|w| w.contains(":9: ") && w.contains("`ghost_counter` is never emitted")));
}

#[test]
fn dead_config_fixture_is_flagged_at_the_orphan_knob() {
    let config = fixture("dead_config_bad.rs");
    let readers = srcs(
        "crates/terradir/src/system.rs",
        "fn f(c: &Config) { let _ = c.live_knob && c.gated_active(); }",
    );
    let vs = dead_config::check_dead_config(&config, "Config", &readers);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!(vs[0].line, 9);
    assert!(vs[0].what.contains("Config field `orphan_knob` is dead"));
    // `gated` is consumed only through its accessor — still live.
    assert!(!vs.iter().any(|v| v.what.contains("`gated`")));
}

#[test]
fn hotpath_fixture_is_flagged_at_exact_lines() {
    let src = fixture("hotpath_bad.rs");
    let label = "crates/terradir/src/hotpath_bad.rs";
    let vs = hotpath::check_hotpath(label, &src);
    let got: Vec<(usize, &str)> = vs.iter().map(|v| (v.line, v.what.as_str())).collect();
    assert_eq!(vs.len(), 9, "{got:#?}");
    let expect: &[(usize, &str)] = &[
        (6, ".clone"),
        (10, ".to_string"),
        (11, "format!"),
        (15, "Box::new"),
        (15, "vec!"),
        (19, ".collect"),
        (23, "String::from"),
        (27, "without a justification"),
        (28, ".clone"),
    ];
    for (v, (line, needle)) in vs.iter().zip(expect) {
        assert_eq!(v.line, *line, "{got:#?}");
        assert!(v.what.contains(needle), "line {line}: {}", v.what);
        assert_eq!(v.file, label);
        // The rendered diagnostic is a clickable path:line.
        assert!(v.to_string().starts_with(&format!("{label}:{}", v.line)));
    }
    // The justified marker at line 32 suppressed the clone at line 33,
    // and the cfg(test) module at the bottom never reported.
    assert!(!vs.iter().any(|v| v.line >= 31), "{got:#?}");
}

/// The source bans clippy enforces from the root `clippy.toml`. Pinned
/// here so dropping a ban is a visible test change, not a quiet edit.
const CLIPPY_BANS: &[&str] = &[
    "std::time::Instant::now",
    "std::collections::HashMap::new",
    "std::collections::HashMap::with_capacity",
    "std::collections::HashSet::new",
    "std::collections::HashSet::with_capacity",
    "std::time::SystemTime",
    "std::hash::RandomState",
    "std::rc::Rc",
    "std::cell::RefCell",
    "std::cell::Cell",
    "std::cell::UnsafeCell",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::thread_local",
];

#[test]
fn lint_wall_fixture_uses_every_clippy_toml_ban() {
    // CI compiles the fixture under clippy and requires a diagnostic for
    // every `path = "…"` in clippy.toml; this keeps the three in step.
    let toml = std::fs::read_to_string(xtask::workspace_root().join("clippy.toml")).unwrap();
    let listed: Vec<&str> = toml
        .split("path = \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(listed, CLIPPY_BANS);
    let src = fixture("lint_wall_bad.rs");
    for path in CLIPPY_BANS {
        assert!(src.contains(path), "lint_wall_bad.rs never uses `{path}`");
    }
}

#[test]
fn hotpath_clean_fixture_passes() {
    let src = fixture("hotpath_clean.rs");
    let vs = hotpath::check_hotpath("crates/sim/src/calendar.rs", &src);
    assert!(vs.is_empty(), "hotpath: {vs:?}");
}

#[test]
fn clean_fixture_passes_every_pass() {
    let src = fixture("clean.rs");
    let label = "crates/terradir/src/clean.rs";

    let writers = srcs(label, &src);
    let emitters = srcs(
        "crates/bench/src/bin/fig.rs",
        "fn g(st: &RunStats) { let _ = st.summary(); }",
    );
    let vs = conservation::check_conservation(&src, &writers, &emitters);
    assert!(vs.is_empty(), "conservation: {vs:?}");

    let vs = dead_config::check_dead_config(&src, "Config", &writers);
    assert!(vs.is_empty(), "dead-config: {vs:?}");
}

#[test]
fn full_suite_is_clean_on_this_workspace() {
    // The acceptance gate, as a test: the real tree has no violations.
    let report = xtask::analyze::run(&xtask::workspace_root());
    assert!(
        report.is_clean(),
        "violations: {:#?}\nio errors: {:#?}",
        report.violations,
        report.io_errors
    );
    // All three passes actually ran, cheapest first, and each was timed.
    let names: Vec<&str> = report.passes.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, vec!["hotpath", "conservation", "dead-config"]);
    let timed: Vec<&str> = report.timings.iter().map(|(n, _)| *n).collect();
    assert_eq!(timed, names);
}
