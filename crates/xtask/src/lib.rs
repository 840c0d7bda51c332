// Developer tool: aborting on unexpected state is the correct failure
// mode, and the lexer walks byte offsets it maintains itself.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
#![forbid(unsafe_code)]

//! Repository auditor and static-analysis suite, run as `cargo xtask lint`
//! or `cargo xtask analyze` (the two are synonyms; both run everything).
//!
//! The build environment has no `syn`, so every pass works on scrubbed
//! source text ([`lexer`]) — comments and literals blanked, offsets and
//! line numbers preserved — plus a small parser for struct fields
//! ([`checks`]).
//!
//! Three passes, in run order ([`analyze`], DESIGN.md §15): hot-path
//! allocations (≈ 50–80 ms on a 2-core x86-64 Linux debug build),
//! counter conservation (every `RunStats` counter fed and emitted,
//! ≈ 190–230 ms) and dead config (≈ 2.0 s).
//!
//! Checks rustc and clippy can express are not re-implemented here:
//! source bans live in the workspace lints and the root `clippy.toml`,
//! enum exhaustiveness in wildcard-free matches under a fn-level
//! `#[deny(clippy::wildcard_enum_match_arm)]`, and the configuration
//! reference in the `Config` rustdoc under `#![warn(missing_docs)]`.

use std::path::{Path, PathBuf};

pub mod analyze;
pub mod checks;
pub mod lexer;

/// The workspace root, resolved from this crate's manifest directory
/// (`crates/xtask` → two levels up).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Reads one workspace-relative file, labeling errors with the path.
pub fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))
}

/// Every `.rs` file under `dir`, recursively, in sorted order.
pub fn collect_rs_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", d.display()))?;
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Loads every `.rs` file under `dir` as `(workspace-relative label,
/// contents)` pairs, accumulating unreadable paths into `io_errors`.
pub fn load_sources(root: &Path, dir: &Path, io_errors: &mut Vec<String>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    match collect_rs_files(dir) {
        Ok(files) => {
            for f in &files {
                let label = f.strip_prefix(root).unwrap_or(f).display().to_string();
                match std::fs::read_to_string(f) {
                    Ok(src) => out.push((label, src)),
                    Err(e) => io_errors.push(format!("{label}: {e}")),
                }
            }
        }
        Err(e) => io_errors.push(e),
    }
    out
}
