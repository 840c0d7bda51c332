//! Experiment harness shared by every figure-reproduction binary.
//!
//! Each binary in `src/bin/` regenerates one figure/table of the paper
//! (see DESIGN.md §4 for the index and EXPERIMENTS.md for results). All of
//! them accept:
//!
//! ```text
//! --full           paper scale (4096 servers, full λ, full durations)
//! --servers N      override the server count (nodes scale with it)
//! --seed S         master seed (default 42)
//! --time-mult F    multiply run durations by F
//! ```
//!
//! The default ("quick") scale divides the paper's system by 16
//! (256 servers) and scales the arrival rates proportionally, which
//! preserves per-server utilization — the quantity every experiment's
//! shape depends on — while finishing in seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use terradir::Config;
use terradir_namespace::{balanced_tree, coda_like, CodaParams, Namespace};
use terradir_workload::{seed::tags, seeded_rng};

/// Parsed command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Run at full paper scale.
    pub full: bool,
    /// Server-count override.
    pub servers: Option<u32>,
    /// Master seed.
    pub seed: u64,
    /// Duration multiplier.
    pub time_mult: f64,
}

impl Args {
    /// Parses `std::env::args()`, exiting with usage on error.
    pub fn parse() -> Args {
        let mut args = Args {
            full: false,
            servers: None,
            seed: 42,
            time_mult: 1.0,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => args.full = true,
                "--servers" => {
                    args.servers = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--servers needs a number")),
                    );
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--time-mult" => {
                    args.time_mult = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--time-mult needs a number"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// The scale this invocation runs at.
    pub fn scale(&self) -> Scale {
        let servers = self.servers.unwrap_or(if self.full { 4096 } else { 256 });
        Scale::for_servers(servers, self.time_mult)
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: <bin> [--full] [--servers N] [--seed S] [--time-mult F]");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Experiment scale: everything derived from the server count so that
/// per-server utilization matches the paper at any size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Participating servers.
    pub servers: u32,
    /// Levels of the balanced binary T_S namespace (8 nodes/server).
    pub ts_levels: u16,
    /// Node count of the synthetic Coda-like T_C namespace (~20/server).
    pub tc_nodes: usize,
    /// Multiplier applied to the paper's arrival rates (servers / 4096).
    pub rate_mult: f64,
    /// Multiplier applied to run durations.
    pub time_mult: f64,
}

impl Scale {
    /// Builds the scale for a server count (rounded up to a power of two
    /// so the balanced tree gives exactly 8 nodes/server).
    pub fn for_servers(servers: u32, time_mult: f64) -> Scale {
        assert!(servers >= 2, "need at least 2 servers");
        let servers = servers.next_power_of_two();
        // 8 nodes/server: tree with servers*8 − 1 = 2^(levels+1) − 1 nodes.
        let ts_levels = ((servers * 8).ilog2() - 1) as u16;
        Scale {
            servers,
            ts_levels,
            tc_nodes: servers as usize * 20,
            rate_mult: servers as f64 / 4096.0,
            time_mult,
        }
    }

    /// The synthetic T_S namespace (perfectly balanced binary tree).
    pub fn ts_namespace(&self) -> Namespace {
        balanced_tree(2, self.ts_levels)
    }

    /// The Coda-stand-in T_C namespace (seeded from the master seed).
    pub fn tc_namespace(&self, seed: u64) -> Namespace {
        let params = CodaParams {
            nodes: self.tc_nodes,
            ..CodaParams::default()
        };
        let mut rng = seeded_rng(seed, tags::NAMESPACE);
        coda_like(&params, &mut rng)
    }

    /// The paper's λ scaled to this system size.
    pub fn rate(&self, paper_rate: f64) -> f64 {
        (paper_rate * self.rate_mult).max(1.0)
    }

    /// A run duration scaled by the time multiplier.
    pub fn duration(&self, paper_seconds: f64) -> f64 {
        (paper_seconds * self.time_mult).max(1.0)
    }

    /// The paper-default protocol configuration at this scale.
    pub fn config(&self, seed: u64) -> Config {
        Config::paper_default(self.servers).with_seed(seed)
    }
}

/// Minimal hand-rolled JSON object builder for the machine-readable
/// `BENCH_<name>.json` summaries (the workspace deliberately has no
/// serde; see DESIGN.md §4). Keys keep insertion order so outputs are
/// byte-stable across runs of the same binary.
#[derive(Debug, Default, Clone)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// New empty object.
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    fn push(mut self, key: &str, rendered: String) -> JsonObj {
        self.fields.push((escape_json(key), rendered));
        self
    }

    /// Adds a float field; non-finite values render as `null` (JSON has
    /// no NaN/Infinity) so "never recovered" markers survive parsing.
    #[must_use]
    pub fn num(self, key: &str, v: f64) -> JsonObj {
        self.push(key, render_num(v))
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(self, key: &str, v: u64) -> JsonObj {
        self.push(key, format!("{v}"))
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(self, key: &str, v: &str) -> JsonObj {
        let escaped = escape_json(v);
        self.push(key, format!("\"{escaped}\""))
    }

    /// Adds an array of floats (non-finite values become `null`).
    #[must_use]
    pub fn arr(self, key: &str, vs: &[f64]) -> JsonObj {
        let cells: Vec<String> = vs.iter().map(|&v| render_num(v)).collect();
        self.push(key, format!("[{}]", cells.join(",")))
    }

    /// Adds a nested object field.
    #[must_use]
    pub fn obj(self, key: &str, v: JsonObj) -> JsonObj {
        let rendered = v.render();
        self.push(key, rendered)
    }

    /// Adds a field whose value is already-rendered JSON, embedded
    /// verbatim (the caller vouches for its validity). This is how the
    /// bench bins splice the protocol's own `Summary::to_json()` into
    /// `BENCH_*.json`, so every counter flows through the one emitter the
    /// conservation pass audits (DESIGN.md §15).
    #[must_use]
    pub fn raw(self, key: &str, rendered: &str) -> JsonObj {
        self.push(key, rendered.to_string())
    }

    /// Renders the object as a single-line JSON document.
    pub fn render(&self) -> String {
        let cells: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

fn render_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn escape_json(s: &str) -> String {
    // escape_default covers `"` and `\` plus control characters; its
    // \u{XX} form for controls is not valid JSON, but no bench emits
    // control characters in keys or labels.
    s.chars().flat_map(char::escape_default).collect()
}

/// Writes `BENCH_<name>.json` into the current directory so CI and
/// plotting scripts can consume experiment results without scraping
/// TSV. Failure to write is a warning, not an abort: the human-readable
/// stdout report is the primary artifact.
pub fn write_bench_json(name: &str, obj: &JsonObj) {
    let path = format!("BENCH_{name}.json");
    let mut body = obj.render();
    body.push('\n');
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

/// Prints a TSV header line (column names) to stdout.
pub fn tsv_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Prints one TSV row of floats with stable formatting.
pub fn tsv_row(label: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    println!("{label}\t{}", cells.join("\t"));
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Trailing 9-second mean of a per-second reconvergence curve (single
/// seconds hold a few hundred resolutions, so the raw bins carry ~±1 %
/// shot noise).
pub fn smooth(curve: &[f64]) -> Vec<f64> {
    (0..curve.len())
        .map(|i| {
            let w = curve.get(i.saturating_sub(8)..=i).unwrap_or_default();
            w.iter().sum::<f64>() / w.len() as f64
        })
        .collect()
}

/// Seconds from `event_at` until the smoothed curve reaches ≥ 99 % clean
/// resolutions and *stays* there through the rest of `[event_at, limit)`.
/// Infinite when the fleet never settles inside the window.
pub fn time_to_reconverge(curve: &[f64], event_at: f64, limit: f64) -> f64 {
    let lo = event_at.floor() as usize;
    let hi = (limit.floor() as usize).min(curve.len());
    let window = curve.get(lo..hi).unwrap_or_default();
    let settled = window.iter().rev().take_while(|&&c| c >= 0.99).count();
    if settled == 0 {
        f64::INFINITY
    } else {
        ((hi - settled) as f64 - event_at).max(0.0)
    }
}

/// A minimal shape-check reporter: prints PASS/FAIL lines the
/// EXPERIMENTS.md table is built from, and tracks overall status.
#[derive(Debug, Default)]
pub struct ShapeChecks {
    failures: usize,
    total: usize,
}

impl ShapeChecks {
    /// New empty checker.
    pub fn new() -> ShapeChecks {
        ShapeChecks::default()
    }

    /// Records one named check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.total += 1;
        if !ok {
            self.failures += 1;
        }
        println!(
            "# shape[{}] {}: {}",
            if ok { "PASS" } else { "FAIL" },
            name,
            detail
        );
    }

    /// Prints the summary line; returns whether everything passed.
    pub fn finish(self) -> bool {
        println!(
            "# shape summary: {}/{} checks passed",
            self.total - self.failures,
            self.total
        );
        self.failures == 0
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    #[test]
    fn scale_keeps_eight_nodes_per_server() {
        for servers in [4u32, 32, 256, 4096] {
            let s = Scale::for_servers(servers, 1.0);
            let nodes = 2usize.pow(s.ts_levels as u32 + 1) - 1;
            let per_server = nodes as f64 / s.servers as f64;
            assert!(
                (7.0..=8.0).contains(&per_server),
                "{servers} servers → {per_server} nodes/server"
            );
        }
    }

    #[test]
    fn full_scale_matches_paper() {
        let s = Scale::for_servers(4096, 1.0);
        assert_eq!(s.servers, 4096);
        assert_eq!(s.ts_levels, 14); // 32767 nodes
        assert_eq!(s.ts_namespace().len(), 32_767);
        assert!((s.rate(20_000.0) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn rate_scales_with_servers() {
        let s = Scale::for_servers(256, 1.0);
        assert!((s.rate(20_000.0) - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn json_obj_renders_every_field_kind() {
        let j = JsonObj::new()
            .str("label", "a\"b")
            .int("count", 7)
            .num("frac", 0.5)
            .num("never", f64::INFINITY)
            .arr("curve", &[1.0, f64::NAN])
            .obj("inner", JsonObj::new().int("x", 1));
        assert_eq!(
            j.render(),
            "{\"label\":\"a\\\"b\",\"count\":7,\"frac\":0.500000,\
             \"never\":null,\"curve\":[1.000000,null],\"inner\":{\"x\":1}}"
        );
    }

    #[test]
    fn json_obj_is_order_stable() {
        let a = JsonObj::new().int("b", 2).int("a", 1).render();
        assert_eq!(a, "{\"b\":2,\"a\":1}");
    }

    #[test]
    fn raw_embeds_prerendered_json_verbatim() {
        let j = JsonObj::new().raw("summary", "{\"injected\":3}").render();
        assert_eq!(j, "{\"summary\":{\"injected\":3}}");
    }

    #[test]
    fn reconvergence_settle_time_of_a_step_and_a_relapse() {
        // Dirty until second 12, clean after: settled 12 − 5 = 7 s after
        // an event at t = 5.
        let step: Vec<f64> = (0..30).map(|t| if t < 12 { 0.5 } else { 1.0 }).collect();
        assert_eq!(time_to_reconverge(&step, 5.0, 30.0), 7.0);
        // Clean from the start: settled the instant the event fires.
        assert_eq!(time_to_reconverge(&step, 15.0, 30.0), 0.0);
        // A relapse in the last bin means it never settled in the window.
        let mut relapse = step.clone();
        relapse[29] = 0.9;
        assert_eq!(time_to_reconverge(&relapse, 5.0, 30.0), f64::INFINITY);
        // An empty window never settles either.
        assert_eq!(time_to_reconverge(&step, 30.0, 30.0), f64::INFINITY);
        // Smoothing averages the trailing nine bins.
        let smoothed = smooth(&step);
        assert_eq!(smoothed.len(), step.len());
        assert_eq!(smoothed[12], (8.0 * 0.5 + 1.0) / 9.0);
        assert_eq!(smoothed[20], 1.0);
    }

    #[test]
    fn tc_namespace_is_seed_deterministic() {
        let s = Scale::for_servers(16, 1.0);
        let a = s.tc_namespace(7);
        let b = s.tc_namespace(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 320);
    }
}
