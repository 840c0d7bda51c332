//! Runs the TerraDir simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints every metric by name with its unit, then one JSON result line
//! per workload. A failed gate prints its reason to stderr and exits
//! with code 1 without a result.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use terradir_simbench::metrics::{end_to_end, median_pass_wall_s, per_layer, Metric};
use terradir_simbench::run::{run, Run};
use terradir_simbench::trace::Tracer;
use terradir_simbench::workloads::{self, Workload};

/// Where fingerprints and traces are written, relative to the repository
/// root the benchmark runs from.
const OUT_DIR: &str = "simbench/out";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Identifies the running executable, so a fingerprint written by
/// another build is never compared with this one.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .map(|t| format!("{t:?}"))
        .unwrap_or_default()
}

/// Records this run's fingerprint and compares it with the other mode's
/// run of the same workload, seed and build, if one was recorded.
fn cross_check(w: &Workload, seed: u64, traced: bool, fp: u64) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let file = |t: bool| {
        dir.join(format!(
            "fingerprint-{}-seed{seed}-trace{}",
            w.name,
            u8::from(t)
        ))
    };
    let id = build_id();
    let mine = format!("{fp:016x} {id}\n");
    std::fs::write(file(traced), &mine).map_err(|e| format!("fingerprint: {e}"))?;
    match std::fs::read_to_string(file(!traced)) {
        Ok(other) if other.ends_with(&format!(" {id}\n")) && other != mine => Err(format!(
            "traced and untraced runs disagree: {} vs {}",
            mine.trim(),
            other.trim()
        )),
        _ => Ok(()),
    }
}

fn write_trace(w: &Workload, seed: u64, tracer: &Tracer) -> Result<PathBuf, String> {
    let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{seed}.jsonl", w.name));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn result_json(attempted: u64, failed: u64, metrics: &[(String, Metric)]) -> String {
    let mut body = String::new();
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Runs one workload, prints its report, and returns its result line
/// and metrics, or the failed gates.
fn one(w: &Workload, args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let mut tracer = args
        .trace
        .then(|| Tracer::new(format!("{}-seed{}", w.name, args.seed)));
    let r: Run = run(w, args.seed, args.seconds, tracer.as_mut());
    if !r.gate_failures.is_empty() {
        return Err(r.gate_failures.join("\n"));
    }
    let fp = r.first().fingerprint;
    cross_check(w, args.seed, args.trace, fp)?;
    let metrics = match (&tracer, &r.probes) {
        (Some(t), Some(p)) => {
            let path = write_trace(w, args.seed, t)?;
            println!("# {} spans written to {}", t.spans().len(), path.display());
            per_layer(&r, p)
        }
        _ => end_to_end(&r),
    };
    let o = &r.outcome;
    // An operation is one simulated query; it fails if the simulator
    // loses it (no recorded fate after the drain). Queries the modelled
    // protocol drops are outcomes, reported as `query_fail_frac`.
    let attempted = o.injected;
    let failed = o.injected - o.resolved - o.dropped;
    println!(
        "# {} seed {} ({}): {} passes, {} sim s each + drain to {} s, fingerprint {fp:016x}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        r.passes.len(),
        w.horizon,
        r.first().drain_end,
    );
    println!(
        "# queries attempted {attempted}, resolved {}, dropped by the protocol {}, lost by the simulator {failed}",
        o.resolved, o.dropped
    );
    let walls: Vec<String> = r
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_s()))
        .collect();
    let setups: Vec<String> = r
        .setup
        .iter()
        .map(|w| format!("{:.2}", (w.build_s + w.new_s) * 1e3))
        .collect();
    println!(
        "# pass wall s: {}; set-up ms: {}",
        walls.join(" "),
        setups.join(" ")
    );
    let wall_s = median_pass_wall_s(&r);
    println!(
        "# wall s per sim s {} ({} events/s), slice by slice median over passes",
        wall_s / f64::from(w.horizon),
        r.first().events() as f64 / wall_s
    );
    if let Some((written, alive, lost)) = o.objects {
        println!("# objects written {written}, alive {alive}, lost {lost}");
    }
    for m in &metrics {
        println!("{:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    Ok((attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: simbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<Workload> = if args.workload == "all" {
        workloads::all()
    } else if let Some(w) = workloads::by_name(&args.workload) {
        vec![w]
    } else {
        let names: Vec<String> = workloads::all().into_iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {} (known: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };

    // With several workloads each prints its own result line, and the
    // last line merges them under workload-prefixed names.
    let several = chosen.len() > 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut all_metrics = Vec::new();
    for w in &chosen {
        let (a, f, metrics) = match one(w, &args) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("gate failed on {} seed {}:\n{e}", w.name, args.seed);
                return ExitCode::from(1);
            }
        };
        attempted += a;
        failed += f;
        let prefix = if several {
            let own: Vec<(String, Metric)> = metrics
                .iter()
                .map(|m| (m.name.to_string(), m.clone()))
                .collect();
            println!("{}", result_json(a, f, &own));
            format!("{}/", w.name)
        } else {
            String::new()
        };
        all_metrics.extend(
            metrics
                .into_iter()
                .map(|m| (format!("{prefix}{}", m.name), m)),
        );
    }
    println!("{}", result_json(attempted, failed, &all_metrics));
    ExitCode::SUCCESS
}
