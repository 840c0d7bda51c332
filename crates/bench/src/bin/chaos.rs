// Experiment harness binary: aborting on unexpected state is the correct failure mode.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

//! **Chaos scenario** — the canonical scripted cut → heal → flash-crowd
//! run (DESIGN.md §13). A four-group partition relation isolates group 0
//! (one quarter of the fleet) for a window, heals, and is then followed
//! by a 10× flash crowd aimed at a single deep leaf. Two systems run
//! at the *identical* seed:
//!
//! - `shed` — deepest-TTL load shedding on (graceful degradation);
//! - `fifo` — shedding off, so the flash crowd is absorbed by plain
//!   FIFO tail drop.
//!
//! That a scripted scenario replays byte-identically from the seed is
//! tested by `full_scenario_replays_byte_identically` (tests/partitions.rs).
//!
//! Output: per-second availability split by partition side (the minority
//! side dips during the cut and recovers after the heal), the shed-vs-
//! overflow drop split, and the resolved-query totals over the flash
//! window showing that shedding resolves strictly more work than FIFO.

use terradir::{ChaosAction, ScenarioEvent, Summary, System};
use terradir_bench::{
    pct, tsv_header, tsv_row, write_bench_json, Args, JsonObj, Scale, ShapeChecks,
};
use terradir_workload::StreamPlan;

/// Timeline of the scripted scenario (all in simulated seconds).
#[derive(Debug, Clone, Copy)]
struct Timeline {
    cut_at: f64,
    heal_at: f64,
    flash_at: f64,
    flash_end: f64,
    tail_end: f64,
    drain_until: f64,
}

impl Timeline {
    fn new(scale: &Scale) -> Timeline {
        let cut_at = scale.duration(30.0);
        let heal_at = cut_at + scale.duration(25.0);
        let flash_at = heal_at + scale.duration(25.0);
        let flash_end = flash_at + scale.duration(20.0);
        let tail_end = flash_end + scale.duration(15.0);
        // Unscaled drain so in-flight traffic settles even at small
        // time multipliers.
        let drain_until = tail_end + 15.0;
        Timeline {
            cut_at,
            heal_at,
            flash_at,
            flash_end,
            tail_end,
            drain_until,
        }
    }
}

struct Run {
    label: String,
    summary: Summary,
    minority_avail: Vec<f64>,
    majority_avail: Vec<f64>,
    flash_resolved: u64,
    minority_dip: f64,
    recovery_mean: f64,
    time_to_baseline: f64,
    messages_cut: u64,
    cuts_applied: u64,
    heals_applied: u64,
    flash_injected: u64,
    dropped_shed: u64,
    dropped_partition: u64,
    dropped_queue: u64,
    accounting_exact: bool,
    audit_findings: usize,
}

fn run_chaos(scale: &Scale, seed: u64, shed: bool, label: &str, tl: Timeline, rate: f64) -> Run {
    let ns = scale.ts_namespace();
    let hot_node = (ns.len() - 1) as u32;

    let mut cfg = scale.config(seed);
    cfg.shedding = shed;
    cfg.partitions.n_groups = 4;
    cfg.scenario.events = vec![
        ScenarioEvent {
            at: tl.cut_at,
            action: ChaosAction::Cut { groups: vec![0] },
        },
        ScenarioEvent {
            at: tl.heal_at,
            action: ChaosAction::Heal,
        },
        ScenarioEvent {
            at: tl.flash_at,
            action: ChaosAction::FlashCrowd {
                node: hot_node,
                rate_multiplier: 10.0,
            },
        },
        ScenarioEvent {
            at: tl.flash_end,
            action: ChaosAction::FlashCrowd {
                node: hot_node,
                rate_multiplier: 1.0,
            },
        },
    ];
    cfg.validate().expect("chaos scenario config must be valid");

    let mut sys = System::new(ns, cfg, StreamPlan::uzipf(1.0, tl.drain_until), rate);
    sys.run_until(tl.tail_end);
    sys.set_injection(false);
    sys.run_until(tl.drain_until);

    let st = sys.stats();
    let minority_avail = st.availability_minority();
    let majority_avail = st.availability_majority();
    let resolved_bins = st.resolved_per_sec.bins().to_vec();

    // Resolved work over the flash window (plus a short completion
    // tail: results of queries admitted late in the window).
    let flash_lo = tl.flash_at as usize;
    let flash_hi = (tl.flash_end as usize + 3).min(resolved_bins.len());
    let flash_resolved: u64 = resolved_bins[flash_lo.min(resolved_bins.len())..flash_hi]
        .iter()
        .sum();

    // Minority-side baseline: mean availability over (up to) the last
    // 10 s before the cut.
    let cut_bin = tl.cut_at as usize;
    let base_lo = cut_bin.saturating_sub(10);
    let base = &minority_avail[base_lo..cut_bin.min(minority_avail.len())];
    let baseline = base.iter().sum::<f64>() / base.len().max(1) as f64;

    // Worst minority-side second while the cut is active.
    let heal_bin = tl.heal_at as usize;
    let minority_dip = minority_avail
        [cut_bin.min(minority_avail.len())..heal_bin.min(minority_avail.len())]
        .iter()
        .copied()
        .fold(1.0f64, f64::min);

    // Post-heal recovery: mean minority availability over (up to) the
    // last 10 s before the flash crowd, and the time back to 95 % of
    // the pre-cut baseline measured from the heal.
    let flash_bin = tl.flash_at as usize;
    // Skip the heal bin itself: the cut is active for part of it.
    let rec_lo = flash_bin.saturating_sub(10).max(heal_bin + 1);
    let rec =
        &minority_avail[rec_lo.min(minority_avail.len())..flash_bin.min(minority_avail.len())];
    let recovery_mean = rec.iter().sum::<f64>() / rec.len().max(1) as f64;
    let time_to_baseline = minority_avail
        .iter()
        .enumerate()
        .skip(heal_bin)
        .find(|(_, &a)| a >= baseline * 0.95)
        .map_or(f64::INFINITY, |(t, _)| t as f64 - tl.heal_at);

    let audit = sys.audit();
    Run {
        label: label.to_string(),
        summary: st.summary(),
        minority_avail,
        majority_avail,
        flash_resolved,
        minority_dip,
        recovery_mean,
        time_to_baseline,
        messages_cut: st.messages_cut,
        cuts_applied: st.cuts_applied,
        heals_applied: st.heals_applied,
        flash_injected: st.flash_injected,
        dropped_shed: st.dropped_shed,
        dropped_partition: st.dropped_partition,
        dropped_queue: st.dropped_queue,
        accounting_exact: st.resolved + st.dropped_total() == st.injected,
        audit_findings: audit.len(),
    }
}

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    let tl = Timeline::new(&scale);
    let rate = scale.rate(20_000.0);

    eprintln!(
        "chaos: {} servers, λ={rate:.0}/s, cut [{:.0}s, {:.0}s], flash ×10 [{:.0}s, {:.0}s]",
        scale.servers, tl.cut_at, tl.heal_at, tl.flash_at, tl.flash_end
    );

    let mut runs: Vec<Run> = Vec::new();
    for (label, shed) in [("shed", true), ("fifo", false)] {
        runs.push(run_chaos(&scale, args.seed, shed, label, tl, rate));
        eprint!(".");
    }
    eprintln!();

    // Per-side availability curves for the shed run.
    let shed_run = &runs[0];
    tsv_header(&["time", "minority", "majority"]);
    let bins = shed_run
        .minority_avail
        .len()
        .max(shed_run.majority_avail.len());
    for t in 0..bins {
        tsv_row(
            &format!("{t}"),
            &[
                shed_run.minority_avail.get(t).copied().unwrap_or(1.0),
                shed_run.majority_avail.get(t).copied().unwrap_or(1.0),
            ],
        );
    }
    println!();
    tsv_header(&[
        "label",
        "minority_dip",
        "recovery_mean",
        "time_to_baseline",
        "flash_resolved",
    ]);
    for r in &runs {
        tsv_row(
            &r.label,
            &[
                r.minority_dip,
                r.recovery_mean,
                r.time_to_baseline,
                r.flash_resolved as f64,
            ],
        );
    }

    let mut json = JsonObj::new()
        .str("bench", "chaos")
        .int("servers", u64::from(scale.servers))
        .int("seed", args.seed)
        .num("cut_at", tl.cut_at)
        .num("heal_at", tl.heal_at)
        .num("flash_at", tl.flash_at)
        .num("flash_end", tl.flash_end);
    for r in &runs {
        json = json.obj(
            &r.label,
            JsonObj::new()
                .num("minority_dip", r.minority_dip)
                .num("recovery_mean", r.recovery_mean)
                .num("time_to_baseline", r.time_to_baseline)
                .int("flash_resolved", r.flash_resolved)
                .int("messages_cut", r.messages_cut)
                .int("flash_injected", r.flash_injected)
                .int("dropped_shed", r.dropped_shed)
                .int("dropped_partition", r.dropped_partition)
                .int("dropped_queue", r.dropped_queue)
                .arr("minority_availability", &r.minority_avail)
                .arr("majority_availability", &r.majority_avail)
                .raw("summary", &r.summary.to_json()),
        );
    }
    write_bench_json("chaos", &json);

    let shed_run = &runs[0];
    let fifo = &runs[1];
    let mut checks = ShapeChecks::new();
    for r in &runs {
        checks.check(
            &format!("{}: cut and heal both executed", r.label),
            r.cuts_applied == 1 && r.heals_applied == 1,
            format!("{} cuts, {} heals", r.cuts_applied, r.heals_applied),
        );
        checks.check(
            &format!("{}: cut actually severed traffic", r.label),
            r.messages_cut > 0 && r.dropped_partition > 0,
            format!(
                "{} messages cut, {} partition drops",
                r.messages_cut, r.dropped_partition
            ),
        );
        checks.check(
            &format!("{}: flash crowd injected extra load", r.label),
            r.flash_injected > 0,
            format!("{} flash queries", r.flash_injected),
        );
        checks.check(
            &format!("{}: accounting is exactly decomposable", r.label),
            r.accounting_exact,
            "resolved + dropped == injected after drain".to_string(),
        );
        checks.check(
            &format!("{}: invariant audit is clean", r.label),
            r.audit_findings == 0,
            format!("{} findings", r.audit_findings),
        );
    }
    checks.check(
        "minority side dips while the cut is active",
        shed_run.minority_dip < 0.6,
        format!("worst minority-side second {}", pct(shed_run.minority_dip)),
    );
    checks.check(
        "minority side recovers after the heal",
        shed_run.recovery_mean > 0.9 && shed_run.time_to_baseline.is_finite(),
        format!(
            "pre-flash mean {}, back to baseline {:.0}s after heal",
            pct(shed_run.recovery_mean),
            shed_run.time_to_baseline
        ),
    );
    checks.check(
        "shedding resolves strictly more flash-window work than FIFO",
        shed_run.flash_resolved > fifo.flash_resolved,
        format!(
            "{} resolved with shedding vs {} with FIFO",
            shed_run.flash_resolved, fifo.flash_resolved
        ),
    );
    checks.check(
        "shed run drops only via the shedding policy",
        shed_run.dropped_shed > 0 && shed_run.dropped_queue == 0,
        format!(
            "{} shed drops, {} queue drops",
            shed_run.dropped_shed, shed_run.dropped_queue
        ),
    );
    checks.check(
        "fifo run drops only via queue overflow",
        fifo.dropped_shed == 0 && fifo.dropped_queue > 0,
        format!(
            "{} shed drops, {} queue drops",
            fifo.dropped_shed, fifo.dropped_queue
        ),
    );
    std::process::exit(i32::from(!checks.finish()));
}
