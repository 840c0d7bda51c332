//! Turns a finished run into named metrics with units.

use terradir::RunStats;
use terradir_sim::Histogram;

use crate::probes::Probes;
use crate::run::{Run, Slice};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Unit as listed in BENCHMARK.json.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a sample (mean of the middle pair when even; 0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Width of a `RunStats::latency` bucket: the histogram is
/// `Histogram::new(30.0, 3000)`.
const LATENCY_BUCKET_S: f64 = 0.01;

/// Share of observations in buckets whose upper edge is at most `edge`,
/// recovered from `Histogram::quantile` by bisection (the quantile of
/// `q` is the upper edge of the bucket holding the `ceil(q·n)`-th
/// observation).
fn cdf_at(h: &Histogram, edge: f64) -> f64 {
    let at_most = |q: f64| {
        h.quantile(q)
            .is_some_and(|e| e <= edge + LATENCY_BUCKET_S / 2.0)
    };
    if !at_most(0.0) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0, 1.0);
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        if at_most(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Quantile `q` of a latency histogram, interpolated linearly inside
/// the bucket that holds it instead of reading the bucket's upper edge.
fn latency_quantile(h: &Histogram, q: f64) -> f64 {
    let Some(upper) = h.quantile(q) else {
        return 0.0;
    };
    if upper > 30.0 {
        return upper; // overflow bucket: the largest observation
    }
    let lower = upper - LATENCY_BUCKET_S;
    let (f_lo, f_hi) = (cdf_at(h, lower), cdf_at(h, upper));
    lower + LATENCY_BUCKET_S * ratio(q - f_lo, f_hi - f_lo).clamp(0.0, 1.0)
}

/// Peak resident set of this process so far (VmHWM), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a pass simulated: deterministic per seed, so every pass of a
/// run repeats it. Taken from the first pass before its system is
/// dropped.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Queries injected.
    pub injected: u64,
    /// Queries resolved.
    pub resolved: u64,
    /// Queries the modelled protocol dropped, all gates together.
    pub dropped: u64,
    /// Stored objects, and `(alive, lost)` at the end of the run.
    pub objects: Option<(u64, u64, u64)>,
    /// The simulated end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// The per-layer counters.
    pub counters: Vec<Metric>,
}

impl Outcome {
    /// Reads the outcome of a drained run; `durability` is the
    /// `(alive, lost)` scan when the workload stores objects.
    pub fn of(st: &RunStats, durability: Option<(u64, u64)>) -> Outcome {
        let injected = st.injected as f64;
        let per_q = |x: u64| ratio(x as f64, injected);
        let reads = (st.object_reads + st.reads_failed) as f64;
        let end_to_end = vec![
            m("query_fail_frac", "ratio", per_q(st.dropped_total())),
            m("sim_latency_p50_s", "s", latency_quantile(&st.latency, 0.5)),
            m(
                "sim_latency_p99_s",
                "s",
                latency_quantile(&st.latency, 0.99),
            ),
            m("hops_mean", "hops", st.hops.mean().unwrap_or(0.0)),
            m(
                "msgs_per_query",
                "msgs",
                per_q(st.query_messages + st.control_messages),
            ),
            m("wire_bytes_per_query", "bytes", per_q(st.bytes_on_wire)),
        ];
        let counters = vec![
            m("routing.misroutes_per_query", "count", per_q(st.misroutes)),
            m(
                "routing.detour_hops_per_query",
                "hops",
                per_q(st.detour_hops),
            ),
            m(
                "replication.replicas_created",
                "count",
                st.replicas_created as f64,
            ),
            m(
                "replication.session_abort_ratio",
                "ratio",
                ratio(st.sessions_aborted as f64, st.sessions_started as f64),
            ),
            m(
                "replication.control_msgs_per_query",
                "msgs",
                per_q(st.control_messages),
            ),
            m("gate.queue_frac", "ratio", per_q(st.dropped_queue)),
            m("gate.ttl_frac", "ratio", per_q(st.dropped_ttl)),
            m("gate.stuck_frac", "ratio", per_q(st.dropped_stuck)),
            m("gate.timeout_frac", "ratio", per_q(st.dropped_timeout)),
            m("gate.lost_frac", "ratio", per_q(st.dropped_lost)),
            m(
                "gossip.bytes_share",
                "ratio",
                ratio(st.gossip_bytes as f64, st.bytes_on_wire as f64),
            ),
            m("storage.repair_pushes", "count", st.repair_pushes as f64),
            m("reconcile.pushes", "count", st.reconcile_pushes as f64),
            m("lease.evictions", "count", st.lease_evictions as f64),
            m("retry.retries_per_query", "count", per_q(st.retries)),
            m("churn.failures", "count", st.churn_failures as f64),
            m(
                "objects_lost",
                "count",
                durability.map_or(0, |d| d.1) as f64,
            ),
            m(
                "read_fail_frac",
                "ratio",
                ratio(st.reads_failed as f64, reads),
            ),
            m(
                "stale_read_frac",
                "ratio",
                ratio(st.stale_reads as f64, reads),
            ),
        ];
        Outcome {
            injected: st.injected,
            resolved: st.resolved,
            dropped: st.dropped_total(),
            objects: durability.map(|(alive, lost)| (st.objects_written, alive, lost)),
            end_to_end,
            counters,
        }
    }
}

/// Wall seconds of the injection phase with each slice's time taken as
/// its median over passes. Every pass does the same work slice by slice,
/// so a host slowdown that hits a slice in only a minority of passes is
/// discarded.
pub fn median_pass_wall_s(run: &Run) -> f64 {
    let slices = run.first().slices.len();
    (0..slices)
        .map(|i| {
            let walls: Vec<f64> = run
                .passes
                .iter()
                .map(|p| p.slices[i].wall_ns as f64)
                .collect();
            median(&walls)
        })
        .sum::<f64>()
        * 1e-9
}

/// The end-to-end metrics, in BENCHMARK.json order: set-up time (median
/// over set-up windows), peak memory, and the simulated outcomes.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let setup: Vec<f64> = run.setup.iter().map(|w| w.build_s + w.new_s).collect();
    let mut out = vec![
        m("setup_s", "s", median(&setup)),
        m("peak_rss_mb", "MB", run.peak_rss_mb),
    ];
    out.extend(run.outcome.end_to_end.iter().cloned());
    out
}

/// Nanoseconds per event over a set of slices.
fn ns_per_event<'a>(slices: impl Iterator<Item = &'a Slice>) -> f64 {
    let (ns, events) = slices.fold((0u64, 0u64), |(n, e), s| (n + s.wall_ns, e + s.events));
    ratio(ns as f64, events as f64)
}

/// Splits the injection phase into warm-up (before the first popularity
/// reshuffle, or the first third of the run when there is none),
/// post-shift (the two simulated seconds after each reshuffle) and
/// steady (the rest).
fn phase_of(t_end: f64, horizon: f64, shifts: &[f64]) -> &'static str {
    let warmup_end = shifts.first().copied().unwrap_or(horizon / 3.0);
    if t_end <= warmup_end {
        "warmup"
    } else if shifts.iter().any(|&r| t_end > r && t_end <= r + 2.0) {
        "post_shift"
    } else {
        "steady"
    }
}

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
/// Costs pool every pass; metrics of a layer the workload does not use
/// read 0.
pub fn per_layer(run: &Run, p: &Probes) -> Vec<Metric> {
    let slices: Vec<&Slice> = run.passes.iter().flat_map(|p| &p.slices).collect();
    let horizon = f64::from(run.workload.horizon);
    let shifts = run.workload.plan.reshuffle_times();
    let phase = |name: &str| {
        ns_per_event(
            slices
                .iter()
                .copied()
                .filter(|s| phase_of(s.t_end, horizon, &shifts) == name),
        )
    };
    let passes = run.passes.len() as f64;
    let events = slices.iter().map(|s| s.events).sum::<u64>() as f64;
    let allocs: u64 = slices.iter().map(|s| s.alloc_events).sum();
    let alloc_bytes: u64 = slices.iter().map(|s| s.alloc_bytes).sum();
    let slice_ns: u64 = slices.iter().map(|s| s.wall_ns).sum();
    let build_s: Vec<f64> = run.setup.iter().map(|w| w.build_s).collect();
    let new_s: Vec<f64> = run.setup.iter().map(|w| w.new_s).collect();
    let injected = run.outcome.injected as f64;
    let per_call = |(n, ns): (u64, u64)| ratio(ns as f64, n as f64);
    let wall_s = median_pass_wall_s(run);
    let mut out = vec![
        m("sim.wall_s_per_sim_s", "s/s", wall_s / horizon),
        m(
            "sim.events_per_s",
            "1/s",
            run.first().events() as f64 / wall_s,
        ),
        m(
            "sim.ns_per_event",
            "ns",
            ns_per_event(slices.iter().copied()),
        ),
        m("sim.ns_per_event.warmup", "ns", phase("warmup")),
        m("sim.ns_per_event.steady", "ns", phase("steady")),
        m("sim.ns_per_event.post_shift", "ns", phase("post_shift")),
        m(
            "sim.events_per_query",
            "events",
            ratio(events / passes, injected),
        ),
        m(
            "sim.allocs_per_event",
            "allocs",
            ratio(allocs as f64, events),
        ),
        m(
            "sim.alloc_bytes_per_event",
            "bytes",
            ratio(alloc_bytes as f64, events),
        ),
        m("namespace.build_s", "s", median(&build_s)),
        m("namespace.distance_ns", "ns", per_call(p.distance)),
        m("workload.next_query_ns", "ns", per_call(p.next_query)),
        m("bloom.digest_test_ns", "ns", per_call(p.digest)),
        m(
            "bloom.positive_precision",
            "ratio",
            ratio(p.digest_positives.1 as f64, p.digest_positives.0 as f64),
        ),
        m("system.new_s", "s", median(&new_s)),
        m("routing.accuracy", "ratio", p.routing_accuracy),
        m("oracle.map_stale_frac", "ratio", p.map_stale_frac),
        m("cache.peek_ns", "ns", per_call(p.peek)),
        m(
            "cache.evictions_per_query",
            "count",
            ratio(p.cache_evictions as f64, injected),
        ),
        m("invariants.audit_s", "s", median(&p.audit_s)),
        m(
            "trace.overhead_frac",
            "ratio",
            ratio(p.probe_ns as f64, slice_ns as f64),
        ),
        m(
            "trace.wall_s_per_sim_s",
            "s/s",
            (slice_ns + p.probe_ns) as f64 * 1e-9 / (horizon * passes),
        ),
    ];
    out.extend(run.outcome.counters.iter().cloned());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_lies_inside_its_bucket() {
        let mut h = Histogram::new(30.0, 3000);
        for i in 0..1000 {
            h.record(0.100 + 0.01 * f64::from(i) / 1000.0);
        }
        let p50 = latency_quantile(&h, 0.5);
        let edge = h.quantile(0.5).unwrap();
        assert!(
            p50 <= edge && p50 >= edge - LATENCY_BUCKET_S,
            "{p50} vs {edge}"
        );
        assert!((p50 - 0.105).abs() < 0.002, "{p50}");
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
