//! Runs one workload: timed set-up windows, whole passes of the scenario
//! (the event loop cut into slices of one simulated second, then a
//! drain), and the output gates.

use std::time::{Duration, Instant};

use terradir::{Summary, System};

use crate::metrics::{peak_rss_mb, Outcome};
use crate::probes::Probes;
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Each set-up window times back-to-back constructions for this long
/// (at least two), so one window averages over sub-second host noise.
const SETUP_WINDOW: Duration = Duration::from_millis(200);
/// Set-up windows before the first pass; one more follows each pass, up
/// to [`MAX_SETUP_WINDOWS`], and the run ends with at least
/// [`MIN_SETUP_WINDOWS`].
const LEADING_SETUP_WINDOWS: usize = 2;
const MIN_SETUP_WINDOWS: usize = 5;
const MAX_SETUP_WINDOWS: usize = 9;

/// A drain lasts at least this long, so replicated reads issued just
/// before injection stops reach their read timeout.
const MIN_DRAIN_S: f64 = 3.0;

/// A drain that has not settled every query by this many simulated
/// seconds fails the conservation gate.
const MAX_DRAIN_S: f64 = 60.0;

/// One `run_until` slice of the injection phase.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Simulated time the slice ran to.
    pub t_end: f64,
    /// Wall time spent inside `run_until`.
    pub wall_ns: u64,
    /// Events the engine processed.
    pub events: u64,
    /// Allocator events charged by the allocation ledger.
    pub alloc_events: u64,
    /// Bytes requested across those allocator events.
    pub alloc_bytes: u64,
}

/// One pass of the scenario from a fresh system to the end of the drain.
#[derive(Debug)]
pub struct Pass {
    /// Injection-phase slices, in order.
    pub slices: Vec<Slice>,
    /// Simulated time the drain ended at.
    pub drain_end: f64,
    /// The Summary hash every pass of one seed must share.
    pub fingerprint: u64,
}

impl Pass {
    /// Wall seconds spent in the injection phase.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_ns).sum::<u64>() as f64 * 1e-9
    }

    /// Events processed in the injection phase.
    pub fn events(&self) -> u64 {
        self.slices.iter().map(|s| s.events).sum()
    }
}

/// One set-up window: mean seconds per construction, split into the
/// namespace build and `System::new`.
#[derive(Debug, Clone, Copy)]
pub struct SetupWindow {
    /// Mean namespace build time, seconds.
    pub build_s: f64,
    /// Mean `System::new` time, seconds.
    pub new_s: f64,
}

/// Everything one invocation measured on one workload.
#[derive(Debug)]
pub struct Run {
    /// The workload run.
    pub workload: Workload,
    /// Set-up windows, in the order they ran.
    pub setup: Vec<SetupWindow>,
    /// Every pass of the scenario.
    pub passes: Vec<Pass>,
    /// What the first pass simulated.
    pub outcome: Outcome,
    /// Peak resident set after the first pass, MB: one live system at a
    /// time, since every pass drops its system before the next set-up.
    pub peak_rss_mb: f64,
    /// Every gate that failed, with its reason.
    pub gate_failures: Vec<String>,
    /// Per-layer probe results (traced runs only).
    pub probes: Option<Probes>,
}

impl Run {
    /// The first pass (every pass has the same simulated outcome).
    pub fn first(&self) -> &Pass {
        &self.passes[0]
    }
}

/// FNV-1a hash of `Summary::to_json()` with the allocation ledger fields
/// zeroed: equal hashes mean equal simulated behaviour, whatever the
/// allocator did.
fn fingerprint(summary: &Summary) -> u64 {
    let mut s = summary.clone();
    s.alloc_events = 0;
    s.alloc_bytes = 0;
    s.to_json().bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Builds the workload's system at `seed`: the set-up every pass and
/// every set-up window pays. Returns the system and the namespace build
/// and construction times in nanoseconds.
fn construct(w: &Workload, seed: u64) -> (System, u64, u64) {
    let t0 = Instant::now();
    let ns = w.namespace();
    let t1 = Instant::now();
    let sys = System::new(ns, w.config(seed), w.plan.clone(), w.rate);
    let t2 = Instant::now();
    (
        sys,
        (t1 - t0).as_nanos() as u64,
        (t2 - t1).as_nanos() as u64,
    )
}

/// Times back-to-back constructions for [`SETUP_WINDOW`].
fn setup_window(w: &Workload, seed: u64, tracer: Option<&mut Tracer>) -> SetupWindow {
    let mut tracer = tracer;
    let start = Instant::now();
    let (mut n, mut build_ns, mut new_ns) = (0u64, 0u64, 0u64);
    while n < 2 || start.elapsed() < SETUP_WINDOW {
        let span = tracer.as_mut().map(|t| t.begin("setup", None));
        let (sys, b, c) = construct(w, seed);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            // Child intervals come from the instants `construct`
            // measured, so the recorder adds nothing inside them.
            let s0 = t.spans()[id].start_ns;
            let child = t.begin("namespace.build", Some(id));
            t.set_interval(child, s0, s0 + b);
            let child = t.begin("system.new", Some(id));
            t.set_interval(child, s0 + b, s0 + b + c);
            t.end(id, &[]);
        }
        drop(sys);
        n += 1;
        build_ns += b;
        new_ns += c;
    }
    SetupWindow {
        build_s: build_ns as f64 * 1e-9 / n as f64,
        new_s: new_ns as f64 * 1e-9 / n as f64,
    }
}

/// Runs the injection phase in slices of one simulated second, calling
/// `checkpoint` after every slice.
fn run_slices(
    sys: &mut System,
    w: &Workload,
    mut tracer: Option<&mut Tracer>,
    mut probes: Option<&mut Probes>,
) -> Vec<Slice> {
    let mut slices = Vec::with_capacity(w.horizon as usize);
    for t in 1..=w.horizon {
        let t_end = f64::from(t);
        let events0 = sys.events_processed();
        let (a0, b0) = (sys.stats().alloc_events, sys.stats().alloc_bytes);
        let span = tracer.as_mut().map(|tr| tr.begin("sim.run_until", None));
        let start = Instant::now();
        sys.run_until(t_end);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let slice = Slice {
            t_end,
            wall_ns,
            events: sys.events_processed() - events0,
            alloc_events: sys.stats().alloc_events - a0,
            alloc_bytes: sys.stats().alloc_bytes - b0,
        };
        if let (Some(tr), Some(id)) = (tracer.as_mut(), span) {
            tr.end(
                id,
                &[
                    ("t_end", t_end),
                    ("events", slice.events as f64),
                    ("alloc_events", slice.alloc_events as f64),
                    ("alloc_bytes", slice.alloc_bytes as f64),
                ],
            );
        }
        slices.push(slice);
        if let (Some(p), Some(tr)) = (probes.as_mut(), tracer.as_mut()) {
            p.checkpoint(sys, t, tr);
        }
    }
    slices
}

/// Stops injection and runs until every injected query has a fate:
/// at least [`MIN_DRAIN_S`], then a second at a time, up to
/// [`MAX_DRAIN_S`].
fn drain(sys: &mut System, horizon: f64) -> f64 {
    sys.set_injection(false);
    let mut t = horizon + MIN_DRAIN_S;
    sys.run_until(t);
    while !settled(sys) && t < horizon + MAX_DRAIN_S {
        t += 1.0;
        sys.run_until(t);
    }
    t
}

fn settled(sys: &System) -> bool {
    let st = sys.stats();
    sys.pending_queries() == 0 && st.resolved + st.dropped_total() == st.injected
}

/// The end-of-pass gates: conservation after the drain, a clean audit,
/// and (with storage) the durability identity. Returns the failures.
fn end_gates(sys: &mut System, w: &Workload) -> (Vec<String>, Option<(u64, u64)>) {
    let mut failures = Vec::new();
    let st = sys.stats();
    if st.injected == 0 || st.resolved == 0 {
        failures.push(format!(
            "no traffic: injected {} resolved {}",
            st.injected, st.resolved
        ));
    }
    if st.resolved + st.dropped_total() != st.injected {
        failures.push(format!(
            "conservation: resolved {} + dropped {} != injected {}",
            st.resolved,
            st.dropped_total(),
            st.injected
        ));
    }
    if sys.pending_queries() != 0 {
        failures.push(format!("{} queries still pending", sys.pending_queries()));
    }
    failures.extend(sys.audit().into_iter().map(|v| format!("audit: {v}")));
    let durability = if w.has_storage() {
        // Only at the end: the scan writes objects_alive/objects_lost.
        let (alive, lost) = sys.measure_durability();
        let written = sys.stats().objects_written;
        if written != alive + lost {
            failures.push(format!(
                "durability: written {written} != alive {alive} + lost {lost}"
            ));
        }
        Some((alive, lost))
    } else {
        None
    };
    (failures, durability)
}

/// Runs `w` at `seed`: whole passes of the scenario repeat while they
/// fit in `seconds` of wall time (at least one runs), with set-up
/// windows before and between them. Traced, every pass also runs the
/// probes.
pub fn run(w: &Workload, seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Run {
    let mut setup = Vec::with_capacity(MAX_SETUP_WINDOWS);
    for _ in 0..LEADING_SETUP_WINDOWS {
        setup.push(setup_window(w, seed, tracer.as_deref_mut()));
    }
    let started = Instant::now();
    let mut probes = tracer.as_ref().map(|_| Probes::new(w, seed));
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<(Outcome, f64)> = None;
    let mut gate_failures = Vec::new();
    loop {
        let (mut sys, _, _) = construct(w, seed);
        let slices = run_slices(&mut sys, w, tracer.as_deref_mut(), probes.as_mut());
        let drain_end = drain(&mut sys, f64::from(w.horizon));
        let (failures, durability) = end_gates(&mut sys, w);
        gate_failures.extend(failures);
        if let (Some(p), Some(tr)) = (probes.as_mut(), tracer.as_deref_mut()) {
            p.finish(&sys, tr);
        }
        let fp = fingerprint(&sys.stats().summary());
        if let Some(p0) = passes.first() {
            if fp != p0.fingerprint {
                gate_failures.push(format!(
                    "replay: pass {} fingerprint {fp:016x} != {:016x}",
                    passes.len() + 1,
                    p0.fingerprint
                ));
            }
        }
        passes.push(Pass {
            slices,
            drain_end,
            fingerprint: fp,
        });
        if first.is_none() {
            first = Some((Outcome::of(sys.stats(), durability), peak_rss_mb()));
        }
        drop(sys);
        if setup.len() < MAX_SETUP_WINDOWS {
            setup.push(setup_window(w, seed, tracer.as_deref_mut()));
        }
        // Another pass only if one more, at the mean pass time so far,
        // still ends within the budget.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed * (passes.len() + 1) as f64 / passes.len() as f64 > seconds {
            break;
        }
    }
    while setup.len() < MIN_SETUP_WINDOWS {
        setup.push(setup_window(w, seed, tracer.as_deref_mut()));
    }
    if let Some(p) = &probes {
        gate_failures.extend(p.audit_failures.iter().cloned());
    }
    let (outcome, peak_rss_mb) = first.expect("the loop runs at least one pass");
    Run {
        workload: w.clone(),
        setup,
        passes,
        outcome,
        peak_rss_mb,
        gate_failures,
        probes,
    }
}
