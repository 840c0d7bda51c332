//! Read-only per-layer probes for the traced run.
//!
//! At each checkpoint the probes get `&System` only, so the borrow
//! checker guarantees they cannot change the simulation; the behaviour
//! fingerprint shows it at run time. Each probe times a layer's public
//! function on state captured from the live run: every server's digest
//! and route cache, and targets drawn from a second `QueryStream` built
//! from the same plan and seed.

use std::hint::black_box;

use terradir::oracle::{map_staleness, routing_accuracy, GlobalTruth};
use terradir::System;
use terradir_namespace::{distance, NodeId};
use terradir_workload::QueryStream;

use crate::trace::Tracer;
use crate::workloads::Workload;

/// Checkpoints per run (the last slice is always one).
const CHECKPOINTS: u32 = 5;
/// Targets sampled per checkpoint for the digest and cache probes.
const TARGETS: usize = 32;
/// Targets each captured cache key is paired with for `distance`.
const DISTANCE_TARGETS: usize = 4;

/// A query stream with the workload's plan and seed, separate from the
/// one inside the simulated system.
fn stream(w: &Workload, seed: u64) -> QueryStream {
    QueryStream::new(w.plan.clone(), w.namespace().len(), w.servers, seed)
}

/// Accumulated probe results.
#[derive(Debug)]
pub struct Probes {
    workload: Workload,
    seed: u64,
    /// Draws the targets each checkpoint samples.
    targets: QueryStream,
    check_every: u32,
    /// Wall seconds of each `System::audit` call.
    pub audit_s: Vec<f64>,
    /// Audit violations seen at checkpoints.
    pub audit_failures: Vec<String>,
    /// Stale map entries / audited entries at the last checkpoint.
    pub map_stale_frac: f64,
    /// `(pairs, ns)` of `namespace::distance` calls.
    pub distance: (u64, u64),
    /// `(tests, ns)` of `Digest::test` calls.
    pub digest: (u64, u64),
    /// `(positives, positives whose server hosts the name)`.
    pub digest_positives: (u64, u64),
    /// `(peeks, ns)` of `RouteCache::peek` calls.
    pub peek: (u64, u64),
    /// `(calls, ns)` of `QueryStream::next_query` on a second stream.
    pub next_query: (u64, u64),
    /// `oracle::routing_accuracy` at the end of a pass.
    pub routing_accuracy: f64,
    /// Route-cache evictions summed over servers at the end of a pass.
    pub cache_evictions: u64,
    /// Wall nanoseconds spent in probes (the tracing overhead).
    pub probe_ns: u64,
}

impl Probes {
    /// Probes for one run of `w` at `seed`.
    pub fn new(w: &Workload, seed: u64) -> Probes {
        Probes {
            workload: w.clone(),
            seed,
            targets: stream(w, seed),
            check_every: (w.horizon / CHECKPOINTS).max(1),
            audit_s: Vec::new(),
            audit_failures: Vec::new(),
            map_stale_frac: 0.0,
            distance: (0, 0),
            digest: (0, 0),
            digest_positives: (0, 0),
            peek: (0, 0),
            next_query: (0, 0),
            routing_accuracy: 0.0,
            cache_evictions: 0,
            probe_ns: 0,
        }
    }

    /// Runs the probes if simulated second `t` is a checkpoint.
    pub fn checkpoint(&mut self, sys: &System, t: u32, tracer: &mut Tracer) {
        if !t.is_multiple_of(self.check_every) && t != self.workload.horizon {
            return;
        }
        let root = tracer.begin("probe", None);
        let now = f64::from(t);
        let targets: Vec<NodeId> = (0..TARGETS)
            .map(|_| self.targets.next_query(now).1)
            .collect();

        let id = tracer.begin("invariants.audit", Some(root));
        let violations = sys.audit();
        let dt = tracer.end(id, &[("violations", violations.len() as f64)]);
        self.audit_s.push(dt as f64 * 1e-9);
        self.audit_failures.extend(
            violations
                .into_iter()
                .map(|v| format!("audit at t={t}: {v}")),
        );

        self.map_stale_frac = tracer.time("oracle.map_staleness", Some(root), || {
            map_staleness(sys, &GlobalTruth::from_system(sys)).fraction()
        });

        let ns = sys.namespace();
        let names: Vec<&str> = targets.iter().map(|&n| ns.name(n).as_str()).collect();
        let n_servers = sys.config().n_servers as usize;
        let mut hits = Vec::with_capacity(n_servers * names.len());
        let id = tracer.begin("bloom.digest_test", Some(root));
        for s in sys.servers() {
            let d = s.digest();
            hits.extend(names.iter().map(|name| d.test(black_box(name))));
        }
        let dt = tracer.end(id, &[("tests", hits.len() as f64)]);
        self.digest.0 += hits.len() as u64;
        self.digest.1 += dt;
        let mut hit = hits.iter();
        for s in sys.servers() {
            for &node in &targets {
                if *hit.next().unwrap_or(&false) {
                    self.digest_positives.0 += 1;
                    self.digest_positives.1 += u64::from(s.hosts(node));
                }
            }
        }

        let id = tracer.begin("cache.peek", Some(root));
        let mut found = 0u64;
        for s in sys.servers() {
            let c = s.cache();
            for &node in &targets {
                found += u64::from(c.peek(black_box(node)).is_some());
            }
        }
        let peeks = (n_servers * targets.len()) as u64;
        let dt = tracer.end(id, &[("peeks", peeks as f64), ("found", found as f64)]);
        self.peek.0 += peeks;
        self.peek.1 += dt;

        // Keys a routing step compares against the target: cached nodes,
        // or the hosted nodes when caching is off.
        let mut keys: Vec<NodeId> = Vec::new();
        for s in sys.servers() {
            let before = keys.len();
            keys.extend(s.cache().iter().map(|(n, _)| n));
            if keys.len() == before {
                keys.extend(s.hosted_ids());
            }
        }
        let pairs = (keys.len() * DISTANCE_TARGETS) as u64;
        let id = tracer.begin("namespace.distance", Some(root));
        let mut sum = 0u64;
        for &k in &keys {
            for &target in &targets[..DISTANCE_TARGETS] {
                sum += u64::from(distance(ns, black_box(k), target));
            }
        }
        black_box(sum);
        let dt = tracer.end(id, &[("pairs", pairs as f64)]);
        self.distance.0 += pairs;
        self.distance.1 += dt;

        self.probe_ns += tracer.end(root, &[("t", now)]);
    }

    /// End-of-pass probes: the oracle's routing accuracy, cache
    /// evictions, and the query generator's cost.
    pub fn finish(&mut self, sys: &System, tracer: &mut Tracer) {
        let root = tracer.begin("probe.final", None);
        self.routing_accuracy = tracer.time("oracle.routing_accuracy", Some(root), || {
            routing_accuracy(sys).2
        });
        self.cache_evictions = sys.servers().map(|s| s.cache().counters().2).sum();

        // A fresh stream with the run's plan and seed, driven through the
        // whole horizon at the mean arrival spacing.
        let w = &self.workload;
        let mut stream = stream(w, self.seed);
        let calls = (w.rate * f64::from(w.horizon)) as u64;
        let id = tracer.begin("workload.next_query", Some(root));
        for i in 0..calls {
            black_box(stream.next_query(i as f64 / w.rate));
        }
        let dt = tracer.end(id, &[("calls", calls as f64)]);
        self.next_query.0 += calls;
        self.next_query.1 += dt;
        self.probe_ns += tracer.end(root, &[]);
    }
}
