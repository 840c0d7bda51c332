//! Run statistics: everything the paper's figures plot.

use terradir_sim::{BinnedCounter, Histogram};

/// Counters, per-second series, and distributions collected over a run.
///
/// Fields are public: the benchmark harness reads them directly to print
/// the paper's series.
#[derive(Debug)]
pub struct RunStats {
    /// Queries injected.
    pub injected: u64,
    /// Queries resolved (result delivered at the origin).
    pub resolved: u64,
    /// Query-traffic messages dropped at full request queues.
    pub dropped_queue: u64,
    /// Queries dropped for exceeding the hop TTL.
    pub dropped_ttl: u64,
    /// Queries dropped with no routable candidate.
    pub dropped_stuck: u64,
    /// Queries finalized by exhausting every retry attempt (the only final
    /// drop kind while the reliability layer is on).
    pub dropped_timeout: u64,
    /// Query-traffic messages lost in transit with no retry layer to
    /// recover them (final drops under fault injection without retries).
    pub dropped_lost: u64,
    /// Query-path messages serviced (each is one routing/result step).
    pub query_messages: u64,
    /// Replication control messages sent (probes, replies, requests, acks,
    /// denies) — the paper's "load balancing messages".
    pub control_messages: u64,
    /// Replicas installed.
    pub replicas_created: u64,
    /// Replicas evicted.
    pub replicas_deleted: u64,
    /// Replication sessions started.
    pub sessions_started: u64,
    /// Replication sessions that installed replicas.
    pub sessions_completed: u64,
    /// Replication sessions aborted.
    pub sessions_aborted: u64,
    /// Dropped queries per second (Fig. 3).
    pub drops_per_sec: BinnedCounter,
    /// Replicas created per second (Fig. 4) / per minute (Fig. 8).
    pub replicas_per_sec: BinnedCounter,
    /// Query latency in seconds, injection → result at origin (Fig. 9).
    pub latency: Histogram,
    /// Network hops per resolved query.
    pub hops: Histogram,
    /// Mean server utilization each second (Fig. 6).
    pub load_mean_per_sec: Vec<f64>,
    /// Maximum server utilization each second (Fig. 6).
    pub load_max_per_sec: Vec<f64>,
    /// Replicas created per namespace level (Fig. 7), indexed by depth.
    pub created_per_level: Vec<u64>,
    /// Data retrievals (two-step access) that obtained data.
    pub data_fetches_ok: u64,
    /// Data retrievals that exhausted every mapped host.
    pub data_fetches_failed: u64,
    /// Query re-issues by the reliability layer (attempts beyond the
    /// first; `injected + retries` = total attempts launched).
    pub retries: u64,
    /// Messages lost to transport fault injection (all kinds).
    pub messages_lost: u64,
    /// Messages addressed to a failed server (all kinds).
    pub messages_to_dead: u64,
    /// Attempt-level query losses under retry, by cause. These are *not*
    /// final drops — the pending-table timeout is — but together with
    /// `retries` they decompose exactly where attempts went.
    pub attempts_lost_queue: u64,
    /// Attempt-level losses: hop TTL exceeded (retry mode).
    pub attempts_lost_ttl: u64,
    /// Attempt-level losses: no routable candidate (retry mode).
    pub attempts_lost_stuck: u64,
    /// Attempt-level losses: delivery to a dead server (retry mode).
    pub attempts_lost_dead: u64,
    /// Attempt-level losses: transport loss injection (retry mode).
    pub attempts_lost_transport: u64,
    /// Hosts newly marked dead (negative-cache insertions) across servers.
    pub negative_evictions: u64,
    /// Servers failed by the churn process.
    pub churn_failures: u64,
    /// Servers recovered (churn or `System::recover_server`).
    pub churn_recoveries: u64,
    /// Queries injected per second (availability-curve denominator).
    pub injected_per_sec: BinnedCounter,
    /// Queries resolved per second, binned at resolve time (availability-
    /// curve numerator).
    pub resolved_per_sec: BinnedCounter,
    /// Queries shed by the deepest-TTL admission policy (final drops with
    /// shedding on and no retry layer).
    pub dropped_shed: u64,
    /// Queries finalized by a delivery crossing an active partition cut
    /// (no retry layer).
    pub dropped_partition: u64,
    /// Attempt-level losses: shed by the admission policy (retry mode).
    pub attempts_lost_shed: u64,
    /// Attempt-level losses: delivery crossed an active cut (retry mode).
    pub attempts_lost_partition: u64,
    /// Messages of every kind dropped for crossing an active cut.
    pub messages_cut: u64,
    /// Partition cuts applied (scheduled windows + scenario actions).
    pub cuts_applied: u64,
    /// Heals applied (window expiries + scenario actions).
    pub heals_applied: u64,
    /// Extra queries injected by flash crowds (already in `injected`).
    pub flash_injected: u64,
    /// Servers crashed by `CorrelatedCrash` scenario actions (already in
    /// `churn_failures`).
    pub scenario_crashes: u64,
    /// Per-second injections whose origin sat on the minority side of the
    /// most recent cut (sticky across the heal, until the next cut).
    pub injected_per_sec_minority: BinnedCounter,
    /// Per-second resolutions delivered on the minority side.
    pub resolved_per_sec_minority: BinnedCounter,
    /// Per-second injections from majority-side (or never-cut) origins.
    pub injected_per_sec_majority: BinnedCounter,
    /// Per-second resolutions delivered on the majority side.
    pub resolved_per_sec_majority: BinnedCounter,
    /// Forwarded queries that landed on a server not hosting the node the
    /// sender routed via (stale-pointer detections; DESIGN.md §14). Pure
    /// observation: counted with or without misroute repair enabled.
    pub misroutes: u64,
    /// Total forwarding steps resolved queries spent after their first
    /// misroute (the aggregate detour cost of stale soft state).
    pub detour_hops: u64,
    /// Soft-state entries (replica records, context maps, cache entries)
    /// evicted by the lease sweep.
    pub lease_evictions: u64,
    /// `MapUpdate` advertisements pushed by warm-rejoin / post-heal
    /// anti-entropy reconciliation.
    pub reconcile_pushes: u64,
    /// Per-second resolutions that never hit a stale pointer (numerator of
    /// the reconvergence curve; denominator is `resolved_per_sec`).
    pub clean_resolved_per_sec: BinnedCounter,
    /// Stored objects ever written (pre-seeded + durability-scan
    /// universe size; DESIGN.md §17). With storage enabled this is the
    /// constant object count, so `objects_alive + objects_lost`
    /// partitions it exactly at every scan.
    pub objects_written: u64,
    /// Objects with at least one copy on a live replica at the latest
    /// durability scan (absolute gauge, not a running total).
    pub objects_alive: u64,
    /// Objects with no live copy at the latest durability scan —
    /// every replica-set member either dead or wiped since the write.
    pub objects_lost: u64,
    /// Object writes issued by the storage write driver (each fans out
    /// to the whole replica set).
    pub object_puts: u64,
    /// Object reads that finalized with *some* copy (fresh or stale).
    pub object_reads: u64,
    /// Object reads that finalized with no copy at all (probed replicas
    /// all empty, dead, or cut off).
    pub reads_failed: u64,
    /// Object reads that returned a copy older than the latest version
    /// committed when the read was issued (the staleness cost of
    /// any-replica reads; quorum reads shrink it).
    pub stale_reads: u64,
    /// Copies re-replicated by the background repair sweep to
    /// under-replicated replica-set members.
    pub repair_pushes: u64,
    /// Modeled bytes of every remote message send, from the
    /// per-`Message` byte-cost model (DESIGN.md §18): queries, control
    /// traffic, storage propagation, repair-sweep probes, and gossip.
    /// Local hand-offs and substrate-synthesized feedback cost nothing.
    /// Counted at send time, before the transport loss draw.
    pub bytes_on_wire: u64,
    /// The subset of `bytes_on_wire` spent by the anti-entropy gossip
    /// subsystem (digests at delta or full cost, pushes, pull replies).
    pub gossip_bytes: u64,
    /// Per-tenant queries injected (DESIGN.md §19), indexed by tenant id.
    /// Empty when tenants are off; spine-targeted queries (no tenant)
    /// are uncounted.
    pub tenant_injected: Vec<u64>,
    /// Per-tenant queries resolved.
    pub tenant_resolved: Vec<u64>,
    /// Per-tenant final query drops (all kinds folded), attributed by
    /// the dropped query's target node.
    pub tenant_dropped: Vec<u64>,
    /// Per-tenant sum of resolution latencies in seconds (divide by
    /// `tenant_resolved` for the mean).
    pub tenant_latency_sum: Vec<f64>,
    /// Per-tenant resolutions that hit at least one stale pointer (the
    /// tenant-facing staleness signal).
    pub tenant_misrouted: Vec<u64>,
    /// Per-tenant availability SLO targets, copied from the config so
    /// reports carry their own pass/fail threshold.
    pub tenant_slo: Vec<f64>,
    /// RNG draw ledger: total 64-bit draws per component tag, indexed by
    /// `terradir_workload::seed::tags` (slot 0 unused). Synced by the
    /// system after every `run_until`; equal ledgers across two replays of
    /// one seed are the runtime half of the stream-discipline guarantee
    /// (DESIGN.md §15).
    pub rng_draws: Vec<u64>,
    /// Allocator events (alloc/realloc calls) charged to the simulation
    /// thread while `run_until` executed, from the counting global
    /// allocator (DESIGN.md §16). Zero unless the `alloc-ledger` feature
    /// installed the allocator.
    pub alloc_events: u64,
    /// Bytes requested across those allocator events.
    pub alloc_bytes: u64,
}

/// Per-second availability from an injected/resolved bin pair: each bin is
/// `resolved / injected` capped at 1; a bin with no injections reads as
/// fully available.
pub fn availability_curve(injected: &BinnedCounter, resolved: &BinnedCounter) -> Vec<f64> {
    let res = resolved.bins();
    injected
        .bins()
        .iter()
        .enumerate()
        .map(|(t, &inj)| {
            if inj == 0 {
                1.0
            } else {
                (res.get(t).copied().unwrap_or(0) as f64 / inj as f64).min(1.0)
            }
        })
        .collect()
}

impl RunStats {
    /// Fresh statistics for a namespace with `max_depth` levels.
    pub fn new(max_depth: u16) -> RunStats {
        RunStats {
            injected: 0,
            resolved: 0,
            dropped_queue: 0,
            dropped_ttl: 0,
            dropped_stuck: 0,
            query_messages: 0,
            control_messages: 0,
            replicas_created: 0,
            replicas_deleted: 0,
            sessions_started: 0,
            sessions_completed: 0,
            sessions_aborted: 0,
            drops_per_sec: BinnedCounter::new(1.0),
            replicas_per_sec: BinnedCounter::new(1.0),
            latency: Histogram::new(30.0, 3000),
            hops: Histogram::new(64.0, 64),
            load_mean_per_sec: Vec::new(),
            load_max_per_sec: Vec::new(),
            created_per_level: vec![0; max_depth as usize + 1],
            data_fetches_ok: 0,
            data_fetches_failed: 0,
            dropped_timeout: 0,
            dropped_lost: 0,
            retries: 0,
            messages_lost: 0,
            messages_to_dead: 0,
            attempts_lost_queue: 0,
            attempts_lost_ttl: 0,
            attempts_lost_stuck: 0,
            attempts_lost_dead: 0,
            attempts_lost_transport: 0,
            negative_evictions: 0,
            churn_failures: 0,
            churn_recoveries: 0,
            injected_per_sec: BinnedCounter::new(1.0),
            resolved_per_sec: BinnedCounter::new(1.0),
            dropped_shed: 0,
            dropped_partition: 0,
            attempts_lost_shed: 0,
            attempts_lost_partition: 0,
            messages_cut: 0,
            cuts_applied: 0,
            heals_applied: 0,
            flash_injected: 0,
            scenario_crashes: 0,
            injected_per_sec_minority: BinnedCounter::new(1.0),
            resolved_per_sec_minority: BinnedCounter::new(1.0),
            injected_per_sec_majority: BinnedCounter::new(1.0),
            resolved_per_sec_majority: BinnedCounter::new(1.0),
            misroutes: 0,
            detour_hops: 0,
            lease_evictions: 0,
            reconcile_pushes: 0,
            clean_resolved_per_sec: BinnedCounter::new(1.0),
            objects_written: 0,
            objects_alive: 0,
            objects_lost: 0,
            object_puts: 0,
            object_reads: 0,
            reads_failed: 0,
            stale_reads: 0,
            repair_pushes: 0,
            bytes_on_wire: 0,
            gossip_bytes: 0,
            tenant_injected: Vec::new(),
            tenant_resolved: Vec::new(),
            tenant_dropped: Vec::new(),
            tenant_latency_sum: Vec::new(),
            tenant_misrouted: Vec::new(),
            tenant_slo: Vec::new(),
            rng_draws: Vec::new(),
            alloc_events: 0,
            alloc_bytes: 0,
        }
    }

    /// Sizes the per-tenant series and installs the availability SLO
    /// targets (DESIGN.md §19). Called once at construction when tenants
    /// are active; with tenants off every per-tenant series stays empty.
    pub fn init_tenants(&mut self, slos: impl Iterator<Item = f64>) {
        self.tenant_slo = slos.collect();
        let n = self.tenant_slo.len();
        self.tenant_injected = vec![0; n];
        self.tenant_resolved = vec![0; n];
        self.tenant_dropped = vec![0; n];
        self.tenant_latency_sum = vec![0.0; n];
        self.tenant_misrouted = vec![0; n];
    }

    /// Records a query injection attributed to tenant `t`.
    pub fn on_tenant_injected(&mut self, t: u16) {
        if let Some(slot) = self.tenant_injected.get_mut(t as usize) {
            *slot += 1;
        }
    }

    /// Records a resolution attributed to tenant `t` with its latency and
    /// whether the winning attempt hit a stale pointer.
    pub fn on_tenant_resolved(&mut self, t: u16, latency: f64, misrouted: bool) {
        if let Some(slot) = self.tenant_resolved.get_mut(t as usize) {
            *slot += 1;
        }
        if let Some(slot) = self.tenant_latency_sum.get_mut(t as usize) {
            *slot += latency.max(0.0);
        }
        if misrouted {
            if let Some(slot) = self.tenant_misrouted.get_mut(t as usize) {
                *slot += 1;
            }
        }
    }

    /// Records a final drop attributed to tenant `t`.
    pub fn on_tenant_dropped(&mut self, t: u16) {
        if let Some(slot) = self.tenant_dropped.get_mut(t as usize) {
            *slot += 1;
        }
    }

    /// Per-tenant whole-run availability: `resolved / injected`, capped
    /// at 1; a tenant that saw no injections reads fully available.
    pub fn tenant_availability(&self) -> Vec<f64> {
        self.tenant_injected
            .iter()
            .zip(&self.tenant_resolved)
            .map(|(&inj, &res)| {
                if inj == 0 {
                    1.0
                } else {
                    (res as f64 / inj as f64).min(1.0)
                }
            })
            .collect()
    }

    /// Per-tenant mean resolution latency in seconds (0 when a tenant
    /// resolved nothing).
    pub fn tenant_latency_mean(&self) -> Vec<f64> {
        self.tenant_latency_sum
            .iter()
            .zip(&self.tenant_resolved)
            .map(|(&sum, &res)| if res == 0 { 0.0 } else { sum / res as f64 })
            .collect()
    }

    /// Worst per-tenant availability (1.0 with no tenants configured).
    pub fn tenant_worst_availability(&self) -> f64 {
        self.tenant_availability().into_iter().fold(1.0, f64::min)
    }

    /// Tenants whose whole-run availability fell below their SLO target.
    pub fn tenant_slo_misses(&self) -> u64 {
        self.tenant_availability()
            .iter()
            .zip(&self.tenant_slo)
            .filter(|(got, want)| *got < *want)
            .count() as u64
    }

    /// Total dropped queries (queue + TTL + stuck + timeout + lost + shed
    /// + partition).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue
            + self.dropped_ttl
            + self.dropped_stuck
            + self.dropped_timeout
            + self.dropped_lost
            + self.dropped_shed
            + self.dropped_partition
    }

    /// Fleet-wide per-second availability curve.
    pub fn availability(&self) -> Vec<f64> {
        availability_curve(&self.injected_per_sec, &self.resolved_per_sec)
    }

    /// Availability of queries issued on the minority side of the most
    /// recent cut (the full run's curve; before any cut the series is
    /// empty and reads fully available).
    pub fn availability_minority(&self) -> Vec<f64> {
        availability_curve(
            &self.injected_per_sec_minority,
            &self.resolved_per_sec_minority,
        )
    }

    /// Availability of queries issued on the majority (or never-cut) side.
    pub fn availability_majority(&self) -> Vec<f64> {
        availability_curve(
            &self.injected_per_sec_majority,
            &self.resolved_per_sec_majority,
        )
    }

    /// Fraction of injected queries that were dropped.
    pub fn drop_fraction(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.dropped_total() as f64 / self.injected as f64
        }
    }

    /// Fraction of injected queries resolved.
    pub fn resolve_fraction(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.resolved as f64 / self.injected as f64
        }
    }

    /// Records a dropped query at time `t`.
    pub fn on_drop(&mut self, t: f64, kind: DropKind) {
        match kind {
            DropKind::Queue => self.dropped_queue += 1,
            DropKind::Ttl => self.dropped_ttl += 1,
            DropKind::Stuck => self.dropped_stuck += 1,
            DropKind::Timeout => self.dropped_timeout += 1,
            DropKind::Lost => self.dropped_lost += 1,
            DropKind::Shed => self.dropped_shed += 1,
            DropKind::Partition => self.dropped_partition += 1,
        }
        self.drops_per_sec.record(t);
    }

    /// Records a resolved query. `misrouted`/`detour_hops` come from the
    /// winning attempt's packet: a clean resolution (no stale pointer hit)
    /// feeds the reconvergence-curve numerator.
    pub fn on_resolved(&mut self, t: f64, issued_at: f64, hops: u32, misrouted: bool, detour: u32) {
        self.resolved += 1;
        self.resolved_per_sec.record(t);
        self.latency.record((t - issued_at).max(0.0));
        self.hops.record(hops as f64);
        self.detour_hops += u64::from(detour);
        if !misrouted {
            self.clean_resolved_per_sec.record(t);
        }
    }

    /// Per-second reconvergence curve (DESIGN.md §14): the fraction of
    /// resolutions each second that never hit a stale pointer. A second
    /// with no resolutions reads fully reconverged.
    pub fn reconvergence(&self) -> Vec<f64> {
        availability_curve(&self.resolved_per_sec, &self.clean_resolved_per_sec)
    }

    /// Records an attempt-level query loss under the reliability layer
    /// (the query stays pending; only its timeout finalizes it).
    /// `Timeout` never reaches here — it is the finalizing kind.
    pub fn on_attempt_lost(&mut self, kind: DropKind) {
        match kind {
            DropKind::Queue => self.attempts_lost_queue += 1,
            DropKind::Ttl => self.attempts_lost_ttl += 1,
            DropKind::Stuck => self.attempts_lost_stuck += 1,
            DropKind::Lost => self.attempts_lost_transport += 1,
            DropKind::Shed => self.attempts_lost_shed += 1,
            DropKind::Partition => self.attempts_lost_partition += 1,
            DropKind::Timeout => debug_assert!(false, "timeout is final, not attempt-level"),
        }
    }

    /// Records an attempt-level loss to a dead-server delivery.
    pub fn on_attempt_dead(&mut self) {
        self.attempts_lost_dead += 1;
    }

    /// Records a replica installation at a node of the given depth.
    pub fn on_replica_created(&mut self, t: f64, level: u16) {
        self.replicas_created += 1;
        self.replicas_per_sec.record(t);
        let idx = level as usize;
        if idx >= self.created_per_level.len() {
            self.created_per_level.resize(idx + 1, 0);
        }
        if let Some(slot) = self.created_per_level.get_mut(idx) {
            *slot += 1;
        }
    }
}

/// Generates [`Summary`], [`RunStats::summary`] and [`Summary::to_json`]
/// from one table. Each row is `doc, field: type = value, json format;`,
/// where `value` reads the `RunStats` bound to the leading identifier;
/// rows appear in JSON key order.
macro_rules! summary {
    ($s:ident; $($(#[$doc:meta])* $name:ident: $ty:ty = $value:expr, $fmt:literal;)+) => {
        /// A flat, serializable snapshot of a run's headline numbers (JSON
        /// export for harnesses and the CLI's `--json` flag).
        #[derive(Debug, Clone, PartialEq)]
        pub struct Summary {
            $($(#[$doc])* pub $name: $ty,)+
        }

        impl RunStats {
            /// Builds the serializable summary.
            pub fn summary(&self) -> Summary {
                let $s = self;
                Summary { $($name: $value,)+ }
            }
        }

        impl Summary {
            /// Renders the summary as a JSON object (hand-rolled: every
            /// field is numeric, so no JSON library is needed).
            pub fn to_json(&self) -> String {
                let mut json = format!(
                    concat!("{{", $("\"", stringify!($name), "\":", $fmt, ",",)+),
                    $(self.$name,)+
                );
                // Every key ends in a comma; the last one closes the object.
                json.pop();
                json.push('}');
                json
            }
        }
    };
}

summary! {
    s;
    /// Queries injected.
    injected: u64 = s.injected, "{}";
    /// Queries resolved.
    resolved: u64 = s.resolved, "{}";
    /// Total final drops, every [`DropKind`] folded.
    dropped: u64 = s.dropped_total(), "{}";
    /// Drop fraction.
    drop_fraction: f64 = s.drop_fraction(), "{:.6}";
    /// Mean latency in seconds (0 when nothing resolved).
    latency_mean_s: f64 = s.latency.mean().unwrap_or(0.0), "{:.6}";
    /// 99th-percentile latency in seconds.
    latency_p99_s: f64 = s.latency.quantile(0.99).unwrap_or(0.0), "{:.6}";
    /// Mean hops per resolved query.
    hops_mean: f64 = s.hops.mean().unwrap_or(0.0), "{:.4}";
    /// Replicas created.
    replicas_created: u64 = s.replicas_created, "{}";
    /// Replicas deleted.
    replicas_deleted: u64 = s.replicas_deleted, "{}";
    /// Replication sessions completed.
    sessions_completed: u64 = s.sessions_completed, "{}";
    /// Control messages sent.
    control_messages: u64 = s.control_messages, "{}";
    /// Successful data fetches.
    data_fetches_ok: u64 = s.data_fetches_ok, "{}";
    /// Query re-issues by the reliability layer.
    retries: u64 = s.retries, "{}";
    /// Messages lost to transport fault injection.
    messages_lost: u64 = s.messages_lost, "{}";
    /// Servers failed by the churn process.
    churn_failures: u64 = s.churn_failures, "{}";
    /// Servers recovered.
    churn_recoveries: u64 = s.churn_recoveries, "{}";
    /// Queries shed by the admission policy (final drops).
    dropped_shed: u64 = s.dropped_shed, "{}";
    /// Queries finalized by crossing an active cut.
    dropped_partition: u64 = s.dropped_partition, "{}";
    /// Messages dropped for crossing an active cut.
    messages_cut: u64 = s.messages_cut, "{}";
    /// Partition cuts applied.
    cuts_applied: u64 = s.cuts_applied, "{}";
    /// Heals applied.
    heals_applied: u64 = s.heals_applied, "{}";
    /// Extra queries injected by flash crowds.
    flash_injected: u64 = s.flash_injected, "{}";
    /// Stale-pointer detections (queries landing on a non-hosting server).
    misroutes: u64 = s.misroutes, "{}";
    /// Aggregate post-misroute forwarding steps over resolved queries.
    detour_hops: u64 = s.detour_hops, "{}";
    /// Soft-state entries evicted by the lease sweep.
    lease_evictions: u64 = s.lease_evictions, "{}";
    /// Anti-entropy advertisements pushed on warm rejoin / post-heal.
    reconcile_pushes: u64 = s.reconcile_pushes, "{}";
    /// Stored objects ever written (the durability universe).
    objects_written: u64 = s.objects_written, "{}";
    /// Objects with a live copy at the latest durability scan.
    objects_alive: u64 = s.objects_alive, "{}";
    /// Objects with no live copy at the latest durability scan.
    objects_lost: u64 = s.objects_lost, "{}";
    /// Object writes issued by the storage write driver.
    object_puts: u64 = s.object_puts, "{}";
    /// Object reads that finalized with some copy.
    object_reads: u64 = s.object_reads, "{}";
    /// Object reads that finalized with no copy at all.
    reads_failed: u64 = s.reads_failed, "{}";
    /// Object reads that returned a stale version.
    stale_reads: u64 = s.stale_reads, "{}";
    /// Copies re-replicated by the background repair sweep.
    repair_pushes: u64 = s.repair_pushes, "{}";
    /// Modeled bytes of every remote message send (DESIGN.md §18).
    bytes_on_wire: u64 = s.bytes_on_wire, "{}";
    /// The gossip subsystem's share of `bytes_on_wire`.
    gossip_bytes: u64 = s.gossip_bytes, "{}";
    /// Query-path messages serviced.
    query_messages: u64 = s.query_messages, "{}";
    /// Replication sessions aborted.
    sessions_aborted: u64 = s.sessions_aborted, "{}";
    /// Data retrievals that exhausted every mapped host.
    data_fetches_failed: u64 = s.data_fetches_failed, "{}";
    /// Messages addressed to a failed server.
    messages_to_dead: u64 = s.messages_to_dead, "{}";
    /// Attempt-level losses: request queue overflow (retry mode).
    attempts_lost_queue: u64 = s.attempts_lost_queue, "{}";
    /// Attempt-level losses: hop TTL exceeded (retry mode).
    attempts_lost_ttl: u64 = s.attempts_lost_ttl, "{}";
    /// Attempt-level losses: no routable candidate (retry mode).
    attempts_lost_stuck: u64 = s.attempts_lost_stuck, "{}";
    /// Attempt-level losses: delivery to a dead server (retry mode).
    attempts_lost_dead: u64 = s.attempts_lost_dead, "{}";
    /// Attempt-level losses: transport loss injection (retry mode).
    attempts_lost_transport: u64 = s.attempts_lost_transport, "{}";
    /// Attempt-level losses: shed by the admission policy (retry mode).
    attempts_lost_shed: u64 = s.attempts_lost_shed, "{}";
    /// Attempt-level losses: delivery crossed an active cut (retry mode).
    attempts_lost_partition: u64 = s.attempts_lost_partition, "{}";
    /// Servers crashed by `CorrelatedCrash` scenario actions.
    scenario_crashes: u64 = s.scenario_crashes, "{}";
    /// Tenants configured (0 with tenants off).
    tenant_count: u64 = s.tenant_slo.len() as u64, "{}";
    /// Worst per-tenant whole-run availability (1.0 with no tenants).
    tenant_worst_availability: f64 = s.tenant_worst_availability(), "{:.6}";
    /// Tenants whose availability fell below their SLO target.
    tenant_slo_misses: u64 = s.tenant_slo_misses(), "{}";
    /// Total RNG draws across every tagged stream (ledger sum).
    rng_draws: u64 = s.rng_draws.iter().sum(), "{}";
    /// Allocator events charged to the run (0 without the alloc ledger).
    alloc_events: u64 = s.alloc_events, "{}";
    /// Bytes requested across those allocator events.
    alloc_bytes: u64 = s.alloc_bytes, "{}";
}

/// Why a query was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Request queue overflow.
    Queue,
    /// Hop TTL exceeded.
    Ttl,
    /// No routable candidate.
    Stuck,
    /// Every retry attempt timed out at the issuing server.
    Timeout,
    /// Lost to transport fault injection with no retry layer.
    Lost,
    /// Shed by the deepest-TTL admission policy at a full queue.
    Shed,
    /// Delivery crossed an active partition cut.
    Partition,
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
    fn fractions_handle_empty_run() {
        let s = RunStats::new(4);
        assert_eq!(s.drop_fraction(), 0.0);
        assert_eq!(s.resolve_fraction(), 0.0);
    }

    #[test]
    fn drop_accounting_by_kind() {
        let mut s = RunStats::new(4);
        s.injected = 10;
        s.on_drop(0.5, DropKind::Queue);
        s.on_drop(1.5, DropKind::Ttl);
        s.on_drop(1.7, DropKind::Stuck);
        assert_eq!(s.dropped_total(), 3);
        assert_eq!(s.drop_fraction(), 0.3);
        assert_eq!(s.drops_per_sec.bins(), &[1, 2]);
    }

    #[test]
    fn resolved_records_latency_and_hops() {
        let mut s = RunStats::new(4);
        s.injected = 1;
        s.on_resolved(2.0, 1.5, 7, false, 0);
        assert_eq!(s.resolved, 1);
        assert!((s.latency.mean().unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(s.hops.mean(), Some(7.0));
    }

    #[test]
    fn summary_snapshot_matches_fields() {
        let mut s = RunStats::new(2);
        s.injected = 4;
        s.on_resolved(1.0, 0.5, 3, false, 0);
        s.on_drop(1.0, DropKind::Queue);
        let sum = s.summary();
        assert_eq!(sum.injected, 4);
        assert_eq!(sum.resolved, 1);
        assert_eq!(sum.dropped, 1);
        assert!((sum.drop_fraction - 0.25).abs() < 1e-12);
        assert!((sum.latency_mean_s - 0.5).abs() < 1e-9);
        assert_eq!(sum.hops_mean, 3.0);
    }

    /// Every field `summary()` reads, set to a distinct value. The golden
    /// literal pins each key, the key order and the float precision, so a
    /// summary JSON (and every fingerprint hashed from one) stays
    /// comparable across commits.
    #[test]
    fn summary_json_matches_the_golden_literal() {
        let mut s = RunStats::new(2);
        s.injected = 1000;
        s.resolved = 901;
        s.dropped_queue = 2;
        s.dropped_ttl = 3;
        s.dropped_stuck = 5;
        s.dropped_timeout = 7;
        s.dropped_lost = 11;
        s.dropped_shed = 13;
        s.dropped_partition = 17;
        s.latency.record(0.123);
        s.latency.record(0.456);
        s.latency.record(2.5);
        s.hops.record(3.0);
        s.hops.record(4.0);
        s.hops.record(9.0);
        s.replicas_created = 19;
        s.replicas_deleted = 23;
        s.sessions_completed = 29;
        s.control_messages = 31;
        s.data_fetches_ok = 37;
        s.retries = 41;
        s.messages_lost = 43;
        s.churn_failures = 47;
        s.churn_recoveries = 53;
        s.messages_cut = 59;
        s.cuts_applied = 61;
        s.heals_applied = 67;
        s.flash_injected = 71;
        s.misroutes = 73;
        s.detour_hops = 79;
        s.lease_evictions = 83;
        s.reconcile_pushes = 89;
        s.objects_written = 97;
        s.objects_alive = 101;
        s.objects_lost = 103;
        s.object_puts = 107;
        s.object_reads = 109;
        s.reads_failed = 113;
        s.stale_reads = 127;
        s.repair_pushes = 131;
        s.bytes_on_wire = 137;
        s.gossip_bytes = 139;
        s.query_messages = 149;
        s.sessions_aborted = 151;
        s.data_fetches_failed = 157;
        s.messages_to_dead = 163;
        s.attempts_lost_queue = 167;
        s.attempts_lost_ttl = 173;
        s.attempts_lost_stuck = 179;
        s.attempts_lost_dead = 181;
        s.attempts_lost_transport = 191;
        s.attempts_lost_shed = 193;
        s.attempts_lost_partition = 197;
        s.scenario_crashes = 199;
        s.init_tenants([0.95, 0.5, 0.2].into_iter());
        s.tenant_injected = vec![3, 7, 0];
        s.tenant_resolved = vec![2, 3, 0];
        s.rng_draws = vec![0, 211, 223];
        s.alloc_events = 227;
        s.alloc_bytes = 229;
        assert_eq!(
            s.summary().to_json(),
            concat!(
                r#"{"injected":1000,"resolved":901,"dropped":58,"#,
                r#""drop_fraction":0.058000,"latency_mean_s":1.026333,"#,
                r#""latency_p99_s":2.510000,"hops_mean":5.3333,"#,
                r#""replicas_created":19,"replicas_deleted":23,"#,
                r#""sessions_completed":29,"control_messages":31,"#,
                r#""data_fetches_ok":37,"retries":41,"messages_lost":43,"#,
                r#""churn_failures":47,"churn_recoveries":53,"dropped_shed":13,"#,
                r#""dropped_partition":17,"messages_cut":59,"cuts_applied":61,"#,
                r#""heals_applied":67,"flash_injected":71,"misroutes":73,"#,
                r#""detour_hops":79,"lease_evictions":83,"reconcile_pushes":89,"#,
                r#""objects_written":97,"objects_alive":101,"objects_lost":103,"#,
                r#""object_puts":107,"object_reads":109,"reads_failed":113,"#,
                r#""stale_reads":127,"repair_pushes":131,"bytes_on_wire":137,"#,
                r#""gossip_bytes":139,"query_messages":149,"#,
                r#""sessions_aborted":151,"data_fetches_failed":157,"#,
                r#""messages_to_dead":163,"attempts_lost_queue":167,"#,
                r#""attempts_lost_ttl":173,"attempts_lost_stuck":179,"#,
                r#""attempts_lost_dead":181,"attempts_lost_transport":191,"#,
                r#""attempts_lost_shed":193,"attempts_lost_partition":197,"#,
                r#""scenario_crashes":199,"tenant_count":3,"#,
                r#""tenant_worst_availability":0.428571,"tenant_slo_misses":2,"#,
                r#""rng_draws":434,"alloc_events":227,"alloc_bytes":229}"#,
            )
        );
    }

    #[test]
    fn summary_json_is_well_formed() {
        let mut s = RunStats::new(2);
        s.injected = 2;
        s.on_resolved(1.0, 0.5, 3, false, 0);
        let json = s.summary().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"injected\":2"));
        assert!(json.contains("\"hops_mean\":3.0000"));
        // Balanced quotes and braces (cheap well-formedness probe).
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn self_healing_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.misroutes = 4;
        s.lease_evictions = 2;
        s.reconcile_pushes = 5;
        s.on_resolved(0.5, 0.1, 3, true, 7);
        let json = s.summary().to_json();
        assert!(json.contains("\"misroutes\":4"));
        assert!(json.contains("\"detour_hops\":7"));
        assert!(json.contains("\"lease_evictions\":2"));
        assert!(json.contains("\"reconcile_pushes\":5"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn chaos_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.messages_cut = 3;
        s.cuts_applied = 1;
        s.heals_applied = 1;
        s.flash_injected = 9;
        s.on_drop(0.1, DropKind::Shed);
        let json = s.summary().to_json();
        assert!(json.contains("\"messages_cut\":3"));
        assert!(json.contains("\"cuts_applied\":1"));
        assert!(json.contains("\"heals_applied\":1"));
        assert!(json.contains("\"flash_injected\":9"));
        assert!(json.contains("\"dropped_shed\":1"));
        assert!(json.contains("\"dropped_partition\":0"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn storage_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.objects_written = 64;
        s.objects_alive = 60;
        s.objects_lost = 4;
        s.object_puts = 31;
        s.object_reads = 29;
        s.reads_failed = 2;
        s.stale_reads = 3;
        s.repair_pushes = 17;
        let json = s.summary().to_json();
        assert!(json.contains("\"objects_written\":64"));
        assert!(json.contains("\"objects_alive\":60"));
        assert!(json.contains("\"objects_lost\":4"));
        assert!(json.contains("\"object_puts\":31"));
        assert!(json.contains("\"object_reads\":29"));
        assert!(json.contains("\"reads_failed\":2"));
        assert!(json.contains("\"stale_reads\":3"));
        assert!(json.contains("\"repair_pushes\":17"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn wire_counters_reach_the_summary_json() {
        let mut s = RunStats::new(2);
        s.bytes_on_wire = 123_456;
        s.gossip_bytes = 7_890;
        let json = s.summary().to_json();
        assert!(json.contains("\"bytes_on_wire\":123456"));
        assert!(json.contains("\"gossip_bytes\":7890"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn attempt_decomposition_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        s.query_messages = 11;
        s.messages_to_dead = 2;
        s.scenario_crashes = 1;
        s.on_attempt_lost(DropKind::Queue);
        s.on_attempt_dead();
        let json = s.summary().to_json();
        assert!(json.contains("\"query_messages\":11"));
        assert!(json.contains("\"messages_to_dead\":2"));
        assert!(json.contains("\"scenario_crashes\":1"));
        assert!(json.contains("\"attempts_lost_queue\":1"));
        assert!(json.contains("\"attempts_lost_dead\":1"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn draw_ledger_total_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        s.rng_draws = vec![0, 3, 4];
        let sum = s.summary();
        assert_eq!(sum.rng_draws, 7);
        assert!(sum.to_json().contains("\"rng_draws\":7"));
    }

    #[test]
    fn alloc_ledger_reaches_the_summary_json() {
        let mut s = RunStats::new(2);
        s.alloc_events = 12;
        s.alloc_bytes = 4096;
        let sum = s.summary();
        assert_eq!(sum.alloc_events, 12);
        assert_eq!(sum.alloc_bytes, 4096);
        let json = sum.to_json();
        assert!(json.contains("\"alloc_events\":12"));
        assert!(json.contains("\"alloc_bytes\":4096"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn reliability_drop_kinds_are_decomposable() {
        let mut s = RunStats::new(2);
        s.injected = 5;
        s.on_drop(0.5, DropKind::Timeout);
        s.on_drop(0.7, DropKind::Lost);
        s.on_drop(1.1, DropKind::Queue);
        assert_eq!(s.dropped_timeout, 1);
        assert_eq!(s.dropped_lost, 1);
        assert_eq!(s.dropped_total(), 3);
        s.on_attempt_lost(DropKind::Queue);
        s.on_attempt_lost(DropKind::Lost);
        s.on_attempt_dead();
        // Attempt-level losses never enter the final-drop totals.
        assert_eq!(s.dropped_total(), 3);
        assert_eq!(s.attempts_lost_queue, 1);
        assert_eq!(s.attempts_lost_transport, 1);
        assert_eq!(s.attempts_lost_dead, 1);
    }

    #[test]
    fn availability_series_track_injection_and_resolution() {
        let mut s = RunStats::new(2);
        s.injected_per_sec.record(0.2);
        s.injected_per_sec.record(1.4);
        s.on_resolved(1.5, 0.2, 3, false, 0);
        assert_eq!(s.injected_per_sec.bins(), &[1, 1]);
        assert_eq!(s.resolved_per_sec.bins(), &[0, 1]);
    }

    #[test]
    fn chaos_drop_kinds_enter_the_totals() {
        let mut s = RunStats::new(2);
        s.injected = 4;
        s.on_drop(0.5, DropKind::Shed);
        s.on_drop(0.7, DropKind::Partition);
        assert_eq!(s.dropped_shed, 1);
        assert_eq!(s.dropped_partition, 1);
        assert_eq!(s.dropped_total(), 2);
        s.on_attempt_lost(DropKind::Shed);
        s.on_attempt_lost(DropKind::Partition);
        assert_eq!(s.attempts_lost_shed, 1);
        assert_eq!(s.attempts_lost_partition, 1);
        // Attempt-level losses never enter the final totals.
        assert_eq!(s.dropped_total(), 2);
    }

    #[test]
    fn availability_curve_handles_empty_and_partial_bins() {
        let mut s = RunStats::new(2);
        s.injected_per_sec.record(0.5);
        s.injected_per_sec.record(0.6);
        s.injected_per_sec.record(2.5);
        s.on_resolved(0.9, 0.5, 3, false, 0);
        let curve = s.availability();
        assert_eq!(curve.len(), 3);
        assert!((curve[0] - 0.5).abs() < 1e-12);
        assert_eq!(curve[1], 1.0, "no injections in bin 1 reads available");
        assert_eq!(curve[2], 0.0);
        // Per-side series start empty: fully available by definition.
        assert!(s.availability_minority().is_empty());
        s.injected_per_sec_minority.record(0.5);
        s.resolved_per_sec_minority.record(0.6);
        assert_eq!(s.availability_minority(), vec![1.0]);
    }

    #[test]
    fn reconvergence_curve_tracks_clean_resolutions() {
        let mut s = RunStats::new(2);
        s.on_resolved(0.5, 0.1, 3, true, 2);
        s.on_resolved(0.6, 0.1, 3, false, 0);
        s.on_resolved(1.5, 0.9, 4, false, 0);
        assert_eq!(s.detour_hops, 2);
        let curve = s.reconvergence();
        assert_eq!(curve.len(), 2);
        assert!((curve[0] - 0.5).abs() < 1e-12, "1 of 2 resolved cleanly");
        assert_eq!(curve[1], 1.0, "all-clean bin fully reconverged");
    }

    #[test]
    fn per_level_counts_grow_dynamically() {
        let mut s = RunStats::new(2);
        s.on_replica_created(0.0, 1);
        s.on_replica_created(0.0, 5); // beyond initial depth
        assert_eq!(s.created_per_level[1], 1);
        assert_eq!(s.created_per_level[5], 1);
        assert_eq!(s.replicas_created, 2);
    }

    #[test]
    fn tenant_ledger_math_and_summary() {
        let mut s = RunStats::new(2);
        s.init_tenants([0.95, 0.5].into_iter());
        for _ in 0..10 {
            s.on_tenant_injected(0);
        }
        for _ in 0..4 {
            s.on_tenant_injected(1);
        }
        for _ in 0..9 {
            s.on_tenant_resolved(0, 0.1, false);
        }
        s.on_tenant_dropped(0);
        s.on_tenant_resolved(1, 0.2, true);
        s.on_tenant_dropped(1);
        let avail = s.tenant_availability();
        assert!((avail[0] - 0.9).abs() < 1e-12);
        assert!((avail[1] - 0.25).abs() < 1e-12);
        assert!((s.tenant_worst_availability() - 0.25).abs() < 1e-12);
        // Tenant 0 misses its 0.95 SLO at 0.9; tenant 1 meets 0.5? No:
        // 0.25 < 0.5 misses too.
        assert_eq!(s.tenant_slo_misses(), 2);
        let lat = s.tenant_latency_mean();
        assert!((lat[0] - 0.1).abs() < 1e-12);
        assert!((lat[1] - 0.2).abs() < 1e-12);
        assert_eq!(s.tenant_misrouted, vec![0, 1]);
        let sum = s.summary();
        assert_eq!(sum.tenant_count, 2);
        assert_eq!(sum.tenant_slo_misses, 2);
        let json = sum.to_json();
        assert!(json.contains("\"tenant_count\":2"));
        assert!(json.contains("\"tenant_slo_misses\":2"));
        assert!(json.contains("\"tenant_worst_availability\":0.250000"));
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn tenant_ledger_is_empty_without_init() {
        let s = RunStats::new(1);
        assert!(s.tenant_availability().is_empty());
        assert!(s.tenant_latency_mean().is_empty());
        assert!((s.tenant_worst_availability() - 1.0).abs() < 1e-12);
        assert_eq!(s.tenant_slo_misses(), 0);
        let sum = s.summary();
        assert_eq!(sum.tenant_count, 0);
        assert!((sum.tenant_worst_availability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_availability_is_one_when_idle() {
        let mut s = RunStats::new(1);
        s.init_tenants([0.9].into_iter());
        // No arrivals: availability defaults to 1.0 and meets any SLO.
        assert_eq!(s.tenant_availability(), vec![1.0]);
        assert_eq!(s.tenant_slo_misses(), 0);
    }
}
