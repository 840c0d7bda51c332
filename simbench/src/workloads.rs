//! The three named workloads. Each is a fixed simulated scenario: the
//! same seed gives the same configuration, query stream and churn draws,
//! so every simulated outcome is a deterministic function of the seed.

use terradir::{Config, GossipCulture};
use terradir_namespace::{balanced_tree, Namespace};
use terradir_workload::StreamPlan;

/// One named workload: a fleet, a protocol configuration, a query plan
/// and an arrival rate, run for `horizon` simulated seconds with
/// injection on and then drained.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name later changes cite, e.g. `adapt-bcr-1024`.
    pub name: String,
    /// Fleet size (a power of two: the T_S tree holds 8 nodes per server).
    pub servers: u32,
    /// Simulated seconds with query injection on.
    pub horizon: u32,
    /// Global Poisson arrival rate λ in queries per simulated second.
    pub rate: f64,
    /// Destination plan (segments and popularity reshuffles).
    pub plan: StreamPlan,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    AdaptBcr,
    BaseUnif,
    ChurnStore,
}

/// The paper's λ (queries per second at 4096 servers) scaled to a fleet,
/// which keeps per-server utilization at the paper's level.
fn scaled_rate(paper_rate: f64, servers: u32) -> f64 {
    paper_rate * f64::from(servers) / 4096.0
}

/// Every benchmark workload, in the order `--workload all` runs them.
pub fn all() -> Vec<Workload> {
    vec![
        adapt_bcr(1024, 6, 5),
        base_unif(1024, 10),
        churn_store(256, 300),
    ]
}

/// Looks a benchmark workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Paper-default BCR under the adaptation stream: a uniform warm-up,
/// then two Zipf(1.25) segments, each reshuffling popularity on entry.
pub fn adapt_bcr(servers: u32, warmup: u32, segment: u32) -> Workload {
    Workload {
        name: format!("adapt-bcr-{servers}"),
        servers,
        horizon: warmup + 2 * segment,
        rate: scaled_rate(20_000.0, servers),
        plan: StreamPlan::adaptation(1.25, f64::from(warmup), 2, f64::from(segment)),
        kind: Kind::AdaptBcr,
    }
}

/// The paper's base system B (no caching, replication or digests) under
/// uniform destinations at the adaptation workload's λ.
pub fn base_unif(servers: u32, horizon: u32) -> Workload {
    Workload {
        name: format!("base-unif-{servers}"),
        servers,
        horizon,
        rate: scaled_rate(20_000.0, servers),
        plan: StreamPlan::unif(f64::from(horizon)),
        kind: Kind::BaseUnif,
    }
}

/// BCR plus replicated object storage under churn, with every soft-state
/// repair path on: taciturn gossip, the storage repair sweep, warm-rejoin
/// reconcile, lease/misroute repair, and the retry layer.
pub fn churn_store(servers: u32, horizon: u32) -> Workload {
    Workload {
        name: format!("churn-store-{servers}"),
        servers,
        horizon,
        rate: scaled_rate(4_000.0, servers),
        plan: StreamPlan::uzipf(1.0, f64::from(horizon)),
        kind: Kind::ChurnStore,
    }
}

impl Workload {
    /// Builds the T_S namespace: a balanced binary tree with 8 nodes per
    /// server.
    pub fn namespace(&self) -> Namespace {
        let levels = ((self.servers * 8).ilog2() - 1) as u16;
        balanced_tree(2, levels)
    }

    /// The protocol configuration at `seed`.
    pub fn config(&self, seed: u64) -> Config {
        let n = self.servers;
        match self.kind {
            Kind::AdaptBcr => Config::paper_default(n).with_seed(seed),
            Kind::BaseUnif => Config::base_system(n).with_seed(seed),
            Kind::ChurnStore => churn_store_config(n, f64::from(self.horizon)).with_seed(seed),
        }
    }

    /// Whether the workload stores objects (and so has durability gates
    /// and storage outcomes).
    pub fn has_storage(&self) -> bool {
        matches!(self.kind, Kind::ChurnStore)
    }
}

fn churn_store_config(n: u32, horizon: f64) -> Config {
    let mut cfg = Config::paper_default(n);
    // Objects scale with the fleet and churn is aggressive enough that
    // some objects lose every copy: with the storage default of 64
    // objects nothing is lost, and `objects_lost` could never regress.
    cfg.storage.enabled = true;
    cfg.storage.n_objects = n * 4;
    cfg.storage.replication_factor = 3;
    cfg.storage.quorum_reads = true;
    cfg.storage.write_rate = 20.0;
    cfg.storage.read_rate = 40.0;
    cfg.storage.read_timeout = 1.0;
    cfg.repair.enabled = true;
    cfg.repair.interval = 5.0;
    cfg.repair.batch = cfg.storage.n_objects * 2;
    cfg.gossip.enabled = true;
    cfg.gossip.culture = GossipCulture::Taciturn;
    cfg.gossip.interval = 2.0;
    cfg.gossip.fanout = 3;
    cfg.gossip.window = 32;
    cfg.reconcile.enabled = true;
    cfg.leases.enabled = true;
    cfg.leases.ttl = 10.0;
    cfg.leases.misroute = true;
    cfg.retry.enabled = true;
    // New failures start after a 5 s warm-up and stop one retry budget
    // (1 + 2 + 4 + 8 s) before injection does.
    cfg.churn.enabled = true;
    cfg.churn.start = 5.0;
    cfg.churn.stop = horizon - 15.0;
    cfg.churn.mean_uptime = 40.0;
    cfg.churn.mean_downtime = 10.0;
    cfg
}
