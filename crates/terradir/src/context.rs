//! The per-server state split (DESIGN.md §20).
//!
//! Everything a server step may mutate lives in its own
//! [`StatefulContext`]; everything shared across the fleet lives in the
//! read-only [`StatelessContext`]. A server function receives its own
//! context plus the shared one and expresses every cross-server effect
//! as returned [`Outgoing`](crate::server::Outgoing) values that the
//! calendar dispatch in `system.rs` applies.

use std::collections::VecDeque;
use std::sync::Arc;

use terradir_namespace::{Namespace, OwnerAssignment};

use crate::config::Config;
use crate::load::LoadMeter;
use crate::messages::Message;
use crate::roles::{RoleMap, TenantMap};
use crate::server::ServerState;

/// Per-server mutable state: the protocol state machine plus the
/// queueing-station bookkeeping the substrate keeps for it. Exactly one
/// per server; only the calendar dispatch in `system.rs` touches it on
/// behalf of another server.
#[derive(Debug)]
pub struct StatefulContext {
    /// The protocol state machine (owned records, replicas, leases,
    /// caches, digests, object store, gossip tracking).
    pub(crate) server: ServerState,
    /// Bounded FIFO request queue (overflow drops / sheds).
    pub(crate) queue: VecDeque<Message>,
    /// The message currently in service, if any.
    pub(crate) in_service: Option<Message>,
    /// Busy-time accounting over 1-second windows (drives the Fig. 6
    /// utilization series; separate from the protocol's load metric so
    /// disabling replication does not lose the measurement).
    pub(crate) util: LoadMeter,
    /// Whether the server is currently failed.
    pub(crate) failed: bool,
    /// Service epoch, bumped at each failure (stale-filters
    /// `ServiceDone` events scheduled before a crash).
    pub(crate) epoch: u64,
    /// Speed factor (service time divides by this).
    pub(crate) speed: f64,
    /// Queue admission bound (relays get a deeper queue).
    pub(crate) queue_cap: usize,
}

/// Fleet-wide read-only state: built once at construction, never
/// mutated during a run, shareable by reference (or cheap `Arc` clone)
/// with every server step.
#[derive(Debug)]
pub struct StatelessContext {
    /// The namespace tree.
    pub(crate) ns: Arc<Namespace>,
    /// The run configuration.
    pub(crate) cfg: Arc<Config>,
    /// The static node→server ownership assignment.
    pub(crate) assignment: Arc<OwnerAssignment>,
    /// Fleet role map (DESIGN.md §19); `None` with roles off.
    pub(crate) roles: Option<Arc<RoleMap>>,
    /// Tenant partition (DESIGN.md §19); `None` with tenants off.
    pub(crate) tenants: Option<Arc<TenantMap>>,
    /// Per-server speed factors (replica-partner tie-breaking reads
    /// these; the per-context `speed` is the same value).
    pub(crate) speeds: Arc<[f64]>,
}
