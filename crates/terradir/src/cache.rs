//! LRU route caches with path propagation.
//!
//! "A cache entry for a node consists solely of some mapping for that node"
//! (paper §2.4): caches are pointers into the namespace with no routing
//! context, replaced LRU, touched whenever used in routing. Path propagation
//! — caching the path-so-far at every step — is implemented by the routing
//! layer feeding [`RouteCache::insert`] with every `(node, map)` pair a
//! query carries.

use terradir_namespace::NodeId;

use crate::map::NodeMap;

/// A bounded LRU cache of `node → map` pointers.
///
/// Entries live in one flat `Vec` allocated at `slots` capacity in
/// [`RouteCache::new`]. Slot counts are small (24 in the paper's
/// configuration), so lookups scan linearly, and the table never grows:
/// a hash table would leave eviction tombstones and double to clear them.
#[derive(Debug, Clone)]
pub struct RouteCache {
    slots: usize,
    entries: Vec<(NodeId, CacheEntry)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    map: NodeMap,
    last_used: u64,
    /// Soft-state lease stamp in *simulation* time (the LRU clock above
    /// is a logical counter and cannot express a wall-clock ttl).
    lease_at: f64,
}

impl RouteCache {
    /// A cache with the given number of slots. Zero slots disables caching
    /// (every insert is a no-op).
    pub fn new(slots: usize) -> RouteCache {
        RouteCache {
            slots,
            entries: Vec::with_capacity(slots),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn entry(&self, node: NodeId) -> Option<&CacheEntry> {
        self.entries
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, e)| e)
    }

    fn entry_mut(&mut self, node: NodeId) -> Option<&mut CacheEntry> {
        self.entries
            .iter_mut()
            .find(|(n, _)| *n == node)
            .map(|(_, e)| e)
    }

    /// Looks up a node, touching the entry (LRU update) on hit.
    pub fn get(&mut self, node: NodeId) -> Option<&NodeMap> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((_, e)) = self.entries.iter_mut().find(|(n, _)| *n == node) {
            e.last_used = clock;
            self.hits += 1;
            Some(&e.map)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Looks up without touching (no LRU update, no hit/miss accounting);
    /// used when scanning candidates rather than committing to a route.
    pub fn peek(&self, node: NodeId) -> Option<&NodeMap> {
        self.entry(node).map(|e| &e.map)
    }

    /// Iterates over cached `(node, map)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeMap)> {
        self.entries.iter().map(|(n, e)| (*n, &e.map))
    }

    /// Inserts or refreshes an entry, evicting the least recently used
    /// entry if at capacity. Refreshing an existing node replaces its map,
    /// touches it, and renews its lease to `now`.
    pub fn insert(&mut self, node: NodeId, map: NodeMap, now: f64) {
        if self.slots == 0 || map.is_empty() {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(e) = self.entry_mut(node) {
            e.map = map;
            e.last_used = clock;
            if now > e.lease_at {
                e.lease_at = now;
            }
            return;
        }
        if self.entries.len() >= self.slots {
            // The clock strictly increases, so the victim is unique.
            if let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, e))| e.last_used)
                .map(|(i, _)| i)
            {
                self.entries.swap_remove(victim);
                self.evictions += 1;
            }
        }
        self.entries.push((
            node,
            CacheEntry {
                map,
                last_used: clock,
                lease_at: now,
            },
        ));
    }

    /// Renews an entry's lease to `now` (refresh-on-use; DESIGN.md §14).
    /// No LRU touch and no hit/miss accounting, so lease bookkeeping
    /// cannot perturb eviction order.
    pub fn refresh_lease(&mut self, node: NodeId, now: f64) {
        if let Some(e) = self.entry_mut(node) {
            if now > e.lease_at {
                e.lease_at = now;
            }
        }
    }

    /// The lease stamp of a cached entry, if present.
    pub fn lease_of(&self, node: NodeId) -> Option<f64> {
        self.entry(node).map(|e| e.lease_at)
    }

    /// Evicts every entry whose lease went stale more than `ttl` seconds
    /// ago; returns the evicted nodes (sorted, so callers account for
    /// them deterministically).
    pub fn sweep_expired(&mut self, now: f64, ttl: f64) -> Vec<NodeId> {
        let expired = |e: &CacheEntry| now - e.lease_at > ttl;
        let mut victims: Vec<NodeId> = self
            .entries
            .iter()
            .filter(|(_, e)| expired(e))
            .map(|(n, _)| *n)
            .collect(); // xtask: allow(alloc): periodic lease sweep, runs per maintenance tick
        victims.sort_unstable();
        self.entries.retain(|(_, e)| !expired(e));
        self.evictions += victims.len() as u64;
        victims
    }

    /// Merges a map into an existing entry's map via the paper's map-merge
    /// (delegated to the caller); here we only expose mutable access.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut NodeMap> {
        self.clock += 1;
        let clock = self.clock;
        self.entry_mut(node).map(|e| {
            e.last_used = clock;
            &mut e.map
        })
    }

    /// Drops an entry (e.g. its map went permanently stale).
    pub fn remove(&mut self, node: NodeId) {
        if let Some(i) = self.entries.iter().position(|(n, _)| *n == node) {
            self.entries.swap_remove(i);
        }
    }

    /// Lifetime counters `(hits, misses, evictions)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
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
    use terradir_namespace::ServerId;

    fn m(i: u32) -> NodeMap {
        NodeMap::singleton(ServerId(i))
    }

    #[test]
    fn insert_then_get() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), m(10), 0.0);
        assert_eq!(c.get(NodeId(1)).unwrap().entries()[0], ServerId(10));
        assert_eq!(c.get(NodeId(2)), None);
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        c.get(NodeId(1)); // touch 1 so 2 is the LRU
        c.insert(NodeId(3), m(3), 0.0);
        assert!(c.peek(NodeId(1)).is_some());
        assert!(c.peek(NodeId(2)).is_none(), "LRU entry should be evicted");
        assert!(c.peek(NodeId(3)).is_some());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn refresh_replaces_map_without_eviction() {
        let mut c = RouteCache::new(1);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(1), m(9), 0.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(NodeId(1)).unwrap().entries()[0], ServerId(9));
        assert_eq!(c.counters().2, 0);
    }

    #[test]
    fn zero_slots_disables_caching() {
        let mut c = RouteCache::new(0);
        c.insert(NodeId(1), m(1), 0.0);
        assert!(c.is_empty());
        assert_eq!(c.get(NodeId(1)), None);
    }

    #[test]
    fn empty_maps_are_not_cached() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), NodeMap::from_entries([]), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_perturb_lru() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        c.peek(NodeId(1)); // must NOT touch
        c.insert(NodeId(3), m(3), 0.0);
        assert!(c.peek(NodeId(1)).is_none(), "peek must not refresh LRU");
    }

    #[test]
    fn lease_sweep_evicts_only_expired_entries() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 8.0);
        assert_eq!(c.lease_of(NodeId(1)), Some(0.0));
        let victims = c.sweep_expired(10.0, 5.0);
        assert_eq!(victims, vec![NodeId(1)]);
        assert!(c.peek(NodeId(1)).is_none());
        assert!(c.peek(NodeId(2)).is_some());
        // Refresh keeps an entry alive past its original expiry.
        c.refresh_lease(NodeId(2), 12.0);
        assert!(c.sweep_expired(15.0, 5.0).is_empty());
        assert_eq!(c.lease_of(NodeId(2)), Some(12.0));
        // ttl = 0 sweeps anything not stamped at this exact instant.
        assert_eq!(c.sweep_expired(15.1, 0.0), vec![NodeId(2)]);
        assert!(c.is_empty());
    }

    #[test]
    fn lease_refresh_does_not_perturb_lru() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        c.refresh_lease(NodeId(1), 5.0); // must NOT touch LRU order
        c.insert(NodeId(3), m(3), 0.0);
        assert!(c.peek(NodeId(1)).is_none(), "1 was still the LRU victim");
        assert!(c.peek(NodeId(2)).is_some());
    }

    #[test]
    fn remove_drops_entry() {
        let mut c = RouteCache::new(2);
        c.insert(NodeId(1), m(1), 0.0);
        c.remove(NodeId(1));
        assert!(c.is_empty());
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut c = RouteCache::new(4);
        c.insert(NodeId(1), m(1), 0.0);
        c.insert(NodeId(2), m(2), 0.0);
        let nodes: std::collections::HashSet<NodeId> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(nodes.len(), 2);
    }

    mod model {
        use std::collections::{BTreeMap, BTreeSet};

        use proptest::prelude::*;
        use terradir_namespace::{NodeId, ServerId};

        use super::super::RouteCache;
        use crate::map::NodeMap;

        /// One cache call; `dt` advances simulated time before it.
        #[derive(Debug, Clone, Copy)]
        enum Op {
            /// Host 0 stands for an empty map, which is never cached.
            Insert {
                node: u32,
                host: u32,
            },
            Get(u32),
            GetMut(u32),
            Peek(u32),
            Remove(u32),
            RefreshLease(u32),
            Sweep {
                ttl: u32,
            },
        }

        fn op() -> impl Strategy<Value = (Op, u32)> {
            let node = 0u32..10;
            // Inserts are listed twice so caches fill up and evict.
            let kind = prop_oneof![
                (node.clone(), 0u32..4).prop_map(|(node, host)| Op::Insert { node, host }),
                (node.clone(), 0u32..4).prop_map(|(node, host)| Op::Insert { node, host }),
                node.clone().prop_map(Op::Get),
                node.clone().prop_map(Op::GetMut),
                node.clone().prop_map(Op::Peek),
                node.clone().prop_map(Op::Remove),
                node.prop_map(Op::RefreshLease),
                (0u32..6).prop_map(|ttl| Op::Sweep { ttl }),
            ];
            (kind, 0u32..3)
        }

        /// Reference model: an ordered map plus the same logical clock.
        /// Values are `(host, last_used, lease_at)`.
        #[derive(Default)]
        struct Model {
            slots: usize,
            entries: BTreeMap<u32, (u32, u64, f64)>,
            clock: u64,
            hits: u64,
            misses: u64,
            evictions: u64,
        }

        impl Model {
            /// Applies `op`; returns the node evicted by LRU, if any.
            fn apply(&mut self, op: Op, now: f64) -> Option<u32> {
                match op {
                    Op::Insert { node, host } => {
                        if self.slots == 0 || host == 0 {
                            return None;
                        }
                        self.clock += 1;
                        if let Some(e) = self.entries.get_mut(&node) {
                            *e = (host, self.clock, e.2.max(now));
                            return None;
                        }
                        let mut victim = None;
                        if self.entries.len() >= self.slots {
                            victim = self
                                .entries
                                .iter()
                                .min_by_key(|(_, e)| e.1)
                                .map(|(&n, _)| n);
                            if let Some(v) = victim {
                                self.entries.remove(&v);
                                self.evictions += 1;
                            }
                        }
                        self.entries.insert(node, (host, self.clock, now));
                        victim
                    }
                    Op::Get(node) => {
                        self.clock += 1;
                        if let Some(e) = self.entries.get_mut(&node) {
                            e.1 = self.clock;
                            self.hits += 1;
                        } else {
                            self.misses += 1;
                        }
                        None
                    }
                    Op::GetMut(node) => {
                        self.clock += 1;
                        if let Some(e) = self.entries.get_mut(&node) {
                            e.1 = self.clock;
                        }
                        None
                    }
                    Op::Peek(_) => None,
                    Op::Remove(node) => {
                        self.entries.remove(&node);
                        None
                    }
                    Op::RefreshLease(node) => {
                        if let Some(e) = self.entries.get_mut(&node) {
                            e.2 = e.2.max(now);
                        }
                        None
                    }
                    Op::Sweep { ttl } => {
                        let ttl = f64::from(ttl);
                        let before = self.entries.len();
                        self.entries.retain(|_, e| now - e.2 <= ttl);
                        self.evictions += (before - self.entries.len()) as u64;
                        None
                    }
                }
            }

            fn contents(&self) -> BTreeMap<u32, (u32, f64)> {
                self.entries
                    .iter()
                    .map(|(&n, &(h, _, lease))| (n, (h, lease)))
                    .collect()
            }
        }

        fn contents(c: &RouteCache) -> BTreeMap<u32, (u32, f64)> {
            c.iter()
                .map(|(n, map)| {
                    assert_eq!(map.len(), 1);
                    let lease = c.lease_of(n).unwrap();
                    (n.0, (map.entries()[0].0, lease))
                })
                .collect()
        }

        fn map_of(host: u32) -> NodeMap {
            if host == 0 {
                NodeMap::from_entries([])
            } else {
                NodeMap::singleton(ServerId(host))
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn route_cache_matches_reference_model(
                slots in 0usize..6,
                ops in proptest::collection::vec(op(), 0..80),
            ) {
                let mut cache = RouteCache::new(slots);
                let mut model = Model { slots, ..Model::default() };
                let mut now = 0.0;
                for (op, dt) in ops {
                    now += f64::from(dt);
                    let before: BTreeSet<u32> = cache.iter().map(|(n, _)| n.0).collect();
                    let expected_victim = model.apply(op, now);
                    match op {
                        Op::Insert { node, host } => {
                            cache.insert(NodeId(node), map_of(host), now);
                            let after: BTreeSet<u32> = cache.iter().map(|(n, _)| n.0).collect();
                            let evicted: Vec<u32> = before.difference(&after).copied().collect();
                            prop_assert_eq!(evicted, expected_victim.into_iter().collect::<Vec<_>>());
                        }
                        Op::Get(node) => {
                            let got = cache.get(NodeId(node)).map(|m| m.entries()[0].0);
                            prop_assert_eq!(got, model.entries.get(&node).map(|e| e.0));
                        }
                        Op::GetMut(node) => {
                            let got = cache.get_mut(NodeId(node)).map(|m| m.entries()[0].0);
                            prop_assert_eq!(got, model.entries.get(&node).map(|e| e.0));
                        }
                        Op::Peek(node) => {
                            let got = cache.peek(NodeId(node)).map(|m| m.entries()[0].0);
                            prop_assert_eq!(got, model.entries.get(&node).map(|e| e.0));
                        }
                        Op::Remove(node) => cache.remove(NodeId(node)),
                        Op::RefreshLease(node) => cache.refresh_lease(NodeId(node), now),
                        Op::Sweep { ttl } => {
                            let victims = cache.sweep_expired(now, f64::from(ttl));
                            let expected: Vec<NodeId> = before
                                .iter()
                                .filter(|n| !model.entries.contains_key(n))
                                .map(|&n| NodeId(n))
                                .collect();
                            prop_assert_eq!(victims, expected);
                        }
                    }
                    prop_assert_eq!(contents(&cache), model.contents());
                    prop_assert_eq!(cache.len(), model.entries.len());
                    prop_assert!(cache.len() <= slots);
                    prop_assert_eq!(
                        cache.counters(),
                        (model.hits, model.misses, model.evictions)
                    );
                }
            }
        }
    }
}
