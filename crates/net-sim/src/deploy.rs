//! Cross-run cache of connected deployments.
//!
//! Drawing a connected random deployment is rejection sampling: every
//! [`NetSim`](crate::NetSim) run draws candidate deployments (an O(n + E)
//! spatial-hash edge build plus a connectivity check each) until one
//! connects. A Monte-Carlo sweep that compares several protocol modes on
//! the same scenarios repeats that work once per mode; this cache keys
//! the finished product — CSR topology plus the run's source-node draw —
//! by `(deployment seed, geometry)` so each scenario is constructed once
//! and shared.
//!
//! The cached topology lives behind an [`Arc`] that
//! [`NetSim::run_on`](crate::NetSim::run_on) threads straight into the
//! collision channel, so every `(mode, run)` job of a sweep executes on
//! the *same* adjacency allocation — sharing a scenario costs a
//! reference-count bump, not an O(V + E) copy per run.
//!
//! [`DeploymentCache::global`] is the process-wide registry: figures with
//! identical geometry and deployment-seed streams (the fig13–16 q sweeps,
//! the latency-tail and k-trade-off extensions) resolve to the same
//! entries instead of each sweep redrawing the same deployments.
//!
//! Determinism: the cached value is a pure function of the key (the draw
//! consumes only substreams of the deployment seed), so concurrent
//! lookups from a thread-pool fan-out return bitwise-identical
//! deployments regardless of which worker populates the entry first —
//! thread-count invariance is preserved, and a registry shared between
//! figures cannot change any figure's values.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use pbbf_topology::{NodeId, Topology};

use crate::NetConfig;

/// The geometry + seed identity of one deployment draw. Floats enter by
/// bit pattern: two configs draw identical deployments iff their keys
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DeployKey {
    seed: u64,
    nodes: usize,
    range_bits: u64,
    delta_bits: u64,
}

impl DeployKey {
    fn new(cfg: &NetConfig, seed: u64) -> Self {
        Self {
            seed,
            nodes: cfg.nodes,
            range_bits: cfg.range_m.to_bits(),
            delta_bits: cfg.delta.to_bits(),
        }
    }
}

/// One drawn scenario: the connected topology and the source node, as
/// [`NetSim::run`](crate::NetSim::run) would draw them from the same
/// seed.
///
/// The topology is held behind an [`Arc`]; cloning a `CachedDeployment`
/// (or running on one) shares the adjacency rather than copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedDeployment {
    pub(crate) topology: Arc<Topology>,
    pub(crate) source: NodeId,
}

impl CachedDeployment {
    /// Builds a scenario from parts (owned or already-shared topology).
    /// Most callers want [`DeploymentCache::get_or_draw`] or
    /// [`NetSim::draw_deployment`](crate::NetSim::draw_deployment)
    /// instead; this constructor exists for benches and tests that
    /// compose scenarios by hand.
    #[must_use]
    pub fn new(topology: impl Into<Arc<Topology>>, source: NodeId) -> Self {
        Self {
            topology: topology.into(),
            source,
        }
    }

    /// The connected topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared handle to the connected topology.
    #[must_use]
    pub fn topology_arc(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The drawn source node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }
}

/// A snapshot of a [`DeploymentCache`]'s counters and occupancy, from
/// [`DeploymentCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that drew a fresh deployment.
    pub misses: u64,
    /// Entries evicted to honor the capacity bound.
    pub evictions: u64,
    /// Distinct deployments currently stored.
    pub len: usize,
    /// The capacity bound (entries).
    pub capacity: usize,
}

/// One resident entry: the shared deployment plus its recency stamp.
#[derive(Debug)]
struct CacheEntry {
    value: Arc<CachedDeployment>,
    /// Tick of the last lookup that touched this entry — the LRU order.
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheMap {
    entries: HashMap<DeployKey, CacheEntry>,
    /// Monotonic lookup counter stamping `last_used`.
    tick: u64,
}

/// A `(seed, Δ)`-keyed store of connected deployments, shared across the
/// protocol modes (and runs) of a sweep.
///
/// The cache is **bounded**: when a fresh draw would push occupancy past
/// the capacity, the least-recently-used entries are evicted
/// ([`DeploymentCache::stats`] counts them). Eviction can never change a
/// value: a deployment is a pure function of its key, so a re-drawn
/// entry is bitwise identical to the evicted one, and in-flight [`Arc`]s
/// to an evicted deployment stay alive until their runs finish.
///
/// # Examples
///
/// ```
/// use pbbf_net_sim::{DeploymentCache, NetConfig, NetMode, NetSim};
/// use pbbf_core::PbbfParams;
///
/// let mut cfg = NetConfig::table2();
/// cfg.duration_secs = 50.0;
/// let cache = DeploymentCache::new();
/// // Same scenario, two protocol modes — one deployment draw.
/// let psm_mode = NetMode::SleepScheduled(PbbfParams::PSM);
/// let psm = NetSim::new(cfg, psm_mode).run_on(1, &cache.get_or_draw(&cfg, 7));
/// let on = NetSim::new(cfg, NetMode::AlwaysOn).run_on(1, &cache.get_or_draw(&cfg, 7));
/// assert_eq!(psm.source, on.source);
/// let stats = cache.stats();
/// assert_eq!((stats.misses, stats.hits, stats.evictions), (1, 1, 0));
/// ```
#[derive(Debug)]
pub struct DeploymentCache {
    map: Mutex<CacheMap>,
    capacity: NonZeroUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for DeploymentCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DeploymentCache {
    /// The default capacity bound (entries). A connected Table-2
    /// deployment is a few tens of kilobytes and a full figure
    /// regeneration touches a few hundred keys, so the default holds a
    /// whole regeneration resident at roughly tens of megabytes while
    /// capping an unbounded-sweep service's footprint.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty cache with [`DeploymentCache::DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an empty cache bounded to `capacity` entries (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: Mutex::new(CacheMap::default()),
            capacity: NonZeroUsize::new(capacity).expect("capacity must be at least 1"),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Locks the entry map, recovering from poison.
    ///
    /// A panic inside a cache-holding section (a panicking metric
    /// closure in a fan-out job, a `should_panic` test sharing the
    /// process-wide registry) poisons the mutex; propagating that
    /// poison would permanently brick [`DeploymentCache::global`] for
    /// every later run in the process. Recovery is sound here because
    /// every entry is a pure function of its key: whatever state the
    /// interrupted writer left behind, dropping it and redrawing on
    /// demand reproduces bitwise-identical deployments. We clear the
    /// map rather than audit it — the cost is a few redraws, never a
    /// changed value.
    fn lock_map(&self) -> std::sync::MutexGuard<'_, CacheMap> {
        self.map.lock().unwrap_or_else(|poisoned| {
            self.map.clear_poison();
            let mut map = poisoned.into_inner();
            map.entries.clear();
            map
        })
    }

    /// The process-wide deployment registry.
    ///
    /// Sweeps and figures that key their deployments the same way —
    /// identical geometry (`nodes`, `range_m`, `delta`) and
    /// deployment-seed stream — share entries across the whole process
    /// instead of redrawing per sweep. Safe by construction: a cached
    /// value is a pure function of its key, so a registry hit returns
    /// exactly what a private cache (or a fresh draw) would have
    /// produced, bitwise.
    ///
    /// The registry is bounded to [`DeploymentCache::DEFAULT_CAPACITY`]
    /// entries with LRU eviction (a connected Table-2 deployment is a
    /// few tens of kilobytes; a full figure regeneration touches a few
    /// hundred keys, comfortably resident), so a long-running host
    /// sweeping unbounded key sets plateaus instead of growing for the
    /// life of the process; [`DeploymentCache::clear`] remains for
    /// manual pressure relief, and [`DeploymentCache::stats`] exposes
    /// hit/miss/eviction counts for capacity tuning.
    #[must_use]
    pub fn global() -> &'static DeploymentCache {
        static GLOBAL: OnceLock<DeploymentCache> = OnceLock::new();
        GLOBAL.get_or_init(DeploymentCache::new)
    }

    /// Drops every cached deployment (in-flight [`Arc`]s stay alive).
    /// Hit/miss/eviction counters are preserved — they count lookups and
    /// evictions, not occupancy; a `clear` is not an eviction.
    pub fn clear(&self) {
        self.lock_map().entries.clear();
    }

    /// Returns the deployment for `(cfg geometry, seed)`, drawing and
    /// inserting it on first use — evicting least-recently-used entries
    /// if the insert would exceed the capacity bound. The draw is
    /// bitwise identical to the one [`NetSim::run`](crate::NetSim::run)
    /// performs for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if no connected deployment can be drawn within
    /// [`NetSim::DEPLOY_ATTEMPTS`](crate::NetSim::DEPLOY_ATTEMPTS) (raise Δ).
    #[must_use]
    pub fn get_or_draw(&self, cfg: &NetConfig, seed: u64) -> Arc<CachedDeployment> {
        let key = DeployKey::new(cfg, seed);
        {
            let mut map = self.lock_map();
            map.tick += 1;
            let tick = map.tick;
            if let Some(entry) = map.entries.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.value);
            }
        }
        // Draw outside the lock so distinct scenarios construct in
        // parallel. Two workers racing on the same key draw the same
        // deployment (it is a pure function of the key); the extra draw
        // is discarded below.
        let drawn = Arc::new(crate::NetSim::draw_deployment(cfg, seed));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lock_map();
        map.tick += 1;
        let tick = map.tick;
        let value = Arc::clone(
            &map.entries
                .entry(key)
                .and_modify(|e| e.last_used = tick)
                .or_insert(CacheEntry {
                    value: drawn,
                    last_used: tick,
                })
                .value,
        );
        // Evict the stalest entries down to capacity. O(len) per
        // eviction scan, which only runs on inserts past the bound —
        // negligible next to the connected-deployment draw it follows.
        let mut evicted = 0u64;
        while map.entries.len() > self.capacity.get() {
            let stalest = map
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over-capacity map is non-empty");
            map.entries.remove(&stalest);
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        value
    }

    /// The capacity bound, in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity.get()
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that drew a fresh deployment.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted to honor the capacity bound.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// A point-in-time snapshot of counters and occupancy. Each field
    /// is read independently (relaxed atomics plus one lock for `len`),
    /// so a snapshot racing an in-flight `get_or_draw` may transiently
    /// show, say, `hits + misses` disagreeing with the lookups a caller
    /// has counted; quiesce the cache first when exact books matter.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            len: self.len(),
            capacity: self.capacity(),
        }
    }

    /// Number of distinct deployments stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock_map().entries.len()
    }

    /// Whether the cache holds no deployments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetSim;

    #[test]
    fn cached_deployment_is_bitwise_identical_to_fresh() {
        let cfg = NetConfig::table2();
        let cache = DeploymentCache::new();
        for seed in [1u64, 2, 3] {
            let cached = cache.get_or_draw(&cfg, seed);
            let fresh = NetSim::draw_deployment(&cfg, seed);
            assert_eq!(*cached, fresh, "seed {seed}");
            // Second lookup hits and returns the same allocation.
            let again = cache.get_or_draw(&cfg, seed);
            assert!(Arc::ptr_eq(&cached, &again));
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_eviction_bounds_occupancy_and_prefers_stale_entries() {
        let cfg = NetConfig::table2();
        let cache = DeploymentCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let a = cache.get_or_draw(&cfg, 1);
        let _b = cache.get_or_draw(&cfg, 2);
        // Touch seed 1 so seed 2 is the LRU victim of the next insert.
        let a_again = cache.get_or_draw(&cfg, 1);
        assert!(Arc::ptr_eq(&a, &a_again));
        let _c = cache.get_or_draw(&cfg, 3);
        let stats = cache.stats();
        assert_eq!(stats.len, 2, "capacity bound enforced");
        assert_eq!(stats.evictions, 1, "one eviction for the third insert");
        assert_eq!((stats.misses, stats.hits), (3, 1));
        // Seed 1 survived (recently used), seed 2 did not.
        let before = cache.misses();
        let _ = cache.get_or_draw(&cfg, 1);
        assert_eq!(cache.misses(), before, "seed 1 still resident");
        let _ = cache.get_or_draw(&cfg, 2);
        assert_eq!(cache.misses(), before + 1, "seed 2 was evicted");
    }

    #[test]
    fn eviction_never_changes_drawn_values() {
        // Thrash a tiny cache across many keys, then re-request each key
        // and compare against an uncached draw: every re-drawn entry
        // must be bitwise identical to what the evicted one was.
        let cfg = NetConfig::table2();
        let cache = DeploymentCache::with_capacity(2);
        let originals: Vec<_> = (0..6u64)
            .map(|seed| (seed, NetSim::draw_deployment(&cfg, seed)))
            .collect();
        for &(seed, _) in &originals {
            let _ = cache.get_or_draw(&cfg, seed);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 4);
        for (seed, fresh) in &originals {
            assert_eq!(
                *cache.get_or_draw(&cfg, *seed),
                *fresh,
                "seed {seed} after eviction"
            );
        }
        // An Arc held across the eviction of its entry stays usable.
        let held = cache.get_or_draw(&cfg, 0);
        for seed in 10..20u64 {
            let _ = cache.get_or_draw(&cfg, seed);
        }
        assert_eq!(*held, NetSim::draw_deployment(&cfg, 0));
    }

    #[test]
    fn key_distinguishes_geometry() {
        let cfg = NetConfig::table2();
        let mut denser = cfg;
        denser.delta = 16.0;
        let cache = DeploymentCache::new();
        let a = cache.get_or_draw(&cfg, 5);
        let b = cache.get_or_draw(&denser, 5);
        assert_ne!(a.topology, b.topology, "Δ must enter the key");
        assert_eq!(cache.len(), 2);
        // Traffic parameters are not part of the deployment identity.
        let mut busier = cfg;
        busier.lambda = 1.0;
        busier.k = 4;
        busier.duration_secs = 10.0;
        let c = cache.get_or_draw(&busier, 5);
        assert!(Arc::ptr_eq(&a, &c), "λ/k/duration do not redraw");
    }

    /// Panics while holding `cache`'s map lock, poisoning the mutex the
    /// way a panicking cache-holding closure would. The panic is caught
    /// — only the poison survives.
    fn poison(cache: &DeploymentCache) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("injected poison");
        }));
        assert!(result.is_err(), "the injected panic must fire");
    }

    #[test]
    fn poisoned_lock_recovers_with_identical_values() {
        let cfg = NetConfig::table2();
        let cache = DeploymentCache::new();
        let before = cache.get_or_draw(&cfg, 11);
        poison(&cache);
        // Every entry point used to abort here with "cache poisoned";
        // now they recover (clearing the map — entries are pure
        // functions of their keys, so nothing of value is lost).
        assert_eq!(cache.len(), 0, "recovery clears the map");
        let after = cache.get_or_draw(&cfg, 11);
        assert_eq!(
            *before, *after,
            "redraw after recovery is bitwise identical"
        );
        poison(&cache);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn caught_panic_does_not_break_subsequent_global_runs() {
        // The regression the sweep fabric depends on: a panicking job
        // that dies while the process-wide registry's lock is held must
        // not brick later `run_on` calls in the same process.
        let mut cfg = NetConfig::table2();
        cfg.duration_secs = 30.0;
        let expected = {
            let deployment = DeploymentCache::global().get_or_draw(&cfg, 23);
            NetSim::new(cfg, crate::NetMode::AlwaysOn).run_on(23, &deployment)
        };
        poison(DeploymentCache::global());
        let deployment = DeploymentCache::global().get_or_draw(&cfg, 23);
        let after = NetSim::new(cfg, crate::NetMode::AlwaysOn).run_on(23, &deployment);
        assert_eq!(expected, after, "post-poison run_on is unaffected");
    }
}
