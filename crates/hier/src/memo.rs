//! The bounded, content-keyed memo of routed sub-circuit fragments —
//! tier 0 of the two-tier canonical plan store.
//!
//! A fragment's routing plan — the SWAP sequence the flat router inserts
//! to execute an intra-region run of gates — is a pure function of the
//! region's local adjacency, the fragment's gate stream and the
//! sub-router configuration. Since PR 8 the memo keys on the fragment's
//! *canonical form* ([`crate::canon`]): slots relabeled to first-use
//! order, adjacency renumbered, so structurally isomorphic fragments
//! from different requests, users, or qubit labelings share one plan.
//! Plans are computed and stored in canonical slots and pulled back
//! through the relabeling at replay, which keeps every stored plan a
//! pure function of its key — the invariant behind bit-for-bit
//! thread-count identity and cross-process reuse.
//!
//! Tier 0 is a [`bounded::ContentCache`], so per the workspace cache
//! rule nothing is invalidated in place: a different fragment is a
//! different key, and hit/miss counters flow to service stats. Hits are
//! tiered: an *exact* hit re-sees a byte-identical original fragment, a
//! *canonical* hit reuses a plan across isomorphic variants, and a
//! *disk* hit loads a plan another process persisted via the optional
//! [`crate::store::PlanStore`] tier.

use crate::store::PlanStore;
use bounded::{ContentCache, Fnv1a};
use circuit::GateKind;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum number of routed fragments retained. Fragments are small (a
/// SWAP list), so the bound is generous enough that a full bench roster
/// fits, while adversarial streams stay bounded.
const CAPACITY: usize = 1024;

/// Per-entry bound on tracked exact-form hashes: enough to tell exact
/// from canonical hits on real rosters without letting one popular plan
/// accumulate unbounded bookkeeping.
const EXACT_TRACK: usize = 64;

/// One gate of a fragment: gate kind, region-local operand slots,
/// parameter bit patterns. Exact content — two fragments collide only if
/// they are the same computation. The kind is kept as is, so the
/// sub-router sees a barrier, measure or reset as exactly that.
pub type FragmentGate = (GateKind, Vec<u32>, Vec<u64>);

/// Content key of one routed fragment, in canonical form (construct via
/// [`crate::canon::canonicalize`]; hand-built keys are only canonical if
/// their gates already use first-use slot order).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FragmentKey {
    /// Region size (local qubit count).
    pub n_local: u32,
    /// Region adjacency as sorted canonical-slot edges.
    pub edges: Vec<(u32, u32)>,
    /// The fragment's gate stream over canonical slots.
    pub gates: Vec<FragmentGate>,
    /// Canonical rendering of the sub-router configuration, built once
    /// per routing run and shared by its fragments. Two differently-tuned
    /// hierarchical mappers never share a plan (Rust's float formatting
    /// round-trips exactly, so this is content-exact).
    pub config: Arc<str>,
}

/// A routed fragment: the canonical-slot SWAPs the sub-router inserted,
/// in emission order. Replaying them through the fragment's
/// `canonical→local` map (executing ready gates greedily in between)
/// reproduces the sub-routing exactly.
pub type SwapPlan = Arc<Vec<(u32, u32)>>;

/// Deterministic byte serialization of a [`FragmentKey`] — the disk
/// tier's record key, compared in full on load (never just a hash).
pub fn key_bytes(key: &FragmentKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + key.gates.len() * 16);
    write_key(key.n_local, &key.edges, &key.gates, &key.config, |bytes| {
        out.extend_from_slice(bytes)
    });
    out
}

/// FNV-1a fingerprint of a fragment's *pre-canonical* content — what
/// tells an exact hit (same original labeling seen again) from a
/// canonical one (isomorphic variant sharing the plan). The hash of the
/// [`key_bytes`] of the same fields, streamed without building a key.
pub fn exact_fragment_hash(
    n_local: u32,
    edges: &[(u32, u32)],
    gates: &[FragmentGate],
    config: &str,
) -> u64 {
    let mut hash = Fnv1a::default();
    write_key(n_local, edges, gates, config, |bytes| hash.write(bytes));
    hash.finish()
}

/// The one walk behind [`key_bytes`] and [`exact_fragment_hash`]: every
/// field in order, little-endian, lists and strings length-prefixed.
fn write_key(
    n_local: u32,
    edges: &[(u32, u32)],
    gates: &[FragmentGate],
    config: &str,
    mut put: impl FnMut(&[u8]),
) {
    put(&n_local.to_le_bytes());
    put(&(edges.len() as u32).to_le_bytes());
    for &(a, b) in edges {
        put(&a.to_le_bytes());
        put(&b.to_le_bytes());
    }
    put(&(gates.len() as u32).to_le_bytes());
    for (kind, operands, params) in gates {
        let name = kind.name();
        put(&(name.len() as u32).to_le_bytes());
        put(name.as_bytes());
        put(&(operands.len() as u32).to_le_bytes());
        for &q in operands {
            put(&q.to_le_bytes());
        }
        put(&(params.len() as u32).to_le_bytes());
        for &p in params {
            put(&p.to_le_bytes());
        }
    }
    put(&(config.len() as u32).to_le_bytes());
    put(config.as_bytes());
}

/// Which tier satisfied one plan lookup — the per-lookup counterpart of
/// the aggregate [`PlanStats`] counters, surfaced as a span annotation on
/// the fragment's trace span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanTier {
    /// Tier 0, byte-identical original fragment seen before.
    Exact,
    /// Tier 0, isomorphic variant sharing the canonical plan.
    Canonical,
    /// Tier 1, loaded from the disk store.
    Disk,
    /// Every tier missed; the sub-router actually ran.
    Miss,
}

impl PlanTier {
    /// Stable lowercase label (`exact`/`canonical`/`disk`/`miss`).
    pub fn as_str(self) -> &'static str {
        match self {
            PlanTier::Exact => "exact",
            PlanTier::Canonical => "canonical",
            PlanTier::Disk => "disk",
            PlanTier::Miss => "miss",
        }
    }
}

/// Tiered counters of the plan store, surfaced through service `stats`
/// and `metrics` as additive fields (absent means zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Tier-0 hits where the original fragment was byte-identical to a
    /// previously seen one.
    pub exact_hits: u64,
    /// Tier-0 hits earned by canonicalization alone: a structurally
    /// isomorphic fragment under a different labeling shared the plan.
    pub canonical_hits: u64,
    /// Plans loaded from the disk tier (persisted by this or another
    /// process).
    pub disk_hits: u64,
    /// Plans appended to the disk tier after a fresh compute.
    pub disk_writes: u64,
    /// Actual sub-routing runs (every tier missed).
    pub misses: u64,
}

/// The bounded fragment memo plus the optional disk tier behind it; the
/// routing pass uses the process-wide instance (whose counters
/// [`plan_store_stats`] reports), tests use private instances.
pub struct SubrouteMemo {
    plans: ContentCache<FragmentKey, Entry>,
    store: Mutex<Option<PlanStore>>,
    exact_hits: AtomicU64,
    canonical_hits: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
    misses: AtomicU64,
}

struct Entry {
    plan: SwapPlan,
    /// Exact-form hashes of original fragments seen for this canonical
    /// key, bounded by [`EXACT_TRACK`].
    exact: Mutex<HashSet<u64>>,
}

impl SubrouteMemo {
    /// An empty memo with no disk tier.
    pub fn new() -> Self {
        SubrouteMemo {
            plans: ContentCache::new(CAPACITY),
            store: Mutex::new(None),
            exact_hits: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Attaches (or replaces) the disk tier. Subsequent tier-0 misses
    /// consult the store before computing and persist fresh plans.
    pub fn attach_store(&self, store: PlanStore) {
        *self.store.lock().expect("plan store poisoned") = Some(store);
    }

    /// The plan for canonical `key` and the tier that satisfied *this*
    /// lookup (the aggregate counters cannot attribute a decision to one
    /// fragment, which per-job tracing needs). On a full miss the plan
    /// is computed with `f`, which receives the canonical key and must
    /// route the canonical fragment; threads racing on one key wait for
    /// a single computation. `exact_hash` fingerprints the
    /// *pre-canonical* fragment ([`exact_fragment_hash`]) and only
    /// affects hit-tier accounting.
    pub fn get_or_compute_tiered(
        &self,
        key: FragmentKey,
        exact_hash: u64,
        f: impl FnOnce(&FragmentKey) -> Vec<(u32, u32)>,
    ) -> (SwapPlan, PlanTier) {
        let mut computed = None;
        let entry = self.plans.get_or_compute(&key, || {
            let (plan, tier) = self.load_or_route(&key, f);
            computed = Some(tier);
            Entry {
                plan: Arc::new(plan),
                exact: Mutex::new(HashSet::from([exact_hash])),
            }
        });
        if let Some(tier) = computed {
            return (entry.plan.clone(), tier);
        }
        let mut exact = entry.exact.lock().expect("exact-hash set poisoned");
        let tier = if exact.contains(&exact_hash) {
            self.exact_hits.fetch_add(1, Ordering::Relaxed);
            PlanTier::Exact
        } else {
            self.canonical_hits.fetch_add(1, Ordering::Relaxed);
            if exact.len() < EXACT_TRACK {
                exact.insert(exact_hash);
            }
            PlanTier::Canonical
        };
        (entry.plan.clone(), tier)
    }

    /// A tier-0 miss: the disk store's plan for `key`, or else `f`'s,
    /// persisted. The store lock is not held while `f` runs.
    fn load_or_route(
        &self,
        key: &FragmentKey,
        f: impl FnOnce(&FragmentKey) -> Vec<(u32, u32)>,
    ) -> (Vec<(u32, u32)>, PlanTier) {
        if let Some(store) = self.store.lock().expect("plan store poisoned").as_mut() {
            if let Some(plan) = store.load(&key_bytes(key)) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return (plan, PlanTier::Disk);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = f(key);
        if let Some(store) = self.store.lock().expect("plan store poisoned").as_mut() {
            if store.append(&key_bytes(key), &plan) {
                self.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        (plan, PlanTier::Miss)
    }

    /// `(hits, misses)` so far — the pre-PR-8 shape, where a hit is any
    /// replay that skipped the sub-router (exact, canonical, or disk)
    /// and a miss is an actual sub-routing run.
    pub fn stats(&self) -> (u64, u64) {
        let p = self.plan_stats();
        (p.exact_hits + p.canonical_hits + p.disk_hits, p.misses)
    }

    /// The full tiered counters.
    pub fn plan_stats(&self) -> PlanStats {
        PlanStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            canonical_hits: self.canonical_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for SubrouteMemo {
    fn default() -> Self {
        SubrouteMemo::new()
    }
}

static GLOBAL: OnceLock<SubrouteMemo> = OnceLock::new();

/// The process-wide fragment memo shared by every `HierRoutingPass`.
pub fn global() -> &'static SubrouteMemo {
    GLOBAL.get_or_init(SubrouteMemo::new)
}

/// Attaches a disk tier under `dir` to the process-wide memo — what
/// `qlosured --plan-store <dir>` calls at startup.
///
/// # Errors
///
/// Only directory creation can fail; a damaged store *file* degrades to
/// warnings at scan time.
pub fn configure_plan_store(dir: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    global().attach_store(PlanStore::open(dir)?);
    Ok(())
}

/// `(hits, misses)` of the process-wide fragment memo — surfaced in
/// service stats responses and the `hier_scaling` bench report.
pub fn subroute_memo_stats() -> (u64, u64) {
    global().stats()
}

/// Tiered plan-store counters of the process-wide memo.
pub fn plan_store_stats() -> PlanStats {
    global().plan_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bounded::fnv1a;

    fn key(tag: u32) -> FragmentKey {
        FragmentKey {
            n_local: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
            gates: vec![(GateKind::Cx, vec![0, tag], Vec::new())],
            config: Arc::from("default"),
        }
    }

    #[test]
    fn memo_computes_once_per_key() {
        let memo = SubrouteMemo::new();
        let mut computes = 0;
        for _ in 0..3 {
            let (plan, _) = memo.get_or_compute_tiered(key(3), 7, |_| {
                computes += 1;
                vec![(0, 1), (1, 2)]
            });
            assert_eq!(*plan, vec![(0, 1), (1, 2)]);
        }
        assert_eq!(computes, 1);
        assert_eq!(memo.stats(), (2, 1));
    }

    #[test]
    fn hit_tiers_distinguish_exact_from_canonical() {
        let memo = SubrouteMemo::new();
        // First sight: a miss, seeding exact hash 7.
        memo.get_or_compute_tiered(key(3), 7, |_| vec![(0, 1)]);
        // Same original fragment again: exact hit.
        memo.get_or_compute_tiered(key(3), 7, |_| unreachable!());
        // Isomorphic variant (same canonical key, different original
        // labeling → different exact hash): canonical hit.
        memo.get_or_compute_tiered(key(3), 8, |_| unreachable!());
        // That variant repeats: now exact.
        memo.get_or_compute_tiered(key(3), 8, |_| unreachable!());
        let p = memo.plan_stats();
        assert_eq!(
            (p.exact_hits, p.canonical_hits, p.misses),
            (2, 1, 1),
            "{p:?}"
        );
    }

    #[test]
    fn tiered_lookup_reports_the_tier_that_served_it() {
        let dir = std::env::temp_dir().join(format!("qlosure-memo-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let memo = SubrouteMemo::new();
        memo.attach_store(PlanStore::open(&dir).unwrap());
        let (_, t) = memo.get_or_compute_tiered(key(3), 7, |_| vec![(0, 1)]);
        assert_eq!(t, PlanTier::Miss);
        let (_, t) = memo.get_or_compute_tiered(key(3), 7, |_| unreachable!());
        assert_eq!(t, PlanTier::Exact);
        let (_, t) = memo.get_or_compute_tiered(key(3), 8, |_| unreachable!());
        assert_eq!(t, PlanTier::Canonical);
        // A fresh memo over the same dir: the disk tier serves it.
        let warm = SubrouteMemo::new();
        warm.attach_store(PlanStore::open(&dir).unwrap());
        let (_, t) = warm.get_or_compute_tiered(key(3), 9, |_| unreachable!());
        assert_eq!(t, PlanTier::Disk);
        assert_eq!(PlanTier::Disk.as_str(), "disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_fragments_do_not_collide() {
        let memo = SubrouteMemo::new();
        let (a, _) = memo.get_or_compute_tiered(key(3), 1, |_| vec![(0, 1)]);
        let (b, _) = memo.get_or_compute_tiered(key(2), 2, |_| vec![(2, 3)]);
        assert_ne!(*a, *b);
        assert_eq!(memo.stats(), (0, 2));
    }

    #[test]
    fn eviction_bounds_the_store() {
        let memo = SubrouteMemo::new();
        for i in 0..(CAPACITY as u32 + 5) {
            memo.get_or_compute_tiered(key(i), u64::from(i), |_| vec![(i, i + 1)]);
        }
        // The oldest key was evicted: recomputation happens.
        let mut recomputed = false;
        memo.get_or_compute_tiered(key(0), 0, |_| {
            recomputed = true;
            vec![(0, 1)]
        });
        assert!(recomputed);
    }

    #[test]
    fn concurrent_lookups_agree_on_content() {
        let memo = SubrouteMemo::new();
        let calls = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for round in 0..20u32 {
                        let (plan, _) = memo.get_or_compute_tiered(
                            key(round % 4),
                            u64::from(round % 4),
                            |_| {
                                calls.fetch_add(1, Ordering::Relaxed);
                                vec![((round % 4), (round % 4) + 1)]
                            },
                        );
                        assert_eq!(plan[0].1, plan[0].0 + 1);
                    }
                });
            }
        });
        let (hits, misses) = memo.stats();
        assert_eq!(hits + misses, 8 * 20);
        assert_eq!(misses, 4, "each key computed exactly once");
        assert_eq!(calls.into_inner(), 4);
    }

    #[test]
    fn disk_tier_round_trips_across_memo_instances() {
        let dir = std::env::temp_dir().join(format!("qlosure-memo-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = SubrouteMemo::new();
        cold.attach_store(PlanStore::open(&dir).unwrap());
        cold.get_or_compute_tiered(key(3), 7, |_| vec![(0, 1), (1, 2)]);
        let p = cold.plan_stats();
        assert_eq!((p.misses, p.disk_writes, p.disk_hits), (1, 1, 0), "{p:?}");
        // A fresh memo (fresh process, conceptually) over the same dir:
        // the plan loads from disk, no compute runs.
        let warm = SubrouteMemo::new();
        warm.attach_store(PlanStore::open(&dir).unwrap());
        let (plan, _) =
            warm.get_or_compute_tiered(key(3), 9, |_| unreachable!("disk tier must hit"));
        assert_eq!(*plan, vec![(0, 1), (1, 2)]);
        let p = warm.plan_stats();
        assert_eq!((p.misses, p.disk_writes, p.disk_hits), (0, 0, 1), "{p:?}");
        // And it now sits in tier 0: the next lookup is a memory hit.
        warm.get_or_compute_tiered(key(3), 9, |_| unreachable!());
        assert_eq!(warm.plan_stats().exact_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fragment_hash_and_key_bytes_are_pinned() {
        // Exact hashes are compared across processes and key bytes are
        // the disk tier's record keys: both must stay as they are.
        let mut k = key(2);
        k.gates
            .push((GateKind::Rz, vec![3], vec![0.25f64.to_bits()]));
        k.gates.push((GateKind::Barrier, vec![0, 1, 2], Vec::new()));
        let bytes = key_bytes(&k);
        assert_eq!(bytes.len(), 126);
        assert_eq!(fnv1a(&bytes), 0x1d9b_b421_6d34_e20d);
        assert_eq!(
            exact_fragment_hash(k.n_local, &k.edges, &k.gates, &k.config),
            0x1d9b_b421_6d34_e20d
        );
    }

    #[test]
    fn key_bytes_are_injective_over_field_boundaries() {
        // Length-prefixed fields: moving content across a boundary
        // changes the serialization.
        let a = key(3);
        let mut b = a.clone();
        b.gates[0].1 = vec![0];
        b.gates[0].2 = vec![3];
        assert_ne!(key_bytes(&a), key_bytes(&b));
        assert_ne!(
            exact_fragment_hash(a.n_local, &a.edges, &a.gates, &a.config),
            exact_fragment_hash(b.n_local, &b.edges, &b.gates, &b.config),
        );
    }
}
