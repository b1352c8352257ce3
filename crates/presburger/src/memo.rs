//! Bounded memoization of transitive-closure results.
//!
//! Transitive closure is by far the most expensive Presburger operation in
//! the mapping pipeline (candidate construction + verification, or an
//! iterative fixpoint), and batch runs re-derive it for structurally
//! identical dependence relations — every QUEKO instance of the same shape,
//! every repeat of a circuit across devices. [`Map::transitive_closure`]
//! therefore goes through one [`bounded::ContentCache`] keyed by a
//! *canonical encoding* of the input [`Map`] (arities, parts and
//! constraints in sorted order), so semantically identical relations built
//! in different orders share one computation.
//!
//! **Invalidation rule:** [`Map`]s are immutable values, so entries are
//! never invalidated — the memo is a pure function table, bounded at
//! [`CAPACITY`] entries with FIFO eviction.

use crate::closure::{self, ClosureResult};
use crate::expr::{Constraint, ConstraintKind};
use crate::map::{BasicMap, Map};
use bounded::ContentCache;
use std::sync::OnceLock;

/// Entry bound: dependence relations are small (tens of disjuncts), so 128
/// memoized closures cover a full batch roster while bounding memory.
const CAPACITY: usize = 128;

fn encode_constraint(c: &Constraint) -> Vec<i64> {
    let (tag, modulus) = match c.kind {
        ConstraintKind::Eq => (0, 0),
        ConstraintKind::Ge => (1, 0),
        ConstraintKind::Mod(m) => (2, m),
    };
    let mut enc = vec![tag, modulus, c.expr.constant_term()];
    enc.extend_from_slice(c.expr.coeffs());
    enc
}

/// Canonical form of a [`Map`]: the encoding key plus a rebuilt map whose
/// parts and constraints are in sorted order.
///
/// The key is a flat integer vector identical for structurally equal
/// relations regardless of construction order. Layout: `[n_in, n_out,
/// n_parts]`, then per part (parts sorted by their own encoding)
/// `[n_constraints]` followed per constraint (sorted) by `[kind_tag,
/// modulus, constant, coeff₀, …]`. Constraint arity is fixed by the map,
/// so the encoding is self-delimiting.
///
/// The memo computes the closure from the *rebuilt* map, never the
/// caller's: the cached [`ClosureResult`] is a pure function of the key,
/// so which thread populates a cell (or which of several equal-key
/// callers arrives first) cannot influence the structural shape of the
/// result anyone observes — the engine's determinism contract extends
/// through this cache.
pub(crate) fn canonicalize(map: &Map) -> (Vec<i64>, Map) {
    let mut parts: Vec<(Vec<i64>, BasicMap)> = map
        .parts()
        .iter()
        .map(|bm| {
            let mut constraints: Vec<(Vec<i64>, Constraint)> = bm
                .wrapped()
                .constraints()
                .iter()
                .map(|c| (encode_constraint(c), c.clone()))
                .collect();
            constraints.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut enc = vec![constraints.len() as i64];
            let mut sorted = Vec::with_capacity(constraints.len());
            for (e, c) in constraints {
                enc.extend(e);
                sorted.push(c);
            }
            (enc, BasicMap::new(bm.n_in(), bm.n_out(), sorted))
        })
        .collect();
    parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut key = vec![
        map.n_in() as i64,
        map.n_out() as i64,
        map.parts().len() as i64,
    ];
    let mut rebuilt = Vec::with_capacity(parts.len());
    for (enc, part) in parts {
        key.extend(enc);
        rebuilt.push(part);
    }
    (key, Map::from_parts(map.n_in(), map.n_out(), rebuilt))
}

/// `R⁺` of `map` through `memo`. The closure runs on the canonical
/// rebuild of `map`, so the cached result does not depend on which
/// caller's construction order reached the entry first.
pub(crate) fn transitive_closure(
    memo: &ContentCache<Vec<i64>, ClosureResult>,
    map: &Map,
) -> ClosureResult {
    let (key, canonical) = canonicalize(map);
    ClosureResult::clone(&memo.get_or_compute(&key, || closure::transitive_closure(&canonical)))
}

/// The global memo consulted by [`Map::transitive_closure`]; tests
/// construct private instances so hit/miss assertions cannot race with
/// other tests.
pub(crate) fn global() -> &'static ContentCache<Vec<i64>, ClosureResult> {
    static GLOBAL: OnceLock<ContentCache<Vec<i64>, ClosureResult>> = OnceLock::new();
    GLOBAL.get_or_init(|| ContentCache::new(CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::BasicSet;
    use crate::map::BasicMap;

    fn bounded_shift(k: i64, lo: i64, hi: i64) -> Map {
        Map::from(
            BasicMap::translation(&[k]).restrict_domain(&BasicSet::bounding_box(&[lo], &[hi])),
        )
    }

    #[test]
    fn memo_matches_direct_computation() {
        let memo = ContentCache::new(CAPACITY);
        let r = bounded_shift(1, 0, 9);
        let cached = transitive_closure(&memo, &r);
        let direct = closure::transitive_closure(&r);
        assert_eq!(cached.exact, direct.exact);
        assert!(cached.map.is_equal(&direct.map));
        assert_eq!(memo.stats(), (0, 1));
    }

    #[test]
    fn structurally_equal_maps_share_one_entry() {
        let memo = ContentCache::new(CAPACITY);
        // Same relation, built twice through different unions orders.
        let a = bounded_shift(1, 0, 9).union(&bounded_shift(3, 0, 7));
        let b = bounded_shift(3, 0, 7).union(&bounded_shift(1, 0, 9));
        assert_eq!(canonicalize(&a).0, canonicalize(&b).0);
        transitive_closure(&memo, &a);
        transitive_closure(&memo, &b);
        assert_eq!(memo.stats(), (1, 1));
    }

    #[test]
    fn canonicalize_erases_construction_order() {
        // Determinism: equal-key maps produce byte-equal canonical
        // rebuilds, so the cached closure cannot depend on which caller's
        // part ordering populated the cell first.
        let a = bounded_shift(1, 0, 9).union(&bounded_shift(3, 0, 7));
        let b = bounded_shift(3, 0, 7).union(&bounded_shift(1, 0, 9));
        let (ka, ma) = canonicalize(&a);
        let (kb, mb) = canonicalize(&b);
        assert_eq!(ka, kb);
        assert_eq!(ma, mb, "canonical rebuilds must be structurally equal");
    }

    #[test]
    fn different_relations_get_different_keys() {
        assert_ne!(
            canonicalize(&bounded_shift(1, 0, 9)).0,
            canonicalize(&bounded_shift(2, 0, 9)).0
        );
        assert_ne!(
            canonicalize(&Map::empty(1, 1)).0,
            canonicalize(&Map::empty(2, 2)).0
        );
    }

    #[test]
    fn global_memo_backs_map_transitive_closure() {
        let r = bounded_shift(2, 0, 8);
        let first = r.transitive_closure();
        let second = r.transitive_closure();
        assert_eq!(first.exact, second.exact);
        assert!(first.map.is_equal(&second.map));
    }

    #[test]
    fn public_stats_observe_global_traffic() {
        // Global counters are shared with concurrently running tests, so
        // only monotonicity and attributable growth are asserted.
        let r = bounded_shift(1, 0, 13);
        let (h0, m0) = crate::closure_memo_stats();
        r.transitive_closure();
        r.transitive_closure();
        let (h1, m1) = crate::closure_memo_stats();
        assert!(h1 + m1 >= h0 + m0 + 2, "two lookups must be counted");
        assert!(h1 >= h0 && m1 >= m0, "counters never decrease");
    }
}
