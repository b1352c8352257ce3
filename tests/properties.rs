//! Property-based tests (proptest) over the whole stack: Presburger
//! algebra laws, dependence-weight cross-validation, routing invariants
//! and generator guarantees.
//!
//! Every block pins an explicit RNG seed, so runs are deterministic and a
//! reported failing case index replays exactly. Two knobs for CI tiers:
//!
//! * `PROPTEST_CASES=<n>` caps the cases per property (fast smoke tier);
//! * `cargo test --test properties smoke_` runs only the fixed-input
//!   smoke subset at the bottom of this file.

use circuit::{verify_routing, Circuit, DependenceGraph, GateKind};
use presburger::{BasicSet, Constraint, LinearExpr, Set};
use proptest::prelude::*;
use qlosure::{Layout, Mapper, PipelineError, QlosureMapper, RoutingState};
use std::sync::Arc;
use topology::{backends, CouplingGraph};
use trace::journal::Level;

// ---------- Presburger algebra ----------

/// Strategy: a random constraint over `dim` variables with small
/// coefficients (the regime the mapper exercises).
fn arb_constraint(dim: usize) -> impl Strategy<Value = Constraint> {
    let coeffs = prop::collection::vec(-3i64..=3, dim);
    (coeffs, -6i64..=6, 0u8..=2, 2i64..=4).prop_map(|(cs, k, kind, m)| {
        let expr = LinearExpr::new(cs, k);
        match kind {
            0 => Constraint::eq(expr),
            1 => Constraint::ge(expr),
            _ => Constraint::modulo(expr, m),
        }
    })
}

fn arb_basic_set(dim: usize) -> impl Strategy<Value = BasicSet> {
    // Intersect with a box so the sets stay bounded and enumerable.
    prop::collection::vec(arb_constraint(dim), 0..4).prop_map(move |cs| {
        let mut all = vec![
            Constraint::ge(LinearExpr::var(dim, 0).plus_const(5)),
            Constraint::ge(LinearExpr::var(dim, 0).neg().plus_const(5)),
        ];
        for v in 1..dim {
            all.push(Constraint::ge(LinearExpr::var(dim, v).plus_const(5)));
            all.push(Constraint::ge(LinearExpr::var(dim, v).neg().plus_const(5)));
        }
        all.extend(cs);
        BasicSet::new(dim, all)
    })
}

fn enumerate(dim: usize) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    let mut point = vec![0i64; dim];
    fn rec(point: &mut Vec<i64>, d: usize, out: &mut Vec<Vec<i64>>) {
        if d == point.len() {
            out.push(point.clone());
            return;
        }
        for x in -5..=5 {
            point[d] = x;
            rec(point, d + 1, out);
        }
    }
    rec(&mut point, 0, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_seed(0x0051_EC05_E7A1_0EB3))]

    #[test]
    fn set_union_matches_pointwise(a in arb_basic_set(2), b in arb_basic_set(2)) {
        let sa = Set::from(a.clone());
        let sb = Set::from(b.clone());
        let u = sa.union(&sb);
        for p in enumerate(2) {
            prop_assert_eq!(u.contains(&p), a.contains(&p) || b.contains(&p));
        }
    }

    #[test]
    fn set_subtract_matches_pointwise(a in arb_basic_set(2), b in arb_basic_set(2)) {
        let d = Set::from(a.clone()).subtract(&Set::from(b.clone()));
        for p in enumerate(2) {
            prop_assert_eq!(d.contains(&p), a.contains(&p) && !b.contains(&p));
        }
    }

    #[test]
    fn count_matches_enumeration(a in arb_basic_set(2)) {
        let counted = Set::from(a.clone()).count_points();
        let brute = enumerate(2).iter().filter(|p| a.contains(p)).count() as u64;
        prop_assert_eq!(counted, brute);
    }

    #[test]
    fn emptiness_matches_enumeration(a in arb_basic_set(2)) {
        let brute_empty = !enumerate(2).iter().any(|p| a.contains(p));
        prop_assert_eq!(a.is_empty(), brute_empty);
    }

    #[test]
    fn subset_is_a_partial_order(a in arb_basic_set(1), b in arb_basic_set(1)) {
        let sa = Set::from(a);
        let sb = Set::from(b);
        // Reflexive, and consistent with pointwise inclusion.
        prop_assert!(sa.is_subset(&sa));
        let pointwise = enumerate(1).iter().all(|p| !sa.contains(p) || sb.contains(p));
        prop_assert_eq!(sa.is_subset(&sb), pointwise);
    }
}

// ---------- Dependence weights ----------

/// Random small circuit as an interaction list.
fn arb_circuit(n_qubits: u32, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec((0..n_qubits, 0..n_qubits), 1..max_gates).prop_map(move |pairs| {
        let mut c = Circuit::new(n_qubits as usize);
        for (a, b) in pairs {
            if a != b {
                c.cx(a, b);
            } else {
                c.h(a);
            }
        }
        c
    })
}

/// Random circuit of regular CX sweeps, each followed by a stray
/// one-qubit gate: shapes that lift into few, long statements.
fn arb_sweep_circuit(n_qubits: u32) -> impl Strategy<Value = Circuit> {
    let run = (0..n_qubits, 1..n_qubits, 2u32..24, 0..n_qubits);
    prop::collection::vec(run, 1..8).prop_map(move |runs| {
        let mut c = Circuit::new(n_qubits as usize);
        for (start, step, len, stray) in runs {
            for i in 0..len {
                let a = (start + step * i) % n_qubits;
                c.cx(a, (a + 1) % n_qubits);
            }
            c.h(stray);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0x0051_EC05_DE05_0E57))]

    #[test]
    fn auto_weights_equal_graph_weights_below_the_crossover(c in arb_sweep_circuit(12)) {
        use affine::{DependenceAnalysis, WeightMode, WeightPath, AFFINE_MIN_INTERACTIONS};
        prop_assert!(c.two_qubit_count() < AFFINE_MIN_INTERACTIONS);
        let auto = DependenceAnalysis::new(&c, WeightMode::Auto);
        let graph = DependenceAnalysis::new(&c, WeightMode::Graph);
        prop_assert_eq!(auto.path(), WeightPath::Graph);
        prop_assert_eq!(auto.weights(), graph.weights());
    }

    #[test]
    fn affine_weights_dominate_graph_weights(c in arb_circuit(8, 40)) {
        use affine::{DependenceAnalysis, WeightMode};
        let graph = DependenceAnalysis::new(&c, WeightMode::Graph);
        let affine = DependenceAnalysis::new(&c, WeightMode::Affine);
        // Affine weights are exact or a sound over-approximation.
        for g in 0..c.gates().len() as u32 {
            prop_assert!(
                affine.weight(g) >= graph.weight(g),
                "gate {}: affine {} < exact {}",
                g, affine.weight(g), graph.weight(g)
            );
        }
        if affine.path() == affine::WeightPath::AffineExact {
            prop_assert_eq!(affine.weights(), graph.weights());
        }
    }

    #[test]
    fn graph_weights_match_reachability(c in arb_circuit(6, 30)) {
        use affine::{DependenceAnalysis, WeightMode};
        let analysis = DependenceAnalysis::new(&c, WeightMode::Graph);
        // Build the 2q-only shadow and check against per-gate DFS.
        let mut shadow = Circuit::new(c.n_qubits());
        let mut orig: Vec<u32> = Vec::new();
        for (gate, a, b) in c.interactions() {
            shadow.cx(a, b);
            orig.push(gate as u32);
        }
        let dag = DependenceGraph::new(&shadow);
        for (i, &g) in orig.iter().enumerate() {
            prop_assert_eq!(
                analysis.weight(g),
                dag.reachable_from(i as u32).len() as u64
            );
        }
    }
}

// ---------- Routing invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x0051_EC05_2007_E0D1))]

    #[test]
    fn qlosure_routes_any_circuit_on_any_device(
        c in arb_circuit(9, 35),
        device_pick in 0usize..4,
    ) {
        let device = match device_pick {
            0 => backends::line(9),
            1 => backends::ring(9),
            2 => backends::square_grid(3, 3),
            _ => backends::king_grid(3, 3),
        };
        let r = QlosureMapper::default().map(&c, &device);
        verify_routing(
            &c,
            &r.routed,
            &|a, b| device.is_adjacent(a, b),
            &r.initial_layout,
        ).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        // Conservation: routed = original gates + swaps.
        prop_assert_eq!(r.routed.qop_count(), c.qop_count() + r.swaps);
    }

    #[test]
    fn all_baselines_route_random_circuits(c in arb_circuit(8, 25)) {
        let device = backends::square_grid(2, 4);
        for mapper in baselines::all_baselines() {
            let r = mapper.map(&c, &device);
            verify_routing(
                &c,
                &r.routed,
                &|a, b| device.is_adjacent(a, b),
                &r.initial_layout,
            ).map_err(|e| TestCaseError::fail(format!("{}: {e}", mapper.name())))?;
        }
    }
}

// ---------- Hierarchical partitioning invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x0051_EC05_41E2_0B75))]

    #[test]
    fn hier_partition_never_orphans_a_qubit(
        device_pick in 0usize..4,
        budget in 2usize..12,
    ) {
        let device = match device_pick {
            0 => backends::square_grid(4, 5),
            1 => backends::king_grid(4, 4),
            2 => backends::aspen16(),
            _ => backends::sycamore54(),
        };
        let rm = hier::coarsen(&device, budget, None);
        // Exact cover: every qubit in exactly one region, indices agree.
        let mut counted = 0usize;
        for (r, region) in rm.regions.iter().enumerate() {
            prop_assert!(!region.is_empty(), "region {} empty", r);
            prop_assert!(region.device.is_connected(), "region {} disconnected", r);
            prop_assert!(region.len() <= budget, "region {} over budget", r);
            for (local, &p) in region.qubits.iter().enumerate() {
                prop_assert_eq!(rm.region_of(p), r as u32);
                prop_assert_eq!(rm.local_of[p as usize], local as u32);
            }
            counted += region.len();
        }
        prop_assert_eq!(counted, device.n_qubits(), "partition must cover the device");
    }

    #[test]
    fn hier_routing_keeps_the_layout_a_permutation(
        c in arb_circuit(9, 35),
        budget in 3usize..10,
    ) {
        // Boundary-SWAP stitching moves qubits between regions; the final
        // layout must stay injective and the routing must verify.
        let device = backends::square_grid(3, 3);
        let mapper = hier::HierMapper::with_budget(budget);
        let r = mapper.map(&c, &device);
        verify_routing(
            &c,
            &r.routed,
            &|a, b| device.is_adjacent(a, b),
            &r.initial_layout,
        ).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        for layout in [&r.initial_layout, &r.final_layout] {
            let mut seen = vec![false; device.n_qubits()];
            for &p in layout.iter() {
                prop_assert!((p as usize) < device.n_qubits(), "slot out of range");
                prop_assert!(!seen[p as usize], "slot {} assigned twice", p);
                seen[p as usize] = true;
            }
        }
        prop_assert_eq!(r.routed.qop_count(), c.qop_count() + r.swaps);
    }
}

// ---------- Canonical fragment form invariants ----------

/// Applies slot permutation `perm` (original → new) to a fragment's
/// adjacency and gate stream *together* — the pairing that makes any
/// permutation a fragment isomorphism (no device automorphism needed).
fn permute_fragment(
    perm: &[u32],
    edges: &[(u32, u32)],
    gates: &[hier::FragmentGate],
) -> (Vec<(u32, u32)>, Vec<hier::FragmentGate>) {
    let mut new_edges: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(a, b)| {
            let (x, y) = (perm[a as usize], perm[b as usize]);
            (x.min(y), x.max(y))
        })
        .collect();
    new_edges.sort_unstable();
    let new_gates = gates
        .iter()
        .map(|(kind, operands, params)| {
            (
                kind.clone(),
                operands.iter().map(|&q| perm[q as usize]).collect(),
                params.clone(),
            )
        })
        .collect();
    (new_edges, new_gates)
}

/// A pseudo-random fragment over `n` slots: a path backbone (so the
/// region stays connected) plus reduced chords, and a 1q/2q gate stream
/// — the shape the hierarchical router feeds `canonicalize`.
fn build_fragment(
    n: u32,
    chords: &[(u32, u32)],
    picks: &[(u32, u32, u8)],
) -> (Vec<(u32, u32)>, Vec<hier::FragmentGate>) {
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    for &(a, b) in chords {
        let (x, y) = (a % n, b % n);
        let edge = (x.min(y), x.max(y));
        if x != y && !edges.contains(&edge) {
            edges.push(edge);
        }
    }
    edges.sort_unstable();
    let gates = picks
        .iter()
        .filter_map(|&(a, b, kind)| {
            let (x, y) = (a % n, b % n);
            match kind {
                0 if x != y => Some((GateKind::Cx, vec![x, y], Vec::new())),
                1 if x != y => Some((GateKind::Cz, vec![x, y], Vec::new())),
                2 => Some((GateKind::H, vec![x], Vec::new())),
                _ => None,
            }
        })
        .collect();
    (edges, gates)
}

/// A Fisher-Yates permutation of `0..n` drawn from an LCG stream, so a
/// single proptest `u64` input covers the whole permutation space.
fn seeded_permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n as usize).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (s >> 33) as usize % (i + 1));
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0x00CA_F01D_0F2A_6013))]

    #[test]
    fn hier_canonical_key_is_permutation_invariant(
        n in 3u32..9,
        chords in prop::collection::vec((0u32..64, 0u32..64), 0..6),
        picks in prop::collection::vec((0u32..64, 0u32..64, 0u8..3), 1..12),
        seed in 0u64..u64::MAX,
    ) {
        // Relabeling the slots of a fragment (adjacency and gate stream
        // in lockstep) must not change the canonical key — this is the
        // exact property the plan store's cross-request sharing rides on.
        let (edges, gates) = build_fragment(n, &chords, &picks);
        let base = hier::canonicalize(n, &edges, &gates, Arc::from("prop-cfg"));
        let perm = seeded_permutation(n, seed);
        let (p_edges, p_gates) = permute_fragment(&perm, &edges, &gates);
        let relabeled = hier::canonicalize(n, &p_edges, &p_gates, Arc::from("prop-cfg"));
        prop_assert_eq!(&relabeled.key, &base.key);
        // The replay map is always a permutation of the region slots.
        let mut sorted = relabeled.to_local.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<u32>>());
    }

    #[test]
    fn hier_canonicalization_is_idempotent(
        n in 3u32..9,
        chords in prop::collection::vec((0u32..64, 0u32..64), 0..6),
        picks in prop::collection::vec((0u32..64, 0u32..64, 0u8..3), 1..12),
    ) {
        // The canonical form is a fixed point: re-canonicalizing it
        // returns the same key with an identity replay map.
        let (edges, gates) = build_fragment(n, &chords, &picks);
        let once = hier::canonicalize(n, &edges, &gates, Arc::from("prop-cfg"));
        let twice =
            hier::canonicalize(n, &once.key.edges, &once.key.gates, Arc::from("prop-cfg"));
        prop_assert_eq!(&once.key, &twice.key);
        prop_assert_eq!(twice.to_local, (0..n).collect::<Vec<u32>>());
    }
}

// ---------- RoutingState's walk over pending gates ----------

/// The unexecuted gates in the order a `BinaryHeap` walk from the front
/// pops them: the front gates and their transitive successors, smallest
/// index first.
fn heap_pending(st: &RoutingState<'_>) -> Vec<u32> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut visited = vec![false; st.dag().n_gates()];
    let mut heap = BinaryHeap::new();
    for &g in st.front() {
        visited[g as usize] = true;
        heap.push(Reverse(g));
    }
    let mut out = Vec::new();
    while let Some(Reverse(g)) = heap.pop() {
        out.push(g);
        for &s in st.dag().succs(g) {
            if !visited[s as usize] {
                visited[s as usize] = true;
                heap.push(Reverse(s));
            }
        }
    }
    out
}

/// `RoutingState::lookahead` over the heap walk: its first `limit`
/// two-qubit gates outside the front.
fn heap_lookahead(st: &RoutingState<'_>, limit: usize) -> Vec<u32> {
    let gates = st.circuit().gates();
    heap_pending(st)
        .into_iter()
        .filter(|&g| st.in_degree(g) > 0 && gates[g as usize].is_two_qubit())
        .take(limit)
        .collect()
}

/// Drives a `RoutingState` through a full routing of a pseudo-random
/// circuit, checking after every execution cascade that `pending()`
/// yields what the heap walk from the front pops, in the same order, and
/// that `lookahead(l)` equals the heap walk's for l ∈ {1, 4, 16}; and,
/// before every SWAP, that layout-only speculation leaves no trace.
fn check_routing_state_pending_walk(seed: u64, n_gates: usize) -> Result<(), TestCaseError> {
    let device = backends::square_grid(3, 3);
    let dist = device.distances();
    let mut c = Circuit::new(9);
    let mut s = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    for _ in 0..n_gates {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((s >> 33) % 9) as u32;
        let b = ((s >> 17) % 9) as u32;
        if a == b {
            c.h(a);
        } else {
            c.cx(a, b);
        }
    }
    let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(9, 9));
    let mut steps = 0usize;
    loop {
        st.execute_ready();
        let pending: Vec<u32> = st.pending().collect();
        prop_assert_eq!(&pending, &heap_pending(&st), "pending() is the heap walk");
        for limit in [1, 4, 16] {
            prop_assert_eq!(st.lookahead(limit), heap_lookahead(&st, limit));
        }
        if st.is_done() {
            break;
        }
        prop_assert!(st.in_front(pending[0]), "the walk starts at a front gate");
        // SWAP: speculate, then apply.
        let candidates = st.swap_candidates();
        prop_assert!(!candidates.is_empty(), "blocked front has candidates");
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let (p1, p2) = candidates[(s >> 33) as usize % candidates.len()];
        let before = st.fingerprint();
        let _ = st.speculate_swap(p1, p2, |view| view.swaps());
        prop_assert_eq!(st.fingerprint(), before, "speculation must be traceless");
        st.apply_swap(p1, p2);
        steps += 1;
        // Random front-incident swaps alone may wander; force progress
        // periodically so the drive always terminates.
        if steps % 8 == 7 {
            let g = st.blocked_front()[0];
            st.force_route(g);
        }
        prop_assert!(steps < 10_000, "routing drive must terminate");
    }
    prop_assert!(st.is_done());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x0051_EC05_0DE1_7A50))]

    #[test]
    fn routing_state_pending_walk_matches_the_heap_walk(
        seed in 0u64..10_000,
        n_gates in 5usize..40,
    ) {
        check_routing_state_pending_walk(seed, n_gates)?;
    }
}

// ---------- SWAP-candidate enumeration ----------

/// Drives a pseudo-random circuit through routing and, at every blocked
/// step, checks the epoch-stamped candidate enumeration against a naive
/// first-occurrence-wins reference scan: same pairs, same order,
/// duplicate-free, and stable across repeated calls.
fn check_swap_candidate_enumeration(seed: u64, n_gates: usize) -> Result<(), TestCaseError> {
    let device = backends::square_grid(3, 3);
    let dist = device.distances();
    let mut c = Circuit::new(9);
    let mut s = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    for _ in 0..n_gates {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((s >> 33) % 9) as u32;
        let b = ((s >> 17) % 9) as u32;
        if a == b {
            c.h(a);
        } else {
            c.cx(a, b);
        }
    }
    let mut st = RoutingState::new(&c, &device, &dist, Layout::identity(9, 9));
    let mut steps = 0usize;
    loop {
        st.execute_ready();
        if st.is_done() {
            break;
        }
        // The naive pre-rewrite enumeration: linear-scan dedup, first
        // occurrence wins, over the same front traversal order.
        let mut naive: Vec<(u32, u32)> = Vec::new();
        for p1 in st.front_physicals() {
            for &p2 in device.neighbors(p1) {
                let pair = (p1.min(p2), p1.max(p2));
                if !naive.contains(&pair) {
                    naive.push(pair);
                }
            }
        }
        let got = st.swap_candidates();
        prop_assert_eq!(
            &got,
            &naive,
            "epoch-stamped dedup must equal the naive scan"
        );
        let again = st.swap_candidates();
        prop_assert_eq!(&got, &again, "enumeration must be deterministic");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), got.len(), "candidates must be duplicate-free");
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        let (p1, p2) = got[(s >> 33) as usize % got.len()];
        st.apply_swap(p1, p2);
        steps += 1;
        // Random front-incident swaps alone may wander; force progress
        // periodically so the drive always terminates.
        if steps % 8 == 7 {
            let g = st.blocked_front()[0];
            st.force_route(g);
        }
        prop_assert!(steps < 10_000, "routing drive must terminate");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x0051_EC05_CA4D_1DA7))]

    #[test]
    fn swap_candidate_enumeration_matches_naive_reference(
        seed in 0u64..10_000,
        n_gates in 5usize..40,
    ) {
        check_swap_candidate_enumeration(seed, n_gates)?;
    }
}

// ---------- disconnected devices fail fast ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x0051_EC05_D15C_044E))]

    #[test]
    fn disconnected_devices_are_rejected_in_bounded_time(
        seed in 0u64..10_000,
        n_gates in 0usize..60,
    ) {
        // Two 4-qubit islands: a gate spanning them can never be made
        // adjacent by SWAPs (UNREACHABLE distance), so the pre-fix router
        // would spin forever — the stall limit derives from the diameter,
        // which skips unreachable pairs. The pipeline must instead reject
        // the device at entry with the typed error, whatever the circuit.
        let device = CouplingGraph::new(
            "two islands",
            8,
            &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)],
        );
        let mut c = Circuit::new(8);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for _ in 0..n_gates {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((s >> 33) % 8) as u32;
            let b = ((s >> 17) % 8) as u32;
            if a == b {
                c.h(a);
            } else {
                c.cx(a, b); // often spans the islands
            }
        }
        let err = QlosureMapper::default()
            .to_pipeline()
            .run(&c, &device)
            .expect_err("disconnected device must be rejected");
        prop_assert!(
            matches!(err, PipelineError::DisconnectedDevice { .. }),
            "expected DisconnectedDevice, got: {err}"
        );
    }
}

// ---------- QUEKO generator guarantees ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x0051_EC05_C0DE_0B3D))]

    #[test]
    fn queko_optimality_invariants(depth in 1usize..60, seed in 0u64..1000) {
        let device = backends::aspen16();
        let bench = queko::QuekoSpec::new(&device, depth).seed(seed).generate();
        // Depth is exactly T.
        prop_assert_eq!(bench.circuit.depth(), depth);
        // The hidden layout is a permutation and executes with zero swaps.
        let mut seen = vec![false; device.n_qubits()];
        for &p in &bench.optimal_layout {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        for g in bench.circuit.gates() {
            if let Some((a, b)) = g.qubit_pair() {
                prop_assert!(device.is_adjacent(
                    bench.optimal_layout[a as usize],
                    bench.optimal_layout[b as usize]
                ));
            }
        }
    }
}

// ---------- QASM round-trip ----------

/// Asserts `parse → emit → parse` is a fixed point for one circuit: the
/// first emission is textually stable under re-parsing and the parsed
/// programs agree instruction-for-instruction.
fn assert_qasm_round_trip(name: &str, circuit: &Circuit) {
    let text1 = qasm::emit(&circuit.to_qasm());
    let p1 = qasm::parse(&text1).unwrap_or_else(|e| panic!("{name}: emitted QASM reparses: {e}"));
    let text2 = qasm::emit(&p1);
    assert_eq!(text1, text2, "{name}: emit is not a fixed point");
    let p2 = qasm::parse(&text2).unwrap();
    assert_eq!(
        p1.instructions(),
        p2.instructions(),
        "{name}: instructions drift across round trips"
    );
    assert_eq!(p1.qregs(), p2.qregs(), "{name}: qregs drift");
    // And the re-imported circuit is operation-for-operation faithful.
    let reimported = Circuit::from_qasm(&p1).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(reimported.qop_count(), circuit.qop_count(), "{name}");
    assert_eq!(
        reimported.two_qubit_count(),
        circuit.two_qubit_count(),
        "{name}"
    );
}

#[test]
fn qasm_round_trip_is_fixed_point_on_qasmbench_corpus() {
    // Every circuit of the QASMBench corpus: parse → emit → parse is a
    // fixed point (see `smoke_qasm_round_trip_fixed_point` for the fast
    // tier).
    for entry in qasmbench::suite() {
        assert_qasm_round_trip(&entry.name, &entry.build());
    }
}

// ---------- Service wire protocol ----------

/// Strategy: strings salted with every character class the wire encoder
/// must escape — quotes, backslashes, control characters, non-ASCII,
/// astral-plane code points.
fn arb_wire_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u8..8, 0u32..0x11_0000), 0..16).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(class, raw)| match class {
                0 => '"',
                1 => '\\',
                2 => '\n',
                3 => '\u{0}',
                4 => '\t',
                5 => '🦀',
                _ => char::from_u32(raw).unwrap_or('\u{FFFD}'),
            })
            .collect()
    })
}

/// Strategy: finite floats (timings); Rust's shortest-roundtrip `Display`
/// makes every one of them an exact encode→parse fixed point.
fn arb_seconds() -> impl Strategy<Value = f64> {
    (0u64..4_000_000_000).prop_map(|x| x as f64 / 1024.0)
}

fn arb_request() -> impl Strategy<Value = service::Request> {
    use service::{Priority, Request};
    (
        0u8..9,
        arb_wire_string(),
        arb_wire_string(),
        arb_wire_string(),
        0u64..(1 << 53),
        (0u8..2, 0u8..2, 0u8..3, 0u8..2, 0u8..4),
    )
        .prop_map(
            |(op, backend, mapper, qasm, id, (priority, fidelity, strategy, trace, level))| match op
            {
                0 => Request::Submit {
                    backend,
                    mapper,
                    qasm,
                    priority: if priority == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    },
                    fidelity: fidelity == 0,
                    strategy: match strategy {
                        0 => service::Strategy::Flat,
                        1 => service::Strategy::Hier,
                        _ => service::Strategy::Auto,
                    },
                    trace: trace == 0,
                },
                1 => Request::Poll { id },
                2 => Request::Trace { id },
                // The two ends of the timeout range: "answer now" and a
                // client with no deadline, which saturates the wire double.
                7 => Request::Wait {
                    id,
                    timeout_ms: if fidelity == 0 { 0 } else { u64::MAX },
                },
                3 => Request::Stats,
                4 => Request::Metrics,
                5 => Request::MetricsHistory,
                6 => Request::Events {
                    min_level: arb_level(level),
                    after_seq: id,
                },
                _ => Request::Shutdown,
            },
        )
}

/// The four journal severities, picked by a `0..4` selector.
fn arb_level(pick: u8) -> Level {
    match pick {
        0 => Level::Debug,
        1 => Level::Info,
        2 => Level::Warn,
        _ => Level::Error,
    }
}

fn arb_summary() -> impl Strategy<Value = service::Summary> {
    (
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        prop::collection::vec(0u32..4096, 0..12),
        prop::collection::vec(0u32..4096, 0..12),
        arb_wire_string(),
        prop::collection::vec((arb_wire_string(), arb_seconds()), 0..4),
        (arb_seconds(), arb_seconds(), 0u8..2, 0u8..3),
    )
        .prop_map(
            |(
                (swaps, depth, qops, seq),
                initial_layout,
                final_layout,
                pipeline,
                pass_seconds,
                (seconds, queue_seconds, verified, ppm),
            )| {
                service::Summary {
                    swaps,
                    depth,
                    qops,
                    initial_layout,
                    final_layout,
                    fingerprint: format!("{:016x}", swaps.wrapping_mul(0x9E37_79B9)),
                    pipeline,
                    pass_seconds,
                    seconds,
                    queue_seconds,
                    seq,
                    verified: verified == 0,
                    success_ppm: match ppm {
                        0 => None,
                        1 => Some(0),
                        _ => Some(1_000_000),
                    },
                }
            },
        )
}

fn arb_stats() -> impl Strategy<Value = service::StatsBody> {
    prop::collection::vec(0u64..(1 << 50), 19).prop_map(|counters| service::StatsBody {
        protocol: counters[0],
        workers: counters[1],
        queue_depth: counters[2],
        submitted: counters[3],
        completed: counters[4],
        rejected: counters[5],
        failed: counters[6],
        distance_hits: counters[7],
        distance_misses: counters[8],
        closure_hits: counters[9],
        closure_misses: counters[10],
        weighted_hits: counters[11],
        weighted_misses: counters[12],
        subroute_hits: counters[13],
        subroute_misses: counters[14],
        plan_exact_hits: counters[15],
        plan_canonical_hits: counters[16],
        plan_disk_hits: counters[17],
        plan_disk_writes: counters[18],
    })
}

fn arb_metrics() -> impl Strategy<Value = service::MetricsBody> {
    (
        arb_stats(),
        (arb_seconds(), arb_seconds(), arb_seconds(), arb_seconds()),
        0u64..(1 << 50),
        prop::collection::vec((arb_wire_string(), 0u64..(1 << 50), arb_seconds()), 0..4),
        (
            arb_seconds(),
            0u64..(1 << 50),
            0u64..(1 << 50),
            0u64..(1 << 50),
        ),
    )
        .prop_map(
            |(
                stats,
                (p50, p90, p99, max),
                samples,
                passes,
                (uptime, inflight, events_dropped, trace_drops),
            )| {
                service::MetricsBody {
                    stats,
                    queue_p50: p50,
                    queue_p90: p90,
                    queue_p99: p99,
                    queue_max: max,
                    queue_samples: samples,
                    passes,
                    uptime_seconds: uptime,
                    jobs_inflight: inflight,
                    events_dropped,
                    trace_drops,
                }
            },
        )
}

/// Strategy: one metrics-history sample with every counter column in the
/// `2^53` wire-number range.
fn arb_sample() -> impl Strategy<Value = service::SampleBody> {
    (
        prop::collection::vec(0u64..(1 << 50), 16),
        arb_seconds(),
        arb_seconds(),
    )
        .prop_map(|(c, uptime, p99)| service::SampleBody {
            index: c[0],
            uptime_seconds: uptime,
            submitted: c[1],
            completed: c[2],
            failed: c[3],
            rejected: c[4],
            queue_depth: c[5],
            jobs_inflight: c[6],
            queue_p99: p99,
            distance_hits: c[7],
            distance_misses: c[8],
            plan_exact_hits: c[9],
            plan_canonical_hits: c[10],
            plan_disk_hits: c[11],
            subroute_hits: c[12],
            subroute_misses: c[13],
            events_dropped: c[14],
            trace_drops: c[15],
        })
}

/// Strategy: a metrics-history body of 0–2 shard series, each holding
/// 0–3 samples with rates computed by the library (so the fixed point
/// also covers `RatesBody::over`'s actual output values).
fn arb_history() -> impl Strategy<Value = service::HistoryBody> {
    (
        arb_seconds(),
        prop::collection::vec(prop::collection::vec(arb_sample(), 0..3), 0..3),
    )
        .prop_map(|(sample_seconds, series)| service::HistoryBody {
            sample_seconds,
            series: series
                .into_iter()
                .enumerate()
                .map(|(shard, samples)| service::SeriesBody {
                    shard: shard as u64,
                    rates: service::RatesBody::over(&samples),
                    samples,
                })
                .collect(),
        })
}

/// Strategy: a journal window of 0–3 events salted with the escape
/// classes, every severity, and empty/non-empty field payloads.
fn arb_events() -> impl Strategy<Value = service::EventsBody> {
    (
        0u64..(1 << 50),
        prop::collection::vec(
            (
                0u64..(1 << 50),
                arb_seconds(),
                0u8..4,
                arb_wire_string(),
                arb_wire_string(),
                prop::collection::vec((arb_wire_string(), arb_wire_string()), 0..3),
            ),
            0..3,
        ),
    )
        .prop_map(|(dropped, events)| service::EventsBody {
            dropped,
            events: events
                .into_iter()
                .map(
                    |(seq, age, level, subsystem, message, fields)| service::EventBody {
                        seq,
                        age_seconds: age,
                        level: arb_level(level),
                        subsystem,
                        message,
                        fields,
                    },
                )
                .collect(),
        })
}

/// Strategy: one childless span whose timestamps are ordered and inside
/// the `2^53` wire-number range (notes salted with the escape classes).
fn arb_span_leaf() -> impl Strategy<Value = service::SpanNode> {
    (
        arb_wire_string(),
        0u64..(1 << 52),
        0u64..(1 << 52),
        prop::collection::vec((arb_wire_string(), arb_wire_string()), 0..3),
    )
        .prop_map(|(name, a, b, notes)| service::SpanNode {
            name,
            start_ns: a.min(b),
            end_ns: a.max(b),
            notes,
            children: Vec::new(),
        })
}

/// Strategy: a depth-2 span tree (root plus 0–3 leaf children) — enough
/// to exercise the recursive encode/parse path without deep nesting.
fn arb_span_tree() -> impl Strategy<Value = service::SpanNode> {
    (
        arb_span_leaf(),
        prop::collection::vec(arb_span_leaf(), 0..4),
    )
        .prop_map(|(mut root, children)| {
            root.children = children;
            root
        })
}

fn arb_response() -> impl Strategy<Value = service::Response> {
    use service::{ErrorCode, Response};
    (
        0u8..11,
        0u64..(1 << 53),
        arb_wire_string(),
        arb_summary(),
        (0u8..2, 0u8..13),
        (
            arb_stats(),
            arb_metrics(),
            arb_span_tree(),
            arb_history(),
            arb_events(),
        ),
    )
        .prop_map(
            |(
                kind,
                id,
                text,
                summary,
                (running, code),
                (stats, metrics, root, history, events),
            )| match kind {
                0 => Response::Submitted { id },
                1 => Response::Pending {
                    id,
                    running: running == 0,
                },
                2 => Response::Done { id, summary },
                3 => Response::Failed { id, message: text },
                4 => Response::Stats(stats),
                5 => Response::ShuttingDown { pending: id },
                6 => Response::Metrics(metrics),
                7 => Response::Trace {
                    id,
                    trace_id: format!("{:016x}", id.wrapping_mul(0x0100_0000_01b3)),
                    root,
                },
                8 => Response::MetricsHistory(history),
                9 => Response::Events(events),
                _ => Response::Error {
                    code: [
                        ErrorCode::BadRequest,
                        ErrorCode::VersionMismatch,
                        ErrorCode::Oversized,
                        ErrorCode::UnknownBackend,
                        ErrorCode::UnknownMapper,
                        ErrorCode::QasmError,
                        ErrorCode::DeviceTooSmall,
                        ErrorCode::QueueFull,
                        ErrorCode::UnknownId,
                        ErrorCode::ShuttingDown,
                        ErrorCode::MappingFailed,
                        ErrorCode::Busy,
                        ErrorCode::ShardUnavailable,
                    ][code as usize],
                    message: text,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_seed(0x0051_EC05_3319_E0F1))]

    #[test]
    fn wire_request_encode_parse_is_fixed_point(request in arb_request()) {
        let line = service::proto::encode_request(&request).unwrap();
        prop_assert!(!line.contains('\n'), "one frame is one line");
        prop_assert_eq!(service::proto::parse_request(&line).unwrap(), request);
    }

    #[test]
    fn wire_response_encode_parse_is_fixed_point(response in arb_response()) {
        let line = service::proto::encode_response(&response).unwrap();
        prop_assert!(!line.contains('\n'), "one frame is one line");
        prop_assert_eq!(service::proto::parse_response(&line).unwrap(), response);
    }

    #[test]
    fn wire_truncated_frames_error_without_panicking(
        request in arb_request(),
        cut_permille in 0u32..1000,
    ) {
        // Truncation at an arbitrary *byte* offset (not a char boundary):
        // the bytes go through lossy UTF-8 recovery like any socket read.
        let line = service::proto::encode_request(&request).unwrap();
        let cut = (line.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let truncated = String::from_utf8_lossy(&line.as_bytes()[..cut]);
        if cut < line.len() {
            prop_assert!(service::proto::parse_request(&truncated).is_err());
        }
    }

    #[test]
    fn wire_non_finite_numbers_are_typed_encode_errors(
        response in arb_response(),
        which in 0u8..3,
        slot in 0u8..3,
    ) {
        // Injecting NaN/±inf into any float field of a Done summary must
        // yield a typed encode error, never a corrupt frame: JSON has no
        // non-finite literal and the parser rejects one, so a lossy
        // encoding would break the parse(encode(x)) fixed point.
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which as usize];
        if let service::Response::Done { id, mut summary } = response {
            match slot {
                0 => summary.seconds = bad,
                1 => summary.queue_seconds = bad,
                _ => summary.pass_seconds.push(("routing".to_string(), bad)),
            }
            let err = service::proto::encode_response(
                &service::Response::Done { id, summary },
            );
            prop_assert!(err.is_err(), "non-finite {bad:?} must not encode");
        }
    }

    #[test]
    fn wire_leading_zero_numbers_are_rejected(
        digits in 1u64..1_000_000,
        zeros in 1usize..4,
        negative in 0u8..2,
    ) {
        // RFC 8259: `0123` / `-007` are not JSON numbers. Our encoder
        // never emits them, so rejection needs no protocol version bump.
        let sign = if negative == 1 { "-" } else { "" };
        let line = format!(
            "{{\"v\":1,\"op\":\"poll\",\"id\":{sign}{}{digits}}}",
            "0".repeat(zeros)
        );
        let err = service::proto::parse_request(&line).unwrap_err();
        prop_assert!(matches!(err, service::proto::ProtoError::Json(_)), "{line} -> {err:?}");
    }

    #[test]
    fn wire_garbage_never_panics(bytes in prop::collection::vec(0u8..=255, 0..160)) {
        let text = String::from_utf8_lossy(&bytes);
        // Typed error or (vanishingly unlikely) success — never a panic.
        let _ = service::proto::parse_request(&text);
        let _ = service::proto::parse_response(&text);
    }

    #[test]
    fn wire_single_byte_corruption_never_panics(
        response in arb_response(),
        at_permille in 0u32..1000,
        flip in 1u8..=255,
    ) {
        let line = service::proto::encode_response(&response).unwrap();
        let mut bytes = line.into_bytes();
        if !bytes.is_empty() {
            let at = (bytes.len() as u64 * u64::from(at_permille) / 1000) as usize;
            let at = at.min(bytes.len() - 1);
            bytes[at] ^= flip;
        }
        let corrupted = String::from_utf8_lossy(&bytes);
        let _ = service::proto::parse_response(&corrupted);
    }
}

// ---------- Smoke subset (fixed inputs, milliseconds) ----------
//
// One representative fixed case per property family. `cargo test --test
// properties smoke_` exercises the whole stack quickly without the
// randomized sweeps above.

#[test]
fn smoke_set_algebra_fixed_case() {
    // {0..6 : i ≡ 0 mod 2} vs {3..9}: union/subtract/count by hand.
    let even = BasicSet::new(
        2,
        vec![
            Constraint::ge(LinearExpr::var(2, 0)),
            Constraint::ge(LinearExpr::var(2, 0).neg().plus_const(6)),
            Constraint::modulo(LinearExpr::var(2, 0), 2),
            Constraint::eq(LinearExpr::var(2, 1)),
        ],
    );
    let band = BasicSet::new(
        2,
        vec![
            Constraint::ge(LinearExpr::var(2, 0).plus_const(-3)),
            Constraint::ge(LinearExpr::var(2, 0).neg().plus_const(9)),
            Constraint::eq(LinearExpr::var(2, 1)),
        ],
    );
    let union = Set::from(even.clone()).union(&Set::from(band.clone()));
    assert_eq!(union.count_points(), 4 + 7 - 2); // {0,2,4,6} ∪ {3..9}
    let diff = Set::from(even).subtract(&Set::from(band));
    assert_eq!(diff.count_points(), 2); // {0, 2}
}

#[test]
fn smoke_affine_weights_dominate_fixed_circuit() {
    use affine::{DependenceAnalysis, WeightMode};
    let mut c = Circuit::new(4);
    for i in 0..3 {
        c.cx(i, i + 1);
    }
    c.cx(0, 1);
    let graph = DependenceAnalysis::new(&c, WeightMode::Graph);
    let affine = DependenceAnalysis::new(&c, WeightMode::Affine);
    for g in 0..c.gates().len() as u32 {
        assert!(affine.weight(g) >= graph.weight(g));
    }
}

#[test]
fn smoke_auto_weights_equal_graph_weights_below_the_crossover() {
    use affine::{DependenceAnalysis, WeightMode, WeightPath};
    let mut chain = Circuit::new(41);
    for i in 0..40 {
        chain.cx(i, i + 1);
    }
    for c in [chain, qasmbench::qft(8), qasmbench::w_state(12)] {
        let auto = DependenceAnalysis::new(&c, WeightMode::Auto);
        assert_eq!(auto.path(), WeightPath::Graph);
        assert_eq!(
            auto.weights(),
            DependenceAnalysis::new(&c, WeightMode::Graph).weights()
        );
    }
}

#[test]
fn smoke_qlosure_routes_fixed_circuit() {
    let mut c = Circuit::new(9);
    for i in 0..8 {
        c.cx(i % 9, (i + 4) % 9);
    }
    let device = backends::square_grid(3, 3);
    let r = QlosureMapper::default().map(&c, &device);
    verify_routing(
        &c,
        &r.routed,
        &|a, b| device.is_adjacent(a, b),
        &r.initial_layout,
    )
    .expect("fixed circuit routes");
    assert_eq!(r.routed.qop_count(), c.qop_count() + r.swaps);
}

#[test]
fn smoke_qasm_round_trip_fixed_point() {
    assert_qasm_round_trip("ghz_8", &qasmbench::ghz(8));
    assert_qasm_round_trip("qft_5", &qasmbench::qft(5));
}

#[test]
fn smoke_routing_state_pending_walk_fixed_case() {
    check_routing_state_pending_walk(42, 24).expect("fixed pending-walk case");
}

#[test]
fn smoke_queko_fixed_spec() {
    let device = backends::aspen16();
    let bench = queko::QuekoSpec::new(&device, 12).seed(7).generate();
    assert_eq!(bench.circuit.depth(), 12);
    for g in bench.circuit.gates() {
        if let Some((a, b)) = g.qubit_pair() {
            assert!(device.is_adjacent(
                bench.optimal_layout[a as usize],
                bench.optimal_layout[b as usize]
            ));
        }
    }
}

#[test]
fn smoke_wire_protocol_fixed_cases() {
    use service::proto::{self, ProtoError};
    use service::{ErrorCode, Priority, Request, Response};
    // Encode→parse fixed point on one fixed frame per direction.
    let request = Request::Submit {
        backend: "aspen16".to_string(),
        mapper: "qlosure".to_string(),
        qasm: "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[1];\n".to_string(),
        priority: Priority::Interactive,
        fidelity: true,
        strategy: service::Strategy::Hier,
        trace: true,
    };
    let line = proto::encode_request(&request).unwrap();
    assert_eq!(proto::parse_request(&line).unwrap(), request);
    let response = Response::Error {
        code: ErrorCode::QueueFull,
        message: "admission queue full (5 jobs, capacity 5)".to_string(),
    };
    assert_eq!(
        proto::parse_response(&proto::encode_response(&response).unwrap()).unwrap(),
        response
    );
    // Malformed, truncated and version-skewed frames: typed errors.
    for bad in [
        "",
        "{",
        "nonsense",
        "{\"v\":1}",
        "{\"v\":7,\"op\":\"stats\"}",
    ] {
        assert!(proto::parse_request(bad).is_err(), "`{bad}` must error");
    }
    assert!(proto::parse_request(&line[..line.len() / 2]).is_err());
    // Oversized frame: rejected before parsing with the typed code.
    let huge = format!(
        "{{\"v\":1,\"op\":\"stats\",\"pad\":\"{}\"}}",
        "x".repeat(proto::MAX_FRAME)
    );
    assert!(matches!(
        proto::parse_request(&huge).unwrap_err(),
        ProtoError::Oversized { .. }
    ));
}

#[test]
fn smoke_hier_partition_fixed_devices() {
    // One fixed case per coarsening path: exact grid tiling, heavy-hex
    // seeds, greedy fallback — no orphans, connected, budget-strict.
    for (device, budget) in [
        (backends::square_grid(6, 6), 9),
        (backends::sherbrooke(), 12),
        (backends::aspen16(), 5),
    ] {
        let rm = hier::coarsen(&device, budget, None);
        let mut counted = 0;
        for region in &rm.regions {
            assert!(!region.is_empty() && region.device.is_connected());
            assert!(region.len() <= budget);
            counted += region.len();
        }
        assert_eq!(counted, device.n_qubits(), "{}", device.name());
        assert_eq!(rm.region_of.len(), device.n_qubits());
    }
}

#[test]
fn smoke_hier_routes_fixed_circuit() {
    // A scrambled chain over two grid tiles: verifies, preserves the
    // qop count, and both layouts stay permutations.
    let device = backends::square_grid(4, 4);
    let mut c = Circuit::new(16);
    c.h(0);
    for q in 0..15 {
        c.cx(q, 15 - (q % 8));
    }
    let c = {
        // Drop self-pair gates the loop above may have formed.
        let mut clean = Circuit::new(16);
        clean.h(0);
        for q in 0..15u32 {
            let t = 15 - (q % 8);
            if q != t {
                clean.cx(q, t);
            }
        }
        clean
    };
    let r = hier::HierMapper::with_budget(4).map(&c, &device);
    verify_routing(
        &c,
        &r.routed,
        &|a, b| device.is_adjacent(a, b),
        &r.initial_layout,
    )
    .expect("hier smoke case verifies");
    assert_eq!(r.routed.qop_count(), c.qop_count() + r.swaps);
    for layout in [&r.initial_layout, &r.final_layout] {
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "layout must stay a permutation");
    }
}

#[test]
fn smoke_hier_canonical_fixed_fragment() {
    // One fixed 2x3-grid fragment under one fixed scramble: the
    // canonical key is scramble-invariant, and canonicalizing the
    // canonical form is the identity.
    let edges = vec![(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5)];
    let gates = vec![
        (GateKind::Cx, vec![4, 1], Vec::new()),
        (GateKind::H, vec![5], Vec::new()),
    ];
    let base = hier::canonicalize(6, &edges, &gates, Arc::from("smoke-cfg"));
    let perm = [3u32, 5, 1, 0, 4, 2];
    let (p_edges, p_gates) = permute_fragment(&perm, &edges, &gates);
    let scrambled = hier::canonicalize(6, &p_edges, &p_gates, Arc::from("smoke-cfg"));
    assert_eq!(scrambled.key, base.key);
    let again = hier::canonicalize(6, &base.key.edges, &base.key.gates, Arc::from("smoke-cfg"));
    assert_eq!(again.key, base.key);
    assert_eq!(again.to_local, (0..6).collect::<Vec<u32>>());
}
