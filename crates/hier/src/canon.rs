//! Canonical fragment form: the abstraction that lets structurally
//! isomorphic fragments share one SWAP plan.
//!
//! A fragment is `(region adjacency, gate stream over region-local
//! slots, sub-router config)`. Two fragments from different requests,
//! users, or qubit labelings are *isomorphic* when some slot bijection
//! maps one's gate stream and adjacency onto the other's. The exact
//! memo key of PR 5 treats them as distinct; canonicalization maps both
//! to one representative:
//!
//! 1. **Used slots** are relabeled to *first-use order* in the gate
//!    stream — canonical slot 0 is the first operand of the first gate,
//!    and so on. Any slot permutation of the fragment relabels the gate
//!    stream identically, so the canonical gate stream is invariant.
//! 2. **Unused slots** (region qubits the sub-router may route through
//!    but no gate touches) are completed by a structural refinement:
//!    repeatedly assign the next canonical index to the unassigned
//!    vertex with the lexicographically smallest signature `(sorted
//!    already-canonical neighbor ids, degree, sorted neighbor-degree
//!    multiset)`. The signature is label-invariant, so the completion
//!    is too — up to graph automorphism, where any choice yields the
//!    *same* canonical edge set (the subsequent run is conjugated by
//!    the automorphism). Residual ties break toward the smaller
//!    original index, which keeps the map deterministic.
//! 3. The **adjacency** is renumbered under the full relabeling and
//!    sorted.
//!
//! The resulting [`FragmentKey`] is a pure, deterministic function of
//! the fragment content, idempotent on its own output, and invariant
//! under slot permutations ([`tests`] and the `hier_canonical_*`
//! properties pin all three). Plans are *computed in canonical slots*
//! (the sub-router routes the canonical circuit on the canonical
//! adjacency) and replayed through [`Canonical::to_local`], so a stored
//! plan is a pure function of its key — the invariant both tiers of the
//! store (in-memory, disk) rely on for bit-for-bit thread-count and
//! cross-process determinism.

use crate::memo::{FragmentGate, FragmentKey};
use std::sync::Arc;

/// A canonicalized fragment: the content key plus the inverse
/// relabeling needed to replay a canonical-slot SWAP plan onto the real
/// region.
#[derive(Clone, Debug)]
pub struct Canonical {
    /// The canonical content key (relabeled gates, renumbered
    /// adjacency, config fingerprint).
    pub key: FragmentKey,
    /// `to_local[canonical_slot]` = the fragment's original
    /// region-local slot — the permutation a replay pulls plan SWAPs
    /// back through.
    pub to_local: Vec<u32>,
}

/// Canonicalizes a fragment: `edges` is the region adjacency over local
/// slots, `gates` the fragment's gate stream over the same slots,
/// `config` the sub-router fingerprint. Pure and deterministic; see the
/// module docs for the invariants.
pub fn canonicalize(
    n_local: u32,
    edges: &[(u32, u32)],
    gates: &[FragmentGate],
    config: Arc<str>,
) -> Canonical {
    let n = n_local as usize;
    let mut canon_of = vec![u32::MAX; n];
    let mut to_local: Vec<u32> = Vec::with_capacity(n);
    // Pass 1: used slots in first-use order.
    for (_, operands, _) in gates {
        for &q in operands {
            if canon_of[q as usize] == u32::MAX {
                canon_of[q as usize] = to_local.len() as u32;
                to_local.push(q);
            }
        }
    }
    // Pass 2: structural completion of unused slots.
    if to_local.len() < n {
        // Adjacency in CSR form: `nbrs[start[v]..start[v + 1]]`.
        let mut start = vec![0usize; n + 1];
        for &(a, b) in edges {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut nbrs = vec![0u32; start[n]];
        let mut fill = start.clone();
        for &(a, b) in edges {
            nbrs[fill[a as usize]] = b;
            fill[a as usize] += 1;
            nbrs[fill[b as usize]] = a;
            fill[b as usize] += 1;
        }
        // Label-invariant per-vertex signature pieces, in the same layout:
        // the sorted neighbour degrees, and the canonical ids of the
        // labeled neighbours (the anchors, `n_anchors[v]` of them). Ids are
        // handed out in increasing order, so appending keeps anchors
        // sorted.
        let degree = |v: usize| (start[v + 1] - start[v]) as u32;
        let mut neighbor_degrees: Vec<u32> = nbrs.iter().map(|&u| degree(u as usize)).collect();
        for v in 0..n {
            neighbor_degrees[start[v]..start[v + 1]].sort_unstable();
        }
        let mut anchors = vec![0u32; start[n]];
        let mut n_anchors = vec![0usize; n];
        let mut labeled = 0;
        loop {
            // Hand the ids given out since the last round to their
            // neighbours' anchors.
            for (id, &u) in to_local.iter().enumerate().skip(labeled) {
                for &w in &nbrs[start[u as usize]..start[u as usize + 1]] {
                    anchors[start[w as usize] + n_anchors[w as usize]] = id as u32;
                    n_anchors[w as usize] += 1;
                }
            }
            labeled = to_local.len();
            if labeled == n {
                break;
            }
            // The signature `[head, anchors…, degree, neighbour
            // degrees…]`, compared lexicographically without building it.
            // Vertices with no canonical neighbor yet sort last (u32::MAX
            // head), so growth stays anchored to the already-labeled part
            // whenever possible.
            let signature = |v: usize| {
                let own = &anchors[start[v]..start[v] + n_anchors[v]];
                let head = if own.is_empty() { u32::MAX } else { 0 };
                std::iter::once(head)
                    .chain(own.iter().copied())
                    .chain(std::iter::once(degree(v)))
                    .chain(neighbor_degrees[start[v]..start[v + 1]].iter().copied())
            };
            // Ties break toward the smaller original index: a
            // deterministic choice, and canonical-key-invariant whenever
            // the tied vertices are automorphic (see module docs).
            let mut best: Option<usize> = None;
            for v in (0..n).filter(|&v| canon_of[v] == u32::MAX) {
                if best.is_none_or(|b| signature(v).lt(signature(b))) {
                    best = Some(v);
                }
            }
            let v = best.expect("unassigned vertex exists");
            canon_of[v] = to_local.len() as u32;
            to_local.push(v as u32);
        }
    }
    // Pass 3: renumber the adjacency and the gate stream.
    let mut canon_edges: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(a, b)| {
            let (x, y) = (canon_of[a as usize], canon_of[b as usize]);
            (x.min(y), x.max(y))
        })
        .collect();
    canon_edges.sort_unstable();
    let canon_gates: Vec<FragmentGate> = gates
        .iter()
        .map(|(kind, operands, params)| {
            (
                kind.clone(),
                operands.iter().map(|&q| canon_of[q as usize]).collect(),
                params.clone(),
            )
        })
        .collect();
    Canonical {
        key: FragmentKey {
            n_local,
            edges: canon_edges,
            gates: canon_gates,
            config,
        },
        to_local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::GateKind;

    fn gate(kind: GateKind, operands: &[u32]) -> FragmentGate {
        (kind, operands.to_vec(), Vec::new())
    }

    /// Applies slot permutation `perm` (original -> new) to a fragment.
    fn permute(
        perm: &[u32],
        edges: &[(u32, u32)],
        gates: &[FragmentGate],
    ) -> (Vec<(u32, u32)>, Vec<FragmentGate>) {
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

    #[test]
    fn first_use_order_relabels_the_gate_stream() {
        // Line 0-1-2-3; gates touch 2 then 0, so canonical 0 = slot 2.
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        let gates = vec![gate(GateKind::Cx, &[2, 0])];
        let c = canonicalize(4, &edges, &gates, Arc::from("cfg"));
        assert_eq!(c.key.gates[0].1, vec![0, 1]);
        assert_eq!(&c.to_local[..2], &[2, 0]);
        // Every slot gets exactly one canonical label.
        let mut sorted = c.to_local.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn slot_permutations_share_one_canonical_key() {
        // A 2x3 grid region with a two-gate fragment, under every
        // rotation of a slot permutation.
        let edges = vec![(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 4), (4, 5)];
        let gates = vec![
            gate(GateKind::Cx, &[1, 4]),
            gate(GateKind::H, &[5]),
            gate(GateKind::Cx, &[5, 2]),
        ];
        let base = canonicalize(6, &edges, &gates, Arc::from("cfg"));
        for shift in 1..6u32 {
            let perm: Vec<u32> = (0..6).map(|i| (i + shift) % 6).collect();
            let (p_edges, p_gates) = permute(&perm, &edges, &gates);
            let c = canonicalize(6, &p_edges, &p_gates, Arc::from("cfg"));
            assert_eq!(c.key, base.key, "shift {shift} changed the canonical key");
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)];
        let gates = vec![gate(GateKind::Cx, &[3, 1]), gate(GateKind::Cx, &[1, 0])];
        let once = canonicalize(5, &edges, &gates, Arc::from("cfg"));
        let twice = canonicalize(5, &once.key.edges, &once.key.gates, Arc::from("cfg"));
        assert_eq!(once.key, twice.key);
        // Re-canonicalizing the canonical form is the identity map.
        assert_eq!(twice.to_local, (0..5).collect::<Vec<u32>>());
    }

    #[test]
    fn to_local_inverts_the_relabeling_onto_the_plan() {
        // A canonical-slot SWAP pulled back through to_local lands on
        // the original slots of the pair it was computed for.
        let edges = vec![(0, 1), (1, 2)];
        let gates = vec![gate(GateKind::Cx, &[2, 0])];
        let c = canonicalize(3, &edges, &gates, Arc::from("cfg"));
        // Canonical edge (0, x) exists where x = canonical label of
        // slot 1 (the middle): translation maps it back to (2, 1) or
        // (1, 2) territory — i.e. a real region edge.
        for &(a, b) in &c.key.edges {
            let (la, lb) = (c.to_local[a as usize], c.to_local[b as usize]);
            let edge = (la.min(lb), la.max(lb));
            assert!(edges.contains(&edge), "{edge:?} is not a region edge");
        }
    }

    /// The completion as it was before it compared signatures lazily: a
    /// fresh signature `Vec` per unassigned vertex per step. Kept to pin
    /// [`canonicalize`] against it.
    fn reference_canonicalize(
        n_local: u32,
        edges: &[(u32, u32)],
        gates: &[FragmentGate],
        config: Arc<str>,
    ) -> Canonical {
        let n = n_local as usize;
        let mut canon_of = vec![u32::MAX; n];
        let mut to_local: Vec<u32> = Vec::with_capacity(n);
        for (_, operands, _) in gates {
            for &q in operands {
                if canon_of[q as usize] == u32::MAX {
                    canon_of[q as usize] = to_local.len() as u32;
                    to_local.push(q);
                }
            }
        }
        if to_local.len() < n {
            let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &(a, b) in edges {
                adjacency[a as usize].push(b);
                adjacency[b as usize].push(a);
            }
            let degree: Vec<u32> = adjacency.iter().map(|nbrs| nbrs.len() as u32).collect();
            let neighbor_degrees: Vec<Vec<u32>> = adjacency
                .iter()
                .map(|nbrs| {
                    let mut ds: Vec<u32> = nbrs.iter().map(|&u| degree[u as usize]).collect();
                    ds.sort_unstable();
                    ds
                })
                .collect();
            while to_local.len() < n {
                let mut best: Option<(Vec<u32>, usize)> = None;
                for v in 0..n {
                    if canon_of[v] != u32::MAX {
                        continue;
                    }
                    let mut anchors: Vec<u32> = adjacency[v]
                        .iter()
                        .filter(|&&u| canon_of[u as usize] != u32::MAX)
                        .map(|&u| canon_of[u as usize])
                        .collect();
                    anchors.sort_unstable();
                    let mut signature = vec![if anchors.is_empty() { u32::MAX } else { 0 }];
                    signature.extend_from_slice(&anchors);
                    signature.push(degree[v]);
                    signature.extend_from_slice(&neighbor_degrees[v]);
                    if best.as_ref().is_none_or(|(sig, _)| signature < *sig) {
                        best = Some((signature, v));
                    }
                }
                let (_, v) = best.expect("unassigned vertex exists");
                canon_of[v] = to_local.len() as u32;
                to_local.push(v as u32);
            }
        }
        let mut canon_edges: Vec<(u32, u32)> = edges
            .iter()
            .map(|&(a, b)| {
                let (x, y) = (canon_of[a as usize], canon_of[b as usize]);
                (x.min(y), x.max(y))
            })
            .collect();
        canon_edges.sort_unstable();
        let canon_gates: Vec<FragmentGate> = gates
            .iter()
            .map(|(kind, operands, params)| {
                (
                    kind.clone(),
                    operands.iter().map(|&q| canon_of[q as usize]).collect(),
                    params.clone(),
                )
            })
            .collect();
        Canonical {
            key: FragmentKey {
                n_local,
                edges: canon_edges,
                gates: canon_gates,
                config,
            },
            to_local,
        }
    }

    #[test]
    fn lazy_completion_equals_the_signature_vectors() {
        let mut devices: Vec<(u32, Vec<(u32, u32)>)> = [
            "line:7",
            "ring:9",
            "king:3x4",
            "grid:4x5",
            "aspen16",
            "king9",
            "heavy-hex:3",
        ]
        .iter()
        .map(|name| {
            let g = topology::backends::by_name(name).expect("device name");
            (g.n_qubits() as u32, g.edges())
        })
        .collect();
        let grid = topology::backends::by_name("grid:16x16").expect("device name");
        for budget in [9, crate::coarsen::auto_budget(grid.n_qubits()), 25] {
            let rm = crate::coarsen::coarsen(&grid, budget, None);
            for region in &rm.regions {
                devices.push((region.len() as u32, region.device.edges()));
            }
        }
        let mut s = 0x5EED_CA70_u64;
        let mut next = |m: u32| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % u64::from(m)) as u32
        };
        let mut fragments = 0;
        for (n, edges) in &devices {
            for _ in 0..12 {
                let gates: Vec<FragmentGate> = (0..next(13))
                    .map(|_| {
                        let (a, b) = (next(*n), next(*n));
                        if a == b {
                            gate(GateKind::H, &[a])
                        } else {
                            gate(GateKind::Cx, &[a, b])
                        }
                    })
                    .collect();
                let lazy = canonicalize(*n, edges, &gates, Arc::from("cfg"));
                let reference = reference_canonicalize(*n, edges, &gates, Arc::from("cfg"));
                assert_eq!(lazy.key, reference.key, "{n} slots, gates {gates:?}");
                assert_eq!(
                    lazy.to_local, reference.to_local,
                    "{n} slots, gates {gates:?}"
                );
                fragments += 1;
            }
        }
        assert!(fragments > 500, "{fragments} fragments");
    }

    #[test]
    fn config_distinguishes_otherwise_identical_fragments() {
        let edges = vec![(0, 1)];
        let gates = vec![gate(GateKind::Cx, &[0, 1])];
        let a = canonicalize(2, &edges, &gates, Arc::from("cfg-a"));
        let b = canonicalize(2, &edges, &gates, Arc::from("cfg-b"));
        assert_ne!(a.key, b.key);
    }
}
