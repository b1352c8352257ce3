//! Coupling graphs and all-pairs shortest paths.

use std::collections::VecDeque;

/// An undirected coupling graph over physical qubits `0..n`.
///
/// This is the paper's `Rhw` abstraction: the set of physical qubit pairs
/// that may host a two-qubit gate directly. Adjacency is stored in CSR
/// (compressed sparse row) form — one flat `offsets` array indexing into a
/// flat `targets` array — so the whole graph lives in two contiguous
/// allocations and `neighbors()` is a single slice view.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CouplingGraph {
    name: String,
    n_qubits: usize,
    /// `offsets[p]..offsets[p + 1]` indexes `targets` for qubit `p`.
    offsets: Vec<u32>,
    /// Neighbour lists, concatenated; each qubit's segment is sorted.
    targets: Vec<u32>,
}

impl CouplingGraph {
    /// Builds a graph from undirected edges.
    ///
    /// Self-loops are rejected; duplicate edges are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n_qubits` or an edge is a
    /// self-loop.
    pub fn new(name: impl Into<String>, n_qubits: usize, edges: &[(u32, u32)]) -> Self {
        let mut normalized: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            assert!(a != b, "self-loop on qubit {a}");
            assert!(
                (a as usize) < n_qubits && (b as usize) < n_qubits,
                "edge ({a}, {b}) out of range {n_qubits}"
            );
            normalized.push((a.min(b), a.max(b)));
        }
        normalized.sort_unstable();
        normalized.dedup();

        // Count degrees, then prefix-sum into CSR offsets.
        let mut offsets = vec![0u32; n_qubits + 1];
        for &(a, b) in &normalized {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n_qubits {
            offsets[i + 1] += offsets[i];
        }
        // Fill each segment. Walking the normalized (min, max) edge list in
        // lexicographic order appends smaller-than-p neighbours (from edges
        // where p is the max endpoint) before larger-than-p neighbours, each
        // run in ascending order, so every segment comes out sorted.
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; normalized.len() * 2];
        for &(a, b) in &normalized {
            targets[cursor[a as usize] as usize] = b;
            cursor[a as usize] += 1;
            targets[cursor[b as usize] as usize] = a;
            cursor[b as usize] += 1;
        }
        debug_assert!((0..n_qubits)
            .all(|p| targets[offsets[p] as usize..offsets[p + 1] as usize].is_sorted()));
        CouplingGraph {
            name: name.into(),
            n_qubits,
            offsets,
            targets,
        }
    }

    /// Human-readable back-end name (e.g. `"ibm_sherbrooke"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed neighbour entries (`2 * n_edges`); sized for
    /// per-directed-edge scratch such as epoch stamps.
    pub fn n_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Neighbours of qubit `p`, sorted.
    pub fn neighbors(&self, p: u32) -> &[u32] {
        &self.targets[self.offsets[p as usize] as usize..self.offsets[p as usize + 1] as usize]
    }

    /// Whether `a` and `b` are directly coupled.
    pub fn is_adjacent(&self, a: u32, b: u32) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Index of the directed neighbour entry `a -> b` in `0..n_directed_edges()`,
    /// or `None` when the qubits are not coupled. Stable for a given graph;
    /// used to key per-edge scratch buffers.
    pub fn edge_index(&self, a: u32, b: u32) -> Option<usize> {
        let base = self.offsets[a as usize] as usize;
        self.neighbors(a).binary_search(&b).ok().map(|i| base + i)
    }

    /// Degree of qubit `p`.
    pub fn degree(&self, p: u32) -> usize {
        (self.offsets[p as usize + 1] - self.offsets[p as usize]) as usize
    }

    /// The maximum vertex degree (the paper sizes its look-ahead constant
    /// `c` above this).
    pub fn max_degree(&self) -> usize {
        (0..self.n_qubits)
            .map(|p| self.degree(p as u32))
            .max()
            .unwrap_or(0)
    }

    /// All undirected edges, each reported once with `a < b`.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.n_edges());
        for a in 0..self.n_qubits as u32 {
            for &b in self.neighbors(a) {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Whether the graph is connected (trivially true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.n_qubits();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([0u32]);
        seen[0] = true;
        let mut count = 1;
        while let Some(p) = queue.pop_front() {
            for &q in self.neighbors(p) {
                if !seen[q as usize] {
                    seen[q as usize] = true;
                    count += 1;
                    queue.push_back(q);
                }
            }
        }
        count == n
    }

    /// BFS all-pairs shortest paths — the paper's distance matrix `Dphys`.
    pub fn distances(&self) -> DistanceMatrix {
        let n = self.n_qubits();
        let mut data = vec![DistanceMatrix::UNREACHABLE; n * n];
        for src in 0..n as u32 {
            let row = &mut data[src as usize * n..(src as usize + 1) * n];
            row[src as usize] = 0;
            let mut queue = VecDeque::from([src]);
            while let Some(p) = queue.pop_front() {
                let d = row[p as usize];
                for &q in self.neighbors(p) {
                    if row[q as usize] == DistanceMatrix::UNREACHABLE {
                        row[q as usize] = d + 1;
                        queue.push_back(q);
                    }
                }
            }
        }
        DistanceMatrix {
            n,
            data,
            hops: true,
        }
    }

    /// The shared, cached distance matrix of this graph.
    ///
    /// Functionally identical to [`CouplingGraph::distances`], but the BFS
    /// runs at most once per distinct graph process-wide: results are kept
    /// in a bounded global cache (keyed by full graph content) and handed
    /// out as `Arc` clones, so batch runs that map thousands of circuits
    /// onto the same device share a single matrix. Safe and deterministic
    /// under concurrency — when threads race on an uncached graph, exactly
    /// one computes and the rest share its result.
    pub fn shared_distances(&self) -> std::sync::Arc<DistanceMatrix> {
        crate::cache::global().get_or_compute(self, || self.distances())
    }

    /// One shortest path from `a` to `b` (inclusive of both endpoints), or
    /// `None` when unreachable: the lexicographically smallest of all
    /// shortest paths, since the BFS visits neighbours in ascending order
    /// and keeps each qubit's first discoverer. [`CouplingGraph::hop_path`]
    /// relies on this rule.
    pub fn shortest_path(&self, a: u32, b: u32) -> Option<Vec<u32>> {
        if a == b {
            return Some(vec![a]);
        }
        let n = self.n_qubits();
        let mut prev: Vec<u32> = vec![u32::MAX; n];
        let mut queue = VecDeque::from([a]);
        prev[a as usize] = a;
        while let Some(p) = queue.pop_front() {
            for &q in self.neighbors(p) {
                if prev[q as usize] == u32::MAX {
                    prev[q as usize] = p;
                    if q == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = prev[cur as usize];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(q);
                }
            }
        }
        None
    }

    /// [`CouplingGraph::shortest_path`]'s path, read off `dist`, this
    /// graph's distance matrix, without a search.
    ///
    /// The lexicographically smallest shortest path steps each time to the
    /// smallest neighbour one hop closer to `b`, so on a hop-count matrix
    /// (one [`CouplingGraph::distances`] built) the walk reads only row `b`
    /// at the path's qubits and their neighbours. Any other matrix, such as
    /// a noise model's weighted one, takes the BFS.
    pub fn hop_path(&self, dist: &DistanceMatrix, a: u32, b: u32) -> Option<Vec<u32>> {
        if !dist.hops {
            return self.shortest_path(a, b);
        }
        let mut left = dist.get(b, a);
        if left == DistanceMatrix::UNREACHABLE {
            return None;
        }
        let mut path = Vec::with_capacity(usize::from(left) + 1);
        path.push(a);
        let mut cur = a;
        while left > 0 {
            left -= 1;
            cur = *self
                .neighbors(cur)
                .iter()
                .find(|&&q| dist.get(b, q) == left)?;
            path.push(cur);
        }
        Some(path)
    }
}

/// Symmetric matrix of SWAP distances between physical qubits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<u16>,
    /// Whether [`CouplingGraph::distances`] built it, so every entry is a
    /// hop count; [`CouplingGraph::hop_path`] walks only such a matrix.
    hops: bool,
}

impl DistanceMatrix {
    /// Sentinel distance for disconnected pairs.
    pub const UNREACHABLE: u16 = u16::MAX;

    /// Builds a matrix from raw row-major data (used by the noise module's
    /// weighted distances). It is not marked as hop counts, so
    /// [`CouplingGraph::hop_path`] takes the BFS on it.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len() == n * n`.
    pub fn from_raw(n: usize, data: Vec<u16>) -> Self {
        assert_eq!(data.len(), n * n, "distance matrix shape");
        DistanceMatrix {
            n,
            data,
            hops: false,
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Distance (in hops) between `a` and `b`.
    pub fn get(&self, a: u32, b: u32) -> u16 {
        self.data[a as usize * self.n + b as usize]
    }

    /// The graph diameter (maximum finite distance).
    pub fn diameter(&self) -> u16 {
        self.data
            .iter()
            .copied()
            .filter(|&d| d != Self::UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> CouplingGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        CouplingGraph::new("line", n, &edges)
    }

    #[test]
    fn adjacency_and_degree() {
        let g = line(4);
        assert!(g.is_adjacent(0, 1));
        assert!(!g.is_adjacent(0, 2));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.n_edges(), 3);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = CouplingGraph::new("dup", 2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = CouplingGraph::new("bad", 2, &[(1, 1)]);
    }

    #[test]
    fn distances_on_line() {
        let g = line(5);
        let d = g.distances();
        assert_eq!(d.get(0, 4), 4);
        assert_eq!(d.get(2, 2), 0);
        assert_eq!(d.get(3, 1), 2);
        assert_eq!(d.diameter(), 4);
    }

    #[test]
    fn disconnected_components() {
        let g = CouplingGraph::new("two islands", 4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        let d = g.distances();
        assert_eq!(d.get(0, 2), DistanceMatrix::UNREACHABLE);
        assert_eq!(g.shortest_path(0, 3), None);
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = line(6);
        let p = g.shortest_path(1, 4).unwrap();
        assert_eq!(p, vec![1, 2, 3, 4]);
        assert_eq!(g.shortest_path(3, 3), Some(vec![3]));
    }

    /// A connected graph of 2 to 40 qubits from `seed`: a random spanning
    /// tree plus random chords, so shortest paths often tie.
    fn random_connected(seed: u64) -> CouplingGraph {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = |m: u32| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % u64::from(m)) as u32
        };
        let n = 2 + next(39);
        let mut edges: Vec<(u32, u32)> = (1..n).map(|v| (next(v), v)).collect();
        for _ in 0..next(2 * n) {
            let (a, b) = (next(n), next(n));
            if a != b {
                edges.push((a, b));
            }
        }
        CouplingGraph::new(format!("random-{seed}"), n as usize, &edges)
    }

    #[test]
    fn hop_path_walks_the_bfs_path_down_a_distance_row() {
        let names = [
            "aspen16",
            "sycamore54",
            "king9",
            "ankaa3",
            "sherbrooke",
            "grid:12x12",
            "heavy-hex:7",
        ];
        let mut graphs: Vec<CouplingGraph> = names
            .iter()
            .map(|name| crate::backends::by_name(name).expect("roster name"))
            .collect();
        graphs.extend((0..40).map(random_connected));
        let mut pairs = 0;
        for g in &graphs {
            let dist = g.distances();
            for a in 0..g.n_qubits() as u32 {
                for b in 0..g.n_qubits() as u32 {
                    let path = g.hop_path(&dist, a, b);
                    assert_eq!(path, g.shortest_path(a, b), "{}: {a} -> {b}", g.name());
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 80_000, "{pairs} pairs");
        let islands = CouplingGraph::new("two islands", 4, &[(0, 1), (2, 3)]);
        assert_eq!(islands.hop_path(&islands.distances(), 0, 3), None);
    }

    #[test]
    fn hop_path_takes_the_bfs_on_matrices_not_built_from_hops() {
        // Ring of 6 whose link (0, 1) is bad: the weighted matrix puts 1
        // five units from 0, the long way round, and a doubled hop matrix
        // has no neighbour exactly one unit closer. A walk would follow
        // the first and get stuck on the second.
        let g = crate::backends::ring(6);
        let mut noise = crate::NoiseModel::uniform(&g, 0.001, 0.0001);
        noise.set_edge_error(0, 1, 0.4);
        let weighted = noise.weighted_distances(&g);
        let hops = g.distances();
        let doubled =
            DistanceMatrix::from_raw(6, (0..36u32).map(|i| 2 * hops.get(i / 6, i % 6)).collect());
        assert!(hops.hops && !weighted.hops && !doubled.hops);
        for dist in [&weighted, &doubled] {
            for a in 0..6u32 {
                for b in 0..6u32 {
                    assert_eq!(g.hop_path(dist, a, b), g.shortest_path(a, b), "{a} -> {b}");
                }
            }
        }
        assert_eq!(g.hop_path(&weighted, 0, 1), Some(vec![0, 1]));
    }

    #[test]
    fn ring_distances_wrap() {
        let edges: Vec<(u32, u32)> = (0..6u32).map(|i| (i, (i + 1) % 6)).collect();
        let g = CouplingGraph::new("ring", 6, &edges);
        let d = g.distances();
        assert_eq!(d.get(0, 3), 3);
        assert_eq!(d.get(0, 5), 1);
        assert_eq!(d.get(1, 5), 2);
    }
}
