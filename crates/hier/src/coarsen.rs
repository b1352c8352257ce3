//! Device coarsening: partitioning a [`CouplingGraph`] into connected
//! regions and building the quotient [`RegionMap::quotient`] over them.
//!
//! Coarsening is the hardware half of the hierarchical mapper: a
//! 4096-qubit lattice becomes a few dozen regions, each small enough for
//! the flat router to solve quickly, plus a small region graph that the
//! placement stage maps clusters onto. Structured back-ends (`grid_RxC`
//! square lattices, `heavy_hex_*`/`ibm_sherbrooke` heavy-hexagons) get
//! explicit lattice-aware seeds; everything else falls back to greedy
//! BFS growth, which still guarantees connected regions.

use std::collections::VecDeque;
use topology::{CouplingGraph, NoiseModel};

/// One region of the partition: a connected set of physical qubits with
/// its induced subgraph over local indices `0..len`.
///
/// A region carries no distance matrix. Fragments are sub-routed on the
/// *canonical* form of the region graph, which computes its own distances
/// once per plan-memo miss; only device-level graphs (the device and the
/// [`RegionMap::quotient`]) go through `CouplingGraph::shared_distances`.
#[derive(Clone, Debug)]
pub struct Region {
    /// Member qubits in BFS order from the region's seed; position in
    /// this list is the qubit's *local* index.
    pub qubits: Vec<u32>,
    /// The induced coupling subgraph over local indices.
    pub device: CouplingGraph,
}

impl Region {
    /// Number of qubits in the region.
    pub fn len(&self) -> usize {
        self.qubits.len()
    }

    /// Whether the region is empty (never true for coarsener output).
    pub fn is_empty(&self) -> bool {
        self.qubits.is_empty()
    }
}

/// The full coarsening result: the partition, the per-region subgraphs
/// and the quotient region graph. Produced by [`coarsen`] (usually via
/// the `RegionAnalysisPass`) and consumed by the hierarchical layout and
/// routing passes.
#[derive(Clone, Debug)]
pub struct RegionMap {
    /// `region_of[phys]` = index of the region hosting physical qubit.
    pub region_of: Vec<u32>,
    /// `local_of[phys]` = the qubit's local index within its region.
    pub local_of: Vec<u32>,
    /// The regions, each connected and non-empty.
    pub regions: Vec<Region>,
    /// The quotient graph: one node per region, an edge wherever at least
    /// one device coupling crosses the region boundary. Its distance
    /// matrix flows through `CouplingGraph::shared_distances` when the
    /// placement pipeline runs on it.
    pub quotient: CouplingGraph,
    /// Noise-aware region scores (higher = healthier); uniform models and
    /// `None` degrade to internal edge density.
    pub scores: Vec<f64>,
    /// Region indices sorted by descending score (ties toward smaller
    /// index) — the placement ranking.
    pub rank: Vec<u32>,
}

impl RegionMap {
    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The region hosting physical qubit `p`.
    pub fn region_of(&self, p: u32) -> u32 {
        self.region_of[p as usize]
    }
}

/// Exact tile assignment for square-lattice back-ends, decoded from the
/// graph name (`grid_RxC`, with the qubit count cross-checked so a
/// mislabeled graph cannot produce an out-of-range assignment): the grid
/// is cut into √budget-sided square tiles, each a connected region of at
/// most `budget` qubits. Returns `(region_of, n_regions)`, or `None` for
/// non-grid devices.
pub fn structured_assignment(device: &CouplingGraph, budget: usize) -> Option<(Vec<u32>, usize)> {
    let rest = device.name().strip_prefix("grid_")?;
    let (r, c) = rest.split_once('x')?;
    let (rows, cols) = (r.parse::<usize>().ok()?, c.parse::<usize>().ok()?);
    if rows * cols != device.n_qubits() || rows == 0 || cols == 0 {
        return None;
    }
    let side = (budget as f64).sqrt().floor().max(1.0) as usize;
    let tiles_per_row = cols.div_ceil(side);
    let mut region_of = vec![0u32; rows * cols];
    let mut max_region = 0u32;
    for row in 0..rows {
        for col in 0..cols {
            let tile = ((row / side) * tiles_per_row + col / side) as u32;
            region_of[row * cols + col] = tile;
            max_region = max_region.max(tile);
        }
    }
    Some((region_of, max_region as usize + 1))
}

/// Lattice-aware BFS seeds for heavy-hexagon back-ends
/// (`heavy_hex_*`/`ibm_sherbrooke`): one seed every `budget` indices in
/// the row-major numbering, which follows the physical rows. Returns
/// `None` for other devices (square grids use
/// [`structured_assignment`] instead).
pub fn structured_seeds(device: &CouplingGraph, budget: usize) -> Option<Vec<u32>> {
    let name = device.name();
    if name.starts_with("heavy_hex_") || name == "ibm_sherbrooke" {
        let n = device.n_qubits();
        let step = budget.clamp(1, n);
        return Some((0..n).step_by(step).map(|q| q as u32).collect());
    }
    None
}

/// The automatic region-size budget: `√n` clamped to `[8, 128]`, so a
/// 4096-qubit grid coarsens into 64-qubit tiles while a 16-qubit device
/// still splits into a couple of regions.
pub fn auto_budget(n_qubits: usize) -> usize {
    (n_qubits as f64).sqrt().ceil().clamp(8.0, 128.0) as usize
}

/// Partitions `device` into connected regions of at most `budget` qubits
/// and derives the quotient graph and noise scores.
///
/// Square grids tile exactly ([`structured_assignment`]); heavy-hex
/// lattices grow all regions simultaneously from explicit row seeds
/// (balanced multi-source BFS, [`structured_seeds`]); unstructured
/// devices grow one region at a time from the lowest-index unassigned
/// qubit. Either way every qubit lands in exactly one region, every
/// region is connected, and no region exceeds the budget — pockets
/// stranded by seeded growth become their own (possibly small) regions
/// rather than orphans.
///
/// # Panics
///
/// Panics if `budget` is zero or the device is empty.
pub fn coarsen(device: &CouplingGraph, budget: usize, noise: Option<&NoiseModel>) -> RegionMap {
    assert!(budget >= 1, "region budget must be positive");
    let n = device.n_qubits();
    assert!(n >= 1, "cannot coarsen an empty device");
    const UNASSIGNED: u32 = u32::MAX;

    if let Some((region_of, n_regions)) = structured_assignment(device, budget) {
        // Square grids tile exactly: every region is a connected
        // √budget-sided block.
        return build_region_map(device, region_of, n_regions, noise);
    }

    let mut region_of = vec![UNASSIGNED; n];
    let mut sizes: Vec<usize> = Vec::new();

    if let Some(seeds) = structured_seeds(device, budget) {
        // Balanced multi-source BFS: one frontier per seed, grown
        // round-robin so tiles stay budget-sized and compact.
        let mut frontiers: Vec<VecDeque<u32>> = Vec::new();
        for &s in &seeds {
            if region_of[s as usize] != UNASSIGNED {
                continue; // duplicate seed (tiny lattices)
            }
            let id = frontiers.len() as u32;
            region_of[s as usize] = id;
            sizes.push(1);
            frontiers.push(VecDeque::from([s]));
        }
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (id, frontier) in frontiers.iter_mut().enumerate() {
                if sizes[id] >= budget {
                    continue;
                }
                while let Some(p) = frontier.pop_front() {
                    let mut claimed = false;
                    for &q in device.neighbors(p) {
                        if region_of[q as usize] == UNASSIGNED {
                            region_of[q as usize] = id as u32;
                            sizes[id] += 1;
                            frontier.push_back(q);
                            progressed = true;
                            claimed = true;
                            if sizes[id] >= budget {
                                break;
                            }
                        }
                    }
                    if claimed {
                        // Revisit `p` next round in case it has more
                        // unassigned neighbours and budget remains.
                        frontier.push_front(p);
                        break;
                    }
                }
            }
        }
    }

    // Greedy sequential growth from the lowest-index unassigned qubit —
    // the whole partition for unstructured devices, and the sweep-up for
    // pockets that seeded growth stranded (every nearby region at budget)
    // or components no seed reached. Budget-strict and connected either
    // way.
    for seed in 0..n as u32 {
        if region_of[seed as usize] != UNASSIGNED {
            continue;
        }
        let id = sizes.len() as u32;
        region_of[seed as usize] = id;
        sizes.push(1);
        let mut queue = VecDeque::from([seed]);
        while let Some(p) = queue.pop_front() {
            if sizes[id as usize] >= budget {
                break;
            }
            for &q in device.neighbors(p) {
                if region_of[q as usize] == UNASSIGNED {
                    region_of[q as usize] = id;
                    sizes[id as usize] += 1;
                    queue.push_back(q);
                    if sizes[id as usize] >= budget {
                        break;
                    }
                }
            }
        }
    }

    build_region_map(device, region_of, sizes.len(), noise)
}

/// Materializes regions (BFS-ordered member lists and induced subgraphs),
/// the quotient graph and the scores from a completed qubit→region
/// assignment.
fn build_region_map(
    device: &CouplingGraph,
    region_of: Vec<u32>,
    n_regions: usize,
    noise: Option<&NoiseModel>,
) -> RegionMap {
    let n = device.n_qubits();
    // Member lists in BFS order from each region's lowest-index qubit, so
    // local indices are stable and contiguous neighbourhoods get adjacent
    // slots.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
    let mut local_of = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    for p in 0..n as u32 {
        let r = region_of[p as usize] as usize;
        if !members[r].is_empty() {
            continue; // region already materialized from its first qubit
        }
        // BFS within the region from its lowest-index qubit.
        let mut queue = VecDeque::from([p]);
        seen[p as usize] = true;
        while let Some(x) = queue.pop_front() {
            local_of[x as usize] = members[r].len() as u32;
            members[r].push(x);
            for &q in device.neighbors(x) {
                if !seen[q as usize] && region_of[q as usize] as usize == r {
                    seen[q as usize] = true;
                    queue.push_back(q);
                }
            }
        }
    }
    // Safety net for (theoretically) disconnected regions: append any
    // member the BFS missed.
    for p in 0..n as u32 {
        if local_of[p as usize] == u32::MAX {
            let r = region_of[p as usize] as usize;
            local_of[p as usize] = members[r].len() as u32;
            members[r].push(p);
        }
    }

    // Induced subgraphs, quotient edges and scores in one edge sweep.
    let mut local_edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_regions];
    let mut quotient_edges: Vec<(u32, u32)> = Vec::new();
    let mut edge_reliability = vec![0.0f64; n_regions];
    for (a, b) in device.edges() {
        let (ra, rb) = (region_of[a as usize], region_of[b as usize]);
        if ra == rb {
            local_edges[ra as usize].push((local_of[a as usize], local_of[b as usize]));
            edge_reliability[ra as usize] += match noise {
                Some(m) => 1.0 - m.edge_error(a, b),
                None => 1.0,
            };
        } else {
            quotient_edges.push((ra.min(rb), ra.max(rb)));
        }
    }
    quotient_edges.sort_unstable();
    quotient_edges.dedup();

    let regions: Vec<Region> = members
        .into_iter()
        .zip(&local_edges)
        .enumerate()
        .map(|(r, (qubits, edges))| {
            let sub = CouplingGraph::new(
                format!("{}:r{r}", device.name()),
                qubits.len(),
                edges.as_slice(),
            );
            Region {
                qubits,
                device: sub,
            }
        })
        .collect();

    // Score: mean intra-edge reliability (noise-aware) scaled by edge
    // density, so healthy well-connected regions rank first. Uniform or
    // absent noise degrades to pure density.
    let scores: Vec<f64> = regions
        .iter()
        .enumerate()
        .map(|(r, region)| {
            let edges = region.device.n_edges();
            if edges == 0 {
                return 0.0;
            }
            let mean_rel = edge_reliability[r] / edges as f64;
            mean_rel * (edges as f64 / region.len() as f64)
        })
        .collect();
    let mut rank: Vec<u32> = (0..n_regions as u32).collect();
    rank.sort_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("scores are never NaN")
            .then(a.cmp(&b))
    });

    let quotient = CouplingGraph::new(
        format!("rg:{}:{n_regions}", device.name()),
        n_regions,
        &quotient_edges,
    );
    RegionMap {
        region_of,
        local_of,
        regions,
        quotient,
        scores,
        rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::backends;

    fn assert_partition_sane(device: &CouplingGraph, rm: &RegionMap, budget: usize) {
        // Total coverage: every qubit in exactly one region.
        let mut counted = 0usize;
        for (r, region) in rm.regions.iter().enumerate() {
            assert!(!region.is_empty(), "region {r} empty");
            assert!(region.device.is_connected(), "region {r} disconnected");
            for (local, &p) in region.qubits.iter().enumerate() {
                assert_eq!(rm.region_of[p as usize], r as u32);
                assert_eq!(rm.local_of[p as usize], local as u32);
            }
            counted += region.len();
        }
        assert_eq!(counted, device.n_qubits(), "partition must cover device");
        // Budget respected on connected devices with default seeding.
        if device.is_connected() {
            for region in &rm.regions {
                assert!(region.len() <= budget.max(1), "region over budget");
            }
        }
        // Local adjacency mirrors global adjacency.
        for region in &rm.regions {
            for (a, b) in region.device.edges() {
                let (ga, gb) = (region.qubits[a as usize], region.qubits[b as usize]);
                assert!(device.is_adjacent(ga, gb));
            }
        }
    }

    #[test]
    fn grid_coarsening_uses_structured_tiles() {
        let device = backends::square_grid(8, 8);
        let rm = coarsen(&device, 16, None);
        assert_partition_sane(&device, &rm, 16);
        // 8×8 with budget 16 (4×4 tiles) → exactly 4 regions of 16.
        assert_eq!(rm.n_regions(), 4);
        assert!(rm.regions.iter().all(|r| r.len() == 16));
        assert!(rm.quotient.is_connected());
    }

    #[test]
    fn heavy_hex_coarsening_covers_sherbrooke() {
        let device = backends::sherbrooke();
        let rm = coarsen(&device, auto_budget(127), None);
        assert_partition_sane(&device, &rm, 127);
        assert!(rm.n_regions() > 1);
        assert!(rm.quotient.is_connected());
    }

    #[test]
    fn unstructured_fallback_still_partitions() {
        let device = backends::aspen16();
        let rm = coarsen(&device, 6, None);
        assert_partition_sane(&device, &rm, 6);
        assert!(rm.n_regions() >= 3);
    }

    #[test]
    fn single_region_when_budget_swallows_device() {
        let device = backends::ring(8);
        let rm = coarsen(&device, 64, None);
        assert_eq!(rm.n_regions(), 1);
        assert_eq!(rm.regions[0].len(), 8);
        assert_eq!(rm.quotient.n_edges(), 0);
    }

    #[test]
    fn noise_scores_rank_healthy_regions_first() {
        // Two-region line; poison every edge inside the second half.
        let device = backends::line(8);
        let mut noise = NoiseModel::uniform(&device, 0.001, 0.0001);
        for a in 4..7u32 {
            noise.set_edge_error(a, a + 1, 0.3);
        }
        let rm = coarsen(&device, 4, Some(&noise));
        assert_eq!(rm.n_regions(), 2);
        let healthy = rm.region_of[0];
        assert_eq!(rm.rank[0], healthy, "clean region must rank first");
        assert!(rm.scores[rm.rank[0] as usize] >= rm.scores[rm.rank[1] as usize]);
    }

    #[test]
    fn disconnected_devices_get_per_component_regions() {
        let device = CouplingGraph::new("islands", 6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let rm = coarsen(&device, 10, None);
        assert_partition_sane(&device, &rm, 10);
        assert_eq!(rm.n_regions(), 2);
    }

    #[test]
    fn auto_budget_tracks_sqrt() {
        assert_eq!(auto_budget(16), 8); // clamped up
        assert_eq!(auto_budget(4096), 64);
        assert_eq!(auto_budget(1_000_000), 128); // clamped down
    }

    #[test]
    fn structured_decoders_reject_mislabeled_devices() {
        // Name says grid_9x9 but the graph has 4 qubits: decoder must bail.
        let fake = CouplingGraph::new("grid_9x9", 4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(structured_assignment(&fake, 8).is_none());
        assert!(structured_assignment(&backends::aspen16(), 8).is_none());
        let (assign, k) = structured_assignment(&backends::square_grid(6, 6), 9).unwrap();
        assert_eq!(assign.len(), 36);
        assert_eq!(k, 4); // 3×3 tiles
        assert!(structured_seeds(&backends::sherbrooke(), 12).is_some());
        assert!(structured_seeds(&backends::square_grid(6, 6), 9).is_none());
        assert!(structured_seeds(&backends::aspen16(), 8).is_none());
    }
}
