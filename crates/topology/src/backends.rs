//! The hardware back-ends of the Qlosure evaluation, plus generic lattice
//! generators for tests and workload synthesis.

use crate::graph::CouplingGraph;
use bounded::ContentCache;
use std::sync::{Arc, OnceLock};

/// IBM Sherbrooke: the 127-qubit heavy-hexagon (Eagle r3) lattice.
///
/// The layout is seven horizontal rows of up to 15 qubits joined by
/// four-qubit vertical connector columns, alternating between columns
/// {0, 4, 8, 12} and {2, 6, 10, 14}; the top row omits its last column and
/// the bottom row its first, giving exactly 127 qubits with degree ≤ 3.
pub fn sherbrooke() -> CouplingGraph {
    let g = heavy_hex_lattice("ibm_sherbrooke", 7);
    assert_eq!(g.n_qubits(), 127, "Sherbrooke must have 127 qubits");
    g
}

/// Generalized heavy-hexagon lattice with `d` rows of `2d + 1` qubits
/// (Eagle-style numbering: `d = 7` reproduces the 127-qubit Sherbrooke
/// layout exactly). `d` must be odd so the bottom connector band lands on
/// columns the truncated bottom row still has.
///
/// # Panics
///
/// Panics unless `d` is odd and at least 3.
pub fn heavy_hex(d: usize) -> CouplingGraph {
    assert!(d >= 3 && d % 2 == 1, "heavy-hex distance must be odd >= 3");
    heavy_hex_lattice(&format!("heavy_hex_{d}"), d)
}

/// Number of qubits of [`heavy_hex`]`(d)` without building the graph
/// (used to enforce the [`by_name`] size cap before allocation).
pub fn heavy_hex_qubits(d: usize) -> usize {
    let cols = 2 * d + 1;
    // Row qubits: top and bottom rows each drop one column.
    let rows = d * cols - 2;
    // Connector bands alternate start columns 0 and 2, stepping by 4.
    let connectors: usize = (0..d - 1)
        .map(|band| {
            let start = if band % 2 == 0 { 0 } else { 2 };
            (start..cols).step_by(4).count()
        })
        .sum();
    rows + connectors
}

fn heavy_hex_lattice(name: &str, d: usize) -> CouplingGraph {
    let rows = d;
    let cols = 2 * d + 1;
    // Assign indices: row qubits then connector qubits, interleaved per row
    // band, matching IBM's published numbering.
    let mut index_of = vec![vec![u32::MAX; cols]; rows]; // row qubits
    let mut next = 0u32;
    let mut connector_edges: Vec<(usize, usize, u32)> = Vec::new(); // (row above, col, connector idx)
    for row in 0..rows {
        let row_cols: Vec<usize> = match row {
            0 => (0..cols - 1).collect(),
            r if r == rows - 1 => (1..cols).collect(),
            _ => (0..cols).collect(),
        };
        for c in row_cols {
            index_of[row][c] = next;
            next += 1;
        }
        if row + 1 < rows {
            let start = if row % 2 == 0 { 0 } else { 2 };
            for c in (start..cols).step_by(4) {
                connector_edges.push((row, c, next));
                next += 1;
            }
        }
    }
    assert_eq!(
        next as usize,
        heavy_hex_qubits(d),
        "heavy-hex construction must match its qubit-count formula"
    );
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Horizontal chains.
    for row in &index_of {
        for c in 0..cols - 1 {
            let (a, b) = (row[c], row[c + 1]);
            if a != u32::MAX && b != u32::MAX {
                edges.push((a, b));
            }
        }
    }
    // Vertical connectors.
    for &(row, c, conn) in &connector_edges {
        let above = index_of[row][c];
        let below = index_of[row + 1][c];
        assert!(above != u32::MAX && below != u32::MAX);
        edges.push((above, conn));
        edges.push((conn, below));
    }
    CouplingGraph::new(name, next as usize, &edges)
}

/// Rigetti Ankaa-3: an 82-qubit square lattice.
///
/// Modelled as the published 7×12 square-lattice tile with the two
/// highest-numbered qubits disabled, matching the 82-qubit count the paper
/// reports (max degree 4).
pub fn ankaa3() -> CouplingGraph {
    let full = square_grid_edges(7, 12);
    let keep = 82u32;
    let edges: Vec<(u32, u32)> = full
        .into_iter()
        .filter(|&(a, b)| a < keep && b < keep)
        .collect();
    CouplingGraph::new("rigetti_ankaa3", keep as usize, &edges)
}

/// Sherbrooke-2X: the paper's synthetic 256-qubit back-end — two Sherbrooke
/// topologies whose facing rows are joined through two bridge qubits,
/// forming an extended heavy-hexagon lattice.
pub fn sherbrooke_2x() -> CouplingGraph {
    let base = sherbrooke();
    let n = 127;
    let mut edges: Vec<(u32, u32)> = base.edges();
    edges.extend(base.edges().iter().map(|&(a, b)| (a + n, b + n)));
    // Bridge qubits 254 and 255 join the bottom row of copy A (qubits
    // 113..=126, columns 1..=14) to the top row of copy B (qubits
    // 127..=140, columns 0..=13) at two spread-out columns.
    let a_bottom = |col: usize| 113 + (col - 1) as u32; // cols 1..=14
    let b_top = |col: usize| 127 + col as u32; // cols 0..=13
    edges.push((a_bottom(3), 254));
    edges.push((254, b_top(3)));
    edges.push((a_bottom(11), 255));
    edges.push((255, b_top(11)));
    CouplingGraph::new("sherbrooke_2x", 256, &edges)
}

/// Rectangular grid with 4-neighbour (von Neumann) connectivity.
pub fn square_grid(rows: usize, cols: usize) -> CouplingGraph {
    CouplingGraph::new(
        format!("grid_{rows}x{cols}"),
        rows * cols,
        &square_grid_edges(rows, cols),
    )
}

fn square_grid_edges(rows: usize, cols: usize) -> Vec<(u32, u32)> {
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((at(r, c), at(r + 1, c)));
            }
        }
    }
    edges
}

/// Rectangular grid with 8-neighbour (king-move) connectivity — the
/// topology of the paper's custom 81-qubit (9×9) and 256-qubit (16×16)
/// QUEKO generators, where interior qubits connect to all eight
/// neighbours.
pub fn king_grid(rows: usize, cols: usize) -> CouplingGraph {
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((at(r, c), at(r + 1, c)));
                if c + 1 < cols {
                    edges.push((at(r, c), at(r + 1, c + 1)));
                }
                if c > 0 {
                    edges.push((at(r, c), at(r + 1, c - 1)));
                }
            }
        }
    }
    CouplingGraph::new(format!("king_{rows}x{cols}"), rows * cols, &edges)
}

/// A 1-D chain of `n` qubits.
pub fn line(n: usize) -> CouplingGraph {
    let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32)
        .map(|i| (i, i + 1))
        .collect();
    CouplingGraph::new(format!("line_{n}"), n, &edges)
}

/// A ring of `n` qubits.
pub fn ring(n: usize) -> CouplingGraph {
    assert!(n >= 3, "a ring needs at least 3 qubits");
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    CouplingGraph::new(format!("ring_{n}"), n, &edges)
}

/// A fully connected device (useful as a routing-free baseline in tests).
pub fn complete(n: usize) -> CouplingGraph {
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            edges.push((a, b));
        }
    }
    CouplingGraph::new(format!("complete_{n}"), n, &edges)
}

/// A 16-qubit Aspen-style topology (two octagons bridged by two edges) —
/// the device family the original `queko-bss-16qbt` suite targets.
pub fn aspen16() -> CouplingGraph {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..8u32 {
        edges.push((i, (i + 1) % 8));
        edges.push((8 + i, 8 + (i + 1) % 8));
    }
    // Bridge the rings on adjacent vertices, like Aspen's fused octagons.
    edges.push((1, 14));
    edges.push((2, 13));
    CouplingGraph::new("aspen_16", 16, &edges)
}

/// A 54-qubit Sycamore-style diagonal lattice (6×9, degree ≤ 4) — the
/// device family the original `queko-bss-54qbt` suite targets.
pub fn sycamore54() -> CouplingGraph {
    let rows = 6;
    let cols = 9;
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows - 1 {
        for c in 0..cols {
            edges.push((at(r, c), at(r + 1, c)));
            if r % 2 == 0 {
                if c > 0 {
                    edges.push((at(r, c), at(r + 1, c - 1)));
                }
            } else if c + 1 < cols {
                edges.push((at(r, c), at(r + 1, c + 1)));
            }
        }
    }
    CouplingGraph::new("sycamore_54", rows * cols, &edges)
}

/// Upper bound on qubit counts accepted by [`by_name`]'s parametric forms,
/// so a device name arriving over a wire cannot request an absurd
/// allocation.
const BY_NAME_MAX_QUBITS: usize = 4096;

/// Resolves an evaluation back-end by its roster name, or a parametric
/// test topology.
///
/// Roster names: `sherbrooke`, `ankaa3`, `sherbrooke2x`, `king9`,
/// `king16`, `aspen16`, `sycamore54`. Parametric forms (for tests and
/// service requests): `line:<n>`, `ring:<n>`, `king:<rows>x<cols>`,
/// `grid:<rows>x<cols>` (4-neighbour square lattice) and
/// `heavy-hex:<distance>` (generalized Eagle-style heavy-hexagon, odd
/// distance ≥ 3) — with qubit counts capped at 4096 so untrusted request
/// decoding cannot trigger huge allocations. Returns `None` for unknown
/// names or out-of-range parameters; this is the one name→device decoder
/// shared by the bench harness and the mapping service.
pub fn by_name(name: &str) -> Option<CouplingGraph> {
    let parse_n = |s: &str| {
        s.parse::<usize>()
            .ok()
            .filter(|&n| (2..=BY_NAME_MAX_QUBITS).contains(&n))
    };
    if let Some(rest) = name.strip_prefix("line:") {
        return parse_n(rest).map(line);
    }
    if let Some(rest) = name.strip_prefix("ring:") {
        return parse_n(rest).map(ring);
    }
    if let Some(rest) = name.strip_prefix("king:") {
        let (r, c) = rest.split_once('x')?;
        let (rows, cols) = (parse_n(r)?, parse_n(c)?);
        if rows * cols > BY_NAME_MAX_QUBITS {
            return None;
        }
        return Some(king_grid(rows, cols));
    }
    if let Some(rest) = name.strip_prefix("grid:") {
        let (r, c) = rest.split_once('x')?;
        let (rows, cols) = (parse_n(r)?, parse_n(c)?);
        if rows * cols > BY_NAME_MAX_QUBITS {
            return None;
        }
        return Some(square_grid(rows, cols));
    }
    if let Some(rest) = name.strip_prefix("heavy-hex:") {
        let d = rest.parse::<usize>().ok()?;
        // Bound d *before* evaluating the qubit-count formula — its O(d²)
        // band loop must never run on an attacker-chosen magnitude. 45 is
        // already past the largest distance fitting the 4096-qubit cap.
        if !(3..=45).contains(&d) || d % 2 == 0 || heavy_hex_qubits(d) > BY_NAME_MAX_QUBITS {
            return None;
        }
        return Some(heavy_hex(d));
    }
    match name {
        "sherbrooke" => Some(sherbrooke()),
        "ankaa3" => Some(ankaa3()),
        "sherbrooke2x" => Some(sherbrooke_2x()),
        "king9" => Some(king_grid(9, 9)),
        "king16" => Some(king_grid(16, 16)),
        "aspen16" => Some(aspen16()),
        "sycamore54" => Some(sycamore54()),
        _ => None,
    }
}

/// Distinct names [`shared_by_name`] keeps. Names arrive in service
/// requests, so the memo is bounded: a stream of distinct parametric
/// names evicts the oldest device instead of growing. The evaluation
/// roster has 7 back-ends, so 32 never evicts in practice.
const SHARED_CAPACITY: usize = 32;

/// Name → device memo: the resolved device, or `None` for a name
/// [`by_name`] rejects.
type DeviceMemo = ContentCache<String, Option<Arc<CouplingGraph>>>;

/// [`by_name`] through a process-wide, bounded memo, so every caller
/// resolving the same name shares one device allocation (adjacency and
/// neighbor tables) while the name stays in the memo. Each distinct name
/// is built once, even under concurrent lookups; an evicted name is
/// rebuilt on its next lookup. The device's distance matrix is shared
/// separately, through [`CouplingGraph::shared_distances`].
pub fn shared_by_name(name: &str) -> Option<Arc<CouplingGraph>> {
    static MEMO: OnceLock<DeviceMemo> = OnceLock::new();
    resolve(
        MEMO.get_or_init(|| ContentCache::new(SHARED_CAPACITY)),
        name,
    )
}

fn resolve(memo: &DeviceMemo, name: &str) -> Option<Arc<CouplingGraph>> {
    Option::clone(&memo.get_or_compute(&name.to_string(), || by_name(name).map(Arc::new)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_memo_rebuilds_the_oldest_name_past_its_bound() {
        let memo = DeviceMemo::new(SHARED_CAPACITY);
        let first = resolve(&memo, "line:2").expect("line:2 resolves");
        let again = resolve(&memo, "line:2").expect("line:2 resolves");
        assert!(Arc::ptr_eq(&first, &again), "a kept name is shared");
        for n in 3..3 + SHARED_CAPACITY {
            assert!(resolve(&memo, &format!("line:{n}")).is_some());
        }
        // SHARED_CAPACITY newer names pushed the first one out: it is
        // rebuilt, not kept.
        let rebuilt = resolve(&memo, "line:2").expect("line:2 resolves");
        assert!(!Arc::ptr_eq(&first, &rebuilt));
        assert_eq!(*first, *rebuilt);
        assert_eq!(memo.stats(), (1, SHARED_CAPACITY as u64 + 2));
        assert!(resolve(&memo, "not-a-device").is_none());
    }

    #[test]
    fn sherbrooke_matches_eagle_lattice() {
        let g = sherbrooke();
        assert_eq!(g.n_qubits(), 127);
        assert_eq!(g.n_edges(), 144); // published ibm_sherbrooke edge count
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 3);
        // Spot-check known couplings of the 127-qubit Eagle numbering.
        for (a, b) in [(0, 1), (0, 14), (14, 18), (4, 15), (20, 33), (33, 39)] {
            assert!(g.is_adjacent(a, b), "expected edge ({a}, {b})");
        }
        assert!(!g.is_adjacent(13, 14));
        // Bottom row runs 113..=126 and its connectors join columns 2,6,10,14.
        for (a, b) in [(109, 96), (109, 114), (112, 108), (112, 126)] {
            assert!(g.is_adjacent(a, b), "expected edge ({a}, {b})");
        }
    }

    #[test]
    fn ankaa3_is_82_qubit_square_lattice() {
        let g = ankaa3();
        assert_eq!(g.n_qubits(), 82);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn sherbrooke_2x_bridges_two_copies() {
        let g = sherbrooke_2x();
        assert_eq!(g.n_qubits(), 256);
        assert!(g.is_connected());
        // Bridges have degree 2; everything else keeps degree <= 3.
        assert_eq!(g.degree(254), 2);
        assert_eq!(g.degree(255), 2);
        assert_eq!(g.max_degree(), 3);
        // A path from copy A to copy B must cross a bridge.
        let p = g.shortest_path(0, 127 + 126).unwrap();
        assert!(p.iter().any(|&q| q == 254 || q == 255));
    }

    #[test]
    fn king_grid_has_eight_neighbors_inside() {
        let g = king_grid(9, 9);
        assert_eq!(g.n_qubits(), 81);
        assert_eq!(g.max_degree(), 8);
        // Interior qubit (4,4) = 40 has exactly 8 neighbours.
        assert_eq!(g.degree(40), 8);
        // Corner has 3.
        assert_eq!(g.degree(0), 3);
        assert!(g.is_connected());
    }

    #[test]
    fn square_grid_degrees() {
        let g = square_grid(7, 12);
        assert_eq!(g.n_qubits(), 84);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn small_generators() {
        assert_eq!(line(5).n_edges(), 4);
        assert_eq!(ring(5).n_edges(), 5);
        assert_eq!(complete(5).n_edges(), 10);
        assert!(complete(5).is_adjacent(0, 4));
    }

    #[test]
    fn aspen16_shape() {
        let g = aspen16();
        assert_eq!(g.n_qubits(), 16);
        assert!(g.is_connected());
        assert_eq!(g.n_edges(), 18);
        assert!(g.max_degree() <= 3);
    }

    #[test]
    fn sycamore54_shape() {
        let g = sycamore54();
        assert_eq!(g.n_qubits(), 54);
        assert!(g.is_connected());
        assert!(g.max_degree() <= 4);
    }

    #[test]
    fn by_name_resolves_roster_and_parametric_forms() {
        for name in [
            "sherbrooke",
            "ankaa3",
            "sherbrooke2x",
            "king9",
            "king16",
            "aspen16",
            "sycamore54",
        ] {
            let g = by_name(name).unwrap_or_else(|| panic!("roster name {name} must resolve"));
            assert!(g.n_qubits() >= 16);
        }
        assert_eq!(by_name("line:7").unwrap().n_qubits(), 7);
        assert_eq!(by_name("ring:12").unwrap().n_edges(), 12);
        assert_eq!(by_name("king:3x4").unwrap().n_qubits(), 12);
        assert_eq!(by_name("grid:4x5").unwrap().n_qubits(), 20);
        assert_eq!(by_name("grid:64x64").unwrap().n_qubits(), 4096);
        assert_eq!(by_name("heavy-hex:7").unwrap().n_qubits(), 127);
        // Unknown names, malformed parameters and oversized requests are
        // all `None`, never a panic — this decoder faces the wire.
        for bad in [
            "eagle",
            "line:",
            "line:1",
            "line:abc",
            "line:99999",
            "king:3",
            "king:0x4",
            "king:100x100",
            "grid:64x65",
            "grid:4",
            "grid:0x9",
            "grid:x",
            "heavy-hex:",
            "heavy-hex:1",
            "heavy-hex:4",          // even distances don't tile
            "heavy-hex:45",         // over the 4096-qubit cap
            "heavy-hex:9999999999", // must be rejected before any O(d²) work
            "heavy-hex:abc",
            "",
        ] {
            assert!(by_name(bad).is_none(), "`{bad}` must not resolve");
        }
    }

    #[test]
    fn grid_by_name_matches_generator() {
        let g = by_name("grid:3x7").unwrap();
        assert_eq!(g, square_grid(3, 7));
        assert_eq!(g.name(), "grid_3x7");
    }

    #[test]
    fn heavy_hex_family_shapes() {
        // d = 7 is exactly the Sherbrooke lattice under another name.
        let h7 = heavy_hex(7);
        let sb = sherbrooke();
        assert_eq!(h7.n_qubits(), sb.n_qubits());
        assert_eq!(h7.edges(), sb.edges());
        assert_eq!(h7.name(), "heavy_hex_7");
        // Other odd distances stay connected, degree-bounded heavy-hex.
        for d in [3usize, 5, 9, 13] {
            let g = heavy_hex(d);
            assert_eq!(g.n_qubits(), heavy_hex_qubits(d), "d={d}");
            assert!(g.is_connected(), "d={d}");
            assert!(g.max_degree() <= 3, "d={d}");
        }
        assert_eq!(heavy_hex_qubits(3), 23);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn heavy_hex_rejects_even_distance() {
        let _ = heavy_hex(6);
    }

    #[test]
    fn distances_sane_on_sherbrooke() {
        let g = sherbrooke();
        let d = g.distances();
        // Heavy-hex 127 diameter is large-ish; sanity-bound it.
        assert!(d.diameter() >= 15 && d.diameter() <= 40, "{}", d.diameter());
        assert_eq!(d.get(0, 14), 1);
    }
}
