//! Micro-benchmark: incremental `RoutingState` front-layer maintenance vs
//! a recompute-per-step baseline.
//!
//! Both drivers replay the *same* SWAP schedule (extracted from a real
//! Qlosure mapping of a queko-bss-54qbt instance onto Sherbrooke — the
//! Fig. 5 workload) and perform the same logical work per step: execute
//! every ready gate, enumerate the candidate-SWAP frontier, apply the next
//! scheduled SWAP. They differ only in *how state is maintained*:
//!
//! * **incremental** — `qlosure::RoutingState`: the front layer, candidate
//!   operand cache and clocks update in place per executed gate / SWAP;
//! * **recompute** — the pre-refactor strategy: every step rescans all
//!   gates for the front layer and rebuilds the candidate list from
//!   scratch with fresh allocations.
//!
//! Besides the criterion report, the run writes `BENCH_router_state.json`
//! (per-variant median seconds, step counts, and the observed
//! incremental/recompute ratio) so CI archives the trajectory.

use bench_support::report::{write_batch_json, JsonJobRow};
use circuit::{Circuit, DependenceGraph, Gate, GateKind};
use criterion::{black_box, criterion_group, Criterion};
use qlosure::{Layout, Mapper, QlosureMapper, RoutingState};
use std::time::Instant;
use topology::{backends, CouplingGraph};

/// One replayable workload: the circuit and the SWAP schedule a real
/// Qlosure run produced for it.
struct Workload {
    depth: usize,
    circuit: Circuit,
    swaps: Vec<(u32, u32)>,
}

fn workload(device: &CouplingGraph, depth: usize) -> Workload {
    let gen_device = backends::sycamore54();
    let bench = queko::QuekoSpec::new(&gen_device, depth).seed(0).generate();
    let result = QlosureMapper::default().map(&bench.circuit, device);
    let swaps: Vec<(u32, u32)> = result
        .routed
        .gates()
        .iter()
        .filter(|g| g.kind == GateKind::Swap)
        .map(|g| (g.qubits[0], g.qubits[1]))
        .collect();
    Workload {
        depth,
        circuit: bench.circuit,
        swaps,
    }
}

/// Incremental driver: the shared `RoutingState`.
fn drive_incremental(w: &Workload, device: &CouplingGraph) -> usize {
    let dist = device.shared_distances();
    let layout = Layout::identity(w.circuit.n_qubits(), device.n_qubits());
    let mut st = RoutingState::new(&w.circuit, device, &dist, layout);
    let mut candidate_edges = 0usize;
    for &(p1, p2) in &w.swaps {
        st.execute_ready();
        candidate_edges += st.swap_candidates().len();
        st.apply_swap(p1, p2);
    }
    st.execute_ready();
    assert!(st.is_done(), "replay must route the whole circuit");
    candidate_edges
}

/// Recompute-per-step driver: front layer and candidates rebuilt from
/// scratch every step (the pre-refactor maintenance strategy).
struct RecomputeState<'a> {
    circuit: &'a Circuit,
    device: &'a CouplingGraph,
    dag: DependenceGraph,
    indeg: Vec<u32>,
    executed: Vec<bool>,
    remaining: usize,
    layout: Layout,
    routed: Circuit,
}

impl<'a> RecomputeState<'a> {
    fn new(circuit: &'a Circuit, device: &'a CouplingGraph) -> Self {
        let dag = DependenceGraph::new(circuit);
        let indeg = dag.in_degrees();
        RecomputeState {
            circuit,
            device,
            dag,
            indeg,
            executed: vec![false; circuit.gates().len()],
            remaining: circuit.gates().len(),
            layout: Layout::identity(circuit.n_qubits(), device.n_qubits()),
            routed: Circuit::new(device.n_qubits()),
        }
    }

    /// Full-scan front extraction: every unexecuted gate with indegree 0.
    fn front(&self) -> Vec<u32> {
        (0..self.circuit.gates().len() as u32)
            .filter(|&g| !self.executed[g as usize] && self.indeg[g as usize] == 0)
            .collect()
    }

    fn executable(&self, g: u32) -> bool {
        match self.circuit.gates()[g as usize].qubit_pair() {
            Some((a, b)) => self
                .device
                .is_adjacent(self.layout.phys(a), self.layout.phys(b)),
            None => true,
        }
    }

    fn execute_ready(&mut self) {
        loop {
            let ready: Vec<u32> = self
                .front()
                .into_iter()
                .filter(|&g| self.executable(g))
                .collect();
            if ready.is_empty() {
                return;
            }
            for &g in &ready {
                let gate = &self.circuit.gates()[g as usize];
                self.routed.push(Gate {
                    kind: gate.kind.clone(),
                    qubits: gate.qubits.iter().map(|&q| self.layout.phys(q)).collect(),
                    params: gate.params.clone(),
                });
                self.executed[g as usize] = true;
                self.remaining -= 1;
                for &s in self.dag.succs(g) {
                    self.indeg[s as usize] -= 1;
                }
            }
        }
    }

    /// From-scratch candidate enumeration (sorted logical operands of the
    /// blocked front, mapped through the layout, deduplicated).
    fn swap_candidates(&self) -> Vec<(u32, u32)> {
        let mut logicals: Vec<u32> = self
            .front()
            .into_iter()
            .filter_map(|g| self.circuit.gates()[g as usize].qubit_pair())
            .flat_map(|(a, b)| [a, b])
            .collect();
        logicals.sort_unstable();
        logicals.dedup();
        let mut out: Vec<(u32, u32)> = Vec::new();
        for &l in &logicals {
            let p1 = self.layout.phys(l);
            for &p2 in self.device.neighbors(p1) {
                let pair = (p1.min(p2), p1.max(p2));
                if !out.contains(&pair) {
                    out.push(pair);
                }
            }
        }
        out
    }
}

fn drive_recompute(w: &Workload, device: &CouplingGraph) -> usize {
    let mut st = RecomputeState::new(&w.circuit, device);
    let mut candidate_edges = 0usize;
    for &(p1, p2) in &w.swaps {
        st.execute_ready();
        candidate_edges += st.swap_candidates().len();
        st.routed.swap(p1, p2);
        st.layout.apply_swap(p1, p2);
    }
    st.execute_ready();
    assert_eq!(st.remaining, 0, "replay must route the whole circuit");
    candidate_edges
}

/// Median wall-clock of `reps` runs of `f`.
fn median_seconds(reps: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut out = 0usize;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], out)
}

fn bench_router_state(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let device = backends::sherbrooke();
    // The Fig. 5 QUEKO sizes (small tier); test mode keeps CI instant.
    let depths: &[usize] = if test_mode { &[60] } else { &[100, 500, 900] };
    let reps = if test_mode { 1 } else { 7 };
    let mut rows: Vec<JsonJobRow> = Vec::new();
    let mut group = c.benchmark_group("router_state_front_maintenance");
    for &depth in depths {
        let w = workload(&device, depth);
        group.bench_function(&format!("incremental/d{depth}"), |b| {
            b.iter(|| drive_incremental(&w, &device))
        });
        group.bench_function(&format!("recompute/d{depth}"), |b| {
            b.iter(|| drive_recompute(&w, &device))
        });
        // Manual medians feed the JSON trajectory report and the ratio.
        let (inc, edges_inc) = median_seconds(reps, || drive_incremental(&w, &device));
        let (rec, edges_rec) = median_seconds(reps, || drive_recompute(&w, &device));
        assert_eq!(
            edges_inc, edges_rec,
            "both drivers must enumerate identical candidate frontiers"
        );
        let ratio = if rec > 0.0 { inc / rec } else { 1.0 };
        eprintln!(
            "d{depth}: incremental {:.1}ms vs recompute {:.1}ms (ratio {ratio:.3}, {} swaps)",
            inc * 1e3,
            rec * 1e3,
            w.swaps.len()
        );
        for (variant, seconds) in [("incremental", inc), ("recompute", rec)] {
            rows.push(JsonJobRow {
                id: rows.len(),
                label: format!("queko54-d{}-{variant}", w.depth),
                seconds,
                metrics: vec![
                    ("swaps".to_string(), w.swaps.len() as i64),
                    ("candidate_edges".to_string(), edges_inc as i64),
                    (
                        "ratio_millis".to_string(),
                        ((ratio * 1000.0).round()) as i64,
                    ),
                ],
                pass_seconds: vec![],
                queue_seconds: None,
            });
        }
    }
    group.finish();
    let wall: f64 = rows.iter().map(|r| r.seconds).sum();
    match write_batch_json("router_state", 1, wall, &rows) {
        Ok(path) => eprintln!("router_state: wrote {}", path.display()),
        Err(e) => eprintln!("router_state: could not write JSON report: {e}"),
    }
}

criterion_group!(benches, bench_router_state);

fn main() {
    if std::env::args().any(|a| a == "--list") {
        println!("benches: bench");
        return;
    }
    benches();
}
