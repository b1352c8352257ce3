//! Benchmarks of the QRANE-style lifting and ω-weight computation: the
//! polyhedral path vs. the concrete graph path (§IV), and the engine
//! `WeightMode::Auto` picks for suite-sized circuits.

use affine::{lift_interactions, DependenceAnalysis, WeightMode};
use circuit::Circuit;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn chain_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n + 1);
    for i in 0..n as u32 {
        c.cx(i, i + 1);
    }
    c
}

fn random_circuit(n_qubits: usize, n_gates: usize) -> Circuit {
    let mut c = Circuit::new(n_qubits);
    let mut s = 42u64;
    for _ in 0..n_gates {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((s >> 33) % n_qubits as u64) as u32;
        let b = ((s >> 13) % n_qubits as u64) as u32;
        if a != b {
            c.cx(a, b);
        }
    }
    c
}

fn bench_lifting(c: &mut Criterion) {
    let chain = chain_circuit(2000);
    c.bench_function("lift_chain_2000", |b| {
        b.iter(|| black_box(lift_interactions(&chain)))
    });
    let qft = qasmbench::qft(32);
    c.bench_function("lift_qft_32", |b| {
        b.iter(|| black_box(lift_interactions(&qft)))
    });
    let rand = random_circuit(54, 4000);
    c.bench_function("lift_random_4000", |b| {
        b.iter(|| black_box(lift_interactions(&rand)))
    });
}

fn bench_weights(c: &mut Criterion) {
    let chain = chain_circuit(500);
    c.bench_function("weights_affine_chain_500", |b| {
        b.iter(|| black_box(DependenceAnalysis::new(&chain, WeightMode::Affine)))
    });
    c.bench_function("weights_graph_chain_500", |b| {
        b.iter(|| black_box(DependenceAnalysis::new(&chain, WeightMode::Graph)))
    });
    let rand = random_circuit(54, 8000);
    c.bench_function("weights_graph_random_8000", |b| {
        b.iter(|| black_box(DependenceAnalysis::new(&rand, WeightMode::Graph)))
    });
    // Suite-sized circuits under the default mode: both sit far below
    // `AFFINE_MIN_INTERACTIONS`, so `Auto` takes the graph path without
    // lifting. On the affine path, W-state's exact closure and QFT's
    // thousands of dependence disjuncts cost 100–200 ms per call.
    let wstate = qasmbench::w_state(60);
    c.bench_function("weights_auto_wstate_60", |b| {
        b.iter(|| black_box(DependenceAnalysis::new(&wstate, WeightMode::Auto)))
    });
    let qft = qasmbench::qft(63);
    c.bench_function("weights_auto_qft_63", |b| {
        b.iter(|| black_box(DependenceAnalysis::new(&qft, WeightMode::Auto)))
    });
}

criterion_group!(benches, bench_lifting, bench_weights);
criterion_main!(benches);
