//! Integration suite for the hierarchical partitioned mapper.
//!
//! Mirrors the differential suite's guarantees for `HierMapper`: routed
//! outputs verify and preserve the gate multiset on the differential
//! device roster, results are identical whether the engine runs the
//! roster on one thread or four, and the fragment memo is semantically
//! invisible — a warm (memoized) run is bit-for-bit the cold run.

use circuit::{verify_routing, Circuit, GateKind};
use engine::{BatchEngine, MapJob};
use hier::HierMapper;
use qlosure::{Mapper, QlosureMapper};
use std::sync::Arc;
use topology::{backends, CouplingGraph};

/// The seeded instance grid of the differential suite: 2 depths × 2
/// seeds of QUEKO traffic generated for a 16-qubit Aspen-style device.
fn queko_grid() -> Vec<(String, Circuit)> {
    let gen_device = backends::aspen16();
    let mut out = Vec::new();
    for depth in [30, 60] {
        for seed in 0..2u64 {
            let bench = queko::QuekoSpec::new(&gen_device, depth)
                .seed(seed)
                .generate();
            out.push((format!("queko16-d{depth}-s{seed}"), bench.circuit));
        }
    }
    out
}

/// The differential target topologies plus a parametric square grid (the
/// hierarchy's structured fast path).
fn devices() -> Vec<CouplingGraph> {
    vec![
        backends::sherbrooke(),
        backends::ankaa3(),
        backends::king_grid(5, 5),
        backends::by_name("grid:6x6").expect("parametric grid resolves"),
    ]
}

/// Gate multiset modulo SWAPs and qubit relabeling (the differential
/// suite's preservation fingerprint).
fn gate_multiset(c: &Circuit) -> Vec<(String, Vec<u64>, usize)> {
    let mut out: Vec<(String, Vec<u64>, usize)> = c
        .gates()
        .iter()
        .filter(|g| g.kind != GateKind::Swap)
        .map(|g| {
            (
                g.kind.name().to_string(),
                g.params.iter().map(|p| p.to_bits()).collect(),
                g.qubits.len(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn hier_verifies_and_preserves_gates_on_the_differential_roster() {
    let mapper = HierMapper::default();
    for device in devices() {
        for (label, circuit) in queko_grid() {
            let original = gate_multiset(&circuit);
            let r = mapper.map(&circuit, &device);
            verify_routing(
                &circuit,
                &r.routed,
                &|a, b| device.is_adjacent(a, b),
                &r.initial_layout,
            )
            .unwrap_or_else(|e| {
                panic!("hier failed verification on {label}/{}: {e}", device.name())
            });
            assert_eq!(
                gate_multiset(&r.routed),
                original,
                "hier altered the gate multiset on {label}/{}",
                device.name()
            );
            let swap_count = r
                .routed
                .gates()
                .iter()
                .filter(|g| g.kind == GateKind::Swap)
                .count();
            assert_eq!(
                swap_count,
                r.swaps,
                "hier misreported its swap count on {label}/{}",
                device.name()
            );
        }
    }
}

#[test]
fn hier_vs_flat_agree_on_the_circuit_they_route() {
    // Flat and hier disagree on SWAP placement, never on the logical
    // computation: same multiset, both verified, on the same instance.
    let device = backends::ankaa3();
    let flat = QlosureMapper::default();
    let hier = HierMapper::default();
    for (label, circuit) in queko_grid() {
        let rf = flat.map(&circuit, &device);
        let rh = hier.map(&circuit, &device);
        assert_eq!(
            gate_multiset(&rf.routed),
            gate_multiset(&rh.routed),
            "{label}: flat and hier must route the same computation"
        );
        for r in [&rf, &rh] {
            verify_routing(
                &circuit,
                &r.routed,
                &|a, b| device.is_adjacent(a, b),
                &r.initial_layout,
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// The hier engine roster: every grid instance on two devices.
fn roster() -> Vec<MapJob> {
    let mut jobs = Vec::new();
    for device in [
        Arc::new(backends::ankaa3()),
        Arc::new(backends::by_name("grid:6x6").expect("grid resolves")),
    ] {
        for (label, circuit) in queko_grid() {
            jobs.push(MapJob {
                label: format!("{label}-hier-{}", device.name()),
                circuit: Arc::new(circuit),
                device: device.clone(),
                mapper: Arc::new(HierMapper::default()),
            });
        }
    }
    jobs
}

#[test]
fn hier_engine_results_are_identical_at_one_and_four_threads() {
    // The fragment memo is shared across worker threads; results must
    // not depend on which thread computed (or reused) a plan.
    let one = BatchEngine::with_threads(1).run_jobs(roster());
    let four = BatchEngine::with_threads(4).run_jobs(roster());
    assert_eq!(one.jobs.len(), four.jobs.len());
    for (a, b) in one.jobs.iter().zip(&four.jobs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.label, b.label);
        assert_eq!(
            a.result, b.result,
            "hier job {} diverged across thread counts",
            a.label
        );
    }
}

#[test]
fn hier_warm_memo_run_is_bit_for_bit_the_cold_run() {
    // Unique instance (distinct seed) so this test owns its fragments.
    let gen_device = backends::aspen16();
    let bench = queko::QuekoSpec::new(&gen_device, 45).seed(77).generate();
    let device = backends::by_name("grid:6x6").expect("grid resolves");
    let mapper = HierMapper::default();
    let (hits_before, _) = hier::subroute_memo_stats();
    let cold = mapper.map(&bench.circuit, &device);
    let warm = mapper.map(&bench.circuit, &device);
    assert_eq!(cold, warm, "memoized rerun must be bit-for-bit identical");
    let (hits_after, _) = hier::subroute_memo_stats();
    assert!(
        hits_after > hits_before,
        "the second run must replay at least one memoized fragment"
    );
    verify_routing(
        &bench.circuit,
        &cold.routed,
        &|a, b| device.is_adjacent(a, b),
        &cold.initial_layout,
    )
    .expect("hier routing verifies");
}

#[test]
fn hier_pipeline_reports_per_pass_timings() {
    let device = backends::by_name("grid:6x6").expect("grid resolves");
    let gen_device = backends::aspen16();
    let bench = queko::QuekoSpec::new(&gen_device, 30).seed(3).generate();
    let timed = qlosure::run_mapper_timed(&HierMapper::default(), &bench.circuit, &device);
    assert_eq!(
        timed.pipeline,
        "weights → regions → hier-layout → hier-route"
    );
    let labels: Vec<&str> = timed.passes.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "analysis:weights",
            "analysis:regions",
            "layout:hier-layout",
            "routing:hier-route",
        ]
    );
}

/// A hier instance whose layout cannot keep every interacting pair in
/// one region: QUEKO traffic for the 54-qubit Sycamore, routed on a
/// 16×16 grid whose auto-sized regions hold 16 qubits each.
fn stitched_instance() -> (String, Arc<Circuit>, Arc<CouplingGraph>) {
    let gen_device = backends::sycamore54();
    let bench = queko::QuekoSpec::new(&gen_device, 30).seed(5).generate();
    let device = backends::by_name("grid:16x16").expect("grid resolves");
    (
        format!("queko54-d30-s5-hier-{}", device.name()),
        Arc::new(bench.circuit),
        Arc::new(device),
    )
}

/// SWAPs, routed depth and `service::result_fingerprint` of every
/// `roster()` job and of `stitched_instance()` under the default
/// `HierMapper`, in that order.
const FROZEN_HIER_ROUTES: [(usize, usize, u64); 9] = [
    (87, 99, 0x4d8b6783d939ea75),   // queko16-d30-s0 on ankaa3
    (86, 104, 0xdb23f04cecf201b9),  // queko16-d30-s1 on ankaa3
    (129, 161, 0x07c46d76b6b5ed49), // queko16-d60-s0 on ankaa3
    (257, 227, 0xa1b2de6ef6dd74cf), // queko16-d60-s1 on ankaa3
    (61, 78, 0x98c545c201df8e8d),   // queko16-d30-s0 on grid:6x6
    (72, 74, 0xed5bd9d56c2a3e2d),   // queko16-d30-s1 on grid:6x6
    (149, 172, 0x6a43c46ee861ccbb), // queko16-d60-s0 on grid:6x6
    (135, 147, 0xc0613ed257457ba0), // queko16-d60-s1 on grid:6x6
    (738, 247, 0xedaf55212b415683), // queko54-d30-s5 on grid:16x16
];

#[test]
fn hier_routes_match_their_frozen_fingerprints() {
    // The other tests here compare hier runs with each other; this one
    // pins what hier routes, so a change that moves every route alike
    // still shows.
    let mut cases: Vec<(String, Arc<Circuit>, Arc<CouplingGraph>)> = roster()
        .into_iter()
        .map(|job| (job.label, job.circuit, job.device))
        .collect();
    cases.push(stitched_instance());
    assert_eq!(cases.len(), FROZEN_HIER_ROUTES.len());
    let mapper = HierMapper::default();
    for ((label, circuit, device), frozen) in cases.iter().zip(FROZEN_HIER_ROUTES) {
        let r = mapper.map(circuit, device);
        let route = (r.swaps, r.routed.depth(), service::result_fingerprint(&r));
        assert_eq!(route, frozen, "{label}: hier route moved");
    }

    // The last case stitches across regions: its SWAPs outnumber the
    // ones its fragment plans replay.
    let (_, circuit, device) = stitched_instance();
    let tracer = trace::Tracer::new(0x5717_c4ed, 1 << 16);
    let r = {
        let _ctx = trace::set_ctx(&trace::Ctx::new(tracer.clone(), trace::ROOT_SPAN));
        mapper.map(&circuit, &device)
    };
    let plan_swaps: usize = tracer
        .snapshot()
        .iter()
        .filter(|s| s.name == "hier:fragment")
        .flat_map(|s| &s.notes)
        .filter(|(key, _)| key == "swaps")
        .map(|(_, n)| n.parse::<usize>().expect("a SWAP count"))
        .sum();
    assert_eq!(tracer.dropped(), 0, "the sink held every span");
    assert!(
        plan_swaps < r.swaps,
        "no stitch: {plan_swaps} plan SWAPs of {}",
        r.swaps
    );
}
