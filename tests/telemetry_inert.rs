//! Telemetry observes, it never steers: a traced run, and a run under an
//! enabled journal that another thread floods, each have the result
//! fingerprint (routed gates, both layouts, SWAP count) of the same run
//! with telemetry off. The hierarchical mapper runs on the 1024-qubit
//! instance the `router_core` bench times; the flat mapper runs on a
//! smaller one, so a debug build finishes in seconds. The journal is
//! process-global and stays on once enabled, so these checks live in
//! their own test binary, which runs as its own process.

use circuit::{verify_routing, Circuit};
use hier::HierMapper;
use qlosure::{Mapper, QlosureMapper};
use queko::QuekoSpec;
use service::result_fingerprint;
use std::sync::{Mutex, MutexGuard};
use topology::{backends, CouplingGraph};
use trace::journal::{self, Level};

/// Journal bound under churn: small, so the flood keeps the ring
/// evicting for the whole run.
const CHURN_CAPACITY: usize = 256;

/// Serializes the tests: the churn test turns the process-global journal
/// on, and a comparison must see one journal state on both of its runs.
fn exclusive() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

type Case = (Box<dyn Mapper + Send + Sync>, Circuit, CouplingGraph);

/// `mapper` on the QUEKO instance (depth 8, 20% two-qubit density,
/// seed 1) for `backend`.
fn case(backend: &str, mapper: Box<dyn Mapper + Send + Sync>) -> Case {
    let device = backends::by_name(backend).expect("backend resolves");
    let bench = QuekoSpec::new(&device, 8)
        .density_2q(0.2)
        .seed(1)
        .generate();
    (mapper, bench.circuit, device)
}

fn flat_case() -> Case {
    case("grid:12x12", Box::new(QlosureMapper::default()))
}

/// The `router_core` instance, mapped hierarchically.
fn hier_case() -> Case {
    case("grid:32x32", Box::new(HierMapper::default()))
}

/// Maps once under whatever telemetry the caller set up, checks the
/// routing and returns the result fingerprint.
fn fingerprint(mapper: &dyn Mapper, circuit: &Circuit, device: &CouplingGraph) -> u64 {
    let result = mapper.map(circuit, device);
    verify_routing(
        circuit,
        &result.routed,
        &|a, b| device.is_adjacent(a, b),
        &result.initial_layout,
    )
    .unwrap_or_else(|e| panic!("{} produced an invalid routing: {e}", mapper.name()));
    result_fingerprint(&result)
}

/// Maps untraced, then under a live tracer: the fingerprints must agree
/// and the spans must reach down to `deepest`.
fn assert_tracing_is_inert((mapper, circuit, device): Case, deepest: &str) {
    let _gate = exclusive();
    let untraced = fingerprint(mapper.as_ref(), &circuit, &device);
    let tracer = trace::Tracer::new(0x7ace, 65_536);
    let traced = {
        let _ctx = trace::set_ctx(&trace::Ctx::new(tracer.clone(), trace::ROOT_SPAN));
        fingerprint(mapper.as_ref(), &circuit, &device)
    };
    assert_eq!(
        traced,
        untraced,
        "{} mapping diverged under tracing",
        mapper.name()
    );
    let spans = tracer.snapshot();
    assert_eq!(tracer.dropped(), 0, "the sink held every span");
    for name in ["analysis:weights", deepest] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "{}: no `{name}` span among {} recorded",
            mapper.name(),
            spans.len()
        );
    }
}

#[test]
fn tracing_leaves_flat_mapping_unchanged() {
    assert_tracing_is_inert(flat_case(), "routing:qlosure");
}

#[test]
fn tracing_leaves_hier_mapping_unchanged_down_to_fragments() {
    assert_tracing_is_inert(hier_case(), "hier:fragment");
}

#[test]
fn churning_journal_leaves_mappings_unchanged_and_stays_bounded() {
    let _gate = exclusive();
    assert!(!journal::enabled(), "the journal starts disabled");
    let cases = [flat_case(), hier_case()];
    let fingerprints = || -> Vec<u64> {
        cases
            .iter()
            .map(|(mapper, circuit, device)| fingerprint(mapper.as_ref(), circuit, device))
            .collect()
    };
    let disabled = fingerprints();
    assert!(
        journal::events_since(0, Level::Debug).1.is_empty(),
        "a disabled journal records nothing"
    );

    journal::enable_with_capacity(CHURN_CAPACITY);
    // The mappings run on their own thread; this one floods the journal
    // until they finish (or panic).
    let churned = std::thread::scope(|scope| {
        let mapping = scope.spawn(fingerprints);
        for i in 0u64.. {
            if mapping.is_finished() {
                break;
            }
            journal::event(Level::Info, "test", "churn", &[("i", &i.to_string())]);
        }
        mapping.join().expect("mapping thread panicked")
    });
    assert_eq!(churned, disabled, "mappings diverged under the journal");

    let (dropped, retained) = journal::events_since(0, Level::Debug);
    assert_eq!(retained.len(), CHURN_CAPACITY, "the ring is full, not over");
    assert!(dropped > 0, "the churn overflowed the ring");
    // Sequence numbers count every event ever recorded: each one is
    // either still retained or counted as a drop.
    let recorded = retained.last().expect("ring is full").seq;
    assert_eq!(dropped + CHURN_CAPACITY as u64, recorded);
}
