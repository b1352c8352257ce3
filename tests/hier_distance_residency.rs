//! The hierarchical mapper leaves device distance matrices resident in
//! the shared distance cache.
//!
//! Fragment plans are memoized by canonical key, so their region
//! distances are computed inline; only device-level graphs (the device
//! and its region quotient graph) enter `CouplingGraph::shared_distances`.
//! A job that computes more fragment plans than the cache holds must
//! therefore still find the device's matrix where it left it.
//!
//! This is a test binary of its own with a single test: the shared cache
//! is process-wide, and a concurrently running test mapping other graphs
//! could evict the entry and make the assertion flaky.

use circuit::verify_routing;
use hier::HierMapper;
use qlosure::Mapper;
use std::sync::Arc;
use topology::backends;

/// Entries of the shared distance cache (`topology`'s private
/// `cache::CAPACITY`).
const DISTANCE_CACHE_CAPACITY: u64 = 32;

#[test]
fn fragment_plans_leave_the_device_matrix_resident() {
    let device = backends::by_name("grid:16x16").expect("parametric grid resolves");
    let before = device.shared_distances();
    let bench = queko::QuekoSpec::new(&device, 16)
        .density_2q(0.3)
        .seed(1)
        .generate();
    let (_, misses0) = hier::subroute_memo_stats();
    let result = HierMapper::default().map(&bench.circuit, &device);
    let (_, misses1) = hier::subroute_memo_stats();
    verify_routing(
        &bench.circuit,
        &result.routed,
        &|a, b| device.is_adjacent(a, b),
        &result.initial_layout,
    )
    .expect("hier routing must verify");
    let plans = misses1 - misses0;
    assert!(
        plans > DISTANCE_CACHE_CAPACITY,
        "the job must compute more fragment plans ({plans}) than the distance \
         cache holds ({DISTANCE_CACHE_CAPACITY}), or residency is not exercised"
    );
    assert!(
        Arc::ptr_eq(&before, &device.shared_distances()),
        "device matrix evicted from the shared distance cache after {plans} fragment plans"
    );
}
