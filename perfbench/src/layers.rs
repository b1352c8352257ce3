//! The per-layer metric table and the span arithmetic behind it.
//!
//! A layer's time is the **self time** of the spans attributed to it: a
//! span's duration minus the part of it its children cover. Over a
//! compile job's tree (one thread, properly nested spans) the self times
//! partition the root exactly, so the layer times of a traced run add up
//! to its traced wall time.

use crate::report::Metric;
use service::SpanNode;
use std::collections::BTreeMap;

/// Every per-layer metric, with its unit, in report order. A workload
/// that does not exercise a layer reports 0 for it.
pub const METRICS: [(&str, &str); 38] = [
    ("qasm.parse_s", "s"),
    ("qasm.parse_mb_per_s", "MB/s"),
    ("circuit.convert_s", "s"),
    ("circuit.verify_s", "s"),
    ("affine.weights_s", "s"),
    ("affine.affine_path_ratio", "ratio"),
    ("presburger.closure_hit_ratio", "ratio"),
    ("presburger.closure_lookups", "count"),
    ("core.route_s", "s"),
    ("core.route_us_per_swap", "us"),
    ("core.layout_s", "s"),
    ("core.pipeline_other_s", "s"),
    ("topology.distance_hit_ratio", "ratio"),
    ("topology.distance_misses", "count"),
    ("hier.regions_s", "s"),
    ("hier.layout_s", "s"),
    ("hier.route_s", "s"),
    ("hier.fragments", "count"),
    ("hier.plan_hit_ratio", "ratio"),
    ("hier.canonical_share", "ratio"),
    ("engine.pickup_ms_p50", "ms"),
    ("engine.pickup_ms_p90", "ms"),
    ("net.connect_ms_p50", "ms"),
    ("client.submit_ms_p50", "ms"),
    ("client.submit_ms_p90", "ms"),
    ("client.wait_ms_p50", "ms"),
    ("client.wait_ms_p90", "ms"),
    ("client.overhead_ms_p50", "ms"),
    ("client.overhead_ms_p90", "ms"),
    ("intake.queue_ms_p50", "ms"),
    ("intake.queue_ms_p90", "ms"),
    ("intake.compile_ms_p50", "ms"),
    ("intake.compile_ms_p90", "ms"),
    ("router.hop_ms_p50", "ms"),
    ("router.busiest_shard_share", "ratio"),
    ("proto.encode_submit_us", "us"),
    ("proto.parse_done_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Names of the spans the benchmark opens around its own calls into each
/// layer's public functions.
pub const PARSE: &str = "qasm:parse";
pub const CONVERT: &str = "circuit:convert";
pub const PIPELINE: &str = "core:pipeline-run";
pub const VERIFY: &str = "circuit:verify";

/// The per-layer metric a span's self time counts towards; `None` for
/// glue (the job root, daemon bookkeeping).
pub fn time_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        PARSE => "qasm.parse_s",
        CONVERT => "circuit.convert_s",
        VERIFY => "circuit.verify_s",
        // What `MappingPipeline::run` spends outside its passes: the
        // device checks and the shared distance-matrix lookup.
        PIPELINE => "core.pipeline_other_s",
        "analysis:weights" => "affine.weights_s",
        "analysis:regions" => "hier.regions_s",
        "layout:hier-layout" => "hier.layout_s",
        "routing:hier-route" | "hier:fragment" => "hier.route_s",
        s if s.starts_with("layout:") => "core.layout_s",
        s if s.starts_with("routing:") => "core.route_s",
        _ => return None,
    })
}

/// Self-time totals over any number of span trees.
#[derive(Default)]
pub struct SelfTimes {
    /// Seconds of self time per per-layer metric.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Spans seen, by name.
    pub counts: BTreeMap<String, usize>,
}

/// Nanoseconds of `[start, end)` covered by the union of `spans`.
fn covered(start: u64, end: u64, spans: &[SpanNode]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    cuts.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in cuts {
        if b > reach {
            total += b - a.max(reach);
            reach = b;
        }
    }
    total
}

impl SelfTimes {
    /// Adds one tree and returns its self-time sum in nanoseconds. A
    /// span's self time is its duration minus the part of it that its
    /// children cover, so for properly nested spans (one thread) the sum
    /// equals the root's duration.
    pub fn add(&mut self, root: &SpanNode) -> u64 {
        let dur = root.end_ns.saturating_sub(root.start_ns);
        let own = dur - covered(root.start_ns, root.end_ns, &root.children);
        if let Some(metric) = time_metric(&root.name) {
            *self.seconds.entry(metric).or_default() += own as f64 * 1e-9;
        }
        *self.counts.entry(root.name.clone()).or_default() += 1;
        own + root.children.iter().map(|c| self.add(c)).sum::<u64>()
    }

    pub fn count(&self, name: &str) -> usize {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The self-time totals of `metrics` alone.
    pub fn only(&self, metrics: &[&str]) -> SelfTimes {
        SelfTimes {
            seconds: self
                .seconds
                .iter()
                .filter(|(name, _)| metrics.contains(name))
                .map(|(&name, &s)| (name, s))
                .collect(),
            ..SelfTimes::default()
        }
    }
}

/// Per-layer values of one run, every metric of [`METRICS`] present.
pub struct LayerTable(BTreeMap<&'static str, f64>);

impl LayerTable {
    pub fn new() -> LayerTable {
        LayerTable(METRICS.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets `name`, which must be one of [`METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = value;
    }

    /// Copies every self-time total into its metric.
    pub fn set_times(&mut self, times: &SelfTimes) {
        for (&name, &seconds) in &times.seconds {
            self.set(name, seconds);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Every metric with its unit, in report order.
    pub fn metrics(&self) -> Vec<Metric> {
        METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0[name],
                unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, start_ns: u64, end_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            start_ns,
            end_ns,
            notes: Vec::new(),
            children,
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let tree = node(
            "job",
            0,
            100,
            vec![
                node(PARSE, 0, 10, vec![]),
                node(
                    PIPELINE,
                    12,
                    90,
                    vec![
                        node("analysis:weights", 13, 30, vec![]),
                        node("routing:qlosure", 30, 85, vec![]),
                    ],
                ),
                node(VERIFY, 90, 99, vec![]),
            ],
        );
        let mut times = SelfTimes::default();
        assert_eq!(times.add(&tree), 100);
        let ns = |m: &str| (times.seconds[m] * 1e9).round() as u64;
        assert_eq!(ns("qasm.parse_s"), 10);
        assert_eq!(ns("core.pipeline_other_s"), 78 - 17 - 55);
        assert_eq!(ns("affine.weights_s"), 17);
        assert_eq!(ns("core.route_s"), 55);
        assert_eq!(ns("circuit.verify_s"), 9);
        assert_eq!(times.count("routing:qlosure"), 1);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // The daemon's queue-wait and engine-pickup spans overlap.
        let tree = node(
            "job",
            0,
            50,
            vec![
                node("intake:queue-wait", 0, 20, vec![]),
                node("engine:pickup", 10, 25, vec![]),
                node("routing:qlosure", 30, 60, vec![]),
            ],
        );
        let mut times = SelfTimes::default();
        // Root self: 50 − |[0,25) ∪ [30,50)| = 5; children add 20+15+30.
        assert_eq!(times.add(&tree), 5 + 20 + 15 + 30);
        assert_eq!(times.count("engine:pickup"), 1);
    }

    #[test]
    fn hier_spans_go_to_the_hier_layer() {
        assert_eq!(time_metric("routing:hier-route"), Some("hier.route_s"));
        assert_eq!(time_metric("hier:fragment"), Some("hier.route_s"));
        assert_eq!(time_metric("layout:hier-layout"), Some("hier.layout_s"));
        assert_eq!(time_metric("layout:identity"), Some("core.layout_s"));
        assert_eq!(time_metric("routing:sabre"), Some("core.route_s"));
        assert_eq!(time_metric("job"), None);
    }

    #[test]
    fn table_lists_every_metric_once() {
        let rows = LayerTable::new().metrics();
        let mut names: Vec<&str> = rows.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
    }
}
