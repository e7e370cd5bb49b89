//! The per-layer metric table: every traced run reports every metric in
//! [`PER_LAYER`], 0 where the workload does not exercise the layer.

use std::collections::HashMap;

use crate::report::Report;
use crate::trace::Tracer;

/// The layers on the timed path that get a self time, in the order an item
/// crosses them, after the counting and frontier layers only `paper_eval`
/// uses. `core.cache` has no self time of its own: its lookups sit inside
/// the engine's hit path and its inserts inside the factory search.
/// `cli.merge` runs outside every timed window.
pub const LAYERS: [&str; 10] = [
    "arith.counts",
    "core.frontier",
    "json.parse",
    "cli.parse",
    "core.engine",
    "core.tfactory",
    "core.result",
    "json.print",
    "cli.serve",
    "net",
];

/// Every per-layer metric with its unit, besides the `<layer>.self_ms`
/// entries generated from [`LAYERS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("arith.counts.calls", "count"),
    ("arith.counts.busy_ms", "ms"),
    ("arith.counts.ops", "count"),
    ("arith.counts.ns_per_op", "ns"),
    ("core.frontier.busy_ms", "ms"),
    ("core.frontier.points", "count"),
    ("core.frontier.lookups", "count"),
    ("core.tfactory.searches", "count"),
    ("core.tfactory.seeded_ratio", "ratio"),
    ("core.tfactory.nodes_expanded", "count"),
    ("core.tfactory.nodes_pruned", "count"),
    ("core.tfactory.memo_hits", "count"),
    ("core.tfactory.factories_realised", "count"),
    ("core.tfactory.search_ms", "ms"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.entries", "count"),
    ("core.cache.evictions", "count"),
    ("core.engine.hit_us_per_item", "us"),
    ("core.engine.miss_us_per_item", "us"),
    ("core.result.to_json_us", "us"),
    ("json.print.us_per_record", "us"),
    ("json.print.bytes_per_record", "B"),
    ("json.parse.us_per_job_line", "us"),
    ("cli.parse.us_per_job", "us"),
    ("cli.serve.records", "count"),
    ("cli.serve.bytes", "B"),
    ("cli.serve.residual_us_per_item", "us"),
    ("net.residual_ms_per_job", "ms"),
    ("net.bytes_in", "B"),
    ("net.bytes_out", "B"),
    ("cli.merge.items", "count"),
    ("cli.merge.ms", "ms"),
    ("cli.merge.peak_resident_bytes", "B"),
    ("ledger.e2e_ms", "ms"),
    ("ledger.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name and unit, in reporting order.
pub fn all_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    all.extend(
        LAYERS
            .iter()
            .map(|layer| (format!("{layer}.self_ms"), "ms")),
    );
    all
}

/// Per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    values: HashMap<String, f64>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            all_metrics().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    /// Set a layer's self time per ledger unit (a pass, or a job on
    /// `served_requery`).
    pub fn self_ms(&mut self, layer: &str, ms: f64) {
        self.set(&format!("{layer}.self_ms"), ms);
    }

    /// Close the ledger: the untraced time of one ledger unit, the part no
    /// layer accounts for, and the tracing overhead (traced minus untraced
    /// time of the same unit).
    pub fn close(&mut self, untraced_ms: f64, traced_ms: f64, tracer: &Tracer) {
        let accounted: f64 = LAYERS
            .iter()
            .map(|l| {
                self.values
                    .get(&format!("{l}.self_ms"))
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        self.set("ledger.e2e_ms", untraced_ms);
        self.set("ledger.unattributed_ms", untraced_ms - accounted);
        self.set("trace.overhead_ms", traced_ms - untraced_ms);
        self.set(
            "trace.overhead_ratio",
            (traced_ms - untraced_ms) / untraced_ms.max(f64::MIN_POSITIVE),
        );
        self.set("trace.spans", tracer.span_count() as f64);
    }

    pub fn report(&self, report: &mut Report) {
        for (name, unit) in all_metrics() {
            let value = self.values.get(&name).copied().unwrap_or(0.0);
            report.metric(&name, if value.is_finite() { value } else { 0.0 }, unit);
        }
    }
}

/// Summed self time of the spans named `name`, in milliseconds.
pub fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .self_ns()
        .get(name)
        .map_or(0.0, |&ns| ns as f64 / 1e6)
}

/// Hit ratio of a cache with `hits` and `misses` (0 with no lookups).
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
