//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same lists (a test keeps them equal).

use crate::report::Report;

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ns_per_task_instance", "ns"),
    ("sustained_rate_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Printed by every traced run (`--trace 1`). A layer the workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("workload.generate_ms", "ms"),
    ("workload.systems", "count"),
    ("analysis.sa_pm.calls", "count"),
    ("analysis.sa_pm.self_ms", "ms"),
    ("analysis.sa_pm.fixed_point_iters", "count"),
    ("analysis.sa_pm.allocs", "allocs/call"),
    ("analysis.sa_ds.calls", "count"),
    ("analysis.sa_ds.self_ms", "ms"),
    ("analysis.sa_ds.sweeps", "count"),
    ("analysis.sa_ds.failures", "count"),
    ("analysis.sa_ds.allocs", "allocs/call"),
    ("analysis.admission.admit_us_p50", "us"),
    ("analysis.admission.admit_us_p99", "us"),
    ("analysis.admission.retire_us_p50", "us"),
    ("analysis.admission.retire_us_p99", "us"),
    ("analysis.admission.gate_rejects", "count"),
    ("analysis.admission.reanalyzed", "count"),
    ("analysis.admission.skipped", "count"),
    ("analysis.admission.memo_hit_ratio", "ratio"),
    ("analysis.admission.allocs", "allocs/call"),
    ("sim.engine.calls", "count"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.events", "count"),
    ("sim.engine.task_instances", "count"),
    ("sim.engine.ns_per_event", "ns"),
    ("sim.engine.setup_us", "us"),
    ("sim.engine.allocs", "allocs/call"),
    ("sim.engine.alloc_bytes", "B/call"),
    ("sim.channel.sent", "count"),
    ("sim.channel.applied", "count"),
    ("sim.channel.dropped", "count"),
    ("sim.transport.sent", "count"),
    ("sim.transport.retransmissions", "count"),
    ("sim.transport.acks", "count"),
    ("sim.transport.delivery_ratio", "ratio"),
    ("sim.detect.heartbeats_sent", "count"),
    ("sim.detect.false_suspects", "count"),
    ("sim.sync.rounds", "count"),
    ("sim.sync.frames", "count"),
    ("sim.sync.estimates", "count"),
    ("sim.faults.crashes", "count"),
    ("sim.faults.killed_jobs", "count"),
    ("sim.faults.severed_signals", "count"),
    ("sim.observe.violations", "count"),
    ("sim.profile.queue_share", "ratio"),
    ("sim.profile.dispatch_share", "ratio"),
    ("sim.profile.delivery_share", "ratio"),
    ("sim.profile.transport_share", "ratio"),
    ("sim.profile.detect_share", "ratio"),
    ("sim.profile.sync_share", "ratio"),
    ("sim.profile.faults_share", "ratio"),
    ("sim.profile.flush_share", "ratio"),
    ("sim.profile.observer_share", "ratio"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

/// Values for one catalogue, all starting at 0.
pub struct Values {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Values {
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Values {
        Values {
            catalogue,
            values: vec![0.0; catalogue.len()],
        }
    }

    /// Sets a metric; an unknown name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .catalogue
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values[i] = value;
    }

    /// Moves every value, in catalogue order, into the report.
    pub fn emit(self, report: &mut Report) {
        for ((name, unit), value) in self.catalogue.iter().zip(self.values) {
            report.metric(name, value, unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units `BENCHMARK.json` declares, in order, for one
    /// of its metric lists (a minimal scan; the file is flat).
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }
}
