//! The declared metrics and the result line that reports them.
//!
//! Every workload reports every metric of the list its mode asks for:
//! the end-to-end list in untraced runs, the per-layer list in traced
//! runs. `BENCHMARK.json` at the repository root declares the same two
//! lists; the package tests hold the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Each has a meaning on each
/// substrate; see `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reply_p50_us", "us"),
    ("capacity_qps", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the repository module
/// they measure. A layer the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.pop_s", "s"),
    ("des.peak_queue_depth", "count"),
    ("des.calendar_retunes", "count"),
    ("sim.dispatch_s", "s"),
    ("sim.dispatch.deliver", "count"),
    ("sim.dispatch.node_timer", "count"),
    ("sim.dispatch.sub", "count"),
    ("sim.slice_p99_us", "us"),
    ("sim.invariant_violations", "count"),
    ("sim.sharded_run_s", "s"),
    ("sim.sharded_speedup", "ratio"),
    ("sim.sharded_events", "count"),
    ("radio.plan_broadcast_s", "s"),
    ("radio.tx_planned", "count"),
    ("radio.tx_lost", "count"),
    ("radio.fanout_mean", "count"),
    ("aodv.rreqs_originated", "count"),
    ("aodv.rreq_dup_dropped", "count"),
    ("aodv.flood_dup_dropped", "count"),
    ("aodv.dup_ratio", "ratio"),
    ("core.conns_established", "count"),
    ("core.conns_closed", "count"),
    ("core.run_s.basic", "s"),
    ("core.run_s.regular", "s"),
    ("core.run_s.random", "s"),
    ("core.run_s.hybrid", "s"),
    ("content.queries_issued", "count"),
    ("content.answers_received", "count"),
    ("content.answer_ratio", "ratio"),
    ("obs.tax", "ratio"),
    ("stack.on_frame_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.bytes_per_frame", "B"),
    ("rt.loop_s", "s"),
    ("rt.dgram_rx", "count"),
    ("rt.dgram_tx", "count"),
    ("rt.wakeups_per_dgram", "ratio"),
    ("rt.decode_errors", "count"),
    ("loadgen.reply_p99_us", "us"),
    ("loadgen.lag_p99_us", "us"),
];

/// The metric list a run in the given mode reports.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Values measured by one run, by metric name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` for the declared metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result entries for a run in the given mode, in declaration
    /// order. A missing per-layer metric is a layer this workload does
    /// not run and reads 0; a missing end-to-end metric is an error.
    pub fn entries(&self, trace: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        declared(trace)
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None if trace => Ok((name, 0.0, unit)),
                None => Err(format!("end-to-end metric {name} was not measured")),
            })
            .collect()
    }
}

/// Render a JSON number: every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// The one-line JSON result object the benchmark prints last.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    entries: &[(&'static str, f64, &'static str)],
) -> String {
    let metrics: Vec<String> = entries
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        for &(name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let line = result_line(true, 3, 0, &m.entries(false).unwrap());
        let v = manet_obs::json::Value::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|a| a.as_f64()), Some(3.0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        assert!(Metrics::default().entries(false).is_err());
        assert_eq!(
            Metrics::default().entries(true).unwrap().len(),
            PER_LAYER.len()
        );
    }
}
