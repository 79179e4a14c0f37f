//! Metric names, units, the per-layer arithmetic and the result line.
//!
//! Per-layer times are self times (see `spans`). Set-up layers are given
//! per set-up; sweep layers and counters per campaign point of the
//! recorded blocks, so runs of different length compare.

use std::collections::BTreeMap;

use crate::spans::{self, Span};
use crate::Sweep;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("points_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not touch reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("bench.model_load_s", "s/setup"),
    ("cosim.profile_s", "s/setup"),
    ("snapshot.capture_s", "s/setup"),
    ("attack.clean_s", "s/setup"),
    ("setup.self_s", "s/setup"),
    ("point.wall_s", "s/point"),
    ("point.self_s", "s/point"),
    ("supervisor.overhead_s", "s/point"),
    ("attack.plan_s", "s/point"),
    ("snapshot.guided_s", "s/point"),
    ("snapshot.blind_s", "s/point"),
    ("attack.score_s", "s/point"),
    ("attack.score_dense_s", "s/point"),
    ("attack.score_sparse_s", "s/point"),
    ("snapshot.forked_runs", "1/point"),
    ("snapshot.rejoined", "1/point"),
    ("snapshot.full_replays", "1/point"),
    ("snapshot.suffix_cycles", "cycles/point"),
    ("cosim.sim_cycles", "cycles/point"),
    ("cosim.host_ns_per_cycle", "ns/cycle"),
    ("attack.faults_per_image", "1/image"),
    ("attack.score_minflt_per_image", "1/image"),
    ("remote.platform_s", "s/point"),
    ("remote.pump_s", "s/point"),
    ("remote.inference_s", "s/point"),
    ("remote.evaluate_s", "s/point"),
    ("remote.client_s", "s/point"),
    ("remote.warmup_s", "s/run"),
    ("remote.resumes", "1/point"),
    ("remote.link_errors", "1/point"),
    ("remote.fresh", "1/point"),
    ("remote.checkpoint", "1/point"),
    ("remote.blind", "1/point"),
    ("uart.exchanges", "1/point"),
    ("uart.retransmissions", "1/point"),
    ("uart.gave_up", "1/point"),
    ("uart.replayed", "1/point"),
    ("uart.corrupt_frames", "1/point"),
    ("uart.link_ticks", "ticks/point"),
    ("snapshot.memo_hits", "1/point"),
    ("snapshot.memo_misses", "1/point"),
    ("snapshot.memo_hit_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(
    spans: &[Span],
    counts: &BTreeMap<&'static str, f64>,
    setups: usize,
    sweep: &Sweep,
) -> Vec<(&'static str, f64)> {
    let totals = spans::by_name(spans);
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.0);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let points = sweep.traced.0 as f64;
    let per_setup = |name: &str| own(name) / setups as f64;
    let per_point = |name: &str| ratio(own(name), points);
    let point_wall: f64 =
        spans.iter().filter(|s| s.name == "point").map(|s| s.busy_ns as f64 * 1e-9).sum();
    let images = count("attack.images");
    let scored = totals.get("attack.score_dense").map_or(0, |t| t.1)
        + totals.get("attack.score_sparse").map_or(0, |t| t.1);
    let sim_s = own("snapshot.guided") + own("snapshot.blind");
    let hits = count("snapshot.memo_hits");
    let lookups = hits + count("snapshot.memo_misses");
    // Seconds per point with recording on, against recording off.
    let overhead = ratio(
        ratio(sweep.traced.1, sweep.traced.0 as f64),
        ratio(sweep.untraced.1, sweep.untraced.0 as f64),
    );
    let value = |name: &str| -> f64 {
        match name {
            "bench.model_load_s" => per_setup("bench.model_load"),
            "cosim.profile_s" => per_setup("cosim.profile"),
            "snapshot.capture_s" => per_setup("snapshot.capture"),
            "attack.clean_s" => per_setup("attack.clean"),
            "setup.self_s" => per_setup("setup"),
            "point.wall_s" => ratio(point_wall, points),
            "point.self_s" => per_point("point"),
            "supervisor.overhead_s" => per_point("supervisor.block"),
            "attack.plan_s" => per_point("attack.plan"),
            "snapshot.guided_s" => per_point("snapshot.guided"),
            "snapshot.blind_s" => per_point("snapshot.blind"),
            "attack.score_s" => per_point("attack.score_dense") + per_point("attack.score_sparse"),
            "attack.score_dense_s" => per_point("attack.score_dense"),
            "attack.score_sparse_s" => per_point("attack.score_sparse"),
            "cosim.host_ns_per_cycle" => ratio(sim_s * 1e9, count("cosim.sim_cycles")),
            "attack.faults_per_image" => ratio(count("attack.faults_per_image"), scored as f64),
            "attack.score_minflt_per_image" => ratio(count("attack.score_minflt"), images),
            "remote.platform_s" => per_point("remote.platform"),
            "remote.pump_s" => per_point("remote.pump"),
            "remote.inference_s" => per_point("remote.inference"),
            "remote.evaluate_s" => per_point("remote.evaluate"),
            "remote.client_s" => per_point("remote.run"),
            "remote.warmup_s" => sweep.warmup_s,
            "snapshot.memo_hit_ratio" => ratio(hits, lookups),
            "trace.overhead_pct" => {
                if overhead > 0.0 {
                    (overhead - 1.0) * 100.0
                } else {
                    0.0
                }
            }
            counter => ratio(count(counter), points),
        }
    };
    PER_LAYER.iter().map(|&(name, _)| (name, value(name))).collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// The result line.
pub fn report(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn per_layer_reports_every_metric_from_spans() {
        let span = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            count: 1,
            parent,
            point: None,
        };
        // One setup with a 2 s model load; one block of two points.
        let spans = vec![
            span("setup", 0, 3_000_000_000, None),
            span("bench.model_load", 0, 2_000_000_000, Some(0)),
            span("supervisor.block", 3_000_000_000, 7_000_000_000, None),
            span("point", 3_000_000_000, 5_000_000_000, Some(2)),
            span("attack.score_dense", 3_000_000_000, 4_500_000_000, Some(3)),
            span("point", 5_000_000_000, 6_000_000_000, Some(2)),
            span("attack.score_sparse", 5_000_000_000, 5_500_000_000, Some(5)),
        ];
        let counts = BTreeMap::from([("attack.images", 600.0), ("attack.score_minflt", 1200.0)]);
        let sweep = Sweep {
            points: 4,
            point_s: vec![vec![vec![1.6], vec![1.6]]],
            warmup_s: 0.0,
            traced: (2, 4.0),
            untraced: (2, 3.2),
        };
        let m: BTreeMap<&str, f64> = per_layer(&spans, &counts, 1, &sweep).into_iter().collect();
        assert_eq!(m.len(), PER_LAYER.len());
        let close = |name: &str, want: f64| {
            assert!((m[name] - want).abs() < 1e-9, "{name}: {} != {want}", m[name]);
        };
        close("bench.model_load_s", 2.0);
        close("setup.self_s", 1.0);
        close("point.wall_s", 1.5);
        close("point.self_s", 0.5);
        close("supervisor.overhead_s", 0.5);
        close("attack.score_s", 1.0);
        close("attack.score_dense_s", 0.75);
        close("attack.score_minflt_per_image", 2.0);
        close("trace.overhead_pct", 25.0);
        close("remote.pump_s", 0.0);
    }

    #[test]
    fn report_is_one_json_object() {
        let line = report(true, 12, 0, &[("points_per_s", 0.25), ("setup_s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"points_per_s\": \
             {\"value\": 0.25, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
