//! The metric tables (the names, units and bounds `BENCHMARK.json`
//! declares), the result line the contract asks for, the tab-separated run
//! record `agree` reads, and `agree` itself.

use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; the same names on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("tiles_per_s", "1/s", Higher, 0.20),
    end_to_end("answer_p50_ms", "ms", Lower, 0.20),
    end_to_end("cpu_ms_per_tile", "ms", Lower, 0.20),
    end_to_end("peak_rss_mb", "MB", Lower, 0.10),
];

/// `agree` holds these two to half their bound: a throughput and a memory
/// peak repeat better than a latency, and hide more when they do not.
const HALF_BOUND: [&str; 2] = ["tiles_per_s", "peak_rss_mb"];

/// One line per layer metric of the traced run. For a count "better" is the
/// direction that means less work or less waste.
pub const PER_LAYER: [MetricDef; 51] = [
    layer("geometry.parse_us_per_tile", "us", Lower),
    layer("geometry.parse_mb_per_s", "MB/s", Higher),
    layer("geometry.edge_table_us_per_tile", "us", Lower),
    layer("rtree.join_us_per_tile", "us", Lower),
    layer("rtree.candidate_pairs_per_tile", "count", Lower),
    layer("engine.filter_us_per_tile", "us", Lower),
    layer("pixelbox.cpu_pairs_per_s", "1/s", Higher),
    layer("pixelbox.gpu_pairs_per_s", "1/s", Higher),
    layer("pixelbox.hybrid_pairs_per_s", "1/s", Higher),
    layer("pixelbox.cpu_us_per_tile", "us", Lower),
    layer("parallel.speedup_at_nproc", "x", Higher),
    layer("parallel.map_overhead_us", "us", Lower),
    layer("pipeline.parse_busy_s", "s", Lower),
    layer("pipeline.build_busy_s", "s", Lower),
    layer("pipeline.filter_busy_s", "s", Lower),
    layer("pipeline.aggregate_busy_s", "s", Lower),
    layer("pipeline.peak_in_flight_tiles", "count", Lower),
    layer("pipeline.migrated_to_cpu", "count", Lower),
    layer("pipeline.migrated_to_gpu", "count", Lower),
    layer("gpu_sim.busy_ms_per_1k_pairs", "model_ms", Lower),
    layer("gpu_sim.launches_per_tile", "count", Lower),
    layer("store.encode_us_per_tile", "us", Lower),
    layer("store.checksum_us_per_tile", "us", Lower),
    layer("store.decode_us_per_tile", "us", Lower),
    layer("store.read_tile_us", "us", Lower),
    layer("store.fetch_hit_ns", "ns", Lower),
    layer("store.append_us_per_tile", "us", Lower),
    layer("store.disk_bytes_per_text_byte", "ratio", Lower),
    layer("store.pager_hit_rate", "ratio", Higher),
    layer("store.pager_misses_per_query", "count", Lower),
    layer("store.coalesced_faults", "count", Higher),
    layer("store.prefetch_used_share", "ratio", Higher),
    layer("serve.answer_p50_ms", "ms", Lower),
    layer("serve.overhead_us_per_query", "us", Lower),
    layer("serve.cache_hit_p50_us", "us", Lower),
    layer("serve.backend_batches_per_query", "count", Lower),
    layer("serve.affinity_hit_share", "ratio", Higher),
    layer("serve.peak_in_flight", "count", Lower),
    layer("serve.redispatches", "count", Lower),
    layer("net.codec_us_per_frame", "us", Lower),
    layer("net.bytes_per_tile_frame", "bytes", Lower),
    layer("net.rpc_p50_us", "us", Lower),
    layer("net.overhead_us_per_query", "us", Lower),
    layer("net.first_tile_p50_ms", "ms", Lower),
    layer("client.answer_p90_ms", "ms", Lower),
    layer("client.answer_p99_ms", "ms", Lower),
    layer("client.window_rate_cv", "ratio", Lower),
    layer("client.datagen_s", "s", Lower),
    layer("client.oracle_s", "s", Lower),
    layer("client.contention_share", "ratio", Lower),
    layer("client.traced_tiles_per_s", "1/s", Higher),
];

/// Named values of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(!self.0.iter().any(|(n, _)| *n == name), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// A float as JSON: every digit it has; never `NaN` or `inf` (neither is
/// JSON), which a metric must not be in the first place.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "a metric must be a finite number");
    format!("{value}")
}

/// The contract's last line of standard output: exactly the declared
/// metrics of the run's kind, each with its unit.
pub fn result_line(defs: &[MetricDef], metrics: &Metrics, attempted: u64, failed: u64) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, def) in defs.iter().enumerate() {
        let value = metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("run did not measure declared metric {}", def.name));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(value),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Writes a run's record for `agree`: one `workload<TAB>metric<TAB>value
/// <TAB>unit` line per metric.
pub fn write_record(
    path: &Path,
    workload: &str,
    defs: &[MetricDef],
    metrics: &Metrics,
) -> std::io::Result<()> {
    let mut text = String::new();
    for def in defs {
        if let Some(value) = metrics.get(def.name) {
            let _ = writeln!(text, "{workload}\t{}\t{value}\t{}", def.name, def.unit);
        }
    }
    std::fs::write(path, text)
}

/// Every `(workload, metric)` sample found in the `.tsv` records under
/// `dir`, at any depth.
fn read_set(dir: &Path) -> std::io::Result<BTreeMap<(String, String), Vec<f64>>> {
    let mut samples: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "tsv") {
                for line in std::fs::read_to_string(&path)?.lines() {
                    let mut fields = line.split('\t');
                    if let (Some(workload), Some(metric), Some(Ok(value))) =
                        (fields.next(), fields.next(), fields.next().map(str::parse))
                    {
                        samples
                            .entry((workload.to_string(), metric.to_string()))
                            .or_default()
                            .push(value);
                    }
                }
            }
        }
    }
    Ok(samples)
}

/// Compares two sets of runs of the same commit: per end-to-end metric and
/// workload, the sets' medians, how far apart they are beside the allowed
/// share, and each set's own quartile spread. Returns the printed table and
/// whether every pair agrees.
pub fn agree(dir_a: &Path, dir_b: &Path) -> std::io::Result<(String, bool)> {
    let (a, b) = (read_set(dir_a)?, read_set(dir_b)?);
    let mut table = format!(
        "{:<15} {:<16} {:>12} {:>12} {:>8} {:>7}  {:>8} {:>8}  runs\n",
        "workload", "metric", "median A", "median B", "differ", "allowed", "spread A", "spread B"
    );
    let mut all_agree = true;
    let mut compared = 0;
    for ((workload, metric), values_a) in &a {
        let Some(def) = END_TO_END.iter().find(|d| d.name == metric) else {
            continue;
        };
        let Some(values_b) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (Some(mid_a), Some(mid_b)) = (median(values_a), median(values_b)) else {
            continue;
        };
        let bound = def.bound.expect("end-to-end metrics are bounded");
        let allowed = if HALF_BOUND.contains(&def.name) {
            bound / 2.0
        } else {
            bound
        };
        let differ = ((mid_b - mid_a) / mid_a).abs();
        let ok = differ < allowed;
        all_agree &= ok;
        compared += 1;
        let spread =
            |v: &[f64]| quartile_spread(v).map_or("-".to_string(), |s| format!("{:.2}%", s * 1e2));
        let _ = writeln!(
            table,
            "{workload:<15} {metric:<16} {mid_a:>12.4} {mid_b:>12.4} {:>7.2}% {:>6.1}%  {:>8} {:>8}  {}+{}{}",
            differ * 1e2,
            allowed * 1e2,
            spread(values_a),
            spread(values_b),
            values_a.len(),
            values_b.len(),
            if ok { "" } else { "  DISAGREE" },
        );
    }
    if compared == 0 {
        table.push_str("no metric is present in both sets\n");
        all_agree = false;
    }
    Ok((table, all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::TempDir;
    use crate::inputs::WORKLOADS;

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut m = Metrics::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            m.set(def.name, 1.5 + i as f64);
        }
        m.set("client.datagen_s", 9.0);
        let line = result_line(&END_TO_END, &m, 12, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"tiles_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}"));
        assert!(!line.contains("datagen"));
        assert!(line.ends_with("}}"));
        assert!(result_line(&END_TO_END, &m, 12, 1).contains("\"correct\": false"));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_declares_the_same_names_units_and_bounds() {
        let json = include_str!("../../BENCHMARK.json");
        for def in END_TO_END {
            let better = if def.better == Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                def.name,
                def.unit,
                def.bound.unwrap()
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for def in PER_LAYER {
            let better = if def.better == Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                def.name, def.unit
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "missing {entry}");
            assert!(w.why.len() <= 200);
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }

    fn record(dir: &Path, run: &str, workload: &str, tiles_per_s: f64, p50: f64) {
        let mut m = Metrics::default();
        m.set("tiles_per_s", tiles_per_s);
        m.set("answer_p50_ms", p50);
        let dir = dir.join(run);
        std::fs::create_dir_all(&dir).unwrap();
        write_record(
            &dir.join(format!("{workload}.tsv")),
            workload,
            &END_TO_END,
            &m,
        )
        .unwrap();
    }

    #[test]
    fn agree_compares_medians_against_the_bounds() {
        let tmp = TempDir::create("unit-agree").unwrap();
        let (a, b, c) = (
            tmp.path().join("a"),
            tmp.path().join("b"),
            tmp.path().join("c"),
        );
        for (run, rate) in [("r1", 100.0), ("r2", 102.0), ("r3", 150.0)] {
            record(&a, run, "serve_small", rate, 1.0);
        }
        // Medians 102 vs 104: 2 % apart, inside half of 20 %.
        for (run, rate) in [("r1", 104.0), ("r2", 90.0), ("r3", 110.0)] {
            record(&b, run, "serve_small", rate, 1.05);
        }
        let (table, ok) = agree(&a, &b).unwrap();
        assert!(ok, "{table}");
        assert!(table.contains("serve_small") && table.contains("tiles_per_s"));
        // Medians 102 vs 114: 11.8 % apart, outside half of 20 % for a
        // throughput; the latency (9 % apart, full bound) still agrees.
        for (run, rate) in [("r1", 114.0), ("r2", 115.0), ("r3", 113.0)] {
            record(&c, run, "serve_small", rate, 1.09);
        }
        let (table, ok) = agree(&a, &c).unwrap();
        assert!(!ok);
        assert_eq!(table.matches("DISAGREE").count(), 1, "{table}");
        // Nothing in common is not agreement.
        let empty = tmp.path().join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(!agree(&a, &empty).unwrap().1);
    }
}
