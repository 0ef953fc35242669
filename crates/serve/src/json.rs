//! Minimal JSON rendering of service telemetry.
//!
//! These hand-rolled writers are the workspace's one JSON writer: they
//! render [`QueryResponse`], [`ServiceStats`], [`EngineHealth`] and
//! [`sccg::pixelbox::SplitTrace`] (`examples/serving.rs` prints them). The
//! output is plain standard JSON: object keys match the Rust field names,
//! and non-finite floats render as `null`.

use crate::service::{QueryResponse, ServiceStats, TileReport};
use crate::supervisor::EngineHealth;
use sccg::pixelbox::SplitTrace;
use sccg::JaccardSummary;
use std::fmt::Write as _;

/// Renders a float as a JSON number, mapping non-finite values to `null`.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn summary_json(summary: &JaccardSummary) -> String {
    format!(
        "{{\"similarity\":{},\"intersecting_pairs\":{},\"candidate_pairs\":{},\
         \"total_intersection_area\":{},\"total_union_area\":{}}}",
        json_f64(summary.similarity),
        summary.intersecting_pairs,
        summary.candidate_pairs,
        summary.total_intersection_area,
        summary.total_union_area,
    )
}

fn tile_json(tile: &TileReport) -> String {
    format!(
        "{{\"tile\":{},\"engine\":{},\"backend\":{},\"candidate_pairs\":{},\"summary\":{}}}",
        tile.tile,
        tile.engine,
        json_string(&tile.backend),
        tile.candidate_pairs,
        summary_json(&tile.summary),
    )
}

fn engine_json(health: &EngineHealth) -> String {
    format!(
        "{{\"engine\":{},\"device\":{},\"alive\":{},\"consecutive_failures\":{},\
         \"total_failures\":{},\"redispatched_shards\":{},\"revivals\":{}}}",
        health.engine,
        json_string(&health.device),
        health.alive,
        health.consecutive_failures,
        health.total_failures,
        health.redispatched_shards,
        health.revivals,
    )
}

/// Renders a hybrid [`SplitTrace`] as a JSON array of per-batch samples.
pub fn split_trace_to_json(trace: &SplitTrace) -> String {
    let samples: Vec<String> = trace
        .samples()
        .iter()
        .map(|s| {
            format!(
                "{{\"batch\":{},\"fraction\":{},\"gpu_pairs\":{},\"cpu_pairs\":{},\
                 \"gpu_seconds\":{},\"cpu_seconds\":{},\"next_fraction\":{}}}",
                s.batch,
                json_f64(s.fraction),
                s.gpu_pairs,
                s.cpu_pairs,
                json_f64(s.gpu_seconds),
                json_f64(s.cpu_seconds),
                json_f64(s.next_fraction),
            )
        })
        .collect();
    format!("[{}]", samples.join(","))
}

impl QueryResponse {
    /// Renders this response as a JSON object.
    pub fn to_json(&self) -> String {
        let tiles: Vec<String> = self.tiles.iter().map(tile_json).collect();
        let device = match self.device {
            Some(device) => json_string(&format!("{device:?}")),
            None => "null".to_string(),
        };
        format!(
            "{{\"first\":{},\"second\":{},\"similarity\":{},\"summary\":{},\"shards\":{},\
             \"cache_hit\":{},\"priority\":{},\"device\":{},\"tiles\":[{}]}}",
            self.first.value(),
            self.second.value(),
            json_f64(self.similarity()),
            summary_json(&self.summary),
            self.shards,
            self.cache_hit,
            json_string(&format!("{:?}", self.priority)),
            device,
            tiles.join(","),
        )
    }
}

impl ServiceStats {
    /// Renders this snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self
            .shards_per_engine
            .iter()
            .map(|n| n.to_string())
            .collect();
        let engines: Vec<String> = self.engines.iter().map(engine_json).collect();
        format!(
            "{{\"submitted\":{},\"completed\":{},\"cache_hits\":{},\"backend_batches\":{},\
             \"in_flight\":{},\"peak_in_flight\":{},\"cache_entries\":{},\"shards_per_engine\":[{}],\
             \"redispatches\":{},\"engines\":[{}],\
             \"resident_tiles\":{},\"pager_hit_rate\":{},\"bytes_on_disk\":{},\
             \"coalesced_faults\":{}}}",
            self.submitted,
            self.completed,
            self.cache_hits,
            self.backend_batches,
            self.in_flight,
            self.peak_in_flight,
            self.cache_entries,
            shards.join(","),
            self.redispatches,
            engines.join(","),
            self.resident_tiles,
            json_f64(self.pager_hit_rate),
            self.bytes_on_disk,
            self.coalesced_faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_control_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\u{1}"), "\"line\\nbreak\\u0001\"");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn empty_trace_renders_an_empty_array() {
        assert_eq!(split_trace_to_json(&SplitTrace::default()), "[]");
    }

    #[test]
    fn engine_health_renders_every_field() {
        let health = EngineHealth {
            engine: 2,
            device: "Gpu".to_string(),
            alive: false,
            consecutive_failures: 3,
            total_failures: 7,
            redispatched_shards: 4,
            revivals: 1,
        };
        assert_eq!(
            engine_json(&health),
            "{\"engine\":2,\"device\":\"Gpu\",\"alive\":false,\"consecutive_failures\":3,\
             \"total_failures\":7,\"redispatched_shards\":4,\"revivals\":1}"
        );
    }
}
