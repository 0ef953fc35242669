//! The untraced run of one workload: set the program up (timed, several
//! times), drive it for the measured phase, and reduce what the clients saw
//! to the five end-to-end metrics.

use crate::drive::{run_clients, sleep_until, start_stack, Limit, OpRecord, Stack};
use crate::host::{peak_rss_mb, process_cpu_seconds, TempDir};
use crate::inputs::{Inputs, Kind, CLIENTS};
use crate::stats::{median_or_zero, percentile, sorted, tiles_between, window_rates};
use sccg::pipeline::{ParseTask, Pipeline, PipelineConfig, PipelineReport};
use sccg_serve::{ServiceStats, StorageStats};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, so one slow start (a cold
/// page cache, a late scheduler tick) does not decide the metric.
const SETUP_REPEATS: usize = 5;

/// Unmeasured lead-in of the `Serve` workloads: edge tables build at first
/// touch, the pager fills, the hybrid split controller leaves warm-up.
pub const WARMUP_SECONDS: f64 = 2.0;

/// Width of the windows whose median is `tiles_per_s`.
const WINDOW_SECONDS: f64 = 1.0;

/// `Ingest` cycles per client per requested second. Fixed work rather than
/// fixed time: every cycle leaves two slides, two open files and up to
/// sixteen resident tiles behind, so with fixed time a faster program would
/// read as a larger `peak_rss_mb`. The 2-vCPU sandbox sustains about twelve
/// cycles a second per client, so the run stays within `--seconds`.
const INGEST_CYCLES_PER_CLIENT_SECOND: f64 = 10.0;

/// Most `Ingest` cycles per client, whatever `--seconds` asks. Two clients'
/// 100 cycles write ~0.8 GB and hold ~400 files open: past that the sandbox
/// starts background write-back (throughput fell from ~900 to ~650 tiles/s
/// after ~180 cycles in a 400-cycle run) and a default descriptor limit of
/// 1024 comes into reach.
const INGEST_MAX_CYCLES_PER_CLIENT: f64 = 100.0;

/// What one run of a workload observed.
pub struct Run {
    /// Wall time of each set-up.
    pub setup_seconds: Vec<f64>,
    /// Every operation of the run, warm-up included.
    pub ops: Vec<OpRecord>,
    /// The measured phase on the run's clock.
    pub from: f64,
    pub to: f64,
    /// Tiles per second of each window (client workloads) or round (batch).
    pub rates: Vec<f64>,
    /// Tile-pair comparisons completed in the measured phase.
    pub tiles: f64,
    /// Process CPU seconds (user + system, all threads) over the phase.
    pub cpu_seconds: f64,
    pub peak_rss_mb: f64,
    pub service: Option<ServiceStats>,
    pub storage: Option<StorageStats>,
}

impl Run {
    /// Operations that completed inside the measured phase.
    pub fn measured(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops
            .iter()
            .filter(|op| op.end >= self.from && op.end <= self.to)
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    /// An answer that errored, timed out or differs from the oracle in any
    /// bit — anywhere in the run, warm-up included.
    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    pub fn tiles_per_s(&self) -> f64 {
        median_or_zero(&self.rates)
    }

    /// Latencies of the measured answers, ascending. A failed operation has
    /// no answer and so no latency.
    pub fn answer_latencies_ms(&self) -> Vec<f64> {
        let latencies: Vec<f64> = self
            .measured()
            .filter(|op| op.ok)
            .map(OpRecord::latency_ms)
            .collect();
        sorted(&latencies)
    }

    /// Nearest-rank percentile of the measured answers' latencies.
    pub fn answer_ms(&self, q: f64) -> f64 {
        percentile(&self.answer_latencies_ms(), q).unwrap_or(0.0)
    }

    pub fn cpu_ms_per_tile(&self) -> f64 {
        self.cpu_seconds * 1e3 / self.tiles.max(1.0)
    }

    pub fn setup_s(&self) -> f64 {
        median_or_zero(&self.setup_seconds)
    }
}

/// Runs `inputs.workload` once with tracing off, measuring for `seconds`.
pub fn run(inputs: &Inputs, seconds: f64) -> Run {
    match inputs.workload.kind {
        Kind::Batch => run_batch(inputs, seconds, SETUP_REPEATS),
        Kind::Serve | Kind::Ingest => {
            let tmp = TempDir::create(inputs.workload.name).expect("temp directory");
            let (mut stack, setup_seconds) = set_up_repeatedly(inputs, &tmp, SETUP_REPEATS);
            run_clients_workload(inputs, &mut stack, setup_seconds, WARMUP_SECONDS, seconds)
        }
    }
}

/// Sets the stack up `repeats` times, each over an empty spill directory,
/// and keeps the last one running.
pub fn set_up_repeatedly(inputs: &Inputs, tmp: &TempDir, repeats: usize) -> (Stack, Vec<f64>) {
    let dir = tmp.path().join("spill");
    let mut seconds = Vec::new();
    let mut running = None;
    for _ in 0..repeats {
        // The previous stack stops and its files go before the next starts:
        // set-ups must not share a page cache full of each other's slides.
        drop(running.take());
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        running = Some(start_stack(inputs, &dir, CLIENTS, 0));
        seconds.push(started.elapsed().as_secs_f64());
    }
    (running.expect("at least one set-up"), seconds)
}

/// Drives a running stack's clients through the workload: `warmup` seconds
/// unmeasured (`Serve`), then the measured phase of `seconds`.
pub fn run_clients_workload(
    inputs: &Inputs,
    stack: &mut Stack,
    setup_seconds: Vec<f64>,
    warmup: f64,
    seconds: f64,
) -> Run {
    let clock = Instant::now();
    let (limit, from) = match inputs.workload.kind {
        Kind::Ingest => {
            let cycles = (seconds * INGEST_CYCLES_PER_CLIENT_SECOND)
                .round()
                .clamp(1.0, INGEST_MAX_CYCLES_PER_CLIENT);
            (Limit::Operations(cycles as usize), 0.0)
        }
        _ => (Limit::Until(warmup + seconds), warmup),
    };
    // CPU time is read at the phase's edges while the clients work: at the
    // end of warm-up, and at the deadline (a client's last operation may run
    // past it; that operation is not counted, on either side).
    let (ops, (cpu_from, cpu_at_deadline)) = run_clients(stack, inputs, clock, limit, || {
        sleep_until(clock, from);
        let cpu_from = process_cpu_seconds();
        let cpu_at_deadline = match limit {
            Limit::Until(to) => {
                sleep_until(clock, to);
                Some(process_cpu_seconds())
            }
            Limit::Operations(_) => None,
        };
        (cpu_from, cpu_at_deadline)
    });
    let cpu_to = cpu_at_deadline.unwrap_or_else(process_cpu_seconds);
    let to = match limit {
        Limit::Until(to) => to,
        Limit::Operations(_) => ops.iter().map(|op| op.end).fold(0.0, f64::max),
    };

    let completions: Vec<_> = ops.iter().map(OpRecord::completion).collect();
    let tiles = tiles_between(&completions, from, to);
    let service = stack.service.stats();
    let storage = stack.service.store().storage_stats();
    Run {
        setup_seconds,
        rates: window_rates(&completions, from, to, WINDOW_SECONDS),
        ops,
        from,
        to,
        tiles,
        cpu_seconds: cpu_to - cpu_from,
        peak_rss_mb: peak_rss_mb(),
        service: Some(service),
        storage: Some(storage),
    }
}

/// The polygon-file texts as the pipeline's input tasks.
pub fn parse_tasks(inputs: &Inputs) -> Vec<ParseTask> {
    let pair = &inputs.pairs[0];
    pair.first_texts
        .iter()
        .zip(&pair.second_texts)
        .enumerate()
        .map(|(tile, (first, second))| ParseTask {
            tile_id: tile as u32,
            first_text: first.clone(),
            second_text: second.clone(),
        })
        .collect()
}

/// Whether a pipeline report is the oracle's answer for the whole slide
/// pair. The integer fields must be equal. `J'` is a float sum the
/// aggregator folds batch by batch in completion order (batching and
/// migration depend on timing), so it is only equal to rounding: 1e-9
/// relative is ~10^6 ulps of slack on a sum of ~10^5 ratios, and still far
/// below any real error (one wrong pair moves `J'` by ~1e-5).
pub fn pipeline_matches(inputs: &Inputs, report: &PipelineReport) -> bool {
    let pair = &inputs.pairs[0];
    let want = pair.merged(0..pair.tiles.len());
    let got = report.summary;
    let want_similarity = want.similarity();
    report.tiles == pair.tiles.len()
        && report.candidate_pairs == want.candidate_pairs
        && got.candidate_pairs == want.candidate_pairs
        && got.intersecting_pairs == want.intersecting_pairs
        && got.total_intersection_area == want.total_intersection_area
        && got.total_union_area == want.total_union_area
        && (got.similarity - want_similarity).abs() <= 1e-9 * want_similarity.abs()
}

pub fn run_batch(inputs: &Inputs, seconds: f64, setup_repeats: usize) -> Run {
    let tasks = parse_tasks(inputs);
    let tiles = tasks.len();

    // Set-up is a pipeline and its first round, where the worker pool
    // spawns and every lazily built structure is built once.
    let mut setup_seconds = Vec::new();
    let mut pipeline = None;
    for _ in 0..setup_repeats {
        let round = tasks.clone();
        let started = Instant::now();
        let fresh = Pipeline::new(PipelineConfig::default());
        let report = fresh.run_streaming(round.into_iter());
        setup_seconds.push(started.elapsed().as_secs_f64());
        assert!(pipeline_matches(inputs, &report), "warm-up round is wrong");
        pipeline = Some(fresh);
    }
    let pipeline = pipeline.expect("at least one set-up");

    // One operation is one round: a slide pair's texts in, its J' out. The
    // next round's tasks are cloned between rounds, outside the timed part.
    let clock = Instant::now();
    let mut ops = Vec::new();
    let mut cpu_seconds = 0.0;
    let mut measured = 0.0;
    while measured < seconds {
        let round = tasks.clone();
        let cpu_from = process_cpu_seconds();
        let start = clock.elapsed().as_secs_f64();
        let report = pipeline.run_streaming(round.into_iter());
        let end = clock.elapsed().as_secs_f64();
        cpu_seconds += process_cpu_seconds() - cpu_from;
        measured += end - start;
        ops.push(OpRecord {
            start,
            query_start: start,
            end,
            first_tile: None,
            tiles,
            ok: pipeline_matches(inputs, &report),
        });
    }
    Run {
        setup_seconds,
        rates: ops
            .iter()
            .map(|op| op.tiles as f64 / (op.end - op.start))
            .collect(),
        from: 0.0,
        to: f64::INFINITY,
        tiles: (tiles * ops.len()) as f64,
        ops,
        cpu_seconds,
        peak_rss_mb: peak_rss_mb(),
        service: None,
        storage: None,
    }
}
