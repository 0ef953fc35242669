//! The traced run of one workload: the per-layer metrics.
//!
//! Three parts, all on the workload's own inputs, all timed by the benchmark
//! around the layers' public functions:
//!
//! 1. the *replay* — the workload itself, shorter, whose per-operation
//!    timestamps become spans and whose service counters become the
//!    count-based metrics;
//! 2. the *ladder* — a seeded sample of the workload's queries, each run
//!    again one layer further down (wire → in-process service → engine →
//!    kernel), single caller, recorded as nested replay spans;
//! 3. the *layer loop* — a seeded sample of tiles taken through every
//!    layer's public functions one call at a time (parse, edge tables, MBR
//!    join, filter, the kernel on each device, the tile codec, the slide
//!    file), plus one pipeline run.
//!
//! End-to-end metrics are never taken from here. Each part has a share of
//! `--seconds`; a part stops sampling when its share is spent, so expensive
//! operations (a 4-tile window of big nuclei on the simulated GPU takes
//! 0.2 s) get fewer samples than the 200 cheap ones do.

use crate::drive::{query_window, start_stack, OpRecord, Stack};
use crate::host::TempDir;
use crate::inputs::{client_rng, oracle_engine, Inputs, Kind, CLIENTS};
use crate::report::Metrics;
use crate::span::SpanLog;
use crate::stats::{coefficient_of_variation, median_or_zero};
use crate::workloads::{parse_tasks, run_batch, run_clients_workload, set_up_repeatedly, Run};
use sccg::pipeline::{Pipeline, PipelineConfig};
use sccg::pixelbox::{AggregationDevice, PixelBoxConfig};
use sccg::{CrossComparison, EngineConfig, WorkerPool};
use sccg_geometry::text::{parse_polygon_file, PolygonRecord};
use sccg_geometry::Rect;
use sccg_net::frame::{encode_frame, FrameDecoder};
use sccg_net::wire::Message;
use sccg_net::{WireClient, WireResponse};
use sccg_rtree::mbr_join;
use sccg_serve::{ComparisonService, QueryRequest, ServiceConfig, ServiceStats, StorageStats};
use sccg_store::{decode_tile, encode_tile, fnv1a_64, SlideFileWriter, TileStorage};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Most operations (ladder) or tiles (layer loop) a part samples.
const SAMPLE: usize = 200;
/// Fewest samples a part takes however slow they are.
const MIN_SAMPLES: usize = 3;
/// Shares of `--seconds`.
const REPLAY_SHARE: f64 = 0.3;
const LADDER_SHARE: f64 = 0.3;
const LAYER_SHARE: f64 = 0.3;
/// Warm-up of the traced replay (`Serve`).
const REPLAY_WARMUP_SECONDS: f64 = 1.0;
/// Tiles of the traced pipeline run, when the workload is not the pipeline's.
const PIPELINE_SAMPLE_TILES: usize = 16;

pub struct Traced {
    pub spans: SpanLog,
    pub attempted: u64,
    pub failed: u64,
}

type Records = (Vec<PolygonRecord>, Vec<PolygonRecord>);

fn parse_pair(inputs: &Inputs, tile: usize) -> Records {
    let pair = &inputs.pairs[0];
    let parse = |text: &str| parse_polygon_file(text).expect("generated polygon files parse");
    (
        parse(&pair.first_texts[tile]),
        parse(&pair.second_texts[tile]),
    )
}

/// A sample's clock: `lap` is the time since the previous lap.
struct Laps(Instant);

impl Laps {
    fn start() -> Self {
        Laps(Instant::now())
    }

    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let seconds = (now - self.0).as_secs_f64();
        self.0 = now;
        seconds
    }
}

/// Runs the traced run of `inputs.workload` and fills `metrics` with every
/// per-layer metric.
pub fn run(inputs: &Inputs, seconds: f64, metrics: &mut Metrics) -> Traced {
    let clock = Instant::now();
    let mut spans = SpanLog::default();
    let tmp = TempDir::create(&format!("trace-{}", inputs.workload.name)).expect("temp directory");

    // Part 1: the replay. `Batch` has no service of its own; the ladder's
    // serving rungs still need one over its data, started afterwards.
    let (replay, mut stack) = match inputs.workload.kind {
        Kind::Batch => {
            let replay = run_batch(inputs, seconds * REPLAY_SHARE, 1);
            (replay, start_stack(inputs, tmp.path(), 1, 0))
        }
        _ => {
            let (mut stack, setup) = set_up_repeatedly(inputs, &tmp, 1);
            let replay = run_clients_workload(
                inputs,
                &mut stack,
                setup,
                REPLAY_WARMUP_SECONDS,
                seconds * REPLAY_SHARE,
            );
            (replay, stack)
        }
    };
    record_replay_spans(&mut spans, &replay);
    client_metrics(metrics, inputs, &replay);

    // Part 2: the ladder, on the replay's own stack.
    let ladder = ladder(
        inputs,
        &mut stack,
        &mut spans,
        clock,
        seconds * LADDER_SHARE,
    );
    let service_stats = replay
        .service
        .clone()
        .unwrap_or_else(|| stack.service.stats());
    let storage_stats = replay
        .storage
        .unwrap_or_else(|| stack.service.store().storage_stats());
    counter_metrics(metrics, &service_stats, &storage_stats);
    wire_metrics(metrics, &mut stack.clients[0], &ladder.last_response);
    cache_hit_metric(metrics, inputs, &stack);
    drop(stack);
    ladder_metrics(metrics, &spans, &ladder, &replay);

    // Part 3: the layer loop and the pipeline.
    layer_loop(
        inputs,
        &tmp,
        &mut spans,
        clock,
        seconds * LAYER_SHARE,
        metrics,
    );
    pipeline_metrics(metrics, inputs);

    Traced {
        spans,
        attempted: replay.attempted() + ladder.attempted,
        failed: replay.failed() + ladder.failed,
    }
}

/// The replay's operations as spans: one `client.answer` per operation, with
/// the registration (`Ingest`), the wire query and the first tile inside it.
fn record_replay_spans(spans: &mut SpanLog, replay: &Run) {
    for (op, record) in replay.ops.iter().enumerate() {
        let OpRecord {
            start,
            query_start,
            end,
            first_tile,
            ..
        } = *record;
        let answer = spans.record("client.answer", op as u64, None, start, end);
        if query_start > start {
            spans.record(
                "ingest.register",
                op as u64,
                Some(answer),
                start,
                query_start,
            );
        }
        let query = spans.record("client.query", op as u64, Some(answer), query_start, end);
        if let Some(first) = first_tile {
            spans.record(
                "client.first_tile",
                op as u64,
                Some(query),
                query_start,
                first,
            );
        }
    }
}

/// The load generator's own readings: they explain a result, never claim one.
fn client_metrics(metrics: &mut Metrics, inputs: &Inputs, replay: &Run) {
    metrics.set("client.answer_p90_ms", replay.answer_ms(0.9));
    metrics.set("client.answer_p99_ms", replay.answer_ms(0.99));
    metrics.set(
        "client.window_rate_cv",
        coefficient_of_variation(&replay.rates),
    );
    metrics.set("client.datagen_s", inputs.datagen_seconds);
    metrics.set("client.oracle_s", inputs.oracle_seconds);
    metrics.set("client.traced_tiles_per_s", replay.tiles_per_s());
}

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Metrics read from the public stats structs after the replay.
fn counter_metrics(metrics: &mut Metrics, service: &ServiceStats, storage: &StorageStats) {
    let queries = service.completed.max(1) as f64;
    metrics.set("store.pager_hit_rate", storage.pager_hit_rate);
    metrics.set(
        "store.pager_misses_per_query",
        storage.pager_misses as f64 / queries,
    );
    metrics.set("store.coalesced_faults", storage.coalesced_faults as f64);
    let scheduler = &service.scheduler;
    metrics.set(
        "store.prefetch_used_share",
        share(scheduler.prefetch_used, scheduler.prefetch_wasted),
    );
    metrics.set(
        "serve.backend_batches_per_query",
        service.backend_batches as f64 / queries,
    );
    metrics.set(
        "serve.affinity_hit_share",
        share(scheduler.affinity_hits, scheduler.affinity_misses),
    );
    metrics.set("serve.peak_in_flight", service.peak_in_flight as f64);
    metrics.set("serve.redispatches", service.redispatches as f64);
}

struct Ladder {
    attempted: u64,
    failed: u64,
    /// Per sampled query, seconds: the wire answer, the in-process answer,
    /// its slowest shard's filter + kernel, and that shard's kernel alone.
    /// A query waits for its slowest shard, so that shard is the ladder's.
    wire: Vec<f64>,
    serve: Vec<f64>,
    shard: Vec<f64>,
    kernel: Vec<f64>,
    /// A real response of this run, whose frames the codec rung re-encodes.
    last_response: WireResponse,
}

/// The engine of each device, as the default service builds its pool.
struct Engines {
    cpu: CrossComparison,
    gpu: CrossComparison,
    hybrid: CrossComparison,
}

impl Engines {
    fn new() -> Self {
        let on = |device| CrossComparison::new(EngineConfig::default().with_device(device));
        Engines {
            cpu: on(AggregationDevice::Cpu),
            gpu: on(AggregationDevice::Gpu),
            hybrid: on(AggregationDevice::Hybrid),
        }
    }

    /// The engine whose backend served a tile, by the name in its report.
    fn of_backend(&self, backend: &str) -> &CrossComparison {
        match backend {
            "pixelbox-gpu" => &self.gpu,
            "pixelbox-hybrid" => &self.hybrid,
            _ => &self.cpu,
        }
    }
}

/// Part 2. Each sampled query runs over the wire from one client and
/// in-process (real spans), then the in-process answer's tiles run again one
/// by one on the engine that served each, then the kernel alone — replay
/// spans inside the in-process span.
fn ladder(
    inputs: &Inputs,
    stack: &mut Stack,
    spans: &mut SpanLog,
    clock: Instant,
    budget: f64,
) -> Ladder {
    let pair = &inputs.pairs[0];
    let engines = Engines::new();
    let pixelbox = PixelBoxConfig::paper_default();
    let mut rng = client_rng(inputs.seed, CLIENTS);
    let mut parsed: Vec<Option<Records>> = (0..pair.tiles.len()).map(|_| None).collect();
    let service = Arc::clone(&stack.service);
    let client = &mut stack.clients[0];
    let started = Instant::now();
    let (mut attempted, mut failed) = (0, 0);
    let (mut wire_s, mut serve_s, mut shard_s, mut kernel_s) = (vec![], vec![], vec![], vec![]);
    let mut last_response = None;

    for op in 0..SAMPLE {
        if op >= MIN_SAMPLES && started.elapsed().as_secs_f64() > budget {
            break;
        }
        // The workload's own query shape; `Batch` has none, so its data is
        // sampled one tile a query.
        let mut draw = || match inputs.workload.kind {
            Kind::Serve => inputs.window_tiles(rng.below(inputs.window_count())),
            Kind::Ingest => 0..pair.tiles.len(),
            Kind::Batch => {
                let tile = rng.below(pair.tiles.len());
                tile..tile + 1
            }
        };
        let op_id = (1u64 << 32) | op as u64;

        // Rung 1: the wire, one client.
        let tiles = draw();
        let start = clock.elapsed().as_secs_f64();
        let (ok, first_tile) = query_window(client, clock, stack.slides, pair, tiles);
        let end = clock.elapsed().as_secs_f64();
        let wire_seconds = end - start;
        attempted += 1;
        failed += u64::from(!ok);
        let wire = spans.record("net.query", op_id, None, start, end);
        if let Some(first) = first_tile {
            spans.record("net.first_tile", op_id, Some(wire), start, first);
        }

        // Rung 2: in-process, on a window of its own: the wire query left
        // its tiles resident, and the pager must see the workload's mix of
        // hits and faults on this rung too.
        let request = QueryRequest::new(stack.slides.0, stack.slides.1).tiles(draw().collect());
        let start = clock.elapsed().as_secs_f64();
        let response = service
            .submit_streaming(request)
            .and_then(|handle| handle.wait());
        let serve_seconds = clock.elapsed().as_secs_f64() - start;
        let serve = spans.record("serve.query", op_id, None, start, start + serve_seconds);
        let Ok(response) = response else {
            failed += 1;
            continue;
        };

        // Rungs 3 and 4: each tile's filter + kernel on the engine that
        // served it, and the kernel alone.
        let mut slowest = (0.0, 0.0);
        for report in &response.tiles {
            let (first, second) =
                parsed[report.tile].get_or_insert_with(|| parse_pair(inputs, report.tile));
            let engine = engines.of_backend(&report.backend);
            let mut lap = Laps::start();
            let pairs = engine.filter_pairs(first, second);
            let filter = lap.lap();
            black_box(engine.compare_pairs_with(&pairs, &pixelbox));
            let kernel = lap.lap();
            let shard = spans.record_replay("engine.shard", serve, filter + kernel);
            spans.record_replay("pixelbox.kernel", shard, kernel);
            if filter + kernel > slowest.0 {
                slowest = (filter + kernel, kernel);
            }
        }
        wire_s.push(wire_seconds);
        serve_s.push(serve_seconds);
        shard_s.push(slowest.0);
        kernel_s.push(slowest.1);
        last_response = Some(WireResponse::of_response(&response));
    }
    Ladder {
        attempted,
        failed,
        wire: wire_s,
        serve: serve_s,
        shard: shard_s,
        kernel: kernel_s,
        last_response: last_response.expect("the ladder ran at least one query"),
    }
}

/// The ladder's medians, and how they add up to the loaded latency. Rungs
/// are differences of medians, not medians of per-query differences: the
/// wire query and its in-process replay are served by whichever engines were
/// idle, usually not the same ones, so only their distributions compare.
/// The service and the engine replay do share engines (the replay follows
/// the response's own reports), so the service's overhead is a span self
/// time.
fn ladder_metrics(metrics: &mut Metrics, spans: &SpanLog, ladder: &Ladder, replay: &Run) {
    let ms = |seconds: f64| seconds * 1e3;
    let wire = median_or_zero(&ladder.wire);
    let serve = median_or_zero(&ladder.serve);
    let shard = median_or_zero(&ladder.shard);
    let kernel = median_or_zero(&ladder.kernel);
    metrics.set("serve.answer_p50_ms", ms(serve));
    metrics.set(
        "serve.overhead_us_per_query",
        median_or_zero(&spans.self_times("serve.query")) * 1e6,
    );
    metrics.set("net.overhead_us_per_query", (wire - serve) * 1e6);
    metrics.set(
        "net.first_tile_p50_ms",
        ms(median_or_zero(&spans.durations("net.first_tile"))),
    );
    // What two closed-loop clients add to one client's latency: waiting for
    // the cores they share. `Batch` replays no wire query.
    let loaded = match replay.service {
        Some(_) => median_or_zero(&spans.durations("client.query")),
        None => wire,
    };
    metrics.set(
        "client.contention_share",
        if loaded > 0.0 {
            (loaded - wire) / loaded
        } else {
            0.0
        },
    );
    println!(
        "ladder ({} queries, medians): kernel {:.3} + engine {:.3} + serve {:.3} + net {:.3} + \
         contention {:.3} = {:.3} ms, the traced wire answer p50",
        ladder.wire.len(),
        ms(kernel),
        ms(shard - kernel),
        ms(serve - shard),
        ms(wire - serve),
        ms(loaded - wire),
        ms(loaded),
    );
}

/// Wire-layer rungs measured on a live connection and on this run's real
/// `Tile` and `Summary` messages.
fn wire_metrics(metrics: &mut Metrics, client: &mut WireClient, response: &WireResponse) {
    let mut rpc = Vec::new();
    for _ in 0..SAMPLE {
        let mut lap = Laps::start();
        black_box(client.stats().expect("stats round trip"));
        rpc.push(lap.lap() * 1e6);
    }
    metrics.set("net.rpc_p50_us", median_or_zero(&rpc));

    let mut messages: Vec<Message> = response
        .tiles
        .iter()
        .enumerate()
        .map(|(position, tile)| Message::Tile {
            request_id: 1,
            position: position as u64,
            tile: tile.clone(),
        })
        .collect();
    let tile_frames = messages.len();
    messages.push(Message::Summary {
        request_id: 1,
        tiles_included: false,
        response: WireResponse {
            tiles: Vec::new(),
            ..response.clone()
        },
    });
    let mut codec = Vec::new();
    let mut tile_bytes = 0;
    let mut decoder = FrameDecoder::new();
    for round in 0..SAMPLE.div_ceil(messages.len()) {
        for (index, message) in messages.iter().enumerate() {
            let mut lap = Laps::start();
            let frame = message.to_frame();
            let mut bytes = Vec::new();
            encode_frame(frame.kind, &frame.body, &mut bytes);
            decoder.feed(&bytes);
            let decoded = decoder
                .next_frame()
                .expect("own frame decodes")
                .expect("a whole frame was fed");
            let back = Message::of_frame(&decoded).expect("own message decodes");
            codec.push(lap.lap() * 1e6);
            assert_eq!(&back, message, "codec round trip is lossless");
            if round == 0 && index < tile_frames {
                tile_bytes += bytes.len();
            }
        }
    }
    metrics.set("net.codec_us_per_frame", median_or_zero(&codec));
    metrics.set(
        "net.bytes_per_tile_frame",
        tile_bytes as f64 / tile_frames.max(1) as f64,
    );
}

/// The hit path no end-to-end workload takes: a second service over the same
/// store with the default response cache on, one query resubmitted.
fn cache_hit_metric(metrics: &mut Metrics, inputs: &Inputs, stack: &Stack) {
    let cached = ComparisonService::new(stack.service.store().clone(), ServiceConfig::default())
        .expect("default service starts");
    let window = match inputs.workload.kind {
        Kind::Batch => 0..1,
        _ => inputs.window_tiles(0),
    };
    let request =
        || QueryRequest::new(stack.slides.0, stack.slides.1).tiles(window.clone().collect());
    let ask = || cached.submit(request()).and_then(|handle| handle.wait());
    ask().expect("first submission computes");
    let mut hits = Vec::new();
    for _ in 0..SAMPLE {
        let mut lap = Laps::start();
        let response = ask().expect("resubmission is answered");
        hits.push(lap.lap() * 1e6);
        assert!(response.cache_hit, "resubmission hits the response cache");
    }
    metrics.set("serve.cache_hit_p50_us", median_or_zero(&hits));
}

/// Part 3. A seeded sample of tiles through each layer's public functions,
/// one call at a time, single caller.
fn layer_loop(
    inputs: &Inputs,
    tmp: &TempDir,
    spans: &mut SpanLog,
    clock: Instant,
    budget: f64,
    metrics: &mut Metrics,
) {
    let pair = &inputs.pairs[0];
    let sequential = oracle_engine();
    let engines = Engines::new();
    let gpu_before = engines.gpu.device().stats();
    let mut rng = client_rng(inputs.seed, CLIENTS + 1);
    let mut order: Vec<usize> = (0..pair.tiles.len()).collect();
    for i in 0..order.len().min(SAMPLE) {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    order.truncate(SAMPLE);

    let slide_path = tmp.path().join("ladder.sccgt");
    let mut writer = SlideFileWriter::create(&slide_path).expect("slide file in temp directory");
    let started = Instant::now();
    let mut sampled = Vec::new();
    let (mut text_bytes, mut gpu_pairs, mut candidate_pairs) = (0usize, 0usize, Vec::new());
    let mut rates: [Vec<f64>; 3] = Default::default();

    for (n, &tile) in order.iter().enumerate() {
        if n >= MIN_SAMPLES && started.elapsed().as_secs_f64() > budget {
            break;
        }
        let op = (2u64 << 32) | tile as u64;
        let at = clock.elapsed().as_secs_f64();
        let mut record = |name: &'static str, seconds: f64| {
            spans.record(name, op, None, at, at + seconds);
        };
        let mut lap = Laps::start();

        // geometry: text to records, then every polygon's edge table, cold.
        let (first, second) = parse_pair(inputs, tile);
        record("geometry.parse", lap.lap());
        for r in first.iter().chain(&second) {
            black_box(r.polygon.edge_table());
        }
        record("geometry.edge_table", lap.lap());
        text_bytes += pair.first_texts[tile].len() + pair.second_texts[tile].len();

        // rtree: the MBR join alone.
        let mbrs = |records: &[PolygonRecord]| -> Vec<Rect> {
            records.iter().map(|r| r.polygon.mbr()).collect()
        };
        let (left, right) = (mbrs(&first), mbrs(&second));
        lap.lap();
        candidate_pairs.push(black_box(mbr_join(&left, &right)).len() as f64);
        record("rtree.join", lap.lap());

        // core::engine: join + polygon clones.
        let pairs = sequential.filter_pairs(&first, &second);
        record("engine.filter", lap.lap());

        // core::pixelbox on each device; core::parallel as 1 worker against
        // nproc on the same pairs.
        black_box(sequential.compare_pairs(&pairs));
        record("pixelbox.cpu_1", lap.lap());
        for (device, (engine, name)) in [
            (&engines.cpu, "pixelbox.cpu"),
            (&engines.gpu, "pixelbox.gpu"),
            (&engines.hybrid, "pixelbox.hybrid"),
        ]
        .into_iter()
        .enumerate()
        {
            lap.lap();
            black_box(engine.compare_pairs(&pairs));
            let seconds = lap.lap();
            record(name, seconds);
            rates[device].push(pairs.len() as f64 / seconds);
        }
        gpu_pairs += pairs.len();

        // store: the tile codec, then the slide file's write side.
        lap.lap();
        let block = encode_tile(&first);
        record("store.encode", lap.lap());
        black_box(fnv1a_64(&block));
        record("store.checksum", lap.lap());
        black_box(decode_tile(&block).expect("own block decodes"));
        record("store.decode", lap.lap());
        writer.append_tile(&first).expect("tile appends");
        record("store.append", lap.lap());
        sampled.push(tile);
    }

    // store, read side: the file just written (OS cache warm), then the
    // pager's resident path.
    let file = writer.finish().expect("slide file finishes");
    let disk_bytes = file.bytes_on_disk() as f64;
    let first_text_bytes: usize = sampled.iter().map(|&t| pair.first_texts[t].len()).sum();
    let mut reads = Vec::new();
    for index in 0..sampled.len() {
        let mut lap = Laps::start();
        black_box(file.read_tile(index).expect("own tile reads back"));
        reads.push(lap.lap() * 1e6);
    }
    let pager = TileStorage::new(file, sampled.len());
    let mut hits = Vec::new();
    for index in 0..sampled.len() {
        pager.fetch(index).expect("tile faults in");
        let mut lap = Laps::start();
        for _ in 0..64 {
            black_box(pager.fetch(index).expect("resident tile"));
        }
        hits.push(lap.lap() * 1e9 / 64.0);
    }

    // core::parallel: what a pooled map costs when the work is nothing.
    let items = [0u8; 256];
    let mut map_overhead = Vec::new();
    for _ in 0..SAMPLE {
        let mut lap = Laps::start();
        black_box(WorkerPool::global().map(&items, crate::host::nproc(), 16, |_| ()));
        map_overhead.push(lap.lap() * 1e6);
    }

    let us = |name: &str| median_or_zero(&spans.durations(name)) * 1e6;
    let parse_us = us("geometry.parse");
    metrics.set("geometry.parse_us_per_tile", parse_us);
    metrics.set(
        "geometry.parse_mb_per_s",
        text_bytes as f64 / sampled.len() as f64 / parse_us.max(1e-9),
    );
    metrics.set("geometry.edge_table_us_per_tile", us("geometry.edge_table"));
    metrics.set("rtree.join_us_per_tile", us("rtree.join"));
    metrics.set(
        "rtree.candidate_pairs_per_tile",
        candidate_pairs.iter().sum::<f64>() / sampled.len() as f64,
    );
    metrics.set("engine.filter_us_per_tile", us("engine.filter"));
    metrics.set("pixelbox.cpu_pairs_per_s", median_or_zero(&rates[0]));
    metrics.set("pixelbox.gpu_pairs_per_s", median_or_zero(&rates[1]));
    metrics.set("pixelbox.hybrid_pairs_per_s", median_or_zero(&rates[2]));
    metrics.set("pixelbox.cpu_us_per_tile", us("pixelbox.cpu"));
    metrics.set(
        "parallel.speedup_at_nproc",
        us("pixelbox.cpu_1") / us("pixelbox.cpu").max(1e-9),
    );
    metrics.set("parallel.map_overhead_us", median_or_zero(&map_overhead));
    let gpu_after = engines.gpu.device().stats();
    metrics.set(
        "gpu_sim.busy_ms_per_1k_pairs",
        (gpu_after.busy_seconds - gpu_before.busy_seconds) * 1e6 / gpu_pairs.max(1) as f64,
    );
    metrics.set(
        "gpu_sim.launches_per_tile",
        (gpu_after.launches - gpu_before.launches) as f64 / sampled.len() as f64,
    );
    metrics.set("store.encode_us_per_tile", us("store.encode"));
    metrics.set("store.checksum_us_per_tile", us("store.checksum"));
    metrics.set("store.decode_us_per_tile", us("store.decode"));
    metrics.set("store.read_tile_us", median_or_zero(&reads));
    metrics.set("store.fetch_hit_ns", median_or_zero(&hits));
    metrics.set("store.append_us_per_tile", us("store.append"));
    metrics.set(
        "store.disk_bytes_per_text_byte",
        disk_bytes / first_text_bytes.max(1) as f64,
    );
    println!(
        "layer loop: {} of {} tiles sampled",
        sampled.len(),
        pair.tiles.len()
    );
}

/// core::pipeline: one warm run over the workload's texts — all of them for
/// `Batch`, a prefix otherwise — read from the report's stage clocks.
fn pipeline_metrics(metrics: &mut Metrics, inputs: &Inputs) {
    let mut tasks = parse_tasks(inputs);
    if inputs.workload.kind != Kind::Batch {
        tasks.truncate(PIPELINE_SAMPLE_TILES);
    }
    let pipeline = Pipeline::new(PipelineConfig::default());
    pipeline.run_streaming(tasks.clone().into_iter());
    let report = pipeline.run_streaming(tasks.into_iter());
    let stages = report.stage_seconds;
    metrics.set("pipeline.parse_busy_s", stages.parse);
    metrics.set("pipeline.build_busy_s", stages.build);
    metrics.set("pipeline.filter_busy_s", stages.filter);
    metrics.set(
        "pipeline.aggregate_busy_s",
        stages.aggregate_host + stages.aggregate_migrated_cpu,
    );
    metrics.set(
        "pipeline.peak_in_flight_tiles",
        report.peak_in_flight_tiles as f64,
    );
    metrics.set("pipeline.migrated_to_cpu", report.migrated_to_cpu as f64);
    metrics.set("pipeline.migrated_to_gpu", report.migrated_to_gpu as f64);
}
