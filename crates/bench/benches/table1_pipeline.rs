//! Table 1: execution schemes (PostGIS-S / NoPipe-S / NoPipe-M / Pipelined).
//!
//! The scheme makespans are produced by the deterministic performance model
//! (`reproduce -- table1`); this bench measures the *functional* pipelined
//! framework end to end (parse → build → filter → aggregate on the simulated
//! GPU), with and without migration threads.

use criterion::{criterion_group, criterion_main, Criterion};
use sccg::pipeline::{ParseTask, Pipeline, PipelineConfig};
use sccg::pixelbox::{AggregationDevice, SplitPolicy};
use sccg::EngineConfig;
use sccg_bench::system_dataset;

fn bench(c: &mut Criterion) {
    let dataset = system_dataset();
    let tasks: Vec<ParseTask> = dataset
        .tiles
        .iter()
        .map(ParseTask::from_tile_pair)
        .collect();
    let mut group = c.benchmark_group("table1_pipeline_functional");
    group.sample_size(10);
    group.bench_function("pipelined_no_migration", |bench| {
        bench.iter(|| {
            Pipeline::new(PipelineConfig::default().with_migration(false)).run(tasks.clone())
        })
    });
    group.bench_function("pipelined_with_migration", |bench| {
        bench.iter(|| {
            Pipeline::new(PipelineConfig::default().with_migration(true)).run(tasks.clone())
        })
    });
    // The streaming entry point with a deliberately tiny buffer: same
    // answer, O(buffer) resident tiles — measures the backpressure overhead
    // of the event-driven executor against the batch runs above.
    group.bench_function("pipelined_streaming_capacity_2", |bench| {
        bench.iter(|| {
            Pipeline::new(
                PipelineConfig::default()
                    .with_migration(true)
                    .with_buffer_capacity(2),
            )
            .run_streaming(tasks.iter().cloned())
        })
    });
    // The hybrid aggregator, with the split pinned at the seed vs steered by
    // the adaptive controller (the AggregationDevice::Hybrid default).
    for (label, split_policy) in [
        ("pipelined_hybrid_static", SplitPolicy::Static),
        ("pipelined_hybrid_adaptive", SplitPolicy::Adaptive),
    ] {
        group.bench_function(label, |bench| {
            bench.iter(|| {
                Pipeline::new(
                    PipelineConfig::default().with_migration(true).with_engine(
                        EngineConfig::default()
                            .with_device(AggregationDevice::Hybrid)
                            .with_split_policy(split_policy),
                    ),
                )
                .run(tasks.clone())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
