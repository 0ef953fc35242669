//! Integration tests of the streaming executor's two contract guarantees:
//!
//! * **Equivalence** — [`Pipeline::run_streaming`] over an iterator produces
//!   a `PipelineReport` bit-identical to the batch [`Pipeline::run`] on a
//!   mixed-device (hybrid) configuration: same `J'` bits, same exact area
//!   sums, same split-trace length.
//! * **Bounded memory** — streaming N tiles through buffers of capacity C
//!   holds at most O(C) tiles in flight, asserted with a 10 000-task stream
//!   against the analytic bound (the regression test for the formerly
//!   unbounded input channel).
//!
//! Plus a property test that random buffer capacities in `[1, 32]` (with
//! random worker/batch/migration settings) never deadlock.

use proptest::prelude::*;
use sccg::pipeline::{ParseTask, Pipeline, PipelineConfig, PipelineReport};
use sccg::pixelbox::{AggregationDevice, SplitPolicy};
use sccg::EngineConfig;
use sccg_datagen::{generate_dataset, DatasetSpec};

fn tasks_of(dataset: &sccg_datagen::Dataset) -> Vec<ParseTask> {
    dataset
        .tiles
        .iter()
        .map(ParseTask::from_tile_pair)
        .collect()
}

fn small_dataset(tiles: u32, seed: u64) -> sccg_datagen::Dataset {
    generate_dataset(&DatasetSpec {
        name: "streaming-test".into(),
        tiles,
        polygons_per_tile: 40,
        tile_size: 512,
        seed,
        nucleus_radius: 6,
    })
}

/// A deterministic single-file configuration: one parser task and one-tile
/// aggregator batches make tile order — and therefore every floating-point
/// fold order — identical across runs, so reports can be compared *bit for
/// bit* even on the hybrid substrate (whatever split fraction the adaptive
/// controller picks, per-pair areas are exact integers and the ratio fold
/// order is the tile order).
fn deterministic_config(device: AggregationDevice, policy: SplitPolicy) -> PipelineConfig {
    PipelineConfig::default()
        .with_parser_workers(1)
        .with_aggregator_batch(1)
        .with_migration(false)
        .with_engine(
            EngineConfig::default()
                .with_device(device)
                .with_split_policy(policy),
        )
        .with_buffer_capacity(4)
}

#[test]
fn run_streaming_is_bit_identical_to_batch_run_on_mixed_devices() {
    let dataset = small_dataset(8, 4242);
    let tasks = tasks_of(&dataset);
    for (device, policy) in [
        (AggregationDevice::Gpu, SplitPolicy::Adaptive),
        (AggregationDevice::Cpu, SplitPolicy::Adaptive),
        (AggregationDevice::Hybrid, SplitPolicy::Adaptive),
        (AggregationDevice::Hybrid, SplitPolicy::Static),
    ] {
        let batch = Pipeline::new(deterministic_config(device, policy)).run(tasks.clone());
        let streamed = Pipeline::new(deterministic_config(device, policy))
            .run_streaming(tasks.iter().cloned());

        // J' bit-identical (compare the raw bits, not an epsilon).
        assert_eq!(
            batch.summary.similarity.to_bits(),
            streamed.summary.similarity.to_bits(),
            "{device:?}/{policy:?}"
        );
        // Exact per-pair area sums and counts.
        assert_eq!(
            batch.summary.total_intersection_area, streamed.summary.total_intersection_area,
            "{device:?}/{policy:?}"
        );
        assert_eq!(
            batch.summary.total_union_area, streamed.summary.total_union_area,
            "{device:?}/{policy:?}"
        );
        assert_eq!(
            batch.summary.candidate_pairs, streamed.summary.candidate_pairs,
            "{device:?}/{policy:?}"
        );
        assert_eq!(
            batch.summary.intersecting_pairs, streamed.summary.intersecting_pairs,
            "{device:?}/{policy:?}"
        );
        assert_eq!(batch.tiles, streamed.tiles, "{device:?}/{policy:?}");
        // Same number of hybrid split decisions (one per aggregated batch).
        assert_eq!(
            batch.split_trace.as_ref().map(|t| t.len()),
            streamed.split_trace.as_ref().map(|t| t.len()),
            "{device:?}/{policy:?}"
        );
        if device == AggregationDevice::Hybrid {
            assert_eq!(
                streamed.split_trace.as_ref().map(|t| t.len()),
                Some(dataset.tiles.len()),
                "one-tile batches record one split per tile"
            );
        }
    }
}

/// The bounded-memory regression test for the formerly unbounded input
/// channel: 10 000 tasks stream through capacity-2 buffers while the
/// in-flight high-water mark stays at the O(capacity) analytic bound —
/// three orders of magnitude below the dataset size.
#[test]
fn ten_thousand_task_stream_keeps_in_flight_tiles_bounded_by_capacity() {
    let config = PipelineConfig::default()
        .with_buffer_capacity(2)
        .with_parser_workers(2)
        .with_aggregator_batch(2)
        .with_migration(false);
    let bound = PipelineReport::in_flight_bound(&config);
    let total = 10_000u32;

    // Tiny tasks generated lazily — the full task list never exists.
    let report = Pipeline::new(config).run_streaming((0..total).map(|tile_id| ParseTask {
        tile_id,
        first_text: String::new(),
        second_text: String::new(),
    }));

    assert_eq!(report.tiles, total as usize, "every task processed");
    assert!(
        report.peak_in_flight_tiles <= bound,
        "peak {} exceeds the O(capacity) bound {bound}",
        report.peak_in_flight_tiles
    );
    assert!(
        bound < total as usize / 100,
        "the bound must be far below the dataset size for the test to mean anything"
    );
}

/// Migration's steal quantum is also capacity-bounded, so the guarantee
/// holds with both heuristics live.
#[test]
fn bounded_in_flight_holds_with_migration_enabled() {
    let config = PipelineConfig::default()
        .with_buffer_capacity(3)
        .with_parser_workers(2)
        .with_migration(true);
    let bound = PipelineReport::in_flight_bound(&config);
    let report = Pipeline::new(config).run_streaming((0..2_000u32).map(|tile_id| ParseTask {
        tile_id,
        first_text: String::new(),
        second_text: String::new(),
    }));
    assert_eq!(report.tiles, 2_000);
    assert!(
        report.peak_in_flight_tiles <= bound,
        "peak {} exceeds bound {bound}",
        report.peak_in_flight_tiles
    );
}

// Liveness: no combination of buffer capacity, parser workers, aggregator
// batch and migration setting deadlocks the executor — every run completes
// with all tiles processed and the in-flight bound held. (The offline
// proptest shim's macro matches a bare `#[test]`, so this comment lives
// outside the macro invocation.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_capacities_never_deadlock(
        capacity in 1usize..=32,
        parser_workers in 1usize..=4,
        aggregator_batch in 1usize..=8,
        migration_bit in 0u8..=1,
        tiles in 1u32..=12,
    ) {
        let enable_migration = migration_bit == 1;
        let dataset = small_dataset(tiles, u64::from(capacity as u32) * 1000 + u64::from(tiles));
        let config = PipelineConfig::default()
            .with_buffer_capacity(capacity)
            .with_parser_workers(parser_workers)
            .with_aggregator_batch(aggregator_batch)
            .with_migration(enable_migration);
        let bound = PipelineReport::in_flight_bound(&config);
        let report = Pipeline::new(config).run_streaming(
            dataset.tiles.iter().map(ParseTask::from_tile_pair),
        );
        prop_assert_eq!(report.tiles, dataset.tiles.len());
        prop_assert!(report.candidate_pairs > 0);
        prop_assert!(report.peak_in_flight_tiles <= bound);
    }
}
