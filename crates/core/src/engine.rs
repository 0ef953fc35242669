//! High-level cross-comparison API.
//!
//! [`CrossComparison`] wires the substrates together for the common case of
//! comparing two in-memory segmentation results for the same tile or image:
//! build MBR lists, filter candidate pairs with the Hilbert R-tree join,
//! compute exact areas with PixelBox through a [`ComputeBackend`] (GPU, CPU
//! or hybrid) and aggregate the `J'` similarity. The full streaming system
//! with parsing, bounded buffers and task migration lives in
//! [`crate::pipeline`]; this type is the "library entry point" a downstream
//! user reaches for first.

use crate::jaccard::{JaccardAccumulator, JaccardSummary};
use crate::pixelbox::{
    AggregationDevice, ComputeBackend, CpuBackend, GpuBackend, HybridBackend, PairAreas,
    PixelBoxConfig, PolygonPair, SplitConfig, SplitController, SplitPolicy,
};
use sccg_geometry::text::PolygonRecord;
use sccg_geometry::Rect;
use sccg_gpu_sim::{Device, DeviceConfig, LaunchStats};
use sccg_rtree::mbr_join;
use std::sync::Arc;

/// Configuration of a [`CrossComparison`] engine.
///
/// Marked `#[non_exhaustive]` so future fields are not breaking changes:
/// construct it with [`EngineConfig::default`] rather than a struct literal,
/// then use the `with_*` methods or set a (public) field directly.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// PixelBox parameters.
    pub pixelbox: PixelBoxConfig,
    /// Which substrate performs the area computations.
    pub device: AggregationDevice,
    /// Simulated GPU to use when `device` involves the GPU. Read by
    /// [`CrossComparison::new`]; [`CrossComparison::with_device`] is handed
    /// the device itself.
    pub gpu: DeviceConfig,
    /// Shared-pool workers one CPU batch may fan out to when `device`
    /// involves the CPU (`1` runs the batch sequentially).
    pub cpu_workers: usize,
    /// Seed GPU fraction when `device` is [`AggregationDevice::Hybrid`]
    /// (clamped to `[0, 1]`): the warm-up/fallback fraction under
    /// [`SplitPolicy::Adaptive`], the permanent fraction under
    /// [`SplitPolicy::Static`].
    pub hybrid_gpu_fraction: f64,
    /// How the hybrid split evolves across batches: adaptive timing feedback
    /// (default) or pinned at `hybrid_gpu_fraction`. Neither is read when
    /// the engine is handed a shared controller.
    pub split_policy: SplitPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pixelbox: PixelBoxConfig::paper_default(),
            device: AggregationDevice::Gpu,
            gpu: DeviceConfig::gtx580(),
            cpu_workers: crate::parallel::default_workers(),
            hybrid_gpu_fraction: 0.5,
            split_policy: SplitPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// Returns a copy dispatching to a different substrate.
    pub fn with_device(mut self, device: AggregationDevice) -> Self {
        self.device = device;
        self
    }

    /// Returns a copy with a different simulated GPU configuration.
    pub fn with_gpu(mut self, gpu: DeviceConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Returns a copy with a different CPU worker count.
    pub fn with_cpu_workers(mut self, cpu_workers: usize) -> Self {
        self.cpu_workers = cpu_workers;
        self
    }

    /// Returns a copy with a different seed GPU fraction for the hybrid
    /// split.
    pub fn with_hybrid_gpu_fraction(mut self, fraction: f64) -> Self {
        self.hybrid_gpu_fraction = fraction;
        self
    }

    /// Returns a copy with a different hybrid split policy.
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split_policy = policy;
        self
    }
}

/// Result of cross-comparing two polygon sets.
#[derive(Debug, Clone)]
pub struct CrossComparisonReport {
    /// The `J'` similarity of the two sets (Formula 1).
    pub similarity: f64,
    /// Full aggregation summary.
    pub summary: JaccardSummary,
    /// Number of candidate pairs produced by the MBR join.
    pub candidate_pairs: usize,
    /// Per-pair areas, in candidate-pair order.
    pub pair_areas: Vec<PairAreas>,
    /// Simulated GPU launch statistics, when the GPU executed (part of) the
    /// batch.
    pub gpu_launch: Option<LaunchStats>,
    /// Simulated GPU seconds (transfers + kernel), when the GPU was used.
    pub gpu_seconds: Option<f64>,
}

/// Cross-comparison engine binding a compute backend and a PixelBox
/// configuration.
///
/// The engine is where an [`AggregationDevice`] becomes a
/// [`ComputeBackend`]; nothing else in the workspace makes that choice.
///
/// ```
/// use sccg::prelude::*;
///
/// let engine = CrossComparison::new(
///     EngineConfig::default()
///         .with_device(AggregationDevice::Hybrid) // or Gpu / Cpu
///         .with_hybrid_gpu_fraction(0.7), // seed: 70% of each batch on the GPU
/// );
/// assert_eq!(engine.backend().name(), "pixelbox-hybrid");
/// ```
#[derive(Debug, Clone)]
pub struct CrossComparison {
    config: EngineConfig,
    gpu: Arc<Device>,
    backend: Arc<dyn ComputeBackend>,
    split_controller: Option<Arc<SplitController>>,
}

impl CrossComparison {
    /// Creates an engine with its own simulated GPU (built from
    /// `config.gpu`) and, for [`AggregationDevice::Hybrid`], its own split
    /// controller. The device is instantiated eagerly so repeated
    /// comparisons share it (and its cumulative statistics).
    pub fn new(config: EngineConfig) -> Self {
        let gpu = Arc::new(Device::new(config.gpu.clone()));
        Self::with_device(config, gpu, None)
    }

    /// Creates an engine on shared parts: the simulated device `gpu`
    /// (`config.gpu` is not consulted) and, when given, a hybrid
    /// [`SplitController`] that a fleet of engines pools its timing
    /// observations in, so a fresh engine starts from the fleet's learned
    /// split instead of re-running warm-up. With `None`, a hybrid engine
    /// gets a fresh controller seeded from `config.hybrid_gpu_fraction`
    /// under `config.split_policy`. Only [`AggregationDevice::Hybrid`]
    /// consults a controller; the other substrates ignore it.
    pub fn with_device(
        config: EngineConfig,
        gpu: Arc<Device>,
        controller: Option<Arc<SplitController>>,
    ) -> Self {
        let (backend, split_controller): (Arc<dyn ComputeBackend>, _) = match config.device {
            AggregationDevice::Gpu => (Arc::new(GpuBackend::new(Arc::clone(&gpu))), None),
            AggregationDevice::Cpu => (Arc::new(CpuBackend::new(config.cpu_workers)), None),
            AggregationDevice::Hybrid => {
                let controller = controller.unwrap_or_else(|| {
                    let split = SplitConfig::adaptive(config.hybrid_gpu_fraction)
                        .with_policy(config.split_policy);
                    Arc::new(SplitController::new(split))
                });
                let backend = HybridBackend::new(
                    Arc::clone(&gpu),
                    config.cpu_workers,
                    Arc::clone(&controller),
                );
                (Arc::new(backend), Some(controller))
            }
        };
        CrossComparison {
            config,
            gpu,
            backend,
            split_controller,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The simulated GPU device used by this engine.
    pub fn device(&self) -> &Arc<Device> {
        &self.gpu
    }

    /// The compute backend this engine dispatches area computations to.
    pub fn backend(&self) -> &Arc<dyn ComputeBackend> {
        &self.backend
    }

    /// The hybrid split controller, when `device` is
    /// [`AggregationDevice::Hybrid`] — exposes per-batch split telemetry
    /// ([`SplitController::trace`]) and observed substrate rates.
    pub fn split_controller(&self) -> Option<&Arc<SplitController>> {
        self.split_controller.as_ref()
    }

    /// Filters candidate pairs of two record sets by MBR intersection,
    /// returning the pairs in join order. Exposed so callers can inspect the
    /// filter stage's output (and so the benchmark can time it separately).
    pub fn filter_pairs(
        &self,
        first: &[PolygonRecord],
        second: &[PolygonRecord],
    ) -> Vec<PolygonPair> {
        let left: Vec<Rect> = first.iter().map(|r| r.polygon.mbr()).collect();
        let right: Vec<Rect> = second.iter().map(|r| r.polygon.mbr()).collect();
        mbr_join(&left, &right)
            .into_iter()
            .map(|(i, j)| {
                PolygonPair::new(
                    first[i as usize].polygon.clone(),
                    second[j as usize].polygon.clone(),
                )
            })
            .collect()
    }

    /// Cross-compares two polygon record sets (typically the two segmentation
    /// results of one tile) and returns the similarity report.
    pub fn compare_records(
        &self,
        first: &[PolygonRecord],
        second: &[PolygonRecord],
    ) -> CrossComparisonReport {
        let pairs = self.filter_pairs(first, second);
        self.compare_pairs(&pairs)
    }

    /// Like [`CrossComparison::compare_records`] but with an explicit
    /// PixelBox configuration overriding the engine's own — the serving layer
    /// uses this so every engine of a pool computes a query under the *same*
    /// per-request configuration (variant, threshold), keeping sharded
    /// results bit-identical regardless of which engine served each shard.
    pub fn compare_records_with(
        &self,
        first: &[PolygonRecord],
        second: &[PolygonRecord],
        pixelbox: &PixelBoxConfig,
    ) -> CrossComparisonReport {
        let pairs = self.filter_pairs(first, second);
        self.compare_pairs_with(&pairs, pixelbox)
    }

    /// Cross-compares an already-filtered batch of polygon pairs.
    pub fn compare_pairs(&self, pairs: &[PolygonPair]) -> CrossComparisonReport {
        self.compare_pairs_with(pairs, &self.config.pixelbox)
    }

    /// Like [`CrossComparison::compare_pairs`] but with an explicit PixelBox
    /// configuration overriding the engine's own.
    pub fn compare_pairs_with(
        &self,
        pairs: &[PolygonPair],
        pixelbox: &PixelBoxConfig,
    ) -> CrossComparisonReport {
        let batch = self.backend.compute_batch(pairs, pixelbox);

        let mut acc = JaccardAccumulator::new();
        for areas in &batch.areas {
            acc.add_pair(*areas);
        }
        let summary = acc.summary();
        CrossComparisonReport {
            similarity: summary.similarity,
            summary,
            candidate_pairs: pairs.len(),
            pair_areas: batch.areas,
            gpu_launch: batch.launch,
            gpu_seconds: batch.simulated_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccg_datagen::{generate_tile_pair, TileSpec};

    fn tile() -> sccg_datagen::TilePair {
        generate_tile_pair(&TileSpec {
            target_polygons: 80,
            width: 512,
            height: 512,
            seed: 21,
            ..TileSpec::default()
        })
    }

    fn engine_on(device: AggregationDevice) -> CrossComparison {
        CrossComparison::new(EngineConfig::default().with_device(device))
    }

    #[test]
    fn gpu_engine_produces_plausible_similarity() {
        let tile = tile();
        let engine = CrossComparison::new(EngineConfig::default());
        let report = engine.compare_records(&tile.first, &tile.second);
        assert!(report.candidate_pairs > 0);
        assert!(report.similarity > 0.3 && report.similarity <= 1.0);
        assert!(report.gpu_launch.is_some());
        assert!(report.gpu_seconds.unwrap() > 0.0);
        assert_eq!(report.pair_areas.len(), report.candidate_pairs);
    }

    #[test]
    fn cpu_gpu_and_hybrid_engines_agree_exactly() {
        // The backend-agreement invariant at the engine level: every
        // substrate — including both hybrid split policies — produces
        // bit-identical per-pair areas and J'.
        let tile = tile();
        let gpu_report =
            engine_on(AggregationDevice::Gpu).compare_records(&tile.first, &tile.second);
        let cpu_report =
            engine_on(AggregationDevice::Cpu).compare_records(&tile.first, &tile.second);
        let hybrid_report =
            engine_on(AggregationDevice::Hybrid).compare_records(&tile.first, &tile.second);
        let static_hybrid_report = CrossComparison::new(
            EngineConfig::default()
                .with_device(AggregationDevice::Hybrid)
                .with_split_policy(SplitPolicy::Static),
        )
        .compare_records(&tile.first, &tile.second);
        assert_eq!(gpu_report.pair_areas, cpu_report.pair_areas);
        assert_eq!(gpu_report.pair_areas, hybrid_report.pair_areas);
        assert_eq!(gpu_report.pair_areas, static_hybrid_report.pair_areas);
        assert_eq!(gpu_report.similarity, cpu_report.similarity);
        assert_eq!(gpu_report.similarity, hybrid_report.similarity);
        assert_eq!(gpu_report.summary, hybrid_report.summary);
        assert_eq!(gpu_report.summary, static_hybrid_report.summary);
        assert!(cpu_report.gpu_launch.is_none());
        // The hybrid engine really used the GPU for its share.
        assert!(hybrid_report.gpu_launch.is_some());
    }

    #[test]
    fn hybrid_engine_exposes_split_telemetry() {
        let tile = tile();
        let engine = engine_on(AggregationDevice::Hybrid);
        assert!(engine.split_controller().is_some());
        assert!(engine_on(AggregationDevice::Gpu)
            .split_controller()
            .is_none());
        // Repeated comparisons feed the controller; the trace grows and every
        // recorded fraction stays in bounds while results stay identical.
        let first = engine.compare_records(&tile.first, &tile.second);
        for _ in 0..3 {
            let again = engine.compare_records(&tile.first, &tile.second);
            assert_eq!(first.pair_areas, again.pair_areas);
        }
        let controller = engine.split_controller().unwrap();
        assert_eq!(controller.batches_recorded(), 4);
        assert!(controller
            .trace()
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.next_fraction)));
    }

    #[test]
    fn hybrid_engine_splits_work_across_substrates() {
        let tile = tile();
        let engine = engine_on(AggregationDevice::Hybrid);
        let pairs = engine.filter_pairs(&tile.first, &tile.second);
        let report = engine.compare_pairs(&pairs);
        // The GPU launch covered only the GPU share: an all-GPU run of the
        // same pairs costs strictly more cycles.
        let all_gpu = engine_on(AggregationDevice::Gpu).compare_pairs(&pairs);
        assert!(
            report.gpu_launch.unwrap().cycles < all_gpu.gpu_launch.unwrap().cycles,
            "hybrid GPU share must be a strict subset of the batch"
        );
        assert_eq!(report.pair_areas, all_gpu.pair_areas);
    }

    #[test]
    fn engine_exposes_backend_name() {
        assert_eq!(
            engine_on(AggregationDevice::Hybrid).backend().name(),
            "pixelbox-hybrid"
        );
        assert_eq!(
            engine_on(AggregationDevice::Cpu).backend().name(),
            "pixelbox-cpu"
        );
    }

    #[test]
    fn aggregation_device_constructs_matching_backends() {
        let names: Vec<&str> = [
            AggregationDevice::Gpu,
            AggregationDevice::Cpu,
            AggregationDevice::Hybrid,
        ]
        .into_iter()
        .map(|d| engine_on(d).backend().name())
        .collect();
        assert_eq!(
            names,
            vec!["pixelbox-gpu", "pixelbox-cpu", "pixelbox-hybrid"]
        );
    }

    #[test]
    fn only_the_hybrid_backend_has_a_controller() {
        let device = Arc::new(Device::new(DeviceConfig::gtx580()));
        let pooled = Arc::new(SplitController::new(SplitConfig::default()));
        for (device_kind, expect_controller) in [
            (AggregationDevice::Gpu, false),
            (AggregationDevice::Cpu, false),
            (AggregationDevice::Hybrid, true),
        ] {
            let config = EngineConfig::default().with_device(device_kind);
            let fresh = CrossComparison::with_device(config.clone(), Arc::clone(&device), None);
            assert_eq!(
                fresh.split_controller().is_some(),
                expect_controller,
                "{device_kind:?}"
            );
            // A given controller is the hybrid engine's own; the
            // single-substrate engines ignore it.
            let shared = CrossComparison::with_device(
                config,
                Arc::clone(&device),
                Some(Arc::clone(&pooled)),
            );
            assert_eq!(
                shared
                    .split_controller()
                    .is_some_and(|c| Arc::ptr_eq(c, &pooled)),
                expect_controller,
                "{device_kind:?}"
            );
        }
    }

    #[test]
    fn identical_inputs_have_similarity_one() {
        let tile = tile();
        let engine = CrossComparison::new(EngineConfig::default());
        let report = engine.compare_records(&tile.first, &tile.first);
        assert!((report.similarity - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_yield_zero_similarity() {
        let engine = CrossComparison::new(EngineConfig::default());
        let report = engine.compare_records(&[], &[]);
        assert_eq!(report.candidate_pairs, 0);
        assert_eq!(report.similarity, 0.0);
    }

    #[test]
    fn similarity_agrees_with_exact_overlay_reference() {
        // The PixelBox-based engine must reproduce exactly what the
        // GEOS-style overlay computes pair by pair.
        let tile = tile();
        let engine = CrossComparison::new(EngineConfig::default());
        let pairs = engine.filter_pairs(&tile.first, &tile.second);
        let report = engine.compare_pairs(&pairs);
        let mut acc = crate::jaccard::JaccardAccumulator::new();
        for pair in &pairs {
            acc.add_pair(sccg_clip::pair_areas(&pair.p, &pair.q));
        }
        let expected = acc.summary();
        assert_eq!(report.summary, expected);
    }
}
