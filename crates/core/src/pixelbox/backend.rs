//! Unified dispatch for PixelBox batch execution: the [`ComputeBackend`]
//! trait and its three implementations.
//!
//! The paper's system runs the aggregation (area-computation) workload on
//! whichever substrate is available: the GPU kernel (§3), the multi-core CPU
//! port (§4.2), or *both at once* under the hybrid execution of §5. Before
//! this module existed, every caller — the engine, the pipeline aggregator,
//! the benches — re-implemented that choice as a two-arm `match`. Now the
//! choice is made once, behind one trait:
//!
//! * [`CpuBackend`] — the CPU's exact row sweep ([`sweep_pair`]) on a
//!   work-sharing thread pool.
//! * [`GpuBackend`] — the PixelBox kernel on a simulated SIMT device.
//! * [`HybridBackend`] — splits every batch between the GPU and the CPU by a
//!   fraction a [`SplitController`] picks and merges the results in input
//!   order.
//!
//! [`CrossComparison`](crate::CrossComparison) maps an
//! [`AggregationDevice`](super::AggregationDevice) to one of these; that
//! mapping is the only place the substrate is chosen.

use super::adaptive::{normalize_fraction, BatchObservation, SplitController};
use super::cpu::sweep_pair;
use super::gpu::GpuPixelBox;
use super::{PairAreas, PixelBoxConfig, PolygonPair};
use sccg_gpu_sim::{Device, LaunchStats};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Result of executing one batch of polygon pairs on a backend.
#[derive(Debug, Clone, Default)]
pub struct BackendBatch {
    /// Areas of intersection and union per input pair, in input order.
    pub areas: Vec<PairAreas>,
    /// Simulated kernel launch statistics, when a GPU executed (part of) the
    /// batch.
    pub launch: Option<LaunchStats>,
    /// Simulated GPU seconds (transfers + kernel), when a GPU executed (part
    /// of) the batch.
    pub simulated_seconds: Option<f64>,
}

impl BackendBatch {
    /// Simulated kernel time in seconds; `0.0` when no GPU was involved.
    pub fn kernel_seconds(&self) -> f64 {
        self.launch.map_or(0.0, |launch| launch.time_seconds)
    }

    /// Simulated total GPU seconds; `0.0` when no GPU was involved.
    pub fn total_simulated_seconds(&self) -> f64 {
        self.simulated_seconds.unwrap_or(0.0)
    }
}

/// A substrate that can compute the areas of a batch of polygon pairs.
///
/// Implementations must return one [`PairAreas`] per input pair, in input
/// order, and all implementations must agree bit-for-bit on the areas — the
/// substrate choice is a performance decision, never a correctness one
/// (asserted by the backend-agreement tests).
pub trait ComputeBackend: fmt::Debug + Send + Sync {
    /// Short human-readable backend name (e.g. for logs and bench labels).
    fn name(&self) -> &'static str;

    /// Computes the areas of intersection and union for every pair.
    fn compute_batch(&self, pairs: &[PolygonPair], config: &PixelBoxConfig) -> BackendBatch;
}

/// The CPU substrate as a backend: every pair's areas come from one exact
/// row sweep over its MBR overlap ([`sweep_pair`]), mapped over the shared
/// [`WorkerPool`](crate::parallel::WorkerPool). The CPU engine, the hybrid
/// backend's CPU share and the pipeline's migration batches all run it,
/// whatever the request's [`Variant`](super::Variant): PixelBox's
/// sampling-box partition pays off only where a pixel test walks every
/// edge, as on the modelled GPU. The paper's CPU port of PixelBox (§4.2),
/// which Figure 7 times, is [`compute_batch_cpu`](super::cpu::compute_batch_cpu).
#[derive(Debug, Clone)]
pub struct CpuBackend {
    workers: usize,
}

impl CpuBackend {
    /// Creates a CPU backend using `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        CpuBackend {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new(crate::parallel::default_workers())
    }
}

impl ComputeBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "pixelbox-cpu"
    }

    fn compute_batch(&self, pairs: &[PolygonPair], _config: &PixelBoxConfig) -> BackendBatch {
        BackendBatch {
            areas: crate::parallel::WorkerPool::global().map(pairs, self.workers, 64, sweep_pair),
            launch: None,
            simulated_seconds: None,
        }
    }
}

/// PixelBox on the simulated SIMT GPU (§3) as a backend.
#[derive(Debug, Clone)]
pub struct GpuBackend {
    engine: GpuPixelBox,
}

impl GpuBackend {
    /// Creates a GPU backend bound to an existing simulated device.
    pub fn new(device: Arc<Device>) -> Self {
        GpuBackend {
            engine: GpuPixelBox::new(device),
        }
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Arc<Device> {
        self.engine.device()
    }
}

impl ComputeBackend for GpuBackend {
    fn name(&self) -> &'static str {
        "pixelbox-gpu"
    }

    fn compute_batch(&self, pairs: &[PolygonPair], config: &PixelBoxConfig) -> BackendBatch {
        if pairs.is_empty() {
            // No kernel is launched for an empty batch, so `launch` stays
            // `None` — `launch.is_some()` means "the GPU actually ran".
            return BackendBatch::default();
        }
        let result = self.engine.compute_batch(pairs, config);
        let total = result.total_seconds();
        BackendBatch {
            areas: result.areas,
            launch: Some(result.launch),
            simulated_seconds: Some(total),
        }
    }
}

/// Hybrid CPU+GPU execution (§5): each batch is split between the GPU
/// (prefix) and the CPU (suffix) and merged back in input order. The two
/// shares run side by side through [`WorkerPool::join`]: the CPU share on a
/// pool worker, the GPU share on the calling thread. The split fraction
/// comes from a [`SplitController`]: either pinned at a configured value
/// ([`super::adaptive::SplitPolicy::Static`]) or steered per batch toward
/// the timing-balanced split by the feedback loop of [`super::adaptive`]
/// (the default).
///
/// [`WorkerPool::join`]: crate::parallel::WorkerPool::join
#[derive(Debug, Clone)]
pub struct HybridBackend {
    gpu: GpuBackend,
    cpu: CpuBackend,
    controller: Arc<SplitController>,
}

/// Index at which a `len`-pair batch is split between the GPU (prefix) and
/// the CPU (suffix) for a given GPU fraction. The fraction is clamped to
/// `[0, 1]`, so the split is always within bounds: `0.0` sends everything to
/// the CPU, `1.0` everything to the GPU.
pub fn hybrid_split_point(len: usize, gpu_fraction: f64) -> usize {
    let fraction = normalize_fraction(gpu_fraction);
    ((len as f64 * fraction).round() as usize).min(len)
}

impl HybridBackend {
    /// Creates a hybrid backend whose per-batch GPU fraction is governed by
    /// `controller`: `cpu_workers` CPU threads take the CPU share, the
    /// simulated `device` the GPU share. A static split is
    /// `SplitController::new(SplitConfig::fixed(fraction))`; sharing one
    /// controller lets callers read its telemetry, or several backends pool
    /// their observations.
    pub fn new(device: Arc<Device>, cpu_workers: usize, controller: Arc<SplitController>) -> Self {
        HybridBackend {
            gpu: GpuBackend::new(device),
            cpu: CpuBackend::new(cpu_workers),
            controller,
        }
    }

    /// The GPU fraction the *next* batch will be split at.
    pub fn gpu_fraction(&self) -> f64 {
        self.controller.next_fraction()
    }

    /// The split controller governing this backend.
    pub fn controller(&self) -> &Arc<SplitController> {
        &self.controller
    }

    /// The underlying simulated device.
    pub fn device(&self) -> &Arc<Device> {
        self.gpu.device()
    }

    /// Where a batch of `len` pairs would currently split between GPU prefix
    /// and CPU suffix.
    pub fn split_point(&self, len: usize) -> usize {
        self.observable_split_point(len, self.controller.next_fraction())
    }

    /// The split point for `fraction`, with the adaptive policy's
    /// observability guarantee applied: rounding must not hand the minority
    /// substrate zero pairs (on a small batch, `round(len · 0.95) == len`),
    /// or its rate EWMA would go stale and the controller could never react
    /// to a later speed change — the absorbing state [`super::adaptive`]'s
    /// probe band exists to prevent. Static splits keep the pure rounding so
    /// pinned extremes still send everything to one substrate.
    fn observable_split_point(&self, len: usize, fraction: f64) -> usize {
        let split = hybrid_split_point(len, fraction);
        if self.controller.config().policy == super::adaptive::SplitPolicy::Adaptive && len >= 2 {
            split.clamp(1, len - 1)
        } else {
            split
        }
    }
}

impl ComputeBackend for HybridBackend {
    fn name(&self) -> &'static str {
        "pixelbox-hybrid"
    }

    fn compute_batch(&self, pairs: &[PolygonPair], config: &PixelBoxConfig) -> BackendBatch {
        let fraction = self.controller.next_fraction();
        let split = self.observable_split_point(pairs.len(), fraction);
        let (gpu_pairs, cpu_pairs) = pairs.split_at(split);

        // The CPU share runs on a persistent pool thread while this thread
        // drives the simulated GPU — the two substrates genuinely overlap,
        // as in §5, with no per-batch OS thread spawn
        // (`WorkerPool::join`; a spawn per sub-millisecond batch used to
        // dwarf the batch itself). The share's pair-level parallelism comes
        // from the same shared pool, so overlapping does not cost
        // worker-thread spawns either. Empty shares skip their substrate
        // entirely (no kernel launch, no pool job). Each side's wall-clock
        // is measured so the controller can steer the next batch's split
        // toward simultaneous finish.
        let (gpu_batch, gpu_seconds, cpu_batch, cpu_seconds) = if cpu_pairs.is_empty() {
            let started = Instant::now();
            let gpu_batch = self.gpu.compute_batch(gpu_pairs, config);
            let gpu_seconds = started.elapsed().as_secs_f64();
            (gpu_batch, gpu_seconds, BackendBatch::default(), 0.0)
        } else {
            let ((cpu_batch, cpu_seconds), (gpu_batch, gpu_seconds)) =
                crate::parallel::WorkerPool::global().join(
                    || {
                        let started = Instant::now();
                        let batch = self.cpu.compute_batch(cpu_pairs, config);
                        (batch, started.elapsed().as_secs_f64())
                    },
                    || {
                        let started = Instant::now();
                        let batch = self.gpu.compute_batch(gpu_pairs, config);
                        (batch, started.elapsed().as_secs_f64())
                    },
                );
            (gpu_batch, gpu_seconds, cpu_batch, cpu_seconds)
        };

        if !pairs.is_empty() {
            // The GPU timing signal is the *larger* of the host wall-clock of
            // the GPU share and its simulated device seconds. The share's
            // areas are computed on the host's worker pool, so its host
            // seconds are a real cost, paid like the CPU share's; the simulated
            // half still lets a deliberately slowed device
            // (`DeviceConfig::slowed_down`, §5.6) push the split toward the
            // CPU. Replacing the blend with the modelled seconds alone waits
            // for a calibrated cost model.
            let gpu_simulated = gpu_batch.total_simulated_seconds();
            self.controller.record(BatchObservation {
                gpu_pairs: gpu_pairs.len(),
                gpu_seconds: gpu_seconds.max(gpu_simulated),
                gpu_simulated_seconds: gpu_simulated,
                cpu_pairs: cpu_pairs.len(),
                cpu_seconds,
                cpu_workers: self.cpu.workers(),
                fraction_used: Some(fraction),
            });
        }

        let mut areas = gpu_batch.areas;
        areas.extend(cpu_batch.areas);
        BackendBatch {
            areas,
            launch: gpu_batch.launch,
            simulated_seconds: gpu_batch.simulated_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixelbox::SplitConfig;
    use sccg_geometry::{Rect, RectilinearPolygon};
    use sccg_gpu_sim::DeviceConfig;

    fn device() -> Arc<Device> {
        Arc::new(Device::new(DeviceConfig::gtx580()))
    }

    fn hybrid_backend(
        device: Arc<Device>,
        cpu_workers: usize,
        split: SplitConfig,
    ) -> HybridBackend {
        HybridBackend::new(device, cpu_workers, Arc::new(SplitController::new(split)))
    }

    fn sample_pairs(n: i32) -> Vec<PolygonPair> {
        (0..n)
            .map(|i| {
                let p =
                    RectilinearPolygon::rectangle(Rect::new(2 * i, i, 2 * i + 11 + (i % 5), i + 9))
                        .unwrap();
                let q =
                    RectilinearPolygon::rectangle(Rect::new(2 * i + 3, i + 2, 2 * i + 15, i + 12))
                        .unwrap();
                PolygonPair::new(p, q)
            })
            .collect()
    }

    #[test]
    fn all_backends_agree_bit_for_bit() {
        let pairs = sample_pairs(33);
        let config = PixelBoxConfig::paper_default();
        let cpu = CpuBackend::new(2).compute_batch(&pairs, &config);
        let gpu = GpuBackend::new(device()).compute_batch(&pairs, &config);
        let hybrid =
            hybrid_backend(device(), 2, SplitConfig::fixed(0.5)).compute_batch(&pairs, &config);
        assert_eq!(cpu.areas, gpu.areas);
        assert_eq!(cpu.areas, hybrid.areas);
        assert!(cpu.launch.is_none() && cpu.simulated_seconds.is_none());
        assert!(gpu.launch.is_some() && gpu.simulated_seconds.is_some());
        assert!(hybrid.launch.is_some(), "hybrid ran a GPU share");
    }

    #[test]
    fn hybrid_actually_splits_across_both_substrates() {
        let pairs = sample_pairs(20);
        let config = PixelBoxConfig::paper_default();
        let dev = device();
        let hybrid = hybrid_backend(Arc::clone(&dev), 1, SplitConfig::fixed(0.5));
        assert_eq!(hybrid.split_point(pairs.len()), 10);

        let launches_before = dev.stats().launches;
        let batch = hybrid.compute_batch(&pairs, &config);
        let launches_after = dev.stats().launches;

        // The GPU saw exactly one launch for its half...
        assert_eq!(launches_after - launches_before, 1);
        // ...whose stats cover 10 pairs' worth of work, while the full batch
        // still produced every result: the other 10 ran on the CPU.
        assert_eq!(batch.areas.len(), pairs.len());
        let gpu_only = GpuBackend::new(device()).compute_batch(&pairs[..10], &config);
        assert_eq!(
            batch.launch.unwrap().cycles,
            gpu_only.launch.unwrap().cycles
        );
    }

    #[test]
    fn hybrid_fraction_extremes_degenerate_cleanly() {
        let pairs = sample_pairs(12);
        let config = PixelBoxConfig::paper_default();
        let all_cpu =
            hybrid_backend(device(), 2, SplitConfig::fixed(0.0)).compute_batch(&pairs, &config);
        assert!(all_cpu.launch.is_none(), "fraction 0 never touches the GPU");
        let all_gpu =
            hybrid_backend(device(), 2, SplitConfig::fixed(1.0)).compute_batch(&pairs, &config);
        assert!(all_gpu.launch.is_some());
        assert_eq!(all_cpu.areas, all_gpu.areas);
    }

    #[test]
    fn split_point_is_clamped_and_bounded() {
        assert_eq!(hybrid_split_point(10, -3.0), 0);
        assert_eq!(hybrid_split_point(10, 0.0), 0);
        assert_eq!(hybrid_split_point(10, 1.0), 10);
        assert_eq!(hybrid_split_point(10, 7.5), 10);
        assert_eq!(hybrid_split_point(10, 0.5), 5);
        assert_eq!(hybrid_split_point(0, 0.5), 0);
        assert_eq!(hybrid_split_point(10, f64::NAN), 5);
    }

    #[test]
    fn adaptive_hybrid_agrees_across_batches_and_records_telemetry() {
        let pairs = sample_pairs(48);
        let config = PixelBoxConfig::paper_default();
        let reference = CpuBackend::new(2).compute_batch(&pairs, &config);
        let controller = Arc::new(SplitController::new(SplitConfig::adaptive(0.5)));
        let backend = HybridBackend::new(device(), 2, Arc::clone(&controller));
        // Run several batches so the controller has observations to act on;
        // whatever fraction it picks, results must stay bit-identical.
        for _ in 0..5 {
            let batch = backend.compute_batch(&pairs, &config);
            assert_eq!(batch.areas, reference.areas);
        }
        assert_eq!(controller.batches_recorded(), 5);
        let trace = controller.trace();
        assert_eq!(trace.len(), 5);
        assert!(trace
            .samples()
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.next_fraction)));
        assert!(controller.observed_gpu_rate().is_some());
        assert!(controller.observed_cpu_rate_per_worker().is_some());
    }

    #[test]
    fn adaptive_small_batches_never_starve_a_substrate() {
        // At the probe-band edge (0.95), round(8 * 0.95) == 8 would hand the
        // CPU zero pairs and freeze its rate EWMA; the adaptive split point
        // must keep at least one pair on each side of any 2+-pair batch.
        let adaptive = hybrid_backend(device(), 1, SplitConfig::adaptive(0.95));
        for len in 2..=12usize {
            let split = adaptive.split_point(len);
            assert!((1..len).contains(&split), "len {len} split {split}");
        }
        assert_eq!(adaptive.split_point(1), 1, "single pair goes to one side");
        // Both substrates are observed even on a tiny batch at the edge.
        let batch = adaptive.compute_batch(&sample_pairs(8), &PixelBoxConfig::paper_default());
        assert_eq!(batch.areas.len(), 8);
        assert!(adaptive.controller().observed_gpu_rate().is_some());
        assert!(adaptive
            .controller()
            .observed_cpu_rate_per_worker()
            .is_some());
        // Static splits keep pure rounding: pinned extremes stay one-sided.
        let pinned = hybrid_backend(device(), 1, SplitConfig::fixed(1.0));
        assert_eq!(pinned.split_point(8), 8);
    }

    #[test]
    fn modelled_slow_device_pushes_the_adaptive_split_toward_the_cpu() {
        // The functional simulation runs at host speed, but the GPU timing
        // signal takes the simulated seconds when larger — so a device
        // slowed by §5.6's Config-III trick must drain the GPU share even
        // though the host cost of simulating it is unchanged.
        let slow_device = Arc::new(Device::new(DeviceConfig::gtx580().slowed_down(1.0e6)));
        let hybrid = hybrid_backend(slow_device, 2, SplitConfig::adaptive(0.5));
        let pairs = sample_pairs(40);
        let config = PixelBoxConfig::paper_default();
        let reference = CpuBackend::new(1).compute_batch(&pairs, &config);
        for _ in 0..12 {
            let batch = hybrid.compute_batch(&pairs, &config);
            assert_eq!(batch.areas, reference.areas);
        }
        let fraction = hybrid.gpu_fraction();
        assert!(
            fraction <= 0.2,
            "slowed device must collapse the GPU share, got {fraction}"
        );
    }

    #[test]
    fn static_backend_records_but_never_moves() {
        let pairs = sample_pairs(30);
        let config = PixelBoxConfig::paper_default();
        let hybrid = hybrid_backend(device(), 2, SplitConfig::fixed(0.5));
        for _ in 0..4 {
            hybrid.compute_batch(&pairs, &config);
        }
        assert_eq!(hybrid.gpu_fraction(), 0.5);
        assert_eq!(hybrid.controller().batches_recorded(), 4);
    }

    #[test]
    fn empty_batch_is_empty_on_every_backend() {
        let config = PixelBoxConfig::paper_default();
        let backends: [Arc<dyn ComputeBackend>; 3] = [
            Arc::new(GpuBackend::new(device())),
            Arc::new(CpuBackend::new(2)),
            Arc::new(hybrid_backend(device(), 2, SplitConfig::default())),
        ];
        for backend in backends {
            let batch = backend.compute_batch(&[], &config);
            assert!(batch.areas.is_empty(), "{}", backend.name());
            assert_eq!(batch.kernel_seconds(), 0.0, "{}", backend.name());
        }
    }
}
