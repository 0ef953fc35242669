//! The PixelBox algorithm (paper §3) and its variants.
//!
//! PixelBox computes the areas of intersection and union of a batch of
//! rectilinear polygon pairs *without constructing the overlay geometry*. It
//! combines two ideas:
//!
//! 1. **Pixelization** (§3.1): classify every pixel of a pair's MBR against
//!    both polygons with an even–odd ray cast; the intersection area is the
//!    count of pixels inside both, the union the count inside either. Pixel
//!    tests are independent, so they map perfectly onto SIMD lanes.
//! 2. **Sampling boxes** (§3.2): recursively partition the MBR into boxes;
//!    a box that lies entirely inside or outside both polygons resolves the
//!    contribution of all of its pixels at once (Lemma 1). When a box drops
//!    below the pixelization threshold `T`, per-pixel testing finishes it.
//!
//! The union is normally derived indirectly through
//! `‖p∪q‖ = ‖p‖ + ‖q‖ − ‖p∩q‖`, avoiding the extra partitionings required to
//! resolve union contributions directly.
//!
//! Submodules:
//!
//! * [`position`] — the sampling-box position predicate of Lemma 1.
//! * [`algorithm`] — the device-independent core of PixelBox, shared by the
//!   CPU port and the GPU kernel, with an execution trace used for cost
//!   accounting. Pixelized regions are finished by the row sweep that gives
//!   every served area, over each polygon's cached
//!   [`sccg_geometry::EdgeTable`] (O(row runs × crossing edges) instead of
//!   O(pixels × edges)); the retained
//!   per-pixel loop ([`algorithm::compute_pair_reference`]) is the oracle it
//!   is verified bit-identical against — areas *and* traces.
//! * [`cpu`] — the CPU substrate's exact row sweep of a pair's MBR overlap,
//!   and `PixelBox-CPU`, the paper's multi-core CPU port (§4.2), which
//!   Figure 7 times.
//! * [`gpu`] — the CUDA-style kernel: its areas (the CPU's row sweep) and
//!   traces (the count-only partition scan,
//!   [`algorithm::trace_pair`]) are computed on the shared worker pool, and
//!   its cost is charged on
//!   the `sccg-gpu-sim` device by a pure function of each pair's trace,
//!   including the implementation-optimization toggles evaluated in Figure 9.
//! * [`backend`] — the [`ComputeBackend`] dispatch trait unifying the CPU,
//!   GPU and hybrid CPU+GPU substrates behind one interface.
//! * [`adaptive`] — the timing-feedback [`SplitController`] that steers the
//!   hybrid backend's per-batch CPU/GPU split (the paper's §4 migration
//!   heuristic generalized to intra-batch splits).

pub mod adaptive;
pub mod algorithm;
pub mod backend;
pub mod cpu;
pub mod gpu;
pub mod position;

pub use adaptive::{
    BatchObservation, SplitConfig, SplitController, SplitPolicy, SplitSample, SplitTrace,
    MIN_OBSERVED_SECONDS,
};
pub use backend::{BackendBatch, ComputeBackend, CpuBackend, GpuBackend, HybridBackend};
pub use sccg_clip::PairAreas;
use sccg_geometry::RectilinearPolygon;

/// Builds the scanline [`sccg_geometry::EdgeTable`] of every polygon that
/// does not already have one resident, fanning the builds out over the
/// persistent [`WorkerPool`](crate::parallel::WorkerPool).
///
/// The pipeline's builder stage calls this ahead of the aggregator, so the
/// table builds are off the aggregation path. Already-resident tables
/// (checked via [`RectilinearPolygon::edge_table_if_built`]) are skipped
/// without contending on the lock.
///
/// Returns the number of polygons that were cold at entry (whose build was
/// scheduled on the pool).
pub fn build_edge_tables_batch(polygons: &[&RectilinearPolygon], max_workers: usize) -> usize {
    let cold: Vec<&RectilinearPolygon> = polygons
        .iter()
        .copied()
        .filter(|poly| poly.edge_table_if_built().is_none())
        .collect();
    if cold.is_empty() {
        return 0;
    }
    crate::parallel::WorkerPool::global().map(&cold, max_workers, 8, |poly| {
        poly.edge_table();
    });
    cold.len()
}

/// One input pair for cross-comparison: a polygon from each segmentation
/// result whose MBRs intersect (produced by the filter stage).
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonPair {
    /// Polygon from the first segmentation result.
    pub p: RectilinearPolygon,
    /// Polygon from the second segmentation result.
    pub q: RectilinearPolygon,
}

impl PolygonPair {
    /// Creates a pair.
    pub fn new(p: RectilinearPolygon, q: RectilinearPolygon) -> Self {
        PolygonPair { p, q }
    }

    /// The joint MBR of the pair — the initial sampling box of Algorithm 1.
    pub fn joint_mbr(&self) -> sccg_geometry::Rect {
        self.p.mbr().union(&self.q.mbr())
    }
}

/// Algorithm variant, matching the versions compared in Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Pixelization only: every pixel of the joint MBR is tested. (`PixelOnly`)
    PixelOnly,
    /// Sampling boxes, but the areas of intersection *and* union are both
    /// resolved through box partitioning. (`PixelBox-NoSep`)
    NoSep,
    /// Full PixelBox: sampling boxes resolve the intersection only; the union
    /// is derived indirectly from the polygon areas. (`PixelBox`)
    #[default]
    Full,
}

/// Implementation-optimization toggles evaluated in Figure 9. They change
/// the *cost* of the GPU kernel, never its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationFlags {
    /// Stage polygon vertex data in shared memory when it fits (otherwise
    /// every position test re-reads vertices from global memory).
    pub shared_memory_vertices: bool,
    /// Lay the sampling-box stack out as five separate arrays so simultaneous
    /// pushes are conflict-free (structure-of-arrays), instead of one
    /// interleaved array (array-of-structures).
    pub avoid_bank_conflicts: bool,
    /// Unroll the polygon-edge loops in the position tests by a factor of 4.
    pub unroll_loops: bool,
}

impl OptimizationFlags {
    /// All optimizations enabled — the configuration called
    /// `PixelBox-NBC-UR-SM` in Figure 9 and used everywhere else.
    pub const fn all() -> Self {
        OptimizationFlags {
            shared_memory_vertices: true,
            avoid_bank_conflicts: true,
            unroll_loops: true,
        }
    }

    /// No optimizations — `PixelBox-NoOpt` in Figure 9.
    pub const fn none() -> Self {
        OptimizationFlags {
            shared_memory_vertices: false,
            avoid_bank_conflicts: false,
            unroll_loops: false,
        }
    }
}

impl Default for OptimizationFlags {
    fn default() -> Self {
        Self::all()
    }
}

/// Which device executes the aggregation (area computation) work.
///
/// This enum is the configuration-level name of a substrate; the actual
/// dispatch happens through the [`ComputeBackend`] that
/// [`CrossComparison`](crate::CrossComparison) builds for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationDevice {
    /// The simulated GPU (PixelBox kernel).
    #[default]
    Gpu,
    /// The host CPU (PixelBox-CPU).
    Cpu,
    /// Both at once: each batch splits between GPU and CPU (§5 hybrid
    /// execution). The split is governed by a [`SplitController`] — adaptive
    /// timing feedback by default, or pinned at the configured seed fraction
    /// (e.g. `EngineConfig::hybrid_gpu_fraction`) under
    /// [`SplitPolicy::Static`].
    Hybrid,
}

/// Tunable parameters of PixelBox.
///
/// `block_size`, `threshold`, `variant` and `opts` describe only the
/// modelled GPU kernel and the paper's CPU port that Figure 7 times
/// ([`cpu::compute_batch_cpu`]). The served CPU substrate
/// ([`CpuBackend`]) sweeps each pair's MBR overlap whatever they say, and
/// returns the same areas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelBoxConfig {
    /// Threads per block (`n` in §3.4). Also the number of sub-boxes a
    /// sampling box is partitioned into on the GPU. GPU kernel only.
    pub block_size: u32,
    /// Number of thread blocks in the grid. Pairs are distributed round-robin
    /// over blocks (Algorithm 1 line 10/43).
    pub grid_size: u32,
    /// Pixelization threshold `T`: boxes smaller than this many pixels are
    /// finished with per-pixel tests. The paper recommends `T ≈ n²/2`. GPU
    /// kernel and the paper's CPU port only.
    pub threshold: u32,
    /// Algorithm variant. GPU kernel and the paper's CPU port only.
    pub variant: Variant,
    /// Implementation optimizations (GPU cost model only).
    pub opts: OptimizationFlags,
}

impl PixelBoxConfig {
    /// The default configuration used throughout the evaluation: 64-thread
    /// blocks, `T = n²/2 = 2048`, full variant, all optimizations.
    pub fn paper_default() -> Self {
        PixelBoxConfig {
            block_size: 64,
            grid_size: 256,
            threshold: 64 * 64 / 2,
            variant: Variant::Full,
            opts: OptimizationFlags::all(),
        }
    }

    /// Returns a copy with a different pixelization threshold.
    pub fn with_threshold(mut self, threshold: u32) -> Self {
        self.threshold = threshold.max(1);
        self
    }

    /// Returns a copy with a different variant.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns a copy with different optimization flags.
    pub fn with_opts(mut self, opts: OptimizationFlags) -> Self {
        self.opts = opts;
        self
    }

    /// Returns a copy with a different block size, keeping `T = n²/2`.
    pub fn with_block_size(mut self, block_size: u32) -> Self {
        self.block_size = block_size.max(1);
        self.threshold = (self.block_size * self.block_size / 2).max(1);
        self
    }
}

impl Default for PixelBoxConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccg_geometry::Rect;

    #[test]
    fn paper_default_matches_recommendation() {
        let cfg = PixelBoxConfig::paper_default();
        assert_eq!(cfg.block_size, 64);
        assert_eq!(cfg.threshold, cfg.block_size * cfg.block_size / 2);
        assert_eq!(cfg.variant, Variant::Full);
        assert_eq!(cfg.opts, OptimizationFlags::all());
    }

    #[test]
    fn builder_methods_update_fields() {
        let cfg = PixelBoxConfig::paper_default()
            .with_threshold(0)
            .with_variant(Variant::PixelOnly)
            .with_opts(OptimizationFlags::none());
        assert_eq!(cfg.threshold, 1);
        assert_eq!(cfg.variant, Variant::PixelOnly);
        assert!(!cfg.opts.shared_memory_vertices);
        let cfg = cfg.with_block_size(128);
        assert_eq!(cfg.block_size, 128);
        assert_eq!(cfg.threshold, 128 * 128 / 2);
    }

    #[test]
    fn batch_prewarm_builds_cold_tables_and_skips_resident_ones() {
        let p = RectilinearPolygon::rectangle(Rect::new(0, 0, 8, 8)).unwrap();
        let q = RectilinearPolygon::rectangle(Rect::new(4, 4, 12, 12)).unwrap();
        assert!(p.edge_table_if_built().is_none());
        assert_eq!(build_edge_tables_batch(&[&p, &q], 4), 2);
        assert!(p.edge_table_if_built().is_some());
        assert!(q.edge_table_if_built().is_some());
        // Everything is resident now: nothing is scheduled again.
        assert_eq!(build_edge_tables_batch(&[&p, &q], 4), 0);
        assert_eq!(build_edge_tables_batch(&[&p, &q], 1), 0);
    }

    #[test]
    fn polygon_pair_joint_mbr_covers_both() {
        let p = RectilinearPolygon::rectangle(Rect::new(0, 0, 4, 4)).unwrap();
        let q = RectilinearPolygon::rectangle(Rect::new(10, 10, 14, 14)).unwrap();
        let pair = PolygonPair::new(p.clone(), q.clone());
        let joint = pair.joint_mbr();
        assert!(joint.contains_rect(&p.mbr()));
        assert!(joint.contains_rect(&q.mbr()));
    }
}
