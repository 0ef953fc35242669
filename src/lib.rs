//! Umbrella crate for the SCCG reproduction workspace.
//!
//! This crate exists so the repository-level `examples/` and `tests/`
//! directories build against every member crate at once. Library users should
//! depend on the individual crates instead:
//!
//! * [`sccg`] — PixelBox, the pipelined framework, task migration and the
//!   high-level [`sccg::CrossComparison`] API (the paper's contribution).
//! * [`sccg_store`] — out-of-core slide storage: the on-disk columnar tile
//!   format ([`sccg_store::SlideFile`]) and its demand pager
//!   ([`sccg_store::TileStorage`]).
//! * [`sccg_serve`] — the slide-serving query API: [`sccg_serve::SlideStore`]
//!   and [`sccg_serve::ComparisonService`] over a pooled engine fleet.
//! * [`sccg_net`] — the framed TCP wire front-end: [`sccg_net::WireServer`]
//!   and [`sccg_net::WireClient`].
//! * [`sccg_geometry`] — rectilinear polygon geometry.
//! * [`sccg_rtree`] — Hilbert R-tree index and MBR join.
//! * [`sccg_clip`] — exact overlay (the GEOS stand-in) and Monte-Carlo baseline.
//! * [`sccg_gpu_sim`] — the simulated SIMT GPU device.
//! * [`sccg_datagen`] — synthetic pathology workloads.
//! * [`sccg_sdbms`] — the miniature spatial DBMS (PostGIS stand-in).

#![forbid(unsafe_code)]

pub use sccg;
pub use sccg_clip;
pub use sccg_datagen;
pub use sccg_geometry;
pub use sccg_gpu_sim;
pub use sccg_net;
pub use sccg_rtree;
pub use sccg_sdbms;
pub use sccg_serve;
pub use sccg_store;

/// One-stop prelude over the whole stack: the core engine/pipeline API
/// (`sccg::prelude`) plus the serving layer (`sccg_serve::prelude`).
///
/// The serving crate sits *on top of* the core crate, so it cannot be
/// re-exported from `sccg::prelude` itself without a dependency cycle; the
/// umbrella crate is where the two meet.
pub mod prelude {
    pub use sccg::prelude::*;
    pub use sccg_serve::prelude::*;
}
