//! Slide-serving query API for the SCCG reproduction.
//!
//! The paper's system (Wang et al., PVLDB 2012, Figure 1) is a *query
//! service*: segmentation results are registered once as slide tables, and
//! cross-comparison queries over them execute on a hybrid CPU-GPU runtime.
//! The one-shot library entry points ([`sccg::CrossComparison`],
//! [`sccg::pipeline::Pipeline`]) re-parse inputs and own a private engine
//! per call;
//! this crate is the persistent serving layer on top of them:
//!
//! * [`SlideStore`] — register parsed (or raw-text) slide/tile data once,
//!   get back [`SlideId`]/[`TileId`] handles.
//! * [`QueryRequest`] — a builder-style query over a slide pair: tile subset
//!   or whole slide, device preference, PixelBox variant, priority.
//! * [`ComparisonService`] — owns a pool of engines (CPU/GPU/hybrid mix),
//!   shards whole-slide queries across the pool (each free engine takes the
//!   first shard it may run in the most urgent priority lane; an engine the
//!   [`supervisor`] marked dead takes none), merges per-tile Jaccard
//!   accumulators in deterministic tile order, caches responses, bounds
//!   in-flight queries with admission control, and pools hybrid
//!   [`sccg::pixelbox::SplitController`] observations across engines.
//! * [`QueryHandle`] / [`QueryResponse`] — one event stream per query: a
//!   [`QueryEvent::Tile`] per tile as its shard completes, then the merged
//!   response ([`QueryHandle::wait`] skips to it); [`json`] renders
//!   responses and telemetry as JSON.
//!
//! # Quick start
//!
//! ```
//! use sccg_serve::prelude::*;
//!
//! // Register two segmentation results (2 tiles each) once.
//! let spec = |seed| sccg_datagen::TileSpec {
//!     target_polygons: 40, width: 512, height: 512, seed, ..Default::default()
//! };
//! let tiles: Vec<_> = (0..2).map(|i| sccg_datagen::generate_tile_pair(&spec(i))).collect();
//! let store = SlideStore::new();
//! let a = store.register_slide("result-a", tiles.iter().map(|t| t.first.clone()).collect());
//! let b = store.register_slide("result-b", tiles.iter().map(|t| t.second.clone()).collect());
//!
//! // Serve whole-slide comparison queries over them.
//! let service = ComparisonService::new(store, ServiceConfig::default()).unwrap();
//! let response = service.submit(QueryRequest::new(a, b)).unwrap().wait().unwrap();
//! assert!(response.similarity() > 0.0 && response.similarity() <= 1.0);
//!
//! // A resubmission answers from the cache without touching any backend.
//! let again = service.submit(QueryRequest::new(a, b)).unwrap().wait().unwrap();
//! assert!(again.cache_hit);
//! assert_eq!(again.summary, response.summary);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod request;
mod scheduler;
pub mod service;
pub mod store;
pub mod supervisor;

pub use cache::LruCache;
pub use request::{QueryPriority, QueryRequest, TileSelection};
pub use service::{
    ComparisonService, QueryEvent, QueryHandle, QueryResponse, SchedulerStats, ServiceConfig,
    ServiceStats, TileReport,
};
pub use store::{SlideId, SlideInfo, SlideStore, StorageStats, TileId};
pub use supervisor::EngineHealth;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::cache::LruCache;
    pub use crate::request::{QueryPriority, QueryRequest, TileSelection};
    pub use crate::service::{
        ComparisonService, QueryEvent, QueryHandle, QueryResponse, SchedulerStats, ServiceConfig,
        ServiceStats, TileReport,
    };
    pub use crate::store::{SlideId, SlideInfo, SlideStore, StorageStats, TileId};
    pub use crate::supervisor::EngineHealth;
}
