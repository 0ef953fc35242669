//! A miniature spatial DBMS — the PostGIS stand-in.
//!
//! The paper's baseline executes the cross-comparing queries of Figure 1 in
//! PostGIS, whose spatial operators are implemented on top of GEOS. This
//! crate reproduces that execution path so the profiling experiment
//! (Figure 2) and the PostGIS-S / PostGIS-M baselines (Table 1, Figure 12)
//! can be regenerated:
//!
//! * [`table::PolygonTable`] — a polygon relation loaded from the text format.
//! * [`query`] — the cross-comparing query executor in its *unoptimized*
//!   (Figure 1(a)) and *optimized* (Figure 1(b)) forms, with a per-operator
//!   profiler that decomposes execution time into index search,
//!   `ST_Intersects`, area-of-intersection, area-of-union, `ST_Area` and
//!   everything else — exactly the decomposition Figure 2 reports.
//! * [`query::execute_parallel`] — the PostGIS-M scheme: polygon tables are
//!   partitioned into chunks processed by independent query streams, with the
//!   parallel makespan modelled by greedy assignment of measured chunk times
//!   to the available cores (real overlap on a shared host is not
//!   reproducible run to run).
//!
//! The exact overlay operators come from `sccg-clip`, playing the role GEOS
//! plays for PostGIS.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;
pub mod table;

pub use query::{
    execute_cross_comparison, execute_parallel, OperatorProfile, QueryPlan, QueryResult,
};
pub use table::PolygonTable;
