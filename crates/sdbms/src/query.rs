//! The cross-comparing query executor with per-operator profiling.

use crate::table::PolygonTable;
use sccg_clip::{intersection_area, intersection_geometry, st_area, union_area_direct};
use sccg_rtree::HilbertRTree;
use std::time::Instant;

/// Which SQL formulation of the cross-comparing query is executed (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPlan {
    /// Figure 1(a): join on `ST_Intersects`, compute
    /// `ST_Area(ST_Intersection(...))` and `ST_Area(ST_Union(...))` per pair.
    Unoptimized,
    /// Figure 1(b): join on the `&&` MBR-overlap operator, compute only
    /// `ST_Area(ST_Intersection(...))` and the two stand-alone `ST_Area`
    /// calls, deriving the union indirectly.
    Optimized,
}

/// Wall-clock seconds attributed to each query component, the decomposition
/// shown in Figure 2.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OperatorProfile {
    /// Building the GiST-style index over the inner table's MBRs.
    pub index_build: f64,
    /// Index search: finding candidate pairs by MBR overlap.
    pub index_search: f64,
    /// The `ST_Intersects` exact-geometry join predicate (unoptimized query
    /// only).
    pub st_intersects: f64,
    /// `ST_Area(ST_Intersection(p, q))`.
    pub area_of_intersection: f64,
    /// `ST_Area(ST_Union(p, q))` (unoptimized query only).
    pub area_of_union: f64,
    /// The stand-alone `ST_Area(p)` / `ST_Area(q)` calls (optimized query).
    pub st_area: f64,
    /// Everything else: ratio arithmetic, aggregation, result handling.
    pub other: f64,
}

impl OperatorProfile {
    /// Total profiled time.
    pub fn total(&self) -> f64 {
        self.index_build
            + self.index_search
            + self.st_intersects
            + self.area_of_intersection
            + self.area_of_union
            + self.st_area
            + self.other
    }

    /// The component percentages in the order
    /// `[index_build, index_search, st_intersects, area_of_intersection,
    /// area_of_union, st_area, other]`, summing to ~100.
    pub fn percentages(&self) -> [f64; 7] {
        let total = self.total();
        if total <= 0.0 {
            return [0.0; 7];
        }
        [
            self.index_build,
            self.index_search,
            self.st_intersects,
            self.area_of_intersection,
            self.area_of_union,
            self.st_area,
            self.other,
        ]
        .map(|component| component / total * 100.0)
    }
}

/// Result of one cross-comparing query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The `J'` similarity of the two tables (average of per-pair ratios over
    /// pairs with a non-empty intersection).
    pub similarity: f64,
    /// Number of candidate pairs examined (MBR overlap).
    pub candidate_pairs: u64,
    /// Number of pairs with a non-empty intersection.
    pub intersecting_pairs: u64,
    /// Per-operator time decomposition.
    pub profile: OperatorProfile,
}

/// Executes the cross-comparing query between two polygon tables on a single
/// core, the PostGIS-S baseline.
pub fn execute_cross_comparison(
    outer: &PolygonTable,
    inner: &PolygonTable,
    plan: QueryPlan,
) -> QueryResult {
    let mut profile = OperatorProfile::default();

    // Index build over the inner table (GiST over MBRs).
    let started = Instant::now();
    let index = HilbertRTree::bulk_load(
        inner
            .rows()
            .iter()
            .enumerate()
            .map(|(j, r)| (r.polygon.mbr(), j as u32))
            .collect(),
    );
    profile.index_build = started.elapsed().as_secs_f64();

    // Index search: candidate pairs by MBR overlap (the `&&` operator, which
    // also underlies `ST_Intersects`' index path).
    let started = Instant::now();
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    for (i, row) in outer.rows().iter().enumerate() {
        index.search(&row.polygon.mbr(), |_, &j| {
            candidates.push((i as u32, j));
        });
    }
    profile.index_search = started.elapsed().as_secs_f64();

    let mut ratio_sum = 0.0f64;
    let mut intersecting = 0u64;

    for &(i, j) in &candidates {
        let p = &outer.rows()[i as usize].polygon;
        let q = &inner.rows()[j as usize].polygon;
        match plan {
            QueryPlan::Unoptimized => {
                // ST_Intersects: exact geometric test (GEOS constructs enough
                // of the overlay to answer it).
                let started = Instant::now();
                let intersects = !intersection_geometry(p, q).is_empty();
                profile.st_intersects += started.elapsed().as_secs_f64();
                if !intersects {
                    continue;
                }
                // ST_Area(ST_Intersection(p, q)).
                let started = Instant::now();
                let inter = intersection_area(p, q);
                profile.area_of_intersection += started.elapsed().as_secs_f64();
                // ST_Area(ST_Union(p, q)).
                let started = Instant::now();
                let union = union_area_direct(p, q);
                profile.area_of_union += started.elapsed().as_secs_f64();

                let started = Instant::now();
                if inter > 0 && union > 0 {
                    ratio_sum += inter as f64 / union as f64;
                    intersecting += 1;
                }
                profile.other += started.elapsed().as_secs_f64();
            }
            QueryPlan::Optimized => {
                // ST_Area(ST_Intersection(p, q)).
                let started = Instant::now();
                let inter = intersection_area(p, q);
                profile.area_of_intersection += started.elapsed().as_secs_f64();
                // Stand-alone ST_Area(p) + ST_Area(q). PostGIS recomputes
                // each area from the vertex chain on every call, so this
                // walks the chain rather than reading the area the polygon
                // stores; Figure 2's `st_area` share measures that walk.
                let started = Instant::now();
                let area_p = st_area(p);
                let area_q = st_area(q);
                profile.st_area += started.elapsed().as_secs_f64();

                let started = Instant::now();
                let union = area_p + area_q - inter;
                if inter > 0 && union > 0 {
                    ratio_sum += inter as f64 / union as f64;
                    intersecting += 1;
                }
                profile.other += started.elapsed().as_secs_f64();
            }
        }
    }

    QueryResult {
        similarity: if intersecting == 0 {
            0.0
        } else {
            ratio_sum / intersecting as f64
        },
        candidate_pairs: candidates.len() as u64,
        intersecting_pairs: intersecting,
        profile,
    }
}

/// Executes the cross-comparing query with the PostGIS-M scheme (§5.7): the
/// outer table is partitioned into `streams` chunks, each chunk is executed
/// as an independent query stream, and the parallel makespan over `workers`
/// cores is modelled by greedy longest-processing-time assignment of the
/// measured chunk times (the host has a single core, so streams cannot
/// actually overlap). Returns the merged result and the modelled makespan in
/// seconds.
pub fn execute_parallel(
    outer: &PolygonTable,
    inner: &PolygonTable,
    plan: QueryPlan,
    streams: usize,
    workers: usize,
) -> (QueryResult, f64) {
    let chunks = outer.partition(streams.max(1));
    let mut chunk_times: Vec<f64> = Vec::with_capacity(chunks.len());
    let mut merged = QueryResult {
        similarity: 0.0,
        candidate_pairs: 0,
        intersecting_pairs: 0,
        profile: OperatorProfile::default(),
    };
    let mut ratio_sum = 0.0f64;
    for chunk in &chunks {
        let started = Instant::now();
        let result = execute_cross_comparison(chunk, inner, plan);
        chunk_times.push(started.elapsed().as_secs_f64());
        ratio_sum += result.similarity * result.intersecting_pairs as f64;
        merged.candidate_pairs += result.candidate_pairs;
        merged.intersecting_pairs += result.intersecting_pairs;
        merged.profile.index_build += result.profile.index_build;
        merged.profile.index_search += result.profile.index_search;
        merged.profile.st_intersects += result.profile.st_intersects;
        merged.profile.area_of_intersection += result.profile.area_of_intersection;
        merged.profile.area_of_union += result.profile.area_of_union;
        merged.profile.st_area += result.profile.st_area;
        merged.profile.other += result.profile.other;
    }
    if merged.intersecting_pairs > 0 {
        merged.similarity = ratio_sum / merged.intersecting_pairs as f64;
    }

    // Longest-processing-time greedy assignment of chunks to workers.
    chunk_times.sort_by(|a, b| b.partial_cmp(a).expect("finite times"));
    let mut worker_load = vec![0.0f64; workers.max(1)];
    for t in chunk_times {
        let (idx, _) = worker_load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("at least one worker");
        worker_load[idx] += t;
    }
    let makespan = worker_load.iter().cloned().fold(0.0, f64::max);
    (merged, makespan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccg_datagen::{generate_tile_pair, TileSpec};

    fn tables() -> (PolygonTable, PolygonTable) {
        let tile = generate_tile_pair(&TileSpec {
            target_polygons: 120,
            width: 768,
            height: 768,
            seed: 11,
            ..TileSpec::default()
        });
        (
            PolygonTable::new("oligoastroiii_1_1", tile.first),
            PolygonTable::new("oligoastroiii_1_2", tile.second),
        )
    }

    #[test]
    fn optimized_and_unoptimized_queries_agree_on_results() {
        let (a, b) = tables();
        let opt = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
        let unopt = execute_cross_comparison(&a, &b, QueryPlan::Unoptimized);
        assert_eq!(opt.candidate_pairs, unopt.candidate_pairs);
        assert_eq!(opt.intersecting_pairs, unopt.intersecting_pairs);
        assert!((opt.similarity - unopt.similarity).abs() < 1e-12);
        assert!(opt.similarity > 0.3 && opt.similarity <= 1.0);
    }

    #[test]
    fn query_matches_pairwise_reference() {
        let (a, b) = tables();
        let result = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
        // Reference computation straight from the overlay library.
        let mut ratio_sum = 0.0;
        let mut intersecting = 0u64;
        let mut candidates = 0u64;
        for p in a.rows() {
            for q in b.rows() {
                if p.polygon.mbr().intersects(&q.polygon.mbr()) {
                    candidates += 1;
                    let areas = sccg_clip::pair_areas(&p.polygon, &q.polygon);
                    if let Some(r) = areas.ratio() {
                        ratio_sum += r;
                        intersecting += 1;
                    }
                }
            }
        }
        assert_eq!(result.candidate_pairs, candidates);
        assert_eq!(result.intersecting_pairs, intersecting);
        assert!((result.similarity - ratio_sum / intersecting as f64).abs() < 1e-12);
    }

    #[test]
    fn optimized_profile_is_dominated_by_area_of_intersection() {
        // Figure 2: in the optimized query, Area-of-Intersection captures
        // almost 90% of execution time while index work stays under ~6%.
        let (a, b) = tables();
        let result = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
        let p = result.profile;
        assert!(p.area_of_union == 0.0);
        assert!(p.st_intersects == 0.0);
        assert!(
            p.area_of_intersection > 0.5 * p.total(),
            "area-of-intersection share {:.1}%",
            p.area_of_intersection / p.total() * 100.0
        );
        assert!(p.index_build + p.index_search < 0.3 * p.total());
    }

    #[test]
    fn unoptimized_profile_also_pays_for_union_and_intersects() {
        let (a, b) = tables();
        let result = execute_cross_comparison(&a, &b, QueryPlan::Unoptimized);
        let p = result.profile;
        assert!(p.area_of_union > 0.0);
        assert!(p.st_intersects > 0.0);
        // The three geometry-heavy operators dominate the unoptimized query.
        let heavy = p.st_intersects + p.area_of_intersection + p.area_of_union;
        assert!(heavy > 0.6 * p.total());
    }

    #[test]
    fn unoptimized_query_is_slower_than_optimized() {
        let (a, b) = tables();
        let opt = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
        let unopt = execute_cross_comparison(&a, &b, QueryPlan::Unoptimized);
        assert!(unopt.profile.total() > opt.profile.total());
    }

    #[test]
    fn percentages_sum_to_one_hundred() {
        let (a, b) = tables();
        let result = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
        let sum: f64 = result.profile.percentages().iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
        assert_eq!(OperatorProfile::default().percentages(), [0.0; 7]);
    }

    #[test]
    fn parallel_execution_merges_results_and_models_speedup() {
        let (a, b) = tables();
        let single = execute_cross_comparison(&a, &b, QueryPlan::Optimized);
        let (merged, makespan) = execute_parallel(&a, &b, QueryPlan::Optimized, 8, 4);
        assert_eq!(merged.candidate_pairs, single.candidate_pairs);
        assert_eq!(merged.intersecting_pairs, single.intersecting_pairs);
        assert!((merged.similarity - single.similarity).abs() < 1e-9);
        // The modelled parallel makespan must be shorter than the summed
        // sequential time but no better than perfect scaling.
        let sequential: f64 = merged.profile.total();
        assert!(makespan < sequential);
        assert!(makespan * 5.0 > sequential);
    }

    #[test]
    fn empty_tables_produce_empty_results() {
        let empty = PolygonTable::new("empty", Vec::new());
        let (a, _) = tables();
        let result = execute_cross_comparison(&empty, &a, QueryPlan::Optimized);
        assert_eq!(result.candidate_pairs, 0);
        assert_eq!(result.similarity, 0.0);
        let result = execute_cross_comparison(&a, &empty, QueryPlan::Optimized);
        assert_eq!(result.candidate_pairs, 0);
    }
}
