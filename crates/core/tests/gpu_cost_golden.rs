//! Golden pin of the simulated GPU's cost model.
//!
//! Fixed, seeded pair batches run through `GpuPixelBox::compute_batch`, each
//! on a fresh device. Every `LaunchStats` field, the transfer seconds, the
//! merged `Trace` and the device's cumulative `DeviceStats` must equal the
//! literals below exactly; f64 values are compared by `to_bits`. The cases
//! cover Figure 8's scale factors × algorithm variants, Figure 9's four
//! optimization sets (the stride-8 stack has bank conflicts), a batch with
//! more pairs than blocks, and a tiny device (warp 4, 4 banks) with a ragged
//! block. A mismatch prints the whole actual table in this file's format.

use sccg::pixelbox::gpu::GpuPixelBox;
use sccg::pixelbox::{OptimizationFlags, PixelBoxConfig, PolygonPair, Variant};
use sccg_datagen::{generate_tile_pair, TileSpec};
use sccg_geometry::Rect;
use sccg_gpu_sim::{Device, DeviceConfig};
use sccg_rtree::mbr_join;
use std::sync::Arc;

/// The MBR-intersecting pairs of one seeded tile, coordinates scaled by `sf`.
fn pairs(sf: i32) -> Vec<PolygonPair> {
    let tile = generate_tile_pair(&TileSpec {
        tile_id: 3,
        width: 384,
        height: 384,
        target_polygons: 24,
        seed: 0x60_1DE7,
        ..TileSpec::default()
    });
    let left: Vec<Rect> = tile.first.iter().map(|r| r.polygon.mbr()).collect();
    let right: Vec<Rect> = tile.second.iter().map(|r| r.polygon.mbr()).collect();
    mbr_join(&left, &right)
        .into_iter()
        .map(|(i, j)| {
            PolygonPair::new(
                tile.first[i as usize].polygon.scale(sf).unwrap(),
                tile.second[j as usize].polygon.scale(sf).unwrap(),
            )
        })
        .collect()
}

struct Case {
    name: String,
    device: DeviceConfig,
    pairs: Vec<PolygonPair>,
    config: PixelBoxConfig,
}

fn cases() -> Vec<Case> {
    let base = PixelBoxConfig::paper_default();
    let gtx = DeviceConfig::gtx580;
    let mut cases = Vec::new();
    for sf in 1..=5 {
        for variant in [Variant::PixelOnly, Variant::NoSep, Variant::Full] {
            cases.push(Case {
                name: format!("SF{sf} {variant:?}"),
                device: gtx(),
                pairs: pairs(sf),
                config: base.with_variant(variant),
            });
        }
    }
    let flag_sets = [
        ("NoOpt", OptimizationFlags::none()),
        (
            "NBC",
            OptimizationFlags {
                avoid_bank_conflicts: true,
                unroll_loops: false,
                shared_memory_vertices: false,
            },
        ),
        (
            "NBC-UR",
            OptimizationFlags {
                avoid_bank_conflicts: true,
                unroll_loops: true,
                shared_memory_vertices: false,
            },
        ),
        ("NBC-UR-SM", OptimizationFlags::all()),
    ];
    for (name, opts) in flag_sets {
        cases.push(Case {
            name: format!("SF3 {name}"),
            device: gtx(),
            pairs: pairs(3),
            config: base.with_opts(opts),
        });
    }
    let mut few_blocks = base.with_opts(OptimizationFlags::none());
    few_blocks.grid_size = 7;
    cases.push(Case {
        name: "SF3 grid 7".into(),
        device: gtx(),
        pairs: pairs(3),
        config: few_blocks,
    });
    let mut tiny = base.with_block_size(6).with_opts(OptimizationFlags::none());
    tiny.grid_size = 5;
    cases.push(Case {
        name: "SF2 tiny device".into(),
        device: DeviceConfig::tiny_test_device(),
        pairs: pairs(2),
        config: tiny,
    });
    cases
}

/// One case's observed cost: launch fields, transfer-seconds bits, trace
/// fields and device-stats fields.
type Observed = ([u64; 11], u64, [u64; 11], [u64; 5]);

fn observe(case: &Case) -> Observed {
    let device = Arc::new(Device::new(case.device.clone()));
    let result = GpuPixelBox::new(Arc::clone(&device)).compute_batch(&case.pairs, &case.config);
    let l = result.launch;
    let t = result.trace;
    let d = device.stats();
    (
        [
            l.cycles,
            l.time_seconds.to_bits(),
            u64::from(l.blocks_launched),
            u64::from(l.blocks_per_sm),
            l.occupancy.to_bits(),
            l.compute_cycles,
            l.memory_stall_cycles,
            l.bank_conflicts,
            l.shared_accesses,
            l.global_transactions,
            l.syncs,
        ],
        result.transfer_seconds.to_bits(),
        [
            t.pixel_tests,
            t.pixel_edge_ops,
            t.box_tests,
            t.box_edge_ops,
            t.partitions,
            t.stack_pushes,
            t.resolved_boxes,
            t.pixelized_boxes,
            t.pixel_rounds,
            t.max_stack_depth,
            t.shoelace_vertices,
        ],
        [
            d.launches,
            d.busy_seconds.to_bits(),
            d.total_cycles,
            d.bytes_transferred,
            d.transfer_seconds.to_bits(),
        ],
    )
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Observed)] = &[
    ("SF1 PixelOnly", ([31270, 4536598734846479574, 24, 8, 4599676419421066581, 193964, 103304, 0, 700544, 480, 48], 0x3efa46a2760666c7, [13742, 633688, 0, 0, 0, 0, 0, 0, 118, 0, 0], [1, 4541811586104596942, 31270, 30352, 4538017238107973319])),
    ("SF1 NoSep", ([31270, 4536598734846479574, 24, 8, 4599676419421066581, 193964, 103304, 0, 700544, 480, 48], 0x3efa46a2760666c7, [13742, 633688, 0, 0, 0, 24, 0, 24, 118, 1, 0], [1, 4541811586104596942, 31270, 30352, 4538017238107973319])),
    ("SF1 Full", ([31325, 4536609248534811740, 24, 8, 4599676419421066581, 194540, 103496, 0, 703616, 480, 48], 0x3efa46a2760666c7, [13742, 633688, 0, 0, 0, 24, 0, 24, 118, 1, 2210], [1, 4541816842948763026, 31325, 30352, 4538017238107973319])),
    ("SF2 PixelOnly", ([88832, 4543615297143207435, 24, 8, 4599676419421066581, 713488, 220288, 0, 2572288, 480, 48], 0x3efa46a2760666c7, [54968, 2534752, 0, 0, 0, 0, 0, 0, 435, 0, 0], [1, 4545722663823332535, 88832, 30352, 4538017238107973319])),
    ("SF2 NoSep", ([88832, 4543615297143207435, 24, 8, 4599676419421066581, 713488, 220288, 0, 2572288, 480, 48], 0x3efa46a2760666c7, [54968, 2534752, 0, 0, 0, 24, 0, 24, 435, 1, 0], [1, 4545722663823332535, 88832, 30352, 4538017238107973319])),
    ("SF2 Full", ([88887, 4543620553987373518, 24, 8, 4599676419421066581, 714064, 220480, 0, 2575360, 480, 48], 0x3efa46a2760666c7, [54968, 2534752, 0, 0, 0, 24, 0, 24, 435, 1, 2210], [1, 4545725292245415577, 88887, 30352, 4538017238107973319])),
    ("SF3 PixelOnly", ([180866, 4548271918725303366, 24, 8, 4599676419421066581, 1599098, 419768, 0, 5763968, 480, 48], 0x3efa46a2760666c7, [123678, 5703192, 0, 0, 0, 0, 0, 0, 976, 0, 0], [1, 4549378272806408955, 180866, 30352, 4538017238107973319])),
    ("SF3 NoSep", ([157195, 4547140693650254717, 24, 8, 4599676419421066581, 1295968, 351784, 0, 4676224, 480, 812], 0x3efa46a2760666c7, [66314, 3072452, 3024, 139248, 24, 788, 748, 764, 764, 38, 0], [1, 4548812660268884631, 157195, 30352, 4538017238107973319])),
    ("SF3 Full", ([96218, 4544226633771025216, 24, 8, 4599676419421066581, 809074, 242416, 0, 2926336, 480, 514], 0x3efa46a2760666c7, [42256, 1966952, 3024, 139248, 24, 490, 1046, 466, 466, 25, 2210], [1, 4546075637014338802, 96218, 30352, 4538017238107973319])),
    ("SF4 PixelOnly", ([313220, 4551616336424560135, 24, 8, 4599676419421066581, 2819444, 694592, 0, 10161152, 480, 48], 0x3efa46a2760666c7, [219872, 10139008, 0, 0, 0, 0, 0, 0, 1721, 0, 0], [1, 4552540838046216927, 313220, 30352, 4538017238107973319])),
    ("SF4 NoSep", ([309286, 4551522334492972086, 24, 8, 4599676419421066581, 2438586, 610344, 0, 8813184, 480, 887], 0x3efa46a2760666c7, [122668, 5692840, 3072, 141440, 24, 863, 697, 839, 1457, 44, 0], [1, 4552446836114628879, 309286, 30352, 4538017238107973319])),
    ("SF4 Full", ([204552, 4549019742143469630, 24, 8, 4599676419421066581, 1593522, 419952, 0, 5766912, 480, 583], 0x3efa46a2760666c7, [79034, 3685816, 3072, 141440, 24, 559, 1001, 535, 939, 33, 2210], [1, 4549944243765126423, 204552, 30352, 4538017238107973319])),
    ("SF5 PixelOnly", ([481828, 4554392202532508814, 24, 8, 4599676419421066581, 4414544, 1053872, 0, 15909632, 480, 48], 0x3efa46a2760666c7, [343550, 15842200, 0, 0, 0, 0, 0, 0, 2695, 0, 0], [1, 4554854453343337211, 481828, 30352, 4538017238107973319])),
    ("SF5 NoSep", ([405527, 4553480606017244492, 24, 8, 4599676419421066581, 2990398, 733480, 0, 10783360, 480, 885], 0x3efa46a2760666c7, [192432, 8921972, 3072, 141440, 24, 861, 699, 837, 1786, 44, 0], [1, 4553942856828072889, 405527, 30352, 4538017238107973319])),
    ("SF5 Full", ([264597, 4550454502179617156, 24, 8, 4599676419421066581, 1969816, 503992, 0, 7111552, 480, 578], 0x3efa46a2760666c7, [125162, 5834524, 3072, 141440, 24, 554, 1006, 530, 1162, 32, 2210], [1, 4551379003801273949, 264597, 30352, 4538017238107973319])),
    ("SF3 NoOpt", ([140373, 4546336778808783364, 24, 8, 4599676419421066581, 1013020, 829216, 1680, 15360, 182224, 490], 0x3efa46a2760666c7, [42256, 1966952, 3024, 139248, 24, 490, 1046, 466, 466, 25, 2210], [1, 4548185782052096950, 140373, 30352, 4538017238107973319])),
    ("SF3 NBC", ([140252, 4546330996280200673, 24, 8, 4599676419421066581, 1013020, 825856, 0, 15360, 182224, 490], 0x3efa46a2760666c7, [42256, 1966952, 3024, 139248, 24, 490, 1046, 466, 466, 25, 2210], [1, 4548179999523514259, 140252, 30352, 4538017238107973319])),
    ("SF3 NBC-UR", ([120464, 4545385337804214754, 24, 8, 4599676419421066581, 808786, 825856, 0, 15360, 182224, 490], 0x3efa46a2760666c7, [42256, 1966952, 3024, 139248, 24, 490, 1046, 466, 466, 25, 2210], [1, 4547234341047528340, 120464, 30352, 4538017238107973319])),
    ("SF3 NBC-UR-SM", ([96218, 4544226633771025216, 24, 8, 4599676419421066581, 809074, 242416, 0, 2926336, 480, 514], 0x3efa46a2760666c7, [42256, 1966952, 3024, 139248, 24, 490, 1046, 466, 466, 25, 2210], [1, 4546075637014338802, 96218, 30352, 4538017238107973319])),
    ("SF3 grid 7", ([251386, 4550138828687443870, 7, 8, 4599676419421066581, 1013020, 829216, 1680, 15360, 182224, 490], 0x3efa46a2760666c7, [42256, 1966952, 3024, 139248, 24, 490, 1046, 466, 466, 25, 2210], [1, 4551063330309100663, 251386, 30352, 4538017238107973319])),
    ("SF2 tiny device", ([2074326, 4566929492632242653, 5, 4, 4602678819172646912, 3514462, 1332828, 11580, 24090, 317402, 1283], 0x3f048f7b7ff57b0e, [10302, 477738, 5692, 262444, 579, 1283, 1587, 704, 1231, 11, 2210], [1, 4567019918571691977, 2074326, 19216, 4540912084886846222])),
];

#[test]
fn cost_model_matches_the_golden_table() {
    let cases = cases();
    let observed: Vec<(String, Observed)> = cases
        .iter()
        .map(|case| (case.name.clone(), observe(case)))
        .collect();
    let matches = observed.len() == GOLDEN.len()
        && observed
            .iter()
            .zip(GOLDEN)
            .all(|((name, got), (want_name, want))| name == want_name && got == want);
    if !matches {
        for (name, (launch, transfer, trace, device)) in &observed {
            println!("    (\"{name}\", ({launch:?}, {transfer:#x}, {trace:?}, {device:?})),");
        }
        panic!("the cost model moved; the actual table is printed above");
    }
    // The cases exercise what they claim to.
    let by_name = |name: &str| &observed.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(by_name("SF3 NoOpt").0[7] > 0, "stride-8 stack conflicts");
    assert_eq!(by_name("SF3 NBC").0[7], 0);
    assert!(cases[cases.len() - 2].pairs.len() > 7);
    assert_eq!(by_name("SF3 grid 7").0[2], 7);
    assert!(by_name("SF2 tiny device").0[7] > 0);
}
