//! Figure 7: GEOS-style exact overlay vs PixelBox-CPU-S vs PixelBox (GPU
//! sim), plus the hybrid CPU+GPU split — all dispatched through
//! [`ComputeBackend`].

use criterion::{criterion_group, criterion_main, Criterion};
use sccg::pixelbox::cpu::compute_batch_cpu;
use sccg::pixelbox::{
    ComputeBackend, GpuBackend, HybridBackend, PixelBoxConfig, SplitConfig, SplitController,
};
use sccg_bench::representative_pairs;
use sccg_clip::pair_areas;
use sccg_gpu_sim::{Device, DeviceConfig};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let pairs = representative_pairs(400, 1);
    let config = PixelBoxConfig::paper_default();
    let gpu = GpuBackend::new(Arc::new(Device::new(DeviceConfig::gtx580())));
    let hybrid = HybridBackend::new(
        Arc::new(Device::new(DeviceConfig::gtx580())),
        1,
        Arc::new(SplitController::new(SplitConfig::fixed(0.5))),
    );
    let mut group = c.benchmark_group("fig7_area_computation");
    group.sample_size(10);
    group.bench_function("geos_exact_overlay_1core", |bench| {
        bench.iter(|| -> i64 {
            pairs
                .iter()
                .map(|p| pair_areas(&p.p, &p.q).intersection)
                .sum()
        })
    });
    group.bench_function("pixelbox_cpu_single_core", |bench| {
        bench.iter(|| compute_batch_cpu(&pairs, &config, 1))
    });
    group.bench_function("pixelbox_gpu_simulated", |bench| {
        bench.iter(|| gpu.compute_batch(&pairs, &config))
    });
    group.bench_function("pixelbox_hybrid_50_50", |bench| {
        bench.iter(|| hybrid.compute_batch(&pairs, &config))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
