//! A deterministic cost model of a SIMT GPU device.
//!
//! The paper implements PixelBox with NVIDIA CUDA 4.0 on a GeForce GTX 580
//! and two Tesla M2050 cards. No GPU hardware is available to this
//! reproduction, so this crate provides the substitute: a *cost model* of
//! the CUDA execution model. A kernel's results are computed on the host
//! by ordinary code (PixelBox's GPU path takes its areas from the CPU's
//! row sweep and its execution trace from a count-only run of the CPU
//! port's partition scan); this crate only charges what the kernel's warps
//! would have executed. The model captures the effects the paper's evaluation
//! depends on: SIMD lock-step execution within 32-lane warps,
//! shared-memory bank conflicts, global-memory coalescing and latency,
//! `__syncthreads()` barriers, occupancy limits (threads/blocks/shared
//! memory per multiprocessor) and PCIe transfer cost for host↔device
//! batches.
//!
//! The model is intentionally simple and fully deterministic: identical
//! launches produce identical cycle counts, so benchmark comparisons (Figures
//! 8–10 of the paper) are reproducible bit-for-bit.
//!
//! # Charging a kernel
//!
//! A launch's cost is one [`BlockCost`] per thread block. Fill each meter
//! with what the block's warps executed, then hand the meters to
//! [`Device::launch`], which schedules the blocks on the SMs and returns the
//! launch's simulated time:
//!
//! ```
//! use sccg_gpu_sim::{BlockCost, Device, DeviceConfig, LaunchConfig};
//!
//! let device = Device::new(DeviceConfig::gtx580());
//! let launch = LaunchConfig::new(4, 64).with_shared_mem(1024);
//! let blocks: Vec<BlockCost> = (0..launch.grid_dim)
//!     .map(|_| {
//!         let mut block = BlockCost::new(device.config(), &launch);
//!         block.charge_alu(1); // one fused op per lane
//!         // Every lane stores one word of a stride-1 array: conflict-free.
//!         let addresses: Vec<u32> = (0..block.threads()).collect();
//!         let store = block.analyse_shared(&addresses);
//!         block.shared_access_many(&store, 1);
//!         block.sync_threads();
//!         block
//!     })
//!     .collect();
//! let stats = device.launch(&launch, &blocks);
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.blocks_launched, 4);
//! assert_eq!(stats.bank_conflicts, 0);
//! assert_eq!(device.stats().launches, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod device;
pub mod stats;

pub use config::{DeviceConfig, LaunchConfig};
pub use context::{BlockCost, SharedPattern};
pub use device::Device;
pub use stats::{DeviceStats, LaunchStats};
