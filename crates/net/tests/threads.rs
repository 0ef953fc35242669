//! Thread budget of a serving process: the service's engines and a spilling
//! store's writer run as tasks on the shared worker pool, and the wire
//! front-end adds one acceptor and one dispatcher per connection, with
//! nothing on the client side. Alone in its own test binary, so no other
//! test's threads change the count.

#![cfg(target_os = "linux")]

use sccg::WorkerPool;
use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_net::{ClientConfig, NetConfig, WireClient, WireServer};
use sccg_serve::{ComparisonService, QueryRequest, ServiceConfig, SlideStore};
use std::sync::Arc;

fn threads_in_this_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn a_server_with_two_idle_clients_adds_exactly_three_threads() {
    // The pool is the process's compute threads, one per core; everything
    // below runs on it.
    WorkerPool::global();
    let baseline = threads_in_this_process();

    let dir = std::env::temp_dir().join(format!("sccg-net-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SlideStore::with_spill(&dir, 2).expect("spill directory");
    let service =
        Arc::new(ComparisonService::new(store.clone(), ServiceConfig::default()).expect("starts"));
    let dataset = generate_dataset(&DatasetSpec {
        name: "threads".into(),
        tiles: 3,
        polygons_per_tile: 20,
        tile_size: 256,
        seed: 5,
        nucleus_radius: 6,
    });
    let first = store
        .register_slide_streaming("a", dataset.tiles.iter().map(|t| t.first_as_text()))
        .expect("streams to disk");
    let second = store
        .register_slide_streaming("b", dataset.tiles.iter().map(|t| t.second_as_text()))
        .expect("streams to disk");
    service
        .submit(QueryRequest::new(first, second))
        .expect("admitted")
        .wait()
        .expect("answered");
    assert_eq!(
        threads_in_this_process(),
        baseline,
        "four engines, a streamed registration and a query add no threads"
    );

    let server = WireServer::start(service, "127.0.0.1:0", NetConfig::default()).expect("starts");
    // `connect` returns after the handshake, so each dispatcher is running.
    let clients: Vec<WireClient> = (0..2)
        .map(|_| {
            WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects")
        })
        .collect();

    assert_eq!(
        threads_in_this_process() - baseline,
        3,
        "the acceptor and one dispatcher per connection; the clients spawn none"
    );
    drop(clients);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
