//! Thread budget of the wire front-end: one acceptor, one dispatcher per
//! connection, and nothing on the client side. Alone in its own test binary,
//! so no other test's threads change the count.

#![cfg(target_os = "linux")]

use sccg_net::{ClientConfig, NetConfig, WireClient, WireServer};
use sccg_serve::{ComparisonService, ServiceConfig, SlideStore};
use std::sync::Arc;

fn threads_in_this_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn a_server_with_two_idle_clients_adds_exactly_three_threads() {
    let service = Arc::new(
        ComparisonService::new(SlideStore::new(), ServiceConfig::default()).expect("starts"),
    );
    let baseline = threads_in_this_process();

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
}
