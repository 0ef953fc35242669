//! Loopback integration tests of the wire front-end: bit-identity of
//! streamed responses, the blocking degenerate case, the one-exchange frame
//! sequence, remote error reconstruction, graceful drain, concurrent
//! clients, and connection loss typed by what arrived.

use sccg_datagen::{generate_dataset, DatasetSpec};
use sccg_net::frame::FrameDecoder;
use sccg_net::wire::{Message, WireRequestSpec, WireResponse};
use sccg_net::{ClientConfig, NetConfig, WireClient, WireError, WireServer};
use sccg_serve::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A small deterministic workload registered into a fresh service.
fn service(tiles: u32, seed: u64) -> (Arc<ComparisonService>, SlideId, SlideId) {
    let dataset = generate_dataset(&DatasetSpec {
        name: "net-test".into(),
        tiles,
        polygons_per_tile: 60,
        tile_size: 512,
        seed,
        nucleus_radius: 6,
    });
    let store = SlideStore::new();
    let first = store.register_slide(
        "result-a",
        dataset.tiles.iter().map(|t| t.first.clone()).collect(),
    );
    let second = store.register_slide(
        "result-b",
        dataset.tiles.iter().map(|t| t.second.clone()).collect(),
    );
    let service = ComparisonService::new(store, ServiceConfig::default()).expect("service starts");
    (Arc::new(service), first, second)
}

/// Normalizes the one legitimately run-dependent field so the rest of the
/// response can be compared bit-for-bit.
fn without_cache_flag(mut response: WireResponse) -> WireResponse {
    response.cache_hit = false;
    response
}

#[test]
fn streamed_query_is_bit_identical_to_the_in_process_response() {
    let (service, first, second) = service(5, 41);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");

    // The wire query runs *cold*: the pool computes it via the wire path.
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
    let mut streamed_positions = Vec::new();
    let outcome = client
        .query_streaming(&WireRequestSpec::new(first, second), |position, _| {
            streamed_positions.push(position)
        })
        .expect("streamed query resolves");

    // One tile frame per shard arrived before the summary.
    assert_eq!(
        outcome.tile_frames, 5,
        "every tile streamed before the summary"
    );
    let mut sorted = streamed_positions.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3, 4], "each position exactly once");

    // The same request in-process now hits the response cache, which stores
    // the *exact* response the wire query was built from — so equality here
    // is bit-identity of every area, count and similarity, including the
    // engine attribution per tile.
    let in_process = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        in_process.cache_hit,
        "wire query populated the shared cache"
    );
    assert_eq!(
        without_cache_flag(outcome.response.clone()),
        without_cache_flag(WireResponse::of_response(&in_process)),
        "wire response is bit-identical to the in-process response"
    );
    assert!(outcome.response.similarity() > 0.0);
}

#[test]
fn blocking_mode_is_the_one_frame_degenerate_case() {
    let (service, first, second) = service(3, 42);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

    let blocking = client
        .query_blocking(&WireRequestSpec::new(first, second))
        .expect("blocking query resolves");
    assert_eq!(blocking.tile_frames, 0, "no tile frames in blocking mode");
    assert_eq!(blocking.response.tiles.len(), 3, "tile list travels inline");

    let streamed = client
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect("streamed repeat resolves");
    assert_eq!(
        without_cache_flag(streamed.response),
        without_cache_flag(blocking.response),
        "both modes resolve the identical response"
    );

    // The stats probe rides the same connection, bit-identical to the
    // in-process snapshot (nothing runs between the capture points: this
    // client's queries are done and the service is otherwise idle).
    let remote = client.stats().expect("stats probe resolves");
    let local = sccg_net::wire::WireStats::of_stats(&service.stats());
    assert_eq!(remote, local, "wire stats match the in-process snapshot");
    assert_eq!(remote.submitted, 2);
    assert_eq!(remote.cache_hits, 1, "the streamed repeat hit the cache");
}

/// Raw-socket probe of one exchange: a streamed query yields exactly one
/// `Tile` per shard, then its `Summary`, and no other frame. The server keeps
/// no per-request state, so a second `Query` under the same id simply runs
/// again.
#[test]
fn a_streamed_query_is_one_exchange_and_a_repeated_id_runs_again() {
    let (service, first, second) = service(3, 43);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut decoder = FrameDecoder::new();
    let send = |stream: &mut TcpStream, message: &Message| {
        let frame = message.to_frame();
        let mut bytes = Vec::new();
        sccg_net::frame::encode_frame(frame.kind, &frame.body, &mut bytes);
        stream.write_all(&bytes).expect("send");
    };
    // `None` once the server has closed the connection.
    let mut recv = |stream: &mut TcpStream| -> Option<Message> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame().expect("valid frame") {
                return Some(Message::of_frame(&frame).expect("valid message"));
            }
            let n = stream.read(&mut buf).expect("read");
            if n == 0 {
                assert_eq!(decoder.pending(), 0, "no partial frame at close");
                return None;
            }
            decoder.feed(&buf[..n]);
        }
    };

    send(&mut stream, &Message::Hello);
    assert!(matches!(
        recv(&mut stream),
        Some(Message::HelloAck { client_id: 1 })
    ));

    let query = Message::Query {
        request_id: 7,
        streaming: true,
        spec: WireRequestSpec::new(first, second),
    };
    let mut exchange = |stream: &mut TcpStream| {
        send(stream, &query);
        let mut tiles = Vec::new();
        loop {
            match recv(stream).expect("the server answers") {
                Message::Tile {
                    request_id: 7,
                    position,
                    tile,
                } => tiles.push((position, tile)),
                Message::Summary {
                    request_id: 7,
                    tiles_included: false,
                    response,
                } => {
                    // Shards complete in any order; compare in merge order.
                    tiles.sort_unstable_by_key(|&(position, _)| position);
                    let positions: Vec<u64> = tiles.iter().map(|&(p, _)| p).collect();
                    assert_eq!(positions, vec![0, 1, 2], "one tile frame per shard");
                    assert!(response.tiles.is_empty(), "the tiles went out alone");
                    return (tiles, without_cache_flag(response));
                }
                other => panic!("expected a Tile or the Summary, got {other:?}"),
            }
        }
    };

    let original = exchange(&mut stream);
    let submitted = service.stats().submitted;
    let repeated = exchange(&mut stream);
    assert_eq!(
        service.stats().submitted,
        submitted + 1,
        "the repeated id reached the service"
    );
    assert_eq!(repeated, original, "and got the bit-identical answer");

    // Nothing else was sent: after our half-close the server closes too.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(recv(&mut stream), None, "no frame after the Summary");
}

#[test]
fn remote_errors_reconstruct_their_variant_across_the_wire() {
    let (service, first, _second) = service(2, 44);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

    let mut unknown = WireRequestSpec::new(first, first);
    unknown.second = 9_999;
    match client.query_blocking(&unknown) {
        Err(WireError::Remote(error)) => {
            assert_eq!(error, sccg::SccgError::UnknownSlide { slide: 9_999 });
        }
        other => panic!("expected a remote UnknownSlide error, got {other:?}"),
    }

    // The connection survives the failed query.
    let ok = client
        .query_blocking(&WireRequestSpec::new(first, first))
        .expect("same-slide comparison still works");
    assert_eq!(ok.response.tiles.len(), 2);
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_stops_accepting() {
    let (service, first, second) = service(3, 45);
    let mut server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let addr = server.local_addr();

    // A connected client with one finished query, connection held open.
    let mut client = WireClient::connect(addr, ClientConfig::default()).expect("connects");
    let outcome = client
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect("query before drain resolves");
    assert_eq!(outcome.response.tiles.len(), 3);

    // Drain must complete even though the client never disconnected, and
    // the flushed response above must have arrived intact (it did — we
    // already decoded it).
    server.shutdown();

    // Queries after the drain fail cleanly rather than hanging.
    let err = client
        .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
        .expect_err("drained server answers nothing");
    assert!(matches!(err, WireError::Disconnected), "got {err:?}");
    // And new connections are refused or immediately closed.
    match WireClient::connect(addr, ClientConfig::default()) {
        Err(_) => {}
        Ok(_) => panic!("drained server accepted a new connection"),
    }
}

#[test]
fn concurrent_clients_get_bit_identical_streamed_answers() {
    let (service, first, second) = service(4, 46);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");

    let baseline = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    let baseline = without_cache_flag(WireResponse::of_response(&baseline));

    // 4 connections, 3 streamed queries each, all at once.
    let answers: Vec<WireResponse> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut client =
                        WireClient::connect(server.local_addr(), ClientConfig::default())
                            .expect("connects");
                    (0..3)
                        .map(|_| {
                            let outcome = client
                                .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
                                .expect("query resolves");
                            assert_eq!(outcome.tile_frames, 4, "every tile streamed");
                            outcome.response
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread"))
            .collect()
    });

    assert_eq!(answers.len(), 12);
    for answer in answers {
        assert_eq!(
            without_cache_flag(answer),
            baseline,
            "every concurrent response is bit-identical to the in-process answer"
        );
    }
}

/// Connection loss is typed by what the client saw: nothing of the request
/// (`Disconnected`) or part of its stream (`ResetMidStream`). Both are safe
/// to re-send on a fresh connection, which answers bit-identically.
#[test]
fn injected_connection_reset_surfaces_typed_and_a_fresh_client_retries() {
    use sccg::{FaultInjector, FaultPlan};

    let (service, first, second) = service(4, 47);
    let baseline = service
        .submit(QueryRequest::new(first, second))
        .unwrap()
        .wait()
        .unwrap();
    let baseline = WireResponse::of_response(&baseline);

    // The server assigns client ids from 1, in connection order. Client 1's
    // connection drops before its first post-handshake frame, client 2's
    // after one frame: the first tile, squarely mid-stream.
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(3)
            .reset_connection(1, 0)
            .reset_connection(2, 1),
    ));
    let server = WireServer::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetConfig::default().with_faults(Arc::clone(&injector)),
    )
    .expect("server starts");
    let spec = WireRequestSpec::new(first, second);

    let mut silent =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
    assert_eq!(silent.client_id(), 1);
    let err = silent
        .query_streaming(&spec, |_, _| {})
        .expect_err("the connection drops before any frame");
    assert!(matches!(err, WireError::Disconnected), "got {err:?}");

    let mut cut =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
    assert_eq!(cut.client_id(), 2);
    let err = cut
        .query_streaming(&spec, |_, _| {})
        .expect_err("the stream is cut after one tile");
    assert!(
        matches!(
            err,
            WireError::ResetMidStream {
                request_id: 1,
                tiles_received: 1
            }
        ),
        "got {err:?}"
    );
    assert_eq!(injector.stats().connection_resets, 2);

    // A fresh connection (a new client id, so no scheduled fault) re-sends
    // the query and gets the bit-identical result.
    let mut retry =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("reconnects");
    let outcome = retry
        .query_streaming(&spec, |_, _| {})
        .expect("retry on a fresh connection succeeds");
    assert_eq!(
        without_cache_flag(outcome.response),
        without_cache_flag(baseline),
        "the retried response is bit-identical"
    );
}

#[test]
fn wire_deadline_round_trips_as_the_typed_error() {
    let (service, first, second) = service(3, 48);
    let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
        .expect("server starts");
    let mut client =
        WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

    // A zero deadline is already expired when the first worker pops a
    // shard: the server answers with wire error code 12, which the client
    // surfaces as the dedicated variant (not a generic Remote error).
    let mut spec = WireRequestSpec::new(first, second);
    spec.deadline_ms = Some(0);
    let err = client
        .query_blocking(&spec)
        .expect_err("deadline already expired");
    match err {
        WireError::DeadlineExceeded {
            request_id,
            deadline_ms,
        } => {
            assert_eq!(request_id, 1);
            assert_eq!(deadline_ms, 0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // The connection survives; a deadline the query easily meets works.
    let mut relaxed = WireRequestSpec::new(first, second);
    relaxed.deadline_ms = Some(60_000);
    let outcome = client
        .query_blocking(&relaxed)
        .expect("a generous deadline resolves normally");
    assert_eq!(outcome.response.tiles.len(), 3);
}
