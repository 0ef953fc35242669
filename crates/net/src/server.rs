//! The wire server: a TCP front-end over a shared [`ComparisonService`].
//!
//! One acceptor thread plus one dispatcher thread per connection, and no
//! other thread: the dispatcher reads and decodes the connection's frames
//! and writes its replies itself. A connection speaks the protocol of
//! [`crate::wire`]: `Hello`/`HelloAck`, then queries processed **serially
//! per connection** (concurrency comes from concurrent connections). The
//! socket is the backpressure: a peer that stops reading blocks only its own
//! dispatcher in `write`, while the service's per-query event buffer, sized
//! to the shard count, keeps engine workers from ever waiting on it.
//!
//! A query is one exchange. The dispatcher submits it via
//! [`ComparisonService::submit_streaming`], forwards each
//! [`QueryEvent::Tile`] as its shard completes (streaming mode), then writes
//! one terminal `Summary` or `Error` frame, and nothing else. Blocking mode
//! is the degenerate case: tile events are folded into one summary frame
//! with the tile list inline. The server keeps no state between queries: a
//! query re-sent under the same request id simply runs again.
//!
//! Shutdown is a **graceful drain** with no timer: stop accepting (one
//! throwaway connection wakes the acceptor's blocking `accept`), shut the
//! read half of every live connection (a dispatcher parked in `read` wakes
//! with EOF), let every dispatcher finish and send its in-flight query, and
//! join all threads. [`WireServer::drop`] performs the same drain.

use crate::conn::Connection;
use crate::frame::Frame;
use crate::wire::{Message, WireFailure, WireResponse, WireStats, WireTile};
use sccg::sync::lock;
use sccg::{FaultInjector, SccgError};
use sccg_serve::{ComparisonService, QueryEvent};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`WireServer`].
///
/// Marked `#[non_exhaustive]`: construct with [`NetConfig::default`] and the
/// `with_*` builders.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct NetConfig {
    /// Optional fault injector consulted before every post-handshake frame
    /// a connection sends: a scheduled [`ConnectionReset`] for this client
    /// at the current frame count drops the connection abruptly. `None`
    /// (the default) injects nothing.
    ///
    /// [`ConnectionReset`]: sccg::faults::ConnectionReset
    pub faults: Option<Arc<FaultInjector>>,
}

impl NetConfig {
    /// Returns a copy that consults `faults` before every frame each
    /// connection sends (chaos harness hook — see [`NetConfig::faults`]).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// A connection after its handshake, with the chaos hook in front of the
/// sending side: every post-handshake frame is counted, and a
/// [`FaultInjector`] reset scheduled for this client at the current count
/// kills the connection instead of sending — the peer observes an abrupt
/// close mid-exchange.
struct ConnSender<'a> {
    conn: &'a mut Connection,
    faults: Option<&'a Arc<FaultInjector>>,
    client_id: u64,
    frames_sent: u64,
}

impl ConnSender<'_> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        if let Some(injector) = self.faults {
            if injector.reset_connection_now(self.client_id, self.frames_sent) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected connection reset",
                ));
            }
        }
        self.frames_sent += 1;
        self.conn.write_frame(frame)
    }
}

/// A live connection as the server tracks it: a clone of its socket, to wake
/// the dispatcher on drain, beside the dispatcher's handle.
type LiveConnection = (TcpStream, JoinHandle<()>);

struct ServerShared {
    service: Arc<ComparisonService>,
    config: NetConfig,
    draining: AtomicBool,
    next_client: AtomicU64,
    connections: Mutex<Vec<LiveConnection>>,
}

/// A running wire front-end. See the [module docs](self).
pub struct WireServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for WireServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts accepting
    /// connections against `service`.
    pub fn start(
        service: Arc<ComparisonService>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            config,
            draining: AtomicBool::new(false),
            next_client: AtomicU64::new(1),
            connections: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("sccg-net-accept".into())
            .spawn(move || accept_loop(listener, acceptor_shared))?;
        Ok(WireServer {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drains the server: stops accepting, finishes in-flight
    /// queries, sends their answers, closes every connection, joins all
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is parked in a blocking `accept`: one throwaway
            // connection wakes it, and it sees `draining` and exits.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = acceptor.join();
        }
        // The acceptor is gone, so the registry is final. A dispatcher checks
        // `draining` before each read; one already parked in `read` wakes
        // here with EOF.
        let connections = std::mem::take(&mut *lock(&self.shared.connections));
        for (stream, _) in &connections {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, dispatcher) in connections {
            let _ = dispatcher.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: `shutdown` raises the flag, then
        // connects once to wake this call.
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let Ok(wake) = stream.try_clone() else {
                    continue;
                };
                // Reap before spawning, so a connection that has finished by
                // this accept holds neither a thread handle nor a socket.
                let mut connections = lock(&shared.connections);
                connections.retain(|(_, dispatcher)| !dispatcher.is_finished());
                let dispatcher_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("sccg-net-conn".into())
                    .spawn(move || dispatch_connection(stream, dispatcher_shared));
                if let Ok(dispatcher) = spawned {
                    connections.push((wake, dispatcher));
                }
            }
            // A persistent error (out of file descriptors, say) would fail
            // every retry at once: back off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs one connection to completion: handshake, then serial queries until
/// the peer disconnects, the connection breaks, or the server drains.
fn dispatch_connection(stream: TcpStream, shared: Arc<ServerShared>) {
    let mut conn = Connection::new(stream);
    if let Some(client_id) = handshake(&mut conn, &shared) {
        let mut sender = ConnSender {
            conn: &mut conn,
            faults: shared.config.faults.as_ref(),
            client_id,
            frames_sent: 0,
        };
        serve_queries(&mut sender, &shared);
    }
    // The server's registry holds a clone of this socket until the next
    // accept reaps it, so dropping ours would not close the connection:
    // shut it down so the peer sees the close now.
    let _ = conn.stream().shutdown(Shutdown::Both);
}

/// Reads the connection's next frame unless the server is draining: the
/// drain point, between queries and never mid-query. `None` ends the
/// connection (drain, EOF, socket or framing error).
fn next_frame(conn: &mut Connection, shared: &ServerShared) -> Option<Frame> {
    if shared.draining.load(Ordering::SeqCst) {
        return None;
    }
    conn.read_frame().ok()
}

/// Waits for the `Hello`, assigns the connection its client id, answers it.
fn handshake(conn: &mut Connection, shared: &ServerShared) -> Option<u64> {
    match Message::of_frame(&next_frame(conn, shared)?) {
        Ok(Message::Hello) => {
            let client_id = shared.next_client.fetch_add(1, Ordering::Relaxed);
            conn.write_frame(&Message::HelloAck { client_id }.to_frame())
                .ok()?;
            Some(client_id)
        }
        // Anything else before the handshake is a protocol violation: drop
        // the connection.
        _ => None,
    }
}

fn serve_queries(sender: &mut ConnSender<'_>, shared: &ServerShared) {
    while let Some(frame) = next_frame(sender.conn, shared) {
        if serve_frame(&frame, sender, shared).is_err() {
            return; // socket gone (or reset injected): connection dead
        }
    }
}

/// Dispatches one decoded frame. Anything other than a query or a stats
/// probe — an unexpected-but-valid kind or an undecodable body — poisons
/// only that message and is skipped. An error means the connection is dead.
fn serve_frame(
    frame: &Frame,
    sender: &mut ConnSender<'_>,
    shared: &ServerShared,
) -> io::Result<()> {
    match Message::of_frame(frame) {
        Ok(Message::Query {
            request_id,
            streaming,
            spec,
        }) => serve_one_query(request_id, streaming, &spec, sender, shared),
        Ok(Message::StatsRequest) => {
            let stats = WireStats::of_stats(&shared.service.stats());
            sender.send(&Message::Stats { stats }.to_frame())
        }
        _ => Ok(()),
    }
}

/// Handles one query frame end to end: its tile frames (streaming mode),
/// then its terminal frame. An error means the connection is dead.
fn serve_one_query(
    request_id: u64,
    streaming: bool,
    spec: &crate::wire::WireRequestSpec,
    sender: &mut ConnSender<'_>,
    shared: &ServerShared,
) -> io::Result<()> {
    let failed = |error: &SccgError| Message::Error {
        request_id,
        failure: WireFailure::of_error(error),
    };
    let handle = match shared.service.submit_streaming(spec.to_request()) {
        Ok(handle) => handle,
        Err(error) => return sender.send(&failed(&error).to_frame()),
    };

    // Pump the event stream: tile frames go out the moment shards complete.
    let terminal = loop {
        match handle.next_event() {
            Some(QueryEvent::Tile { position, report }) => {
                if streaming {
                    sender.send(
                        &Message::Tile {
                            request_id,
                            position: position as u64,
                            tile: WireTile::of_report(&report),
                        }
                        .to_frame(),
                    )?;
                }
            }
            Some(QueryEvent::Finished(Ok(response))) => {
                let mut response = WireResponse::of_response(&response);
                if streaming {
                    // The tiles already went out as their own frames.
                    response.tiles.clear();
                }
                break Message::Summary {
                    request_id,
                    tiles_included: !streaming,
                    response,
                };
            }
            Some(QueryEvent::Finished(Err(error))) => break failed(&error),
            None => break failed(&SccgError::ShutDown),
        }
    };
    sender.send(&terminal.to_frame())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, FrameDecoder, FrameKind, MAX_FRAME_LEN};
    use crate::wire::WireRequestSpec;
    use crate::{ClientConfig, WireClient};
    use sccg_datagen::{generate_dataset, DatasetSpec};
    use sccg_serve::{QueryRequest, ServiceConfig, SlideId, SlideStore};
    use std::io::{Read, Write};
    use std::time::Instant;

    fn service(tiles: u32) -> (Arc<ComparisonService>, SlideId, SlideId) {
        let dataset = generate_dataset(&DatasetSpec {
            name: "server-test".into(),
            tiles,
            polygons_per_tile: 40,
            tile_size: 256,
            seed: 51,
            nucleus_radius: 6,
        });
        let store = SlideStore::new();
        let first =
            store.register_slide("a", dataset.tiles.iter().map(|t| t.first.clone()).collect());
        let second = store.register_slide(
            "b",
            dataset.tiles.iter().map(|t| t.second.clone()).collect(),
        );
        let service = ComparisonService::new(store, ServiceConfig::default()).expect("starts");
        (Arc::new(service), first, second)
    }

    /// Polls `condition` until it holds; fails after 10 s.
    fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn accept_reaps_the_connections_that_have_finished() {
        let (service, _, _) = service(1);
        let server =
            WireServer::start(service, "127.0.0.1:0", NetConfig::default()).expect("starts");
        for _ in 0..32 {
            drop(
                WireClient::connect(server.local_addr(), ClientConfig::default())
                    .expect("connects"),
            );
        }
        // The acceptor registers a connection under the registry lock it
        // holds across the spawn, so every closed client is registered (or
        // already reaped) by the time this lock is taken.
        wait_until("every closed client's dispatcher exits", || {
            lock(&server.shared.connections)
                .iter()
                .all(|(_, dispatcher)| dispatcher.is_finished())
        });
        let _live =
            WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
        let connections = lock(&server.shared.connections);
        assert_eq!(
            connections.len(),
            1,
            "the accept reaped all 32 finished connections"
        );
        assert!(!connections[0].1.is_finished(), "the live one stays");
    }

    /// The acceptor blocks in `accept` with no client ever connecting:
    /// `shutdown` must wake it, on a loopback bind and on an unspecified
    /// one, and the listener must be closed afterwards.
    #[test]
    fn an_idle_server_shuts_down() {
        let (service, _, _) = service(1);
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let mut server = WireServer::start(Arc::clone(&service), bind, NetConfig::default())
                .expect("starts");
            let port = server.local_addr().port();
            let (done, finished) = std::sync::mpsc::channel();
            let stopper = std::thread::spawn(move || {
                server.shutdown();
                let _ = done.send(());
            });
            finished
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{bind}: shutdown hung on the idle acceptor"));
            stopper.join().expect("shutdown thread");
            assert!(
                TcpStream::connect((Ipv4Addr::LOCALHOST, port)).is_err(),
                "{bind}: the listener is closed after shutdown"
            );
        }
    }

    #[test]
    fn framing_error_closes_only_that_connection() {
        let (service, first, second) = service(3);
        let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default())
            .expect("starts");
        let answer = |client: &mut WireClient| {
            let mut response = client
                .query_streaming(&WireRequestSpec::new(first, second), |_, _| {})
                .expect("query resolves")
                .response;
            response.cache_hit = false;
            response
        };
        let mut before =
            WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");

        let mut raw = TcpStream::connect(server.local_addr()).expect("connects");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("sets a timeout");
        let hello = Message::Hello.to_frame();
        let mut bytes = Vec::new();
        encode_frame(hello.kind, &hello.body, &mut bytes);
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        raw.write_all(&bytes).expect("sends");
        let mut received = Vec::new();
        raw.read_to_end(&mut received)
            .expect("the server closes the connection: EOF, not a reset");
        let mut decoder = FrameDecoder::new();
        decoder.feed(&received);
        let frame = decoder.next_frame().expect("valid frame");
        assert_eq!(frame.map(|f| f.kind), Some(FrameKind::HelloAck));
        assert_eq!(decoder.pending(), 0, "nothing follows the HelloAck");

        let mut after =
            WireClient::connect(server.local_addr(), ClientConfig::default()).expect("connects");
        let mut in_process = WireResponse::of_response(
            &service
                .submit(QueryRequest::new(first, second))
                .expect("submits")
                .wait()
                .expect("resolves"),
        );
        in_process.cache_hit = false;
        assert_eq!(answer(&mut before), in_process);
        assert_eq!(answer(&mut after), in_process);
    }
}
