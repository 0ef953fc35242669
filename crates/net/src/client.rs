//! The wire client: one exchange per query, in blocking or streaming mode.
//!
//! A query's lifecycle on the client side:
//!
//! 1. write the `Query` frame, once;
//! 2. read `Tile` frames (streaming mode) until the terminal `Summary` or
//!    `Error` frame, reassembling the tile list by position so the result is
//!    field-for-field (and bit-for-bit) the in-process response.
//!
//! TCP delivers every frame in order or fails the connection, so nothing is
//! re-sent on the same socket. A lost connection is typed by what arrived:
//! [`WireError::ResetMidStream`] if at least one frame of the request did,
//! [`WireError::Disconnected`] if none did. Queries are read-only, so both
//! are safe to re-send on a fresh connection, which answers bit-identically.
//! A peer that stays mute is [`WireError::Timeout`] after
//! [`ClientConfig::response_timeout`]. A query deadline surfaces as
//! [`WireError::DeadlineExceeded`] whether the server reported it (wire
//! code 12) or the client gave up waiting past it.
//!
//! The client spawns no thread: the calling thread writes its frames and
//! reads the socket itself, setting the socket's read timeout to the time
//! left before each read.

use crate::conn::Connection;
use crate::wire::{Message, WireRequestSpec, WireResponse, WireStats, WireTile};
use sccg::SccgError;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long past a query's deadline the client keeps waiting, so the
/// server's own typed expiry frame can arrive first. The server starts the
/// deadline clock at its submission, a little after the client's.
const DEADLINE_GRACE: Duration = Duration::from_millis(250);

/// Client-side failure of a wire query.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The connection closed before any frame of the exchange arrived.
    /// Re-sending on a fresh connection is safe: queries are read-only.
    Disconnected,
    /// No answer arrived within [`ClientConfig::response_timeout`].
    Timeout {
        /// The request that timed out (0 for the handshake or a stats probe).
        request_id: u64,
    },
    /// The query's deadline expired — reported by the server (wire code 12)
    /// or detected locally when the wait ran past it. Both sides surface as
    /// this one variant, so callers see a single typed outcome regardless of
    /// which end noticed first.
    DeadlineExceeded {
        /// The request whose deadline expired.
        request_id: u64,
        /// The deadline the query carried, in milliseconds.
        deadline_ms: u64,
    },
    /// The connection closed after at least one frame of the request
    /// arrived, before its terminal frame. Re-sending on a fresh connection
    /// is safe: queries are read-only.
    ResetMidStream {
        /// The request whose stream was cut.
        request_id: u64,
        /// Tile frames that had already arrived when the reset hit.
        tiles_received: usize,
    },
    /// The peer violated the protocol (bad frame, inconsistent response).
    Protocol(String),
    /// The server executed the query and reported a failure.
    Remote(SccgError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Disconnected => write!(f, "connection closed mid-exchange"),
            WireError::Timeout { request_id } => write!(f, "request {request_id} unanswered"),
            WireError::DeadlineExceeded {
                request_id,
                deadline_ms,
            } => write!(
                f,
                "request {request_id} missed its {deadline_ms} ms deadline"
            ),
            WireError::ResetMidStream {
                request_id,
                tiles_received,
            } => write!(
                f,
                "connection reset mid-stream on request {request_id} \
                 after {tiles_received} tile frames"
            ),
            WireError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            WireError::Remote(error) => write!(f, "server error: {error}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Configuration of a [`WireClient`].
///
/// Marked `#[non_exhaustive]`: construct with [`ClientConfig::default`] and
/// the `with_*` builders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClientConfig {
    /// How long a query or stats probe waits for its answer.
    pub response_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            response_timeout: Duration::from_secs(60),
        }
    }
}

impl ClientConfig {
    /// Returns a copy with a different response timeout.
    pub fn with_response_timeout(mut self, response_timeout: Duration) -> Self {
        self.response_timeout = response_timeout;
        self
    }
}

/// A streamed or blocking query's resolved result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The response, with `tiles` complete in both modes.
    pub response: WireResponse,
    /// `Tile` frames received before the summary (0 in blocking mode).
    pub tile_frames: usize,
}

/// A connected wire client. One query runs at a time per client (open more
/// clients for concurrency).
pub struct WireClient {
    conn: Connection,
    client_id: u64,
    next_request: u64,
    config: ClientConfig,
}

impl fmt::Debug for WireClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireClient")
            .field("client_id", &self.client_id)
            .finish_non_exhaustive()
    }
}

impl WireClient {
    /// Connects, performs the `Hello`/`HelloAck` handshake, and returns the
    /// ready client.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = WireClient {
            conn: Connection::new(stream),
            client_id: 0,
            next_request: 1,
            config,
        };
        client.send(&Message::Hello)?;
        let deadline = Instant::now() + Duration::from_secs(5);
        match client.next_message_before(deadline)? {
            Message::HelloAck { client_id } => {
                client.client_id = client_id;
                Ok(client)
            }
            other => Err(WireError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// The id the server assigned this connection.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Runs a query in blocking mode: one summary frame, tile list inline.
    pub fn query_blocking(&mut self, spec: &WireRequestSpec) -> Result<QueryOutcome, WireError> {
        self.query(spec, false, |_, _| {})
    }

    /// Runs a query in streaming mode: `on_tile(position, tile)` fires for
    /// every tile frame as it arrives (before the summary), and the returned
    /// outcome's `tiles` list is reassembled in merge order.
    pub fn query_streaming(
        &mut self,
        spec: &WireRequestSpec,
        on_tile: impl FnMut(u64, &WireTile),
    ) -> Result<QueryOutcome, WireError> {
        self.query(spec, true, on_tile)
    }

    /// Fetches the server's telemetry snapshot, bit-identical to the
    /// in-process [`sccg_serve::ServiceStats`] it was captured from.
    pub fn stats(&mut self) -> Result<WireStats, WireError> {
        self.send(&Message::StatsRequest)?;
        let deadline = Instant::now() + self.config.response_timeout;
        loop {
            // Anything else is a late frame of an earlier query that timed
            // out; keep draining until the stats frame arrives.
            if let Message::Stats { stats } = self.next_message_before(deadline)? {
                return Ok(stats);
            }
        }
    }

    /// Sends one message; a failed write means the connection is gone.
    fn send(&mut self, message: &Message) -> Result<(), WireError> {
        self.conn
            .write_frame(&message.to_frame())
            .map_err(|_| WireError::Disconnected)
    }

    /// The next message from the socket, waiting at most until `deadline`.
    /// `Ok(None)` means the wait timed out. A closed connection — EOF, a
    /// socket error or a framing error — is [`WireError::Disconnected`]; an
    /// undecodable body is [`WireError::Protocol`].
    fn next_message(&mut self, deadline: Instant) -> Result<Option<Message>, WireError> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        // A zero read timeout would mean "block forever"; `left` is never
        // zero here.
        self.conn.stream().set_read_timeout(Some(left))?;
        match self.conn.read_frame() {
            Ok(frame) => Message::of_frame(&frame)
                .map(Some)
                .map_err(|e| WireError::Protocol(e.to_string())),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(_) => Err(WireError::Disconnected),
        }
    }

    /// [`WireClient::next_message`] for the exchanges that are not queries
    /// (handshake, stats): timing out is [`WireError::Timeout`] of request 0.
    fn next_message_before(&mut self, deadline: Instant) -> Result<Message, WireError> {
        self.next_message(deadline)?
            .ok_or(WireError::Timeout { request_id: 0 })
    }

    fn query(
        &mut self,
        spec: &WireRequestSpec,
        streaming: bool,
        mut on_tile: impl FnMut(u64, &WireTile),
    ) -> Result<QueryOutcome, WireError> {
        let request_id = self.next_request;
        self.next_request += 1;
        // The deadline clock starts at submission.
        let expiry = spec
            .deadline_ms
            .map(|ms| (Instant::now() + Duration::from_millis(ms), ms));
        self.send(&Message::Query {
            request_id,
            streaming,
            spec: spec.clone(),
        })?;

        // Consume tiles until the terminal frame. The wait is bounded by the
        // response timeout, or — when the query carries a deadline — by the
        // deadline plus a grace, giving the server's own typed expiry frame
        // time to arrive first (either way the caller sees the same
        // `DeadlineExceeded` variant).
        let graced = expiry.map(|(at, ms)| (at + DEADLINE_GRACE, ms));
        let response_cap = Instant::now() + self.config.response_timeout;
        let deadline = cap_instant(response_cap, graced);
        let mut tiles: Vec<(u64, WireTile)> = Vec::new();
        loop {
            let message = match self.next_message(deadline) {
                Ok(Some(message)) => message,
                Ok(None) => {
                    return Err(match graced {
                        Some((at, deadline_ms)) if at <= response_cap => {
                            WireError::DeadlineExceeded {
                                request_id,
                                deadline_ms,
                            }
                        }
                        _ => WireError::Timeout { request_id },
                    })
                }
                // Only tile frames precede the terminal one, so the tiles
                // received tell whether the request got an answer under way.
                Err(WireError::Disconnected) if !tiles.is_empty() => {
                    return Err(WireError::ResetMidStream {
                        request_id,
                        tiles_received: tiles.len(),
                    })
                }
                Err(error) => return Err(error),
            };
            match message {
                Message::Tile {
                    request_id: rid,
                    position,
                    tile,
                } if rid == request_id => {
                    on_tile(position, &tile);
                    tiles.push((position, tile));
                }
                Message::Summary {
                    request_id: rid,
                    tiles_included,
                    mut response,
                } if rid == request_id => {
                    let tile_frames = if tiles_included { 0 } else { tiles.len() };
                    if !tiles_included {
                        response.tiles = assemble_tiles(tiles, response.shards)?;
                    }
                    return Ok(QueryOutcome {
                        response,
                        tile_frames,
                    });
                }
                Message::Error {
                    request_id: rid,
                    failure,
                } if rid == request_id => {
                    return Err(match failure.to_error() {
                        SccgError::DeadlineExceeded { deadline_ms } => {
                            WireError::DeadlineExceeded {
                                request_id,
                                deadline_ms,
                            }
                        }
                        error => WireError::Remote(error),
                    });
                }
                // Late frames of an earlier query that timed out.
                _ => {}
            }
        }
    }
}

/// Caps `deadline` by an optional expiry instant (the `u64` rides along as
/// the deadline's millisecond value for error reporting).
fn cap_instant(deadline: Instant, expiry: Option<(Instant, u64)>) -> Instant {
    match expiry {
        Some((at, _)) => deadline.min(at),
        None => deadline,
    }
}

/// Places streamed tiles into merge order by their `position`.
fn assemble_tiles(received: Vec<(u64, WireTile)>, shards: u64) -> Result<Vec<WireTile>, WireError> {
    let mut slots: Vec<Option<WireTile>> = (0..shards).map(|_| None).collect();
    for (position, tile) in received {
        let slot = slots
            .get_mut(position as usize)
            .ok_or_else(|| WireError::Protocol(format!("tile position {position} out of range")))?;
        if slot.replace(tile).is_some() {
            return Err(WireError::Protocol(format!(
                "tile position {position} delivered twice"
            )));
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.ok_or_else(|| WireError::Protocol(format!("tile {i} never arrived"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A peer that completes the handshake and then reads queries without
    /// ever answering: the query is sent once and times out.
    #[test]
    fn a_mute_peer_times_out_after_the_response_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound address");
        let mute_peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut conn = Connection::new(stream);
            let hello = conn.read_frame().expect("hello arrives");
            assert_eq!(Message::of_frame(&hello), Ok(Message::Hello));
            conn.write_frame(&Message::HelloAck { client_id: 9 }.to_frame())
                .expect("answers the hello");
            let mut query_ids = Vec::new();
            // Until the client hangs up.
            while let Ok(frame) = conn.read_frame() {
                match Message::of_frame(&frame) {
                    Ok(Message::Query { request_id, .. }) => query_ids.push(request_id),
                    other => panic!("expected only queries, got {other:?}"),
                }
            }
            query_ids
        });

        let response_timeout = Duration::from_millis(50);
        let config = ClientConfig::default().with_response_timeout(response_timeout);
        let mut client = WireClient::connect(addr, config).expect("connects");
        assert_eq!(client.client_id(), 9);
        let slide = sccg_serve::SlideStore::new().register_slide("mute", Vec::new());
        let started = Instant::now();
        let err = client
            .query_blocking(&WireRequestSpec::new(slide, slide))
            .expect_err("a mute peer never answers");
        assert!(
            matches!(err, WireError::Timeout { request_id: 1 }),
            "got {err:?}"
        );
        assert!(started.elapsed() >= response_timeout);
        drop(client);
        assert_eq!(
            mute_peer.join().expect("mute peer finishes"),
            vec![1],
            "the query is sent once"
        );
    }

    #[test]
    fn cap_instant_takes_the_earlier_bound_and_ignores_none() {
        let now = Instant::now();
        let late = now + Duration::from_secs(60);
        let early = now + Duration::from_secs(1);
        assert_eq!(cap_instant(late, None), late);
        assert_eq!(cap_instant(late, Some((early, 1_000))), early);
        assert_eq!(cap_instant(early, Some((late, 60_000))), early);
    }

    #[test]
    fn failure_variants_render_distinct_messages() {
        let deadline = WireError::DeadlineExceeded {
            request_id: 7,
            deadline_ms: 250,
        };
        assert_eq!(deadline.to_string(), "request 7 missed its 250 ms deadline");
        let reset = WireError::ResetMidStream {
            request_id: 9,
            tiles_received: 3,
        };
        assert_eq!(
            reset.to_string(),
            "connection reset mid-stream on request 9 after 3 tile frames"
        );
    }

    #[test]
    fn assemble_tiles_orders_by_position_and_rejects_defects() {
        let tile = |n: u64| WireTile {
            tile: n,
            engine: 0,
            backend: String::new(),
            candidate_pairs: 0,
            summary: crate::wire::WireSummary {
                similarity_bits: 0,
                intersecting_pairs: 0,
                candidate_pairs: 0,
                total_intersection_area: 0,
                total_union_area: 0,
            },
        };
        let assembled =
            assemble_tiles(vec![(1, tile(11)), (0, tile(10))], 2).expect("both slots fill");
        assert_eq!(assembled[0].tile, 10);
        assert_eq!(assembled[1].tile, 11);
        assert!(
            assemble_tiles(vec![(2, tile(0))], 2).is_err(),
            "out of range"
        );
        assert!(
            assemble_tiles(vec![(0, tile(0)), (0, tile(0))], 1).is_err(),
            "duplicate position"
        );
        assert!(
            assemble_tiles(vec![(0, tile(0))], 2).is_err(),
            "missing tile"
        );
    }
}
