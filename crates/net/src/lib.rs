//! Wire front-end for the SCCG comparison service: a length-prefixed framed
//! protocol over TCP with **streaming per-tile results**.
//!
//! The paper's system (Wang et al., PVLDB 2012) is a query service over
//! whole-slide pathology images; its natural consumers (viewers, analytics
//! dashboards) want results *progressively* — tiles as they are computed,
//! not one final fold. This crate puts [`sccg_serve::ComparisonService`] on
//! a socket:
//!
//! * [`frame`] — the framing layer: `u32` length prefix + kind byte + body,
//!   with an incremental [`frame::FrameDecoder`] and a hard size cap.
//! * [`wire`] — typed messages and their explicit byte codec. Floats travel
//!   as IEEE-754 bit patterns, so decoded responses are **bit-identical** to
//!   the in-process results.
//! * `conn` (crate-private) — one connection: a `TcpStream` plus a
//!   [`frame::FrameDecoder`], with a blocking `read_frame` and a
//!   `write_frame`. Server and client both use it on the thread that owns
//!   the connection, so the socket itself is the backpressure.
//! * [`server`] — [`WireServer`]: accepts connections, streams tile frames
//!   as shards complete, and drains gracefully on shutdown.
//! * [`client`] — [`WireClient`]: blocking and streaming query modes, with
//!   connection loss typed by what arrived.
//!
//! A query is one exchange: the client writes `Query`, the server answers
//! with `Tile` frames (streaming mode), then one `Summary` or `Error`. TCP
//! delivers frames in order or fails the connection, so nothing is acked or
//! re-sent on a live connection; queries are read-only, so a caller that
//! loses one re-sends on a fresh connection and gets a bit-identical answer.
//!
//! Everything is `std`-only: no async runtime, no network deps. The server
//! runs one acceptor thread plus one dispatcher thread per connection; the
//! client runs on its caller's thread and spawns none.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use sccg_net::{NetConfig, WireServer, WireClient, ClientConfig, wire::WireRequestSpec};
//! use sccg_serve::prelude::*;
//!
//! // Register a 2-tile slide pair and start the service + wire server.
//! let spec = |seed| sccg_datagen::TileSpec {
//!     target_polygons: 30, width: 256, height: 256, seed, ..Default::default()
//! };
//! let tiles: Vec<_> = (0..2).map(|i| sccg_datagen::generate_tile_pair(&spec(i))).collect();
//! let store = SlideStore::new();
//! let a = store.register_slide("a", tiles.iter().map(|t| t.first.clone()).collect());
//! let b = store.register_slide("b", tiles.iter().map(|t| t.second.clone()).collect());
//! let service = Arc::new(ComparisonService::new(store, ServiceConfig::default()).unwrap());
//! let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0", NetConfig::default()).unwrap();
//!
//! // Stream a whole-slide comparison over loopback.
//! let mut client = WireClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let mut streamed = 0;
//! let outcome = client
//!     .query_streaming(&WireRequestSpec::new(a, b), |_, _| streamed += 1)
//!     .unwrap();
//! assert_eq!(streamed, 2, "one tile frame per tile, before the summary");
//! assert_eq!(outcome.response.tiles.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, QueryOutcome, WireClient, WireError};
pub use server::{NetConfig, WireServer};
pub use wire::{WireRequestSpec, WireResponse, WireStats, WireSummary, WireTile};
