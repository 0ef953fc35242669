//! Message bodies carried inside frames, and their byte-level codec.
//!
//! The encoding is explicit and position-independent of the host: integers
//! are big-endian fixed-width, strings are length-prefixed UTF-8, floats
//! travel as their IEEE-754 bit patterns (`f64::to_bits`) so a response
//! decoded on the far side is **bit-identical** to the in-process result —
//! the acceptance bar for the reproduction's serving layer. Every enum is a
//! one-byte tag pinned here, independent of Rust discriminant order.

use crate::frame::{Frame, FrameKind};
use sccg::pixelbox::{AggregationDevice, Variant};
use sccg::{JaccardSummary, SccgError};
use sccg_serve::{QueryPriority, QueryRequest, QueryResponse, SlideId, TileReport};
use std::fmt;

/// Protocol magic opening every [`Message::Hello`]: `"SCCG"`.
pub const MAGIC: u32 = 0x5343_4347;
/// Protocol version spoken by this build. Version 2's `Stats` body has no
/// placement counters.
pub const VERSION: u8 = 2;

/// Decode failure of a frame body. Unlike a framing error, the *stream* is
/// still intact (frame boundaries are known); only this message is bad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The body ended before the field being read.
    Eof {
        /// The field that could not be read.
        field: &'static str,
    },
    /// A tag byte held a value this version does not know.
    BadTag {
        /// The field whose tag was invalid.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireDecodeError::Eof { field } => write!(f, "body truncated reading {field}"),
            WireDecodeError::BadTag { field, value } => {
                write!(f, "invalid tag {value} for {field}")
            }
            WireDecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireDecodeError {}

struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    fn new() -> Self {
        BodyWriter { buf: Vec::new() }
    }

    fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_be_bytes());
    }

    fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_be_bytes());
    }

    fn i64(&mut self, value: i64) {
        self.buf.extend_from_slice(&value.to_be_bytes());
    }

    fn bool(&mut self, value: bool) {
        self.buf.push(u8::from(value));
    }

    fn str(&mut self, value: &str) {
        self.u32(value.len() as u32);
        self.buf.extend_from_slice(value.as_bytes());
    }
}

struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireDecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(WireDecodeError::Eof { field })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireDecodeError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireDecodeError> {
        let b = self.take(4, field)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireDecodeError> {
        let b = self.take(8, field)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn i64(&mut self, field: &'static str) -> Result<i64, WireDecodeError> {
        let b = self.take(8, field)?;
        Ok(i64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, WireDecodeError> {
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireDecodeError::BadTag {
                field,
                value: u64::from(other),
            }),
        }
    }

    fn str(&mut self, field: &'static str) -> Result<String, WireDecodeError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireDecodeError::BadUtf8)
    }
}

// --- enum tags (pinned; independent of Rust discriminant order) -----------

fn device_tag(device: AggregationDevice) -> u8 {
    match device {
        AggregationDevice::Gpu => 1,
        AggregationDevice::Cpu => 2,
        AggregationDevice::Hybrid => 3,
    }
}

fn device_of_tag(tag: u8, field: &'static str) -> Result<AggregationDevice, WireDecodeError> {
    Ok(match tag {
        1 => AggregationDevice::Gpu,
        2 => AggregationDevice::Cpu,
        3 => AggregationDevice::Hybrid,
        other => {
            return Err(WireDecodeError::BadTag {
                field,
                value: u64::from(other),
            })
        }
    })
}

fn opt_device_tag(device: Option<AggregationDevice>) -> u8 {
    device.map_or(0, device_tag)
}

fn opt_device_of_tag(
    tag: u8,
    field: &'static str,
) -> Result<Option<AggregationDevice>, WireDecodeError> {
    if tag == 0 {
        return Ok(None);
    }
    device_of_tag(tag, field).map(Some)
}

fn variant_tag(variant: Option<Variant>) -> u8 {
    match variant {
        None => 0,
        Some(Variant::PixelOnly) => 1,
        Some(Variant::NoSep) => 2,
        Some(Variant::Full) => 3,
    }
}

fn variant_of_tag(tag: u8, field: &'static str) -> Result<Option<Variant>, WireDecodeError> {
    Ok(match tag {
        0 => None,
        1 => Some(Variant::PixelOnly),
        2 => Some(Variant::NoSep),
        3 => Some(Variant::Full),
        other => {
            return Err(WireDecodeError::BadTag {
                field,
                value: u64::from(other),
            })
        }
    })
}

fn priority_tag(priority: QueryPriority) -> u8 {
    match priority {
        QueryPriority::High => 0,
        QueryPriority::Normal => 1,
        QueryPriority::Low => 2,
    }
}

fn priority_of_tag(tag: u8, field: &'static str) -> Result<QueryPriority, WireDecodeError> {
    Ok(match tag {
        0 => QueryPriority::High,
        1 => QueryPriority::Normal,
        2 => QueryPriority::Low,
        other => {
            return Err(WireDecodeError::BadTag {
                field,
                value: u64::from(other),
            })
        }
    })
}

// --- payload structs ------------------------------------------------------

/// A query as it travels on the wire: raw slide ids plus the request's
/// options, convertible to a [`QueryRequest`] on the server side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequestSpec {
    /// Raw id of the first slide ([`SlideId::value`]).
    pub first: u64,
    /// Raw id of the second slide.
    pub second: u64,
    /// `None` = whole slide, `Some(list)` = explicit tile indices.
    pub tiles: Option<Vec<u64>>,
    /// Device restriction.
    pub device: Option<AggregationDevice>,
    /// PixelBox variant override.
    pub variant: Option<Variant>,
    /// Scheduling priority.
    pub priority: QueryPriority,
    /// Per-query deadline in milliseconds, measured from server-side
    /// submission; `None` never expires. Expiry fails the query with
    /// [`SccgError::DeadlineExceeded`] (wire code 12).
    pub deadline_ms: Option<u64>,
}

impl WireRequestSpec {
    /// A whole-slide query of `first` vs `second` with default options.
    pub fn new(first: SlideId, second: SlideId) -> Self {
        WireRequestSpec {
            first: first.value(),
            second: second.value(),
            tiles: None,
            device: None,
            variant: None,
            priority: QueryPriority::default(),
            deadline_ms: None,
        }
    }

    /// The equivalent in-process request.
    pub fn to_request(&self) -> QueryRequest {
        let mut request = QueryRequest::new(
            SlideId::from_raw(self.first),
            SlideId::from_raw(self.second),
        );
        if let Some(tiles) = &self.tiles {
            request = request.tiles(tiles.iter().map(|&t| t as usize).collect());
        }
        if let Some(device) = self.device {
            request = request.on_device(device);
        }
        if let Some(variant) = self.variant {
            request = request.variant(variant);
        }
        if let Some(ms) = self.deadline_ms {
            request = request.with_deadline(std::time::Duration::from_millis(ms));
        }
        request.priority(self.priority)
    }
}

/// A [`JaccardSummary`] as it travels on the wire. The similarity is stored
/// as its IEEE-754 bit pattern, so equality of this struct *is* bit-identity
/// of the summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSummary {
    /// `f64::to_bits` of the `J'` similarity.
    pub similarity_bits: u64,
    /// Pairs with a non-empty intersection.
    pub intersecting_pairs: u64,
    /// Candidate pairs examined.
    pub candidate_pairs: u64,
    /// Sum of intersection areas.
    pub total_intersection_area: i64,
    /// Sum of union areas.
    pub total_union_area: i64,
}

impl WireSummary {
    /// Captures an in-process summary bit-for-bit.
    pub fn of_summary(summary: &JaccardSummary) -> Self {
        WireSummary {
            similarity_bits: summary.similarity.to_bits(),
            intersecting_pairs: summary.intersecting_pairs,
            candidate_pairs: summary.candidate_pairs,
            total_intersection_area: summary.total_intersection_area,
            total_union_area: summary.total_union_area,
        }
    }

    /// The similarity as a float again.
    pub fn similarity(&self) -> f64 {
        f64::from_bits(self.similarity_bits)
    }

    fn encode(&self, w: &mut BodyWriter) {
        w.u64(self.similarity_bits);
        w.u64(self.intersecting_pairs);
        w.u64(self.candidate_pairs);
        w.i64(self.total_intersection_area);
        w.i64(self.total_union_area);
    }

    fn decode(r: &mut BodyReader<'_>) -> Result<Self, WireDecodeError> {
        Ok(WireSummary {
            similarity_bits: r.u64("summary.similarity_bits")?,
            intersecting_pairs: r.u64("summary.intersecting_pairs")?,
            candidate_pairs: r.u64("summary.candidate_pairs")?,
            total_intersection_area: r.i64("summary.total_intersection_area")?,
            total_union_area: r.i64("summary.total_union_area")?,
        })
    }
}

/// A [`TileReport`] as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireTile {
    /// Tile index within both slides.
    pub tile: u64,
    /// Pool index of the serving engine.
    pub engine: u64,
    /// Backend name of that engine.
    pub backend: String,
    /// Candidate pairs of the tile's MBR join.
    pub candidate_pairs: u64,
    /// The tile's Jaccard summary.
    pub summary: WireSummary,
}

impl WireTile {
    /// Captures an in-process tile report bit-for-bit.
    pub fn of_report(report: &TileReport) -> Self {
        WireTile {
            tile: report.tile as u64,
            engine: report.engine as u64,
            backend: report.backend.clone(),
            candidate_pairs: report.candidate_pairs as u64,
            summary: WireSummary::of_summary(&report.summary),
        }
    }

    fn encode(&self, w: &mut BodyWriter) {
        w.u64(self.tile);
        w.u64(self.engine);
        w.str(&self.backend);
        w.u64(self.candidate_pairs);
        self.summary.encode(w);
    }

    fn decode(r: &mut BodyReader<'_>) -> Result<Self, WireDecodeError> {
        Ok(WireTile {
            tile: r.u64("tile.tile")?,
            engine: r.u64("tile.engine")?,
            backend: r.str("tile.backend")?,
            candidate_pairs: r.u64("tile.candidate_pairs")?,
            summary: WireSummary::decode(r)?,
        })
    }
}

/// A full query response as it travels in a [`Message::Summary`] frame.
///
/// In streaming mode the server omits the tile list (`tiles_included =
/// false` on the wire) because every tile already went out as its own frame;
/// the client reassembles `tiles` from those frames, so this struct is
/// complete in both modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Raw id of the first slide.
    pub first: u64,
    /// Raw id of the second slide.
    pub second: u64,
    /// Per-tile reports in merge order.
    pub tiles: Vec<WireTile>,
    /// The merged whole-query summary.
    pub summary: WireSummary,
    /// Shards the query was split into.
    pub shards: u64,
    /// Whether the server answered from its response cache.
    pub cache_hit: bool,
    /// Priority the query ran at.
    pub priority: QueryPriority,
    /// The request's device preference.
    pub device: Option<AggregationDevice>,
}

impl WireResponse {
    /// Captures an in-process response bit-for-bit.
    pub fn of_response(response: &QueryResponse) -> Self {
        WireResponse {
            first: response.first.value(),
            second: response.second.value(),
            tiles: response.tiles.iter().map(WireTile::of_report).collect(),
            summary: WireSummary::of_summary(&response.summary),
            shards: response.shards as u64,
            cache_hit: response.cache_hit,
            priority: response.priority,
            device: response.device,
        }
    }

    /// The `J'` similarity, `0.0` for degenerate summaries.
    pub fn similarity(&self) -> f64 {
        let similarity = self.summary.similarity();
        if similarity.is_finite() {
            similarity
        } else {
            0.0
        }
    }
}

/// A [`sccg_serve::ServiceStats`] snapshot as it travels on the wire. The
/// pager hit rate travels as its
/// IEEE-754 bit pattern so the remote reading of the fleet's telemetry is
/// bit-identical to the in-process one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    /// Requests accepted by the service.
    pub submitted: u64,
    /// Sharded queries run to completion.
    pub completed: u64,
    /// Requests answered from the response cache.
    pub cache_hits: u64,
    /// Shards computed by any backend.
    pub backend_batches: u64,
    /// Queries executing at snapshot time.
    pub in_flight: u64,
    /// High-water mark of concurrent queries.
    pub peak_in_flight: u64,
    /// Responses held by the cache.
    pub cache_entries: u64,
    /// Shards computed per engine, by pool index.
    pub shards_per_engine: Vec<u64>,
    /// Decoded tiles resident across disk-backed slides.
    pub resident_tiles: u64,
    /// `f64::to_bits` of the pager hit rate.
    pub pager_hit_rate_bits: u64,
    /// Bytes of slide files on disk.
    pub bytes_on_disk: u64,
    /// Faults coalesced into another engine's in-progress read.
    pub coalesced_faults: u64,
}

impl WireStats {
    /// Captures an in-process stats snapshot bit-for-bit.
    pub fn of_stats(stats: &sccg_serve::ServiceStats) -> Self {
        WireStats {
            submitted: stats.submitted,
            completed: stats.completed,
            cache_hits: stats.cache_hits,
            backend_batches: stats.backend_batches,
            in_flight: stats.in_flight as u64,
            peak_in_flight: stats.peak_in_flight as u64,
            cache_entries: stats.cache_entries as u64,
            shards_per_engine: stats.shards_per_engine.clone(),
            resident_tiles: stats.resident_tiles as u64,
            pager_hit_rate_bits: stats.pager_hit_rate.to_bits(),
            bytes_on_disk: stats.bytes_on_disk,
            coalesced_faults: stats.coalesced_faults,
        }
    }

    /// The pager hit rate as a float again.
    pub fn pager_hit_rate(&self) -> f64 {
        f64::from_bits(self.pager_hit_rate_bits)
    }

    fn encode(&self, w: &mut BodyWriter) {
        w.u64(self.submitted);
        w.u64(self.completed);
        w.u64(self.cache_hits);
        w.u64(self.backend_batches);
        w.u64(self.in_flight);
        w.u64(self.peak_in_flight);
        w.u64(self.cache_entries);
        w.u32(self.shards_per_engine.len() as u32);
        for &shards in &self.shards_per_engine {
            w.u64(shards);
        }
        w.u64(self.resident_tiles);
        w.u64(self.pager_hit_rate_bits);
        w.u64(self.bytes_on_disk);
        w.u64(self.coalesced_faults);
    }

    fn decode(r: &mut BodyReader<'_>) -> Result<Self, WireDecodeError> {
        let submitted = r.u64("stats.submitted")?;
        let completed = r.u64("stats.completed")?;
        let cache_hits = r.u64("stats.cache_hits")?;
        let backend_batches = r.u64("stats.backend_batches")?;
        let in_flight = r.u64("stats.in_flight")?;
        let peak_in_flight = r.u64("stats.peak_in_flight")?;
        let cache_entries = r.u64("stats.cache_entries")?;
        let engines = r.u32("stats.engine_count")? as usize;
        let mut shards_per_engine = Vec::with_capacity(engines.min(1 << 16));
        for _ in 0..engines {
            shards_per_engine.push(r.u64("stats.shards_per_engine")?);
        }
        Ok(WireStats {
            submitted,
            completed,
            cache_hits,
            backend_batches,
            in_flight,
            peak_in_flight,
            cache_entries,
            shards_per_engine,
            resident_tiles: r.u64("stats.resident_tiles")?,
            pager_hit_rate_bits: r.u64("stats.pager_hit_rate_bits")?,
            bytes_on_disk: r.u64("stats.bytes_on_disk")?,
            coalesced_faults: r.u64("stats.coalesced_faults")?,
        })
    }
}

/// A query failure as it travels on the wire: a coded [`SccgError`] plus its
/// rendered detail, reconstructible on the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    code: u8,
    a: u64,
    b: u64,
    c: u64,
    detail: String,
}

impl WireFailure {
    /// Encodes a service error. Detail-carrying variants travel with their
    /// *inner* detail (so the variant reconstructs exactly); variants whose
    /// fields are numeric travel with their rendered form as a fallback for
    /// peers that do not know the code.
    pub fn of_error(error: &SccgError) -> Self {
        let (code, a, b, c, detail) = match error {
            SccgError::Parse { detail } => (1, 0, 0, 0, detail.clone()),
            SccgError::UnknownSlide { slide } => (2, *slide, 0, 0, error.to_string()),
            SccgError::UnknownTile { slide, tile, tiles } => {
                (3, *slide, *tile as u64, *tiles as u64, error.to_string())
            }
            SccgError::TileCountMismatch { first, second } => {
                (4, *first as u64, *second as u64, 0, error.to_string())
            }
            SccgError::NoEligibleEngine { device } => {
                (5, u64::from(device_tag(*device)), 0, 0, error.to_string())
            }
            SccgError::EmptyEnginePool => (6, 0, 0, 0, error.to_string()),
            SccgError::Overloaded { in_flight, bound } => {
                (7, *in_flight as u64, *bound as u64, 0, error.to_string())
            }
            SccgError::ShutDown => (8, 0, 0, 0, error.to_string()),
            SccgError::InvalidRequest { detail } => (9, 0, 0, 0, detail.clone()),
            SccgError::Internal { detail } => (10, 0, 0, 0, detail.clone()),
            SccgError::Storage { detail } => (11, 0, 0, 0, detail.clone()),
            SccgError::DeadlineExceeded { deadline_ms } => {
                (12, *deadline_ms, 0, 0, error.to_string())
            }
            // `SccgError` is non_exhaustive: future variants travel as their
            // rendered detail.
            _ => (0, 0, 0, 0, error.to_string()),
        };
        WireFailure {
            code,
            a,
            b,
            c,
            detail,
        }
    }

    /// Reconstructs the service error (future/unknown codes surface as
    /// [`SccgError::Internal`] carrying the remote rendering).
    pub fn to_error(&self) -> SccgError {
        match self.code {
            1 => SccgError::Parse {
                detail: self.detail.clone(),
            },
            2 => SccgError::UnknownSlide { slide: self.a },
            3 => SccgError::UnknownTile {
                slide: self.a,
                tile: self.b as usize,
                tiles: self.c as usize,
            },
            4 => SccgError::TileCountMismatch {
                first: self.a as usize,
                second: self.b as usize,
            },
            5 => match device_of_tag(self.a as u8, "failure.device") {
                Ok(device) => SccgError::NoEligibleEngine { device },
                Err(_) => SccgError::Internal {
                    detail: self.detail.clone(),
                },
            },
            6 => SccgError::EmptyEnginePool,
            7 => SccgError::Overloaded {
                in_flight: self.a as usize,
                bound: self.b as usize,
            },
            8 => SccgError::ShutDown,
            9 => SccgError::InvalidRequest {
                detail: self.detail.clone(),
            },
            11 => SccgError::Storage {
                detail: self.detail.clone(),
            },
            12 => SccgError::DeadlineExceeded {
                deadline_ms: self.a,
            },
            _ => SccgError::Internal {
                detail: self.detail.clone(),
            },
        }
    }
}

/// Every message of the protocol: one variant per [`FrameKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → server connection opener. `client_id` 0 asks the server to
    /// assign one; a nonzero id resumes that identity (routing/dedup state
    /// is keyed by it).
    Hello {
        /// Proposed client id, 0 to request assignment.
        client_id: u64,
    },
    /// Server → client: the id this connection speaks as.
    HelloAck {
        /// The (possibly server-assigned) client id.
        client_id: u64,
    },
    /// Client → server: run a comparison.
    Query {
        /// Client-chosen id, unique per client; retries reuse it.
        request_id: u64,
        /// Whether per-tile frames should stream before the summary.
        streaming: bool,
        /// The query itself.
        spec: WireRequestSpec,
    },
    /// Server → client: the query was received; stop retrying.
    Ack {
        /// The acknowledged request.
        request_id: u64,
    },
    /// Server → client: one tile of a streaming query, pushed the moment its
    /// shard completed.
    Tile {
        /// The owning request.
        request_id: u64,
        /// Slot in the final merge-ordered tile list.
        position: u64,
        /// The tile's report.
        tile: WireTile,
    },
    /// Server → client: the merged response; terminates the query. In
    /// streaming mode `tiles_included` is false and the response's tile list
    /// is empty on the wire (the client rebuilds it from tile frames).
    Summary {
        /// The finished request.
        request_id: u64,
        /// Whether the tile list travels inline (blocking mode).
        tiles_included: bool,
        /// The merged response.
        response: WireResponse,
    },
    /// Server → client: the query failed; terminates the query.
    Error {
        /// The failed request.
        request_id: u64,
        /// The coded failure.
        failure: WireFailure,
    },
    /// Client → server: asks for the service's telemetry snapshot. Served
    /// between queries (a connection's queries are serial), so it needs no
    /// request id.
    StatsRequest,
    /// Server → client: the telemetry snapshot.
    Stats {
        /// The snapshot.
        stats: WireStats,
    },
}

impl Message {
    /// Encodes the message as a frame.
    pub fn to_frame(&self) -> Frame {
        let mut w = BodyWriter::new();
        let kind = match self {
            Message::Hello { client_id } => {
                w.u32(MAGIC);
                w.u8(VERSION);
                w.u64(*client_id);
                FrameKind::Hello
            }
            Message::HelloAck { client_id } => {
                w.u64(*client_id);
                FrameKind::HelloAck
            }
            Message::Query {
                request_id,
                streaming,
                spec,
            } => {
                w.u64(*request_id);
                w.bool(*streaming);
                w.u64(spec.first);
                w.u64(spec.second);
                match &spec.tiles {
                    None => w.u8(0),
                    Some(tiles) => {
                        w.u8(1);
                        w.u32(tiles.len() as u32);
                        for &tile in tiles {
                            w.u64(tile);
                        }
                    }
                }
                w.u8(opt_device_tag(spec.device));
                w.u8(variant_tag(spec.variant));
                w.u8(priority_tag(spec.priority));
                match spec.deadline_ms {
                    None => w.u8(0),
                    Some(ms) => {
                        w.u8(1);
                        w.u64(ms);
                    }
                }
                FrameKind::Query
            }
            Message::Ack { request_id } => {
                w.u64(*request_id);
                FrameKind::Ack
            }
            Message::Tile {
                request_id,
                position,
                tile,
            } => {
                w.u64(*request_id);
                w.u64(*position);
                tile.encode(&mut w);
                FrameKind::Tile
            }
            Message::Summary {
                request_id,
                tiles_included,
                response,
            } => {
                w.u64(*request_id);
                w.u64(response.first);
                w.u64(response.second);
                w.u64(response.shards);
                w.bool(response.cache_hit);
                w.u8(priority_tag(response.priority));
                w.u8(opt_device_tag(response.device));
                response.summary.encode(&mut w);
                w.bool(*tiles_included);
                if *tiles_included {
                    w.u32(response.tiles.len() as u32);
                    for tile in &response.tiles {
                        tile.encode(&mut w);
                    }
                }
                FrameKind::Summary
            }
            Message::Error {
                request_id,
                failure,
            } => {
                w.u64(*request_id);
                w.u8(failure.code);
                w.u64(failure.a);
                w.u64(failure.b);
                w.u64(failure.c);
                w.str(&failure.detail);
                FrameKind::Error
            }
            Message::StatsRequest => FrameKind::StatsRequest,
            Message::Stats { stats } => {
                stats.encode(&mut w);
                FrameKind::Stats
            }
        };
        Frame { kind, body: w.buf }
    }

    /// Decodes a frame's body according to its kind.
    pub fn of_frame(frame: &Frame) -> Result<Self, WireDecodeError> {
        let mut r = BodyReader::new(&frame.body);
        Ok(match frame.kind {
            FrameKind::Hello => {
                let magic = r.u32("hello.magic")?;
                if magic != MAGIC {
                    return Err(WireDecodeError::BadTag {
                        field: "hello.magic",
                        value: u64::from(magic),
                    });
                }
                let version = r.u8("hello.version")?;
                if version != VERSION {
                    return Err(WireDecodeError::BadTag {
                        field: "hello.version",
                        value: u64::from(version),
                    });
                }
                Message::Hello {
                    client_id: r.u64("hello.client_id")?,
                }
            }
            FrameKind::HelloAck => Message::HelloAck {
                client_id: r.u64("hello_ack.client_id")?,
            },
            FrameKind::Query => {
                let request_id = r.u64("query.request_id")?;
                let streaming = r.bool("query.streaming")?;
                let first = r.u64("query.first")?;
                let second = r.u64("query.second")?;
                let tiles = match r.u8("query.tiles_tag")? {
                    0 => None,
                    1 => {
                        let count = r.u32("query.tile_count")? as usize;
                        let mut tiles = Vec::with_capacity(count.min(1 << 16));
                        for _ in 0..count {
                            tiles.push(r.u64("query.tile")?);
                        }
                        Some(tiles)
                    }
                    other => {
                        return Err(WireDecodeError::BadTag {
                            field: "query.tiles_tag",
                            value: u64::from(other),
                        })
                    }
                };
                let device = opt_device_of_tag(r.u8("query.device")?, "query.device")?;
                let variant = variant_of_tag(r.u8("query.variant")?, "query.variant")?;
                let priority = priority_of_tag(r.u8("query.priority")?, "query.priority")?;
                let deadline_ms = match r.u8("query.deadline_tag")? {
                    0 => None,
                    1 => Some(r.u64("query.deadline_ms")?),
                    other => {
                        return Err(WireDecodeError::BadTag {
                            field: "query.deadline_tag",
                            value: u64::from(other),
                        })
                    }
                };
                Message::Query {
                    request_id,
                    streaming,
                    spec: WireRequestSpec {
                        first,
                        second,
                        tiles,
                        device,
                        variant,
                        priority,
                        deadline_ms,
                    },
                }
            }
            FrameKind::Ack => Message::Ack {
                request_id: r.u64("ack.request_id")?,
            },
            FrameKind::Tile => Message::Tile {
                request_id: r.u64("tile.request_id")?,
                position: r.u64("tile.position")?,
                tile: WireTile::decode(&mut r)?,
            },
            FrameKind::Summary => {
                let request_id = r.u64("summary.request_id")?;
                let first = r.u64("summary.first")?;
                let second = r.u64("summary.second")?;
                let shards = r.u64("summary.shards")?;
                let cache_hit = r.bool("summary.cache_hit")?;
                let priority = priority_of_tag(r.u8("summary.priority")?, "summary.priority")?;
                let device = opt_device_of_tag(r.u8("summary.device")?, "summary.device")?;
                let summary = WireSummary::decode(&mut r)?;
                let tiles_included = r.bool("summary.tiles_included")?;
                let tiles = if tiles_included {
                    let count = r.u32("summary.tile_count")? as usize;
                    let mut tiles = Vec::with_capacity(count.min(1 << 16));
                    for _ in 0..count {
                        tiles.push(WireTile::decode(&mut r)?);
                    }
                    tiles
                } else {
                    Vec::new()
                };
                Message::Summary {
                    request_id,
                    tiles_included,
                    response: WireResponse {
                        first,
                        second,
                        tiles,
                        summary,
                        shards,
                        cache_hit,
                        priority,
                        device,
                    },
                }
            }
            FrameKind::Error => Message::Error {
                request_id: r.u64("error.request_id")?,
                failure: WireFailure {
                    code: r.u8("error.code")?,
                    a: r.u64("error.a")?,
                    b: r.u64("error.b")?,
                    c: r.u64("error.c")?,
                    detail: r.str("error.detail")?,
                },
            },
            FrameKind::StatsRequest => Message::StatsRequest,
            FrameKind::Stats => Message::Stats {
                stats: WireStats::decode(&mut r)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(message: Message) {
        let frame = message.to_frame();
        let decoded = Message::of_frame(&frame).expect("decodes");
        assert_eq!(decoded, message);
    }

    #[test]
    fn every_message_roundtrips() {
        let summary = WireSummary {
            similarity_bits: 0.728_f64.to_bits(),
            intersecting_pairs: 41,
            candidate_pairs: 77,
            total_intersection_area: 123_456,
            total_union_area: 234_567,
        };
        let tile = WireTile {
            tile: 3,
            engine: 1,
            backend: "pixelbox-hybrid".into(),
            candidate_pairs: 77,
            summary,
        };
        roundtrip(Message::Hello { client_id: 0 });
        roundtrip(Message::HelloAck { client_id: 9 });
        roundtrip(Message::Query {
            request_id: 17,
            streaming: true,
            spec: WireRequestSpec {
                first: 4,
                second: 5,
                tiles: Some(vec![2, 0, 1]),
                device: Some(AggregationDevice::Hybrid),
                variant: Some(Variant::NoSep),
                priority: QueryPriority::High,
                deadline_ms: Some(2_500),
            },
        });
        roundtrip(Message::Ack { request_id: 17 });
        roundtrip(Message::Tile {
            request_id: 17,
            position: 2,
            tile: tile.clone(),
        });
        roundtrip(Message::Summary {
            request_id: 17,
            tiles_included: true,
            response: WireResponse {
                first: 4,
                second: 5,
                tiles: vec![tile],
                summary,
                shards: 1,
                cache_hit: false,
                priority: QueryPriority::Normal,
                device: None,
            },
        });
        roundtrip(Message::Error {
            request_id: 18,
            failure: WireFailure::of_error(&SccgError::Overloaded {
                in_flight: 4,
                bound: 4,
            }),
        });
        roundtrip(Message::StatsRequest);
        roundtrip(Message::Stats {
            stats: sample_stats(),
        });
    }

    fn sample_stats() -> WireStats {
        WireStats {
            submitted: 12,
            completed: 10,
            cache_hits: 2,
            backend_batches: 80,
            in_flight: 1,
            peak_in_flight: 4,
            cache_entries: 7,
            shards_per_engine: vec![30, 25, 25],
            resident_tiles: 6,
            // A rate with no short decimal rendering: bit-identity would
            // fail under any text round-trip.
            pager_hit_rate_bits: f64::from_bits(0x3FE5_5555_5555_5555).to_bits(),
            bytes_on_disk: 4096,
            coalesced_faults: 3,
        }
    }

    #[test]
    fn truncated_stats_bodies_fail_without_panicking() {
        let frame = Message::Stats {
            stats: sample_stats(),
        }
        .to_frame();
        for cut in 0..frame.body.len() {
            let truncated = Frame {
                kind: frame.kind,
                body: frame.body[..cut].to_vec(),
            };
            assert!(
                Message::of_frame(&truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn similarity_bits_survive_exactly() {
        // A value with no short decimal rendering: bit-identity would fail
        // under any text round-trip.
        let value = f64::from_bits(0x3FE5_5555_5555_5555);
        let summary = WireSummary {
            similarity_bits: value.to_bits(),
            intersecting_pairs: 0,
            candidate_pairs: 0,
            total_intersection_area: 0,
            total_union_area: 0,
        };
        let message = Message::Tile {
            request_id: 1,
            position: 0,
            tile: WireTile {
                tile: 0,
                engine: 0,
                backend: String::new(),
                candidate_pairs: 0,
                summary,
            },
        };
        let frame = message.to_frame();
        match Message::of_frame(&frame).unwrap() {
            Message::Tile { tile, .. } => {
                assert_eq!(tile.summary.similarity().to_bits(), value.to_bits());
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    #[test]
    fn errors_reconstruct_their_variant() {
        let cases = [
            SccgError::UnknownSlide { slide: 12 },
            SccgError::UnknownTile {
                slide: 1,
                tile: 9,
                tiles: 4,
            },
            SccgError::TileCountMismatch {
                first: 10,
                second: 12,
            },
            SccgError::NoEligibleEngine {
                device: AggregationDevice::Cpu,
            },
            SccgError::Overloaded {
                in_flight: 4,
                bound: 4,
            },
            SccgError::ShutDown,
            SccgError::InvalidRequest {
                detail: "tile index 3 selected twice".into(),
            },
            SccgError::Storage {
                detail: "tile 3: block checksum mismatch".into(),
            },
            SccgError::DeadlineExceeded { deadline_ms: 250 },
        ];
        for error in cases {
            let reconstructed = WireFailure::of_error(&error).to_error();
            assert_eq!(reconstructed, error, "variant survives the wire");
        }
    }

    #[test]
    fn hello_rejects_wrong_magic_and_version() {
        let mut frame = Message::Hello { client_id: 1 }.to_frame();
        frame.body[0] ^= 0xFF;
        assert!(matches!(
            Message::of_frame(&frame),
            Err(WireDecodeError::BadTag {
                field: "hello.magic",
                ..
            })
        ));
        let mut frame = Message::Hello { client_id: 1 }.to_frame();
        frame.body[4] = VERSION + 1;
        assert!(matches!(
            Message::of_frame(&frame),
            Err(WireDecodeError::BadTag {
                field: "hello.version",
                ..
            })
        ));
    }

    #[test]
    fn truncated_bodies_fail_without_panicking() {
        let frame = Message::Query {
            request_id: 17,
            streaming: false,
            spec: WireRequestSpec {
                first: 4,
                second: 5,
                tiles: Some(vec![2, 0, 1]),
                device: None,
                variant: None,
                priority: QueryPriority::Normal,
                deadline_ms: Some(100),
            },
        }
        .to_frame();
        for cut in 0..frame.body.len() {
            let truncated = Frame {
                kind: frame.kind,
                body: frame.body[..cut].to_vec(),
            };
            assert!(
                Message::of_frame(&truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }
}
