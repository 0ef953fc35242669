//! The framing layer: length-prefixed frames over a byte stream.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+----------+------------------+
//! | length (u32 BE)| kind (u8)| body (length - 1) |
//! +----------------+----------+------------------+
//! ```
//!
//! `length` counts the kind byte plus the body, so a decoder can skip a
//! frame it does not understand without parsing it. Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before any allocation — a single corrupt
//! length prefix must not make a peer allocate gigabytes.

use std::fmt;

/// Upper bound on `length` (kind byte + body) a peer will accept: 64 MiB,
/// far above any legitimate response yet small enough that a corrupt prefix
/// cannot exhaust memory.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Bytes of framing overhead preceding each body: the length prefix and the
/// kind byte.
pub const FRAME_HEADER_LEN: usize = 5;

/// The message kind carried by a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: opens a connection.
    Hello = 1,
    /// Server → client: the connection's server-assigned client id.
    HelloAck = 2,
    /// Client → server: a comparison query.
    Query = 3,
    /// Server → client: one tile's report of a streaming query. (Kind 4, an
    /// ack, was dropped in protocol version 3.)
    Tile = 5,
    /// Server → client: the merged response; terminates the query.
    Summary = 6,
    /// Server → client: the query failed; terminates the query.
    Error = 7,
    /// Client → server: asks for the service's telemetry snapshot.
    StatsRequest = 8,
    /// Server → client: the telemetry snapshot.
    Stats = 9,
}

impl FrameKind {
    /// Decodes a kind byte.
    pub fn from_u8(value: u8) -> Result<Self, FrameError> {
        Ok(match value {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Query,
            5 => FrameKind::Tile,
            6 => FrameKind::Summary,
            7 => FrameKind::Error,
            8 => FrameKind::StatsRequest,
            9 => FrameKind::Stats,
            other => return Err(FrameError::UnknownKind(other)),
        })
    }
}

/// One decoded frame: a kind and its body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind.
    pub kind: FrameKind,
    /// The message body (kind-specific encoding, see [`crate::wire`]).
    pub body: Vec<u8>,
}

/// Framing-layer failure: the stream is unrecoverable past this point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// The rejected length.
        len: usize,
    },
    /// A length prefix smaller than the mandatory kind byte.
    Truncated,
    /// An unknown kind byte.
    UnknownKind(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"
                )
            }
            FrameError::Truncated => write!(f, "frame length prefix shorter than the kind byte"),
            FrameError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends the encoded frame (`length` prefix, kind, body) to `out`.
pub fn encode_frame(kind: FrameKind, body: &[u8], out: &mut Vec<u8>) {
    let len = body.len() + 1;
    debug_assert!(len <= MAX_FRAME_LEN, "encoder produced an oversized frame");
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.push(kind as u8);
    out.extend_from_slice(body);
}

/// Incremental frame decoder: feed it raw socket bytes in arbitrary chunks,
/// pull complete frames out.
///
/// The buffer is compacted once consumed bytes dominate, so a long-lived
/// connection stays at O(one frame) memory rather than accreting history.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the peer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    fn compact(&mut self) {
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes"; an error poisons the stream (the
    /// connection should be dropped — after a framing error there is no way
    /// to find the next frame boundary).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = &self.buf[self.consumed..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        if len == 0 {
            return Err(FrameError::Truncated);
        }
        if pending.len() < 4 + len {
            return Ok(None);
        }
        let kind = FrameKind::from_u8(pending[4])?;
        let body = pending[5..4 + len].to_vec();
        self.consumed += 4 + len;
        self.compact();
        Ok(Some(Frame { kind, body }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(kind, body, &mut out);
        out
    }

    #[test]
    fn roundtrips_a_frame_fed_byte_by_byte() {
        let encoded = frame(FrameKind::Query, b"hello wire");
        let mut decoder = FrameDecoder::new();
        for (i, byte) in encoded.iter().enumerate() {
            assert_eq!(decoder.next_frame(), Ok(None), "no frame before byte {i}");
            decoder.feed(&[*byte]);
        }
        let decoded = decoder.next_frame().unwrap().expect("complete frame");
        assert_eq!(decoded.kind, FrameKind::Query);
        assert_eq!(decoded.body, b"hello wire");
        assert_eq!(decoder.next_frame(), Ok(None));
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn decodes_multiple_frames_from_one_chunk() {
        let mut bytes = frame(FrameKind::Query, &[1, 2, 3]);
        bytes.extend(frame(FrameKind::Tile, &[]));
        bytes.extend(frame(FrameKind::Summary, &[9; 100]));
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes);
        let kinds: Vec<FrameKind> = std::iter::from_fn(|| decoder.next_frame().unwrap())
            .map(|f| f.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![FrameKind::Query, FrameKind::Tile, FrameKind::Summary]
        );
    }

    #[test]
    fn rejects_oversized_and_zero_length_prefixes() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert_eq!(
            decoder.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
        let mut decoder = FrameDecoder::new();
        decoder.feed(&0u32.to_be_bytes());
        assert_eq!(decoder.next_frame(), Err(FrameError::Truncated));
    }

    #[test]
    fn rejects_unknown_kinds() {
        // 4 is the retired ack kind.
        for kind in [4, 200] {
            let mut bad = frame(FrameKind::Hello, &[]);
            bad[4] = kind;
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bad);
            assert_eq!(decoder.next_frame(), Err(FrameError::UnknownKind(kind)));
        }
    }

    #[test]
    fn buffer_is_compacted_across_many_frames() {
        let mut decoder = FrameDecoder::new();
        let encoded = frame(FrameKind::Tile, &[7; 64]);
        for _ in 0..1000 {
            decoder.feed(&encoded);
            assert!(decoder.next_frame().unwrap().is_some());
            assert!(
                decoder.buf.len() <= 2 * encoded.len() + 8,
                "buffer stays O(frame), got {}",
                decoder.buf.len()
            );
        }
    }
}
