//! Per-connection I/O: one `TcpStream` plus a [`FrameDecoder`], used alike
//! by the server's dispatcher and by the client.
//!
//! No helper thread sits between a caller and its socket. [`Connection::read_frame`]
//! blocks the calling thread until a whole frame is decoded, and
//! [`Connection::write_frame`] is one `write_all` of the encoded bytes. The
//! socket is the backpressure: a peer that stops reading fills the kernel
//! buffers, and the next `write_frame` blocks only the thread that owns this
//! connection.

use crate::frame::{encode_frame, Frame, FrameDecoder};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// One end of a framed connection. See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Socket read buffer; decoded bytes move into `decoder`.
    inbound: Vec<u8>,
    /// Encoding buffer, reused across frames.
    outbound: Vec<u8>,
}

impl Connection {
    /// Wraps a connected stream.
    pub(crate) fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            decoder: FrameDecoder::new(),
            inbound: vec![0; 64 * 1024],
            outbound: Vec::new(),
        }
    }

    /// The underlying socket, for timeouts and shutdown.
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Returns the next frame, reading the socket until one is complete.
    ///
    /// Bytes of a partial frame stay buffered across calls, so a read that
    /// fails with the socket's read timeout (`WouldBlock` or `TimedOut`)
    /// loses nothing. The peer closing the connection is `UnexpectedEof`,
    /// and a framing error is `InvalidData`: after one there is no next
    /// frame boundary to find, so the connection is finished.
    pub(crate) fn read_frame(&mut self) -> io::Result<Frame> {
        loop {
            if let Some(frame) = self
                .decoder
                .next_frame()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            {
                return Ok(frame);
            }
            match self.stream.read(&mut self.inbound)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.decoder.feed(&self.inbound[..n]),
            }
        }
    }

    /// Sends one frame with a single `write_all`, blocking while the socket
    /// buffer is full.
    pub(crate) fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        self.outbound.clear();
        encode_frame(frame.kind, &frame.body, &mut self.outbound);
        self.stream.write_all(&self.outbound)
    }
}
