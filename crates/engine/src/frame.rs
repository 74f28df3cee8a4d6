//! Length-prefixed, versioned binary framing for socket transports.
//!
//! Every byte exchanged by the distributed layers — the
//! [`crate::socket::SocketExecutor`] dispatcher/worker protocol and the
//! campaign daemon's client protocol — travels inside a [`Frame`]:
//!
//! ```text
//! +-----------+---------+----------+--------------+-------------+
//! | magic "RS"| version | kind: u8 | len: u32 LE  | payload ... |
//! +-----------+---------+----------+--------------+-------------+
//!   2 bytes     1 byte    1 byte      4 bytes         len bytes
//! ```
//!
//! The magic rejects misdirected peers immediately. The version byte names
//! the one payload layout per frame kind this build speaks: [`read_frame`]
//! refuses any other version, so a layout change bumps [`VERSION`] and peers
//! of different revisions fail at the first header instead of misreading a
//! payload. The length prefix makes torn frames detectable: a connection dropped mid-frame surfaces as a clean
//! [`std::io::Error`] on the reader, never as a half-parsed message. Payloads
//! are built from three primitives — `u64` little-endian, IEEE-754 `f64` bit
//! patterns (bit-exact, matching [`crate::wire`]'s float discipline), and
//! length-prefixed UTF-8 strings — via [`PayloadWriter`] / [`PayloadReader`].

use crate::error::EngineError;
use std::io::{Read, Write};

/// Frame preamble: magic bytes plus the protocol version.
pub const MAGIC: [u8; 2] = *b"RS";

/// Protocol version spoken by this build: one payload layout per frame kind,
/// every field required.
pub const VERSION: u8 = 2;

/// Upper bound on one frame's payload (64 MiB) — a sanity guard against
/// garbage length prefixes from misbehaving peers, far above any real
/// scenario or report payload.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Frame kinds of the dispatcher ⇄ worker executor protocol. Service-level
/// kinds (daemon ⇄ client) start at 32 and live in `rough-service`.
pub mod kind {
    /// Worker → dispatcher: protocol version + pid, sent once per connection.
    pub const HELLO: u8 = 1;
    /// Dispatcher → worker: run id + wire-encoded scenario.
    pub const RUN: u8 = 2;
    /// Dispatcher → worker: run id + a batch of unit ids to evaluate.
    pub const DISPATCH: u8 = 3;
    /// Worker → dispatcher: one completed unit record (bits + wall seconds).
    pub const RESULT: u8 = 4;
    /// Worker → dispatcher: liveness beacon (empty payload).
    pub const HEARTBEAT: u8 = 5;
    /// Worker → dispatcher: cumulative kernel-cache hits/misses of a run.
    pub const STATS: u8 = 6;
    /// Dispatcher → worker: finish up and exit (empty payload).
    pub const SHUTDOWN: u8 = 7;
    /// Worker → dispatcher: fatal worker-side error (message string).
    pub const ERR: u8 = 8;
}

/// One framed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (see [`kind`] and the service-level kinds).
    pub kind: u8,
    /// Raw payload; decode with [`PayloadReader`].
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with an empty payload.
    pub fn empty(kind: u8) -> Self {
        Self {
            kind,
            payload: Vec::new(),
        }
    }

    /// A reader over this frame's payload.
    pub fn reader(&self) -> PayloadReader<'_> {
        PayloadReader::new(&self.payload)
    }
}

fn socket_error(reason: impl Into<String>) -> EngineError {
    EngineError::Socket(reason.into())
}

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on I/O failure or oversized payloads.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), EngineError> {
    if frame.payload.len() > MAX_PAYLOAD {
        return Err(socket_error(format!(
            "refusing to send oversized frame ({} bytes)",
            frame.payload.len()
        )));
    }
    let mut header = [0u8; 8];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = VERSION;
    header[3] = frame.kind;
    header[4..8].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    // Fault point: emit the header and half the payload, then fail — the
    // torn frame a peer sees when a connection dies mid-write.
    if rough_faults::should_fire("frame.write.torn") {
        writer
            .write_all(&header)
            .and_then(|()| writer.write_all(&frame.payload[..frame.payload.len() / 2]))
            .and_then(|()| writer.flush())
            .ok();
        return Err(socket_error("injected torn frame write (fault plan)"));
    }
    writer
        .write_all(&header)
        .and_then(|()| writer.write_all(&frame.payload))
        .and_then(|()| writer.flush())
        .map_err(|e| socket_error(format!("frame write failed: {e}")))
}

/// Reads one complete frame, validating magic, version and payload bounds.
///
/// A connection closed cleanly *between* frames surfaces as
/// `UnexpectedEof` on the first header byte; closed *mid-frame* it surfaces
/// the same way on the remainder — either way the caller sees an error, never
/// a truncated message.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on I/O failure, bad magic, version
/// mismatch, or an implausible length prefix.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, EngineError> {
    let mut header = [0u8; 8];
    reader
        .read_exact(&mut header)
        .map_err(|e| socket_error(format!("frame header read failed: {e}")))?;
    if header[..2] != MAGIC {
        return Err(socket_error("bad frame magic (not a roughsim peer)"));
    }
    if header[2] != VERSION {
        return Err(socket_error(format!(
            "protocol version mismatch: peer speaks v{}, this build speaks v{VERSION}",
            header[2]
        )));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(socket_error(format!(
            "implausible frame length {len} (corrupt stream?)"
        )));
    }
    let mut payload = vec![0u8; len];
    reader
        .read_exact(&mut payload)
        .map_err(|e| socket_error(format!("frame payload read failed ({len} bytes): {e}")))?;
    Ok(Frame {
        kind: header[3],
        payload,
    })
}

/// Incremental payload builder (u64 / f64-bits / length-prefixed strings).
#[derive(Debug, Default)]
pub struct PayloadWriter {
    bytes: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a little-endian `u64`.
    pub fn u64(mut self, value: u64) -> Self {
        self.bytes.extend_from_slice(&value.to_le_bytes());
        self
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact transport).
    pub fn f64_bits(self, value: f64) -> Self {
        self.u64(value.to_bits())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(mut self, value: &str) -> Self {
        self.bytes
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.bytes.extend_from_slice(value.as_bytes());
        self
    }

    /// Finishes into a frame of the given kind.
    pub fn frame(self, kind: u8) -> Frame {
        Frame {
            kind,
            payload: self.bytes,
        }
    }
}

/// Sequential payload decoder matching [`PayloadWriter`]'s encoding.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    cursor: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over raw payload bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, cursor: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        let end = self
            .cursor
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| socket_error("truncated frame payload"))?;
        let slice = &self.bytes[self.cursor..end];
        self.cursor = end;
        Ok(slice)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] when the payload is exhausted.
    pub fn u64(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] when the payload is exhausted.
    pub fn f64_bits(&mut self) -> Result<f64, EngineError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, EngineError> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| socket_error("frame string payload is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_byte_buffer() {
        let frame = PayloadWriter::new()
            .u64(42)
            .f64_bits(0.1 + 0.2)
            .str("fig5-golden-reduced")
            .frame(kind::RESULT);
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &frame).unwrap();
        let parsed = read_frame(&mut buffer.as_slice()).unwrap();
        assert_eq!(parsed, frame);
        let mut reader = parsed.reader();
        assert_eq!(reader.u64().unwrap(), 42);
        assert_eq!(
            reader.f64_bits().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        assert_eq!(reader.str().unwrap(), "fig5-golden-reduced");
    }

    #[test]
    fn torn_frames_error_instead_of_truncating() {
        let frame = PayloadWriter::new().u64(7).str("abc").frame(kind::RUN);
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &frame).unwrap();
        // Drop a socket mid-frame: every strict prefix must fail cleanly.
        for cut in 0..buffer.len() {
            let err = read_frame(&mut &buffer[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes must not parse");
        }
        // The full buffer still parses.
        assert_eq!(read_frame(&mut buffer.as_slice()).unwrap(), frame);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let frame = Frame::empty(kind::HEARTBEAT);
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &frame).unwrap();
        let mut bad_magic = buffer.clone();
        bad_magic[0] = b'X';
        assert!(read_frame(&mut bad_magic.as_slice()).is_err());
        let mut bad_version = buffer.clone();
        bad_version[2] = VERSION + 1;
        assert!(read_frame(&mut bad_version.as_slice()).is_err());
    }

    #[test]
    fn implausible_lengths_are_rejected_without_allocating() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &Frame::empty(kind::HELLO)).unwrap();
        buffer[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut buffer.as_slice()).is_err());
    }

    #[test]
    fn payload_reader_rejects_truncation_and_bad_utf8() {
        let payload = PayloadWriter::new().str("hi").frame(0).payload;
        // Length prefix says 2 but only 1 byte remains.
        assert!(PayloadReader::new(&payload[..5]).str().is_err());
        let mut bad = payload.clone();
        bad[4] = 0xFF;
        bad[5] = 0xFE;
        assert!(PayloadReader::new(&bad).str().is_err());
        assert!(PayloadReader::new(&[1, 2]).u64().is_err());
    }
}
