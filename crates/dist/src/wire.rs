//! The wire codec: every message is the compact JSON text of its
//! `Serialize`/`Deserialize` schema — the same schema that writes
//! `results/*.json` — inside a length-prefixed frame.
//!
//! - [`Wire::encode`] is `serde_json::to_string`; [`Wire::decode`] runs
//!   `serde_json::from_str_typed` over the whole payload, so a malformed
//!   or mistyped message fails with the JSON path of the offending node
//!   (`Failover[0].outcomes[3].bounces: expected unsigned integer, …`).
//! - Finite `f64`s round-trip bit for bit: the renderer prints the
//!   shortest decimal that parses back to the same value. Non-finite
//!   floats render as `null`, which an `f64` field rejects at decode, so
//!   they fail loudly instead of changing across the wire.
//! - Adding a field to a config or result type changes no encoding code.
//!
//! Frames are `u32` little-endian payload length + payload, capped at
//! [`MAX_FRAME`] so a corrupt or hostile peer cannot make the receiver
//! allocate unbounded memory. Truncated and oversized frames surface as
//! typed errors (exercised by the codec tests).

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

/// Upper bound on a frame payload. A full eval-scale cell result is well
/// under 1 MiB; 64 MiB leaves room for large-scale grids while still
/// rejecting garbage length prefixes.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Decoding failure: malformed bytes, not an I/O problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A frame header declared more than [`MAX_FRAME`] payload bytes.
    Oversized(u64),
    /// The payload is not UTF-8 text.
    NotUtf8,
    /// The payload is not JSON of the expected type; the message carries
    /// the field path of the offending node.
    Json(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized(n) => write!(f, "length {n} exceeds frame bounds"),
            WireError::NotUtf8 => write!(f, "payload is not utf-8"),
            WireError::Json(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A value that crosses the wire: implemented once, for every type with
/// a `Serialize`/`Deserialize` schema.
pub trait Wire: Sized {
    /// Appends the value's compact JSON text to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a whole payload; trailing bytes are an error.
    fn decode(payload: &[u8]) -> Result<Self, WireError>;
}

impl<T: Serialize + Deserialize> Wire for T {
    fn encode(&self, out: &mut Vec<u8>) {
        let json = serde_json::to_string(self).expect("the vendored serializer is infallible");
        out.extend_from_slice(json.as_bytes());
    }

    fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let text = std::str::from_utf8(payload).map_err(|_| WireError::NotUtf8)?;
        serde_json::from_str_typed(text).map_err(|e| WireError::Json(e.to_string()))
    }
}

/// Encodes a value to a fresh byte vector.
pub fn encode_vec<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value, requiring the buffer to be fully consumed.
pub fn decode_exact<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    T::decode(payload)
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// Writes one frame: `u32` little-endian payload length, then the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame exceeds MAX_FRAME");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the connection between messages); EOF in the
/// middle of a frame is an `UnexpectedEof` error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len as u64).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes `msg` and writes it as one frame.
pub fn send<W: Write, T: Wire>(w: &mut W, msg: &T) -> io::Result<()> {
    write_frame(w, &encode_vec(msg))
}

/// Reads one frame and decodes it, requiring full consumption.
pub fn recv<R: Read, T: Wire>(r: &mut R) -> io::Result<Option<T>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_exact(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Any finite `f64` bit pattern — subnormals, huge integral
        /// values and `-0.0` included — comes back with identical bits.
        #[test]
        fn finite_floats_round_trip_bit_exactly(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                let back: f64 = decode_exact(&encode_vec(&v)).unwrap();
                prop_assert_eq!(back.to_bits(), bits);
            }
        }
    }

    #[test]
    fn float_edge_cases_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            1e15,
            -9_007_199_254_740_992.0,
            1e300,
            std::f64::consts::PI,
        ] {
            let back: f64 = decode_exact(&encode_vec(&v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:e}");
        }
    }

    #[test]
    fn non_finite_floats_fail_to_decode() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let bytes = encode_vec(&vec![1.0, v]);
            let err = decode_exact::<Vec<f64>>(&bytes).unwrap_err();
            assert!(
                err.to_string().contains("[1]: expected number, got null"),
                "{err}"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let bytes = encode_vec(&(7u32, String::from("hëllo")));
        assert_eq!(decode_exact::<(u32, String)>(&bytes).unwrap().1, "hëllo");
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_exact::<(u32, String)>(&bytes[..cut]),
                Err(WireError::Json(_)) | Err(WireError::NotUtf8)
            ));
        }
        let mut trailing = bytes.clone();
        trailing.push(b'1');
        assert!(matches!(
            decode_exact::<(u32, String)>(&trailing),
            Err(WireError::Json(_))
        ));
        assert_eq!(
            decode_exact::<u32>(&[0xff, 0xfe]).unwrap_err(),
            WireError::NotUtf8
        );
        // A value out of range for the declared type.
        assert!(decode_exact::<u8>(b"256").is_err());
        assert!(decode_exact::<bool>(b"7").is_err());
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world");
        // Clean EOF at a frame boundary.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_header_and_body_error() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Cut inside the header.
        let mut r = &buf[..2];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Cut inside the body.
        let mut r = &buf[..7];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_frame_header_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut r = &buf[..];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
