//! Low-level byte codec shared by the snapshot format and by consumers
//! embedding their own metadata blobs (see `co-engine`'s checkpoints).
//!
//! Integers use LEB128 varints (signed values zigzag-encoded first);
//! strings are a varint length followed by UTF-8 bytes. Decoding never
//! panics: every underrun or overlong form is a typed [`WireError`].

use crate::WireError;

/// Appends a LEB128-encoded unsigned integer.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a zigzag + LEB128 encoded signed integer.
pub fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reading position over a byte slice.
///
/// Every accessor takes a `context` naming what is being read, so an
/// underrun surfaces as `WireError::Truncated { context }` pointing at
/// the exact structure that was cut short.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a LEB128 unsigned integer.
    pub fn varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8(context)?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::Malformed {
                    detail: format!("varint overflow while reading {context}"),
                });
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag + LEB128 signed integer.
    pub fn varint_i64(&mut self, context: &'static str) -> Result<i64, WireError> {
        let z = self.varint(context)?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, context: &'static str) -> Result<&'a str, WireError> {
        let len = self.varint(context)?;
        let len = usize::try_from(len).map_err(|_| WireError::Malformed {
            detail: format!("string length {len} overflows while reading {context}"),
        })?;
        let bytes = self.take(len, context)?;
        std::str::from_utf8(bytes).map_err(|_| WireError::Malformed {
            detail: format!("invalid UTF-8 while reading {context}"),
        })
    }
}

/// The FNV-1a 64-bit hash of `bytes` — the snapshot checksum. Not
/// cryptographic: it detects truncation and bit rot, not tampering.
pub fn checksum(bytes: &[u8]) -> u64 {
    checksum_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a [`checksum`] over more bytes: `checksum_extend(checksum(a),
/// b)` is the checksum of `a` followed by `b`.
pub(crate) fn checksum_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrips() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint("test").unwrap(), v);
            assert_eq!(c.remaining(), 0);
        }
    }

    #[test]
    fn signed_varint_roundtrips() {
        for &v in &[0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_varint_i64(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint_i64("test").unwrap(), v);
        }
    }

    #[test]
    fn strings_roundtrip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo wörld");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.str("test").unwrap(), "héllo wörld");
    }

    #[test]
    fn truncation_is_typed() {
        let mut buf = Vec::new();
        put_str(&mut buf, "long enough");
        buf.truncate(4);
        let mut c = Cursor::new(&buf);
        let err = c.str("symbol table").unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                context: "symbol table"
            }
        ));
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let buf = [0xff; 11];
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.varint("test").unwrap_err(),
            WireError::Malformed { .. }
        ));
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_eq!(checksum_extend(checksum(b"ab"), b"c"), checksum(b"abc"));
    }
}
