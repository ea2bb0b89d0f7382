//! LEB128 variable-length integer encoding, as used throughout the Wasm
//! binary format (unsigned for counts/indices, signed for constants).

use crate::error::DecodeError;

/// A cursor over a byte slice with LEB128 and fixed-width readers.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Where `bytes` starts in the outermost reader's input.
    base: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0, base: 0 }
    }

    /// Current byte offset from the start of the outermost reader's input
    /// — for a module, the file offset — however many [`sub_reader`]s deep.
    ///
    /// [`sub_reader`]: Self::sub_reader
    pub fn pos(&self) -> usize {
        self.base + self.pos
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::new(self.pos(), message)
    }

    pub fn read_u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Peek the next byte without consuming it.
    pub fn peek_u8(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    pub fn read_bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(self.err(format!("need {len} bytes, only {} left", self.remaining())));
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Unsigned LEB128, at most 32 bits of payload.
    pub fn read_u32(&mut self) -> Result<u32, DecodeError> {
        let mut result: u32 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            let low = (byte & 0x7f) as u32;
            if shift == 28 && (byte & 0x70) != 0 {
                return Err(self.err("u32 LEB128 overflows 32 bits"));
            }
            if shift >= 32 {
                return Err(self.err("u32 LEB128 too long"));
            }
            result |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(result);
            }
            shift += 7;
        }
    }


    /// Signed LEB128, 33-bit range used for block types and i32 constants.
    pub fn read_i32(&mut self) -> Result<i32, DecodeError> {
        let v = self.read_i64_limited(32)?;
        Ok(v as i32)
    }

    /// Signed LEB128, 64-bit.
    pub fn read_i64(&mut self) -> Result<i64, DecodeError> {
        self.read_i64_limited(64)
    }

    /// Signed LEB128 with 33-bit payload (block types use this width).
    pub fn read_s33(&mut self) -> Result<i64, DecodeError> {
        self.read_i64_limited(33)
    }

    fn read_i64_limited(&mut self, bits: u32) -> Result<i64, DecodeError> {
        let mut result: i64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift >= bits + 7 {
                return Err(self.err("signed LEB128 too long"));
            }
            result |= ((byte & 0x7f) as i64) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                // Sign-extend from the final group.
                if shift < 64 && (byte & 0x40) != 0 {
                    result |= -1i64 << shift;
                }
                return Ok(result);
            }
        }
    }

    pub fn read_f32(&mut self) -> Result<f32, DecodeError> {
        let b = self.read_bytes(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn read_f64(&mut self) -> Result<f64, DecodeError> {
        let b = self.read_bytes(8)?;
        Ok(f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A length-prefixed UTF-8 name.
    pub fn read_name(&mut self) -> Result<String, DecodeError> {
        let len = self.read_u32()? as usize;
        let start = self.pos();
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::new(start, "name is not valid UTF-8"))
    }

    /// Sub-reader over the next `len` bytes (section payloads, function
    /// bodies). It reports positions in this reader's coordinates.
    pub fn sub_reader(&mut self, len: usize) -> Result<Reader<'a>, DecodeError> {
        let base = self.pos();
        let bytes = self.read_bytes(len)?;
        Ok(Reader { bytes, pos: 0, base })
    }
}

/// Append an unsigned 32-bit LEB128 value.
pub fn write_u32(out: &mut Vec<u8>, mut value: u32) {
    loop {
        let mut byte = (value & 0x7f) as u8;
        value >>= 7;
        if value != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if value == 0 {
            break;
        }
    }
}

/// Append an unsigned 64-bit LEB128 value.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let mut byte = (value & 0x7f) as u8;
        value >>= 7;
        if value != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if value == 0 {
            break;
        }
    }
}

/// Append a signed 32-bit LEB128 value.
pub fn write_i32(out: &mut Vec<u8>, value: i32) {
    write_i64(out, value as i64)
}

/// Append a signed 64-bit LEB128 value.
pub fn write_i64(out: &mut Vec<u8>, mut value: i64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        let sign_bit = byte & 0x40 != 0;
        let done = (value == 0 && !sign_bit) || (value == -1 && sign_bit);
        out.push(if done { byte } else { byte | 0x80 });
        if done {
            break;
        }
    }
}

/// Append a length-prefixed UTF-8 name.
pub fn write_name(out: &mut Vec<u8>, name: &str) {
    write_u32(out, name.len() as u32);
    out.extend_from_slice(name.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u32(v: u32) -> u32 {
        let mut buf = Vec::new();
        write_u32(&mut buf, v);
        Reader::new(&buf).read_u32().unwrap()
    }

    fn roundtrip_i64(v: i64) -> i64 {
        let mut buf = Vec::new();
        write_i64(&mut buf, v);
        Reader::new(&buf).read_i64().unwrap()
    }

    #[test]
    fn u32_roundtrip_edge_cases() {
        for v in [0, 1, 127, 128, 16383, 16384, u32::MAX, u32::MAX - 1, 0x0808_0808] {
            assert_eq!(roundtrip_u32(v), v);
        }
    }

    #[test]
    fn i64_roundtrip_edge_cases() {
        for v in [0i64, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN, 0x7fff_ffff, -0x8000_0000]
        {
            assert_eq!(roundtrip_i64(v), v);
        }
    }

    #[test]
    fn i32_roundtrip() {
        for v in [0i32, -1, i32::MIN, i32::MAX, 1234567, -7654321] {
            let mut buf = Vec::new();
            write_i32(&mut buf, v);
            assert_eq!(Reader::new(&buf).read_i32().unwrap(), v);
        }
    }

    #[test]
    fn u32_overflow_rejected() {
        // 5 continuation bytes with high payload bits set -> overflow.
        let buf = [0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(Reader::new(&buf).read_u32().is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = [0x80, 0x80];
        assert!(Reader::new(&buf).read_u32().is_err());
        assert!(Reader::new(&[]).read_u8().is_err());
    }

    #[test]
    fn name_roundtrip_and_invalid_utf8() {
        let mut buf = Vec::new();
        write_name(&mut buf, "env");
        assert_eq!(Reader::new(&buf).read_name().unwrap(), "env");

        let bad = [2, 0xff, 0xfe];
        assert!(Reader::new(&bad).read_name().is_err());
    }

    #[test]
    fn a_sub_reader_reports_positions_in_its_parents_coordinates() {
        let buf = [0u8, 1, 2, 3, 4, 5, 6, 7];
        let mut r = Reader::new(&buf);
        r.read_bytes(2).unwrap();
        let mut section = r.sub_reader(6).unwrap();
        section.read_u8().unwrap();
        let mut body = section.sub_reader(4).unwrap();
        assert_eq!(body.pos(), 3);
        body.read_bytes(4).unwrap();
        assert_eq!(body.read_u8().unwrap_err().offset, 7);
        assert_eq!(section.pos(), 7);
        assert_eq!(r.pos(), 8);
    }

    #[test]
    fn floats_roundtrip() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1.5f32.to_le_bytes());
        buf.extend_from_slice(&(-2.25f64).to_le_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_f32().unwrap(), 1.5);
        assert_eq!(r.read_f64().unwrap(), -2.25);
    }

    #[test]
    fn canonical_single_byte_encodings() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 5);
        assert_eq!(buf, [5]);
        buf.clear();
        write_i64(&mut buf, -1);
        assert_eq!(buf, [0x7f]);
    }
}
