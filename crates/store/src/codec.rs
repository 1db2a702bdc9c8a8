//! Hand-rolled little-endian primitive codec.
//!
//! The vendored `serde` is a no-op stand-in (DESIGN.md §6), so the snapshot
//! format is encoded by hand: fixed-width little-endian integers, `u32`
//! length-prefixed strings and slices, and an FNV-1a digest over raw bytes.
//! The decoder is bounds-checked everywhere — a truncated or hostile byte
//! stream yields [`StoreError::Truncated`]/[`StoreError::Malformed`], never
//! a panic — because crash recovery feeds it torn files by design.

use crate::error::StoreError;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the digest the snapshot header carries for
/// its payload and for itself. Not cryptographic: it guards against torn
/// writes and bit rot, not adversaries (same policy as the plan verifier's
/// weight digest in `sne_sim`).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Streaming FNV-1a accumulator for digests over multiple fields without
/// materializing a contiguous buffer.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh accumulator at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one little-endian `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Little-endian encoder into a growable buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing was encoded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i16`.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64` (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix (section framing writes its
    /// own `u64` length).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("section blob over 4 GiB"));
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a `u32` count followed by the elements as little-endian
    /// `i16`s — the membrane-state wire layout.
    pub fn i16_slice(&mut self, v: &[i16]) {
        self.u32(u32::try_from(v.len()).expect("state slice over u32::MAX"));
        for &s in v {
            self.i16(s);
        }
    }

    /// Appends a `u32` count followed by little-endian `u32`s.
    pub fn u32_slice(&mut self, v: &[u32]) {
        self.u32(u32::try_from(v.len()).expect("slice over u32::MAX"));
        for &s in v {
            self.u32(s);
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Returns `true` once every byte is consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `i16`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn i16(&mut self) -> Result<i16, StoreError> {
        Ok(i16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at end of input.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Reads a `u32` length prefix followed by that many raw bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if the prefix overruns the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] on overrun, [`StoreError::Malformed`] on
    /// invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, StoreError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| StoreError::Malformed("non-UTF-8 string"))
    }

    /// Reads a `u32`-prefixed `i16` slice (membrane-state layout).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if the count overruns the input.
    pub fn i16_slice(&mut self) -> Result<Vec<i16>, StoreError> {
        let count = self.u32()? as usize;
        let raw = self.take(count * 2)?;
        Ok(raw
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect())
    }

    /// Reads a `u32`-prefixed `u32` slice.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] if the count overruns the input.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, StoreError> {
        let count = self.u32()? as usize;
        let raw = self.take(count * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u16(0xBEEF);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.i16(-12345);
        enc.f32(1.5);
        enc.f64(-0.1);
        enc.str("snapshot");
        enc.i16_slice(&[-1, 0, 1, i16::MAX, i16::MIN]);
        enc.u32_slice(&[0, 42, u32::MAX]);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 0xBEEF);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.i16().unwrap(), -12345);
        assert_eq!(dec.f32().unwrap(), 1.5);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(dec.str().unwrap(), "snapshot");
        assert_eq!(dec.i16_slice().unwrap(), vec![-1, 0, 1, i16::MAX, i16::MIN]);
        assert_eq!(dec.u32_slice().unwrap(), vec![0, 42, u32::MAX]);
        assert!(dec.is_done());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut enc = Enc::new();
        enc.u64(1);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            assert!(matches!(dec.u64(), Err(StoreError::Truncated { .. })));
        }
        // A length prefix pointing past the end is truncation, not a panic.
        let mut enc = Enc::new();
        enc.u32(1_000_000);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Dec::new(&bytes).bytes(),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            Dec::new(&bytes).i16_slice(),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference FNV-1a values for "" and "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut acc = Fnv1a::new();
        acc.update(b"hello ");
        acc.update(b"world");
        assert_eq!(acc.digest(), fnv1a(b"hello world"));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut enc = Enc::new();
        enc.bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Dec::new(&bytes).str(),
            Err(StoreError::Malformed(_))
        ));
    }
}
