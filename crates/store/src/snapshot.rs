//! The versioned snapshot container: a fixed, O(1)-verifiable header
//! followed by length-prefixed sections.
//!
//! ## Layout (format version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "SNES"
//! 4       2     format version (little-endian u16)
//! 6       1     kind (1 = client state, 2 = artifact)
//! 7       1     reserved (0)
//! 8       8     artifact digest (u64)     -- which model/config this is of
//! 16      8     payload length (u64)
//! 24      8     payload FNV-1a digest (u64)
//! 32      8     header FNV-1a digest over bytes 0..32 (u64)
//! 40      ...   payload: sections
//! ```
//!
//! Each section is `tag: u32, len: u64, bytes`. Decoders skip sections with
//! unknown tags (forward compatibility) and fail with
//! [`StoreError::MissingSection`] when a required one is absent.
//!
//! The header is **O(1)-verifiable**: magic, version and the header digest
//! are checked from the first 40 bytes alone, so a recovery scan can reject
//! garbage without reading payloads, and an mmap-style consumer can
//! validate before touching the mapping. The payload starts at byte 40 —
//! 8-byte aligned, so fixed-width fields in sections stay aligned for an
//! mmap reader. Full verification (`SnapshotView::parse`) additionally
//! checks the payload length against the bytes present (torn-write
//! detection) and the payload digest (bit-rot detection).

use crate::codec::{fnv1a, Dec, Enc};
use crate::error::StoreError;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"SNES";

/// The snapshot format version this build writes.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header size in bytes; the payload starts here (8-byte aligned).
pub const HEADER_LEN: usize = 40;

/// What a snapshot contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A serialized `ClientState` (the mutable per-client half).
    ClientState,
    /// A serialized `RuntimeArtifact` description (network + config).
    Artifact,
}

impl SnapshotKind {
    fn to_byte(self) -> u8 {
        match self {
            Self::ClientState => 1,
            Self::Artifact => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, StoreError> {
        match b {
            1 => Ok(Self::ClientState),
            2 => Ok(Self::Artifact),
            other => Err(StoreError::BadKind(other)),
        }
    }
}

/// A parsed, validated snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version of the snapshot (decoders accept version 1).
    pub version: u16,
    /// What the payload encodes.
    pub kind: SnapshotKind,
    /// Digest of the artifact the snapshot belongs to.
    pub artifact_digest: u64,
    /// Payload length the header promises.
    pub payload_len: u64,
    /// FNV-1a digest the payload must hash to.
    pub payload_digest: u64,
}

impl Header {
    /// Parses and O(1)-verifies the fixed header: magic, version, kind and
    /// the header's own checksum — without touching the payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] for fewer than [`HEADER_LEN`] bytes,
    /// [`StoreError::BadMagic`]/[`StoreError::HeaderCorrupt`] for garbage,
    /// [`StoreError::UnsupportedVersion`] for a version this build cannot
    /// decode, [`StoreError::BadKind`] for an unknown kind byte.
    pub fn parse(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        let mut dec = Dec::new(&bytes[..HEADER_LEN]);
        let magic = dec.take(4).expect("header length checked");
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = dec.u16().expect("header length checked");
        let kind_byte = dec.u8().expect("header length checked");
        let _reserved = dec.u8().expect("header length checked");
        let artifact_digest = dec.u64().expect("header length checked");
        let payload_len = dec.u64().expect("header length checked");
        let payload_digest = dec.u64().expect("header length checked");
        let header_digest = dec.u64().expect("header length checked");
        if fnv1a(&bytes[..32]) != header_digest {
            return Err(StoreError::HeaderCorrupt);
        }
        // Version-gate AFTER the checksum: a snapshot from a future format
        // with an intact header is reported as "unsupported version", not
        // as corruption. Bumping `FORMAT_VERSION` does not widen this match
        // implicitly — a v2 writer must consciously decide whether its
        // reader still accepts v1 (see the golden-fixture test).
        if version != 1 {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let kind = SnapshotKind::from_byte(kind_byte)?;
        Ok(Self {
            version,
            kind,
            artifact_digest,
            payload_len,
            payload_digest,
        })
    }
}

/// Builds a snapshot: header plus tagged sections.
#[derive(Debug)]
pub struct SnapshotBuilder {
    kind: SnapshotKind,
    artifact_digest: u64,
    payload: Enc,
}

impl SnapshotBuilder {
    /// Starts a snapshot of `kind` bound to `artifact_digest`.
    #[must_use]
    pub fn new(kind: SnapshotKind, artifact_digest: u64) -> Self {
        Self {
            kind,
            artifact_digest,
            payload: Enc::new(),
        }
    }

    /// Appends one section.
    pub fn section(&mut self, tag: u32, body: &[u8]) {
        self.payload.u32(tag);
        self.payload.u64(body.len() as u64);
        self.payload.raw(body);
    }

    /// Seals the snapshot: computes the digests and returns header +
    /// payload as one buffer.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let payload = self.payload.into_bytes();
        let mut head = Enc::new();
        head.u8(MAGIC[0]);
        head.u8(MAGIC[1]);
        head.u8(MAGIC[2]);
        head.u8(MAGIC[3]);
        head.u16(FORMAT_VERSION);
        head.u8(self.kind.to_byte());
        head.u8(0);
        head.u64(self.artifact_digest);
        head.u64(payload.len() as u64);
        head.u64(fnv1a(&payload));
        let mut bytes = head.into_bytes();
        let header_digest = fnv1a(&bytes);
        bytes.extend_from_slice(&header_digest.to_le_bytes());
        debug_assert_eq!(bytes.len(), HEADER_LEN);
        bytes.extend_from_slice(&payload);
        bytes
    }
}

/// A fully validated snapshot: parsed header and the section table.
#[derive(Debug)]
pub struct SnapshotView<'a> {
    /// The validated header.
    pub header: Header,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> SnapshotView<'a> {
    /// Parses and **fully** verifies a snapshot: the O(1) header checks,
    /// then payload length against bytes present (torn-write detection),
    /// the payload digest (bit rot) and the section framing.
    ///
    /// # Errors
    ///
    /// Everything [`Header::parse`] raises, plus [`StoreError::Torn`] on a
    /// length mismatch, [`StoreError::DigestMismatch`] on a payload digest
    /// mismatch and [`StoreError::Truncated`]/[`StoreError::Malformed`] on
    /// broken section framing.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, StoreError> {
        let header = Header::parse(bytes)?;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != header.payload_len {
            return Err(StoreError::Torn {
                expected: header.payload_len,
                found: payload.len() as u64,
            });
        }
        let found = fnv1a(payload);
        if found != header.payload_digest {
            return Err(StoreError::DigestMismatch {
                expected: header.payload_digest,
                found,
            });
        }
        let mut sections = Vec::new();
        let mut dec = Dec::new(payload);
        while !dec.is_done() {
            let tag = dec.u32()?;
            let len = dec.u64()?;
            let len = usize::try_from(len).map_err(|_| StoreError::Malformed("section length"))?;
            sections.push((tag, dec.take(len)?));
        }
        Ok(Self { header, sections })
    }

    /// The body of the first section tagged `tag`, if present.
    #[must_use]
    pub fn section(&self, tag: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, body)| *body)
    }

    /// The body of section `tag`, or [`StoreError::MissingSection`].
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when absent.
    pub fn require(&self, tag: u32) -> Result<&'a [u8], StoreError> {
        self.section(tag).ok_or(StoreError::MissingSection(tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new(SnapshotKind::ClientState, 0xABCD);
        b.section(0x10, b"first");
        b.section(0x20, &[1, 2, 3, 4, 5, 6, 7, 8]);
        b.finish()
    }

    #[test]
    fn build_parse_round_trips() {
        let bytes = sample();
        let view = SnapshotView::parse(&bytes).unwrap();
        assert_eq!(view.header.version, FORMAT_VERSION);
        assert_eq!(view.header.kind, SnapshotKind::ClientState);
        assert_eq!(view.header.artifact_digest, 0xABCD);
        assert_eq!(view.section(0x10), Some(&b"first"[..]));
        assert_eq!(view.require(0x20).unwrap(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(view.section(0x99), None);
        assert!(matches!(
            view.require(0x99),
            Err(StoreError::MissingSection(0x99))
        ));
    }

    #[test]
    fn header_is_o1_verifiable() {
        let bytes = sample();
        // Header alone (no payload) passes the O(1) check...
        let header = Header::parse(&bytes[..HEADER_LEN]).unwrap();
        assert_eq!(header.payload_len as usize, bytes.len() - HEADER_LEN);
        // ...but the full parse of the same truncation reports Torn.
        assert!(matches!(
            SnapshotView::parse(&bytes[..HEADER_LEN]),
            Err(StoreError::Torn { .. })
        ));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotView::parse(&bytes[..cut]).is_err(),
                "undetected truncation at {cut}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                SnapshotView::parse(&corrupt).is_err(),
                "undetected bit flip at byte {i}"
            );
        }
    }

    #[test]
    fn future_versions_are_gated_not_misread() {
        let mut bytes = sample();
        // Rewrite the version field and re-seal the header checksum, as a
        // well-meaning future writer would.
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        let digest = fnv1a(&bytes[..32]);
        bytes[32..40].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            SnapshotView::parse(&bytes),
            Err(StoreError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn wrong_magic_and_kind_are_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(Header::parse(&bytes), Err(StoreError::BadMagic)));
        let mut bytes = sample();
        bytes[6] = 9;
        let digest = fnv1a(&bytes[..32]);
        bytes[32..40].copy_from_slice(&digest.to_le_bytes());
        assert!(matches!(Header::parse(&bytes), Err(StoreError::BadKind(9))));
    }
}
