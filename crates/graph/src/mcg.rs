//! The `.mcg` binary on-disk graph format: versioned, little-endian,
//! checksummed, loadable in `O(n + m)` with no parse step.
//!
//! Text edge lists are convenient but slow and memory-hungry to load at
//! production scale: every line is tokenised, every edge passes through a
//! `Vec<Vec<VertexId>>` intermediate, and ids get re-sorted. The `.mcg`
//! format instead stores the [`Graph`]'s CSR arrays directly, so the loader
//! streams bytes straight into the final offset/adjacency vectors and hands
//! them to [`Graph::from_csr_parts`] — one validation pass, zero intermediate
//! structures. A 1M-vertex / 10M-edge graph loads from ~88 MB of sections
//! into ~88 MB of arrays.
//!
//! The byte-level layout is specified normatively in `docs/FORMAT.md`; this
//! module is the reference implementation. In brief:
//!
//! ```text
//! magic (8)  "\x89MCG\r\n\x1a\n"
//! header (32, little-endian)
//!   version u32   flags u32   n u64   m u64   section_count u32   reserved u32
//! section table (section_count × 32)
//!   id u32   reserved u32   offset u64   len u64   checksum u64 (FNV-1a 64)
//! section payloads, in increasing offset order
//!   OFFSETS   (id 1): (n + 1) × u64   CSR offset array
//!   ADJACENCY (id 2): 2m × u32        concatenated sorted neighbour lists
//! ```
//!
//! Compatibility rules: readers reject unknown *versions* and unknown *flag
//! bits* but skip unknown *section ids*, so future minor additions (e.g. a
//! vertex-label section) stay readable by old binaries only if they bump
//! nothing; anything that changes the meaning of existing sections must bump
//! `version`. All multi-byte values are little-endian everywhere.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::GraphError;
use crate::graph::{Graph, VertexId};

/// The 8-byte file magic. Mirrors PNG's design: a high bit to catch 7-bit
/// transports, "MCG", CRLF and LF to catch newline translation, ^Z to stop
/// DOS-style `type`.
pub const MAGIC: [u8; 8] = *b"\x89MCG\r\n\x1a\n";

/// Highest (and currently only) format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Section id of the CSR offset array ((n + 1) × u64).
pub const SECTION_OFFSETS: u32 = 1;

/// Section id of the concatenated adjacency array (2m × u32).
pub const SECTION_ADJACENCY: u32 = 2;

const HEADER_LEN: u64 = 32;
const TABLE_ENTRY_LEN: u64 = 32;
/// Upper bound on `section_count` accepted by the reader — a corrupt header
/// must not be able to request an enormous table allocation.
const MAX_SECTIONS: u32 = 64;
/// Streaming chunk size; a multiple of 8 so fixed-width values never straddle
/// a chunk boundary once section lengths are validated.
const CHUNK: usize = 64 * 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Total encoded size in bytes of `g` as an `.mcg` file.
pub fn encoded_len(g: &Graph) -> u64 {
    let offsets_len = (g.n() as u64 + 1) * 8;
    let adjacency_len = g.csr_adjacency().len() as u64 * 4;
    8 + HEADER_LEN + 2 * TABLE_ENTRY_LEN + offsets_len + adjacency_len
}

/// Writes `g` to `w` in `.mcg` format.
///
/// Single forward pass over the output (no `Seek` required): section sizes
/// are known up front and section checksums are computed in a cheap
/// in-memory pre-pass over the CSR arrays.
///
/// # Errors
/// Only [`GraphError::Io`] — an in-memory [`Graph`] always encodes.
pub fn write_mcg<W: Write>(g: &Graph, w: W) -> Result<(), GraphError> {
    let mut w = w;
    let n = g.n() as u64;
    let m = g.m() as u64;
    let offsets = g.csr_offsets();
    let adjacency = g.csr_adjacency();
    let offsets_len = (n + 1) * 8;
    let adjacency_len = adjacency.len() as u64 * 4;
    let offsets_start = 8 + HEADER_LEN + 2 * TABLE_ENTRY_LEN;
    let adjacency_start = offsets_start + offsets_len;

    // Pre-pass: section checksums over the encoded little-endian bytes.
    let mut offsets_sum = FNV_OFFSET;
    for &o in offsets {
        offsets_sum = fnv1a64(offsets_sum, &(o as u64).to_le_bytes());
    }
    let mut adjacency_sum = FNV_OFFSET;
    for &v in adjacency {
        adjacency_sum = fnv1a64(adjacency_sum, &v.to_le_bytes());
    }

    // Magic + header.
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?; // flags
    w.write_all(&n.to_le_bytes())?;
    w.write_all(&m.to_le_bytes())?;
    w.write_all(&2u32.to_le_bytes())?; // section_count
    w.write_all(&0u32.to_le_bytes())?; // reserved

    // Section table.
    for (id, offset, len, sum) in [
        (SECTION_OFFSETS, offsets_start, offsets_len, offsets_sum),
        (
            SECTION_ADJACENCY,
            adjacency_start,
            adjacency_len,
            adjacency_sum,
        ),
    ] {
        w.write_all(&id.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?; // reserved
        w.write_all(&offset.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&sum.to_le_bytes())?;
    }

    // Payloads, chunk-buffered.
    let mut buf = Vec::with_capacity(CHUNK);
    for &o in offsets {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
        if buf.len() >= CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    for &v in adjacency {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Writes `g` to the file at `path` in `.mcg` format (buffered).
pub fn write_mcg_file<P: AsRef<Path>>(g: &Graph, path: P) -> Result<(), GraphError> {
    let file = File::create(path)?;
    write_mcg(g, BufWriter::new(file))
}

/// One parsed section-table entry.
struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Reads exactly `buf.len()` bytes, mapping premature EOF to a typed
/// [`GraphError::InvalidData`] instead of a bare I/O error.
fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &str,
) -> Result<(), GraphError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            GraphError::InvalidData {
                message: format!("truncated file while reading {what}"),
            }
        } else {
            GraphError::Io(e)
        }
    })
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Streams the `len`-byte payload of one section, hashing every byte and
/// handing each chunk to `decode`. Chunks are always a multiple of 8 bytes
/// except the last, so fixed-width values never straddle chunks.
fn stream_section<R: Read>(
    r: &mut R,
    len: u64,
    section: &'static str,
    expected_sum: u64,
    mut decode: impl FnMut(&[u8]),
) -> Result<(), GraphError> {
    let mut remaining = len;
    let mut buf = [0u8; CHUNK];
    let mut sum = FNV_OFFSET;
    while remaining > 0 {
        let take = remaining.min(CHUNK as u64) as usize;
        read_exact_or_truncated(r, &mut buf[..take], section)?;
        sum = fnv1a64(sum, &buf[..take]);
        decode(&buf[..take]);
        remaining -= take as u64;
    }
    if sum != expected_sum {
        return Err(GraphError::ChecksumMismatch { section });
    }
    Ok(())
}

/// Discards `len` bytes from the stream (gaps between sections, unknown
/// sections).
fn skip_bytes<R: Read>(r: &mut R, len: u64, what: &str) -> Result<(), GraphError> {
    let mut remaining = len;
    let mut buf = [0u8; CHUNK];
    while remaining > 0 {
        let take = remaining.min(CHUNK as u64) as usize;
        read_exact_or_truncated(r, &mut buf[..take], what)?;
        remaining -= take as u64;
    }
    Ok(())
}

fn invalid(message: impl Into<String>) -> GraphError {
    GraphError::InvalidData {
        message: message.into(),
    }
}

/// Reads a graph from an `.mcg` stream.
///
/// The loader is fully streamed: it never buffers a whole section, decoding
/// 64 KiB chunks straight into the final CSR vectors while checksumming, then
/// validates every CSR invariant via [`Graph::from_csr_parts`]. Peak memory
/// is the two result arrays plus one chunk.
///
/// # Errors
/// [`GraphError::BadMagic`] for foreign files,
/// [`GraphError::UnsupportedVersion`] for newer format versions,
/// [`GraphError::ChecksumMismatch`] for payload corruption,
/// [`GraphError::InvalidData`] for truncation or structural corruption, and
/// the [`Graph::from_csr_parts`] errors for invalid topology.
pub fn read_mcg<R: Read>(r: R) -> Result<Graph, GraphError> {
    let mut r = r;

    let mut magic = [0u8; 8];
    read_exact_or_truncated(&mut r, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(GraphError::BadMagic);
    }

    let mut header = [0u8; HEADER_LEN as usize];
    read_exact_or_truncated(&mut r, &mut header, "header")?;
    let version = le_u32(&header[0..4]);
    if version == 0 || version > FORMAT_VERSION {
        return Err(GraphError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = le_u32(&header[4..8]);
    if flags != 0 {
        return Err(invalid(format!("unsupported flag bits {flags:#010x}")));
    }
    let n = le_u64(&header[8..16]);
    let m = le_u64(&header[16..24]);
    let section_count = le_u32(&header[24..28]);
    if n > u32::MAX as u64 {
        return Err(GraphError::TooManyVertices {
            n,
            limit: u32::MAX as u64,
        });
    }
    if section_count > MAX_SECTIONS {
        return Err(invalid(format!(
            "section count {section_count} exceeds the limit of {MAX_SECTIONS}"
        )));
    }

    let mut entries = Vec::with_capacity(section_count as usize);
    let mut entry = [0u8; TABLE_ENTRY_LEN as usize];
    for _ in 0..section_count {
        read_exact_or_truncated(&mut r, &mut entry, "section table")?;
        entries.push(SectionEntry {
            id: le_u32(&entry[0..4]),
            offset: le_u64(&entry[8..16]),
            len: le_u64(&entry[16..24]),
            checksum: le_u64(&entry[24..32]),
        });
    }

    let expected_offsets_len = (n + 1) * 8;
    let expected_adjacency_len = m
        .checked_mul(8)
        .ok_or_else(|| invalid("edge count overflow"))?;

    let mut offsets: Option<Vec<usize>> = None;
    let mut adjacency: Option<Vec<VertexId>> = None;
    // Sections are streamed in file order; `pos` tracks the read cursor so
    // table offsets can be honoured without Seek.
    let mut pos = 8 + HEADER_LEN + section_count as u64 * TABLE_ENTRY_LEN;
    for e in &entries {
        if e.offset < pos {
            return Err(invalid(format!(
                "section {} at offset {} overlaps earlier data ending at {pos} \
                 (sections must appear in increasing offset order)",
                e.id, e.offset
            )));
        }
        skip_bytes(&mut r, e.offset - pos, "inter-section gap")?;
        match e.id {
            SECTION_OFFSETS => {
                if offsets.is_some() {
                    return Err(invalid("duplicate OFFSETS section"));
                }
                if e.len != expected_offsets_len {
                    return Err(invalid(format!(
                        "OFFSETS section length {} does not match header n = {n} \
                         (expected {expected_offsets_len})",
                        e.len
                    )));
                }
                let mut out: Vec<usize> = Vec::with_capacity((n as usize + 1).min(CHUNK));
                let mut bad_offset: Option<u64> = None;
                stream_section(&mut r, e.len, "offsets", e.checksum, |chunk| {
                    for bytes in chunk.chunks_exact(8) {
                        let v = le_u64(bytes);
                        if usize::try_from(v).is_ok() {
                            out.push(v as usize);
                        } else if bad_offset.is_none() {
                            bad_offset = Some(v);
                        }
                    }
                })?;
                if let Some(v) = bad_offset {
                    return Err(invalid(format!("offset value {v} exceeds usize")));
                }
                offsets = Some(out);
            }
            SECTION_ADJACENCY => {
                if adjacency.is_some() {
                    return Err(invalid("duplicate ADJACENCY section"));
                }
                if e.len != expected_adjacency_len {
                    return Err(invalid(format!(
                        "ADJACENCY section length {} does not match header m = {m} \
                         (expected {expected_adjacency_len})",
                        e.len
                    )));
                }
                let mut out: Vec<VertexId> = Vec::with_capacity((2 * m as usize).min(CHUNK));
                stream_section(&mut r, e.len, "adjacency", e.checksum, |chunk| {
                    for bytes in chunk.chunks_exact(4) {
                        out.push(le_u32(bytes));
                    }
                })?;
                adjacency = Some(out);
            }
            // Unknown section: skip the payload, stay readable (see the
            // compatibility rules in the module docs / docs/FORMAT.md).
            _ => skip_bytes(&mut r, e.len, "unknown section")?,
        }
        pos = e.offset + e.len;
    }

    let offsets = offsets.ok_or_else(|| invalid("missing OFFSETS section"))?;
    let adjacency = adjacency.ok_or_else(|| invalid("missing ADJACENCY section"))?;
    let g = Graph::from_csr_parts(offsets, adjacency)?;
    if g.n() as u64 != n {
        return Err(invalid(format!(
            "header declares {n} vertices but OFFSETS encodes {}",
            g.n()
        )));
    }
    if g.m() as u64 != m {
        return Err(invalid(format!(
            "header declares {m} edges but ADJACENCY encodes {}",
            g.m()
        )));
    }
    Ok(g)
}

/// Reads a graph from the `.mcg` file at `path` (buffered).
pub fn read_mcg_file<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let file = File::open(path)?;
    read_mcg(BufReader::new(file))
}

/// Whether `bytes` begin with the `.mcg` magic.
pub fn is_mcg(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(g: &Graph) -> Graph {
        let mut bytes = Vec::new();
        write_mcg(g, &mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, encoded_len(g));
        assert!(is_mcg(&bytes));
        read_mcg(&bytes[..]).unwrap()
    }

    fn sample() -> Graph {
        Graph::from_edges(
            7,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        )
        .unwrap()
    }

    fn sample_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        write_mcg(&sample(), &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn roundtrip_small_graphs() {
        for g in [
            sample(),
            Graph::empty(0),
            Graph::empty(5),
            Graph::complete(6),
            Graph::from_edges(3, [(0, 2)]).unwrap(),
        ] {
            assert_eq!(roundtrip(&g), g);
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_bytes();
        bytes[0] = b'X';
        assert!(matches!(read_mcg(&bytes[..]), Err(GraphError::BadMagic)));
        // A text edge list is not an mcg file either.
        assert!(matches!(
            read_mcg(&b"0 1\n1 2\n"[..]),
            Err(GraphError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = sample_bytes();
        bytes[8] = 99; // version field, little-endian low byte
        assert!(matches!(
            read_mcg(&bytes[..]),
            Err(GraphError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
        let mut bytes = sample_bytes();
        bytes[8] = 0;
        assert!(matches!(
            read_mcg(&bytes[..]),
            Err(GraphError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn nonzero_flags_rejected() {
        let mut bytes = sample_bytes();
        bytes[12] = 1; // flags field
        assert!(matches!(
            read_mcg(&bytes[..]),
            Err(GraphError::InvalidData { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        let bytes = sample_bytes();
        for cut in [0, 4, 8, 20, 39, 40, 70, 104, bytes.len() - 1] {
            let err = read_mcg(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidData { .. }),
                "cut at {cut}: {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("truncated"), "cut at {cut}: {msg}");
        }
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let bytes = sample_bytes();
        // Flip one byte in every payload position; each must be caught by a
        // section checksum (header/table corruption is caught structurally).
        let payload_start = (8 + HEADER_LEN + 2 * TABLE_ENTRY_LEN) as usize;
        for i in payload_start..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let err = read_mcg(&corrupt[..]).unwrap_err();
            assert!(
                matches!(err, GraphError::ChecksumMismatch { .. }),
                "byte {i}: {err}"
            );
        }
    }

    #[test]
    fn header_count_mismatch_rejected() {
        // Grow the header's n by one: OFFSETS length check fires.
        let mut bytes = sample_bytes();
        bytes[16] += 1;
        assert!(matches!(
            read_mcg(&bytes[..]),
            Err(GraphError::InvalidData { .. })
        ));
        // Grow m: ADJACENCY length check fires.
        let mut bytes = sample_bytes();
        bytes[24] += 1;
        assert!(matches!(
            read_mcg(&bytes[..]),
            Err(GraphError::InvalidData { .. })
        ));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        // Hand-build a file with an unknown section between the two known
        // ones: reader must skip it and still load the graph.
        let g = sample();
        let mut canonical = Vec::new();
        write_mcg(&g, &mut canonical).unwrap();
        let offsets_len = (g.n() as u64 + 1) * 8;
        let adjacency_len = g.csr_adjacency().len() as u64 * 4;
        let extra = b"future-data";

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&(g.n() as u64).to_le_bytes());
        bytes.extend_from_slice(&(g.m() as u64).to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let base = 8 + HEADER_LEN + 3 * TABLE_ENTRY_LEN;
        let sections = [
            (SECTION_OFFSETS, base, offsets_len),
            (999u32, base + offsets_len, extra.len() as u64),
            (
                SECTION_ADJACENCY,
                base + offsets_len + extra.len() as u64,
                adjacency_len,
            ),
        ];
        // Checksums: reuse the canonical file's table entries for known
        // sections; hash the extra payload for the unknown one.
        let canon_table = &canonical[(8 + HEADER_LEN as usize)..];
        let offsets_sum = le_u64(&canon_table[24..32]);
        let adjacency_sum = le_u64(&canon_table[TABLE_ENTRY_LEN as usize + 24..]);
        let extra_sum = fnv1a64(FNV_OFFSET, extra);
        for (i, (id, off, len)) in sections.iter().enumerate() {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&off.to_le_bytes());
            bytes.extend_from_slice(&len.to_le_bytes());
            let sum = [offsets_sum, extra_sum, adjacency_sum][i];
            bytes.extend_from_slice(&sum.to_le_bytes());
        }
        let payload_start = (8 + HEADER_LEN + 2 * TABLE_ENTRY_LEN) as usize;
        let offsets_payload = &canonical[payload_start..payload_start + offsets_len as usize];
        let adjacency_payload = &canonical[payload_start + offsets_len as usize..];
        bytes.extend_from_slice(offsets_payload);
        bytes.extend_from_slice(extra);
        bytes.extend_from_slice(adjacency_payload);

        assert_eq!(read_mcg(&bytes[..]).unwrap(), g);
    }

    #[test]
    fn overlapping_sections_rejected() {
        let mut bytes = sample_bytes();
        // Point the ADJACENCY section's offset back before the OFFSETS
        // payload ends.
        let entry2 = (8 + HEADER_LEN + TABLE_ENTRY_LEN) as usize;
        let first_payload = 8 + HEADER_LEN + 2 * TABLE_ENTRY_LEN;
        bytes[entry2 + 8..entry2 + 16].copy_from_slice(&first_payload.to_le_bytes());
        assert!(matches!(
            read_mcg(&bytes[..]),
            Err(GraphError::InvalidData { .. })
        ));
    }

    #[test]
    fn missing_sections_rejected() {
        // Claim zero sections.
        let mut bytes = sample_bytes();
        bytes[32] = 0; // section_count low byte
        let err = read_mcg(&bytes[..]).unwrap_err();
        assert!(err.to_string().contains("missing OFFSETS"));
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut bytes = sample_bytes();
        bytes.extend_from_slice(b"trailing junk");
        assert_eq!(read_mcg(&bytes[..]).unwrap(), sample());
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("mcg-file-helpers-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mcg");
        let g = sample();
        write_mcg_file(&g, &path).unwrap();
        assert_eq!(read_mcg_file(&path).unwrap(), g);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn encoded_len_of_empty_graph() {
        // magic 8 + header 32 + table 64 + one u64 offset entry.
        assert_eq!(encoded_len(&Graph::empty(0)), 8 + 32 + 64 + 8);
    }
}
