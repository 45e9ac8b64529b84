//! The immutable segment file — the on-disk unit of the store.
//!
//! A segment holds a sorted, de-duplicated batch of PDNS daily-aggregate
//! rows for one shard, dictionary-compressed and delta-encoded:
//!
//! ```text
//! [0..8)   magic  "FWSEG\x00\x00\x01"
//! blocks, each framed as
//!          [u8 tag] [u32le payload_len] [payload] [u32le crc32(payload)]
//!   tag 1  dictionary block: fqdn table then rdata table
//!   tag 2  rows block: delta-encoded rows, sorted by (fqdn, pdate, rdata)
//!   tag 3  footer block: counts, day range, absolute block offsets
//! tail     [u64le footer_offset] [u32le crc32(bytes before tail)]
//!          [8B magic "FWSEGEND"]
//! ```
//!
//! The footer is an index: a reader seeks the 20-byte tail, verifies the
//! whole-file checksum, jumps to the footer and from there to the blocks
//! it needs. Every payload additionally carries its own CRC so a reader
//! that skips the full-file check (e.g. a future partial-scan path) still
//! rejects bit rot. Rows encode as four varints each —
//! `fqdn_idx` delta from the previous row, `pdate − min_day`, `rdata_idx`,
//! `request_cnt` — which at PDNS shapes compresses to a few bytes per row.
//!
//! Dictionary entries: fqdns as length-prefixed lowercase text (sorted,
//! so fqdn deltas are non-negative); rdatas tagged `0` = A (4 raw bytes),
//! `1` = AAAA (16 raw bytes), `2` = CNAME (length-prefixed text).

use crate::codec::{put_ivarint, put_uvarint, Reader};
use crate::crc::crc32;
use crate::StoreError;
use fw_types::fnv::FnvBuildHasher;
use fw_types::{DayStamp, Fqdn, Rdata};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::Path;

pub(crate) const SEG_MAGIC: &[u8; 8] = b"FWSEG\x00\x00\x01";
pub(crate) const SEG_END_MAGIC: &[u8; 8] = b"FWSEGEND";
pub(crate) const SEG_VERSION: u64 = 1;
const TAG_DICT: u8 = 1;
const TAG_ROWS: u8 = 2;
const TAG_FOOTER: u8 = 3;
/// Tail: footer offset (8) + file CRC (4) + end magic (8).
const TAIL_LEN: usize = 20;
/// Upper bound accepted for any length prefix — segments are flush-sized,
/// so anything beyond this is corruption, not data.
const MAX_ITEMS: usize = 1 << 32;

/// One decoded row: indices into the segment's dictionaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRow {
    pub fqdn: u32,
    pub pdate: DayStamp,
    pub rdata: u32,
    pub cnt: u64,
}

/// A fully decoded segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentData {
    pub fqdns: Vec<Fqdn>,
    pub rdatas: Vec<Rdata>,
    /// Sorted by `(fqdn, pdate, rdata)`, unique on that key.
    pub rows: Vec<SegRow>,
    pub min_day: DayStamp,
    pub max_day: DayStamp,
}

/// Accumulates rows, then encodes one segment.
#[derive(Debug, Default)]
pub struct SegmentBuilder {
    fqdns: Vec<Fqdn>,
    fqdn_idx: HashMap<Fqdn, u32, FnvBuildHasher>,
    rdatas: Vec<Rdata>,
    rdata_idx: HashMap<Rdata, u32, FnvBuildHasher>,
    /// `(fqdn_idx, pdate, rdata_idx, cnt)` in arrival order.
    rows: Vec<(u32, i64, u32, u64)>,
    /// Dictionary index of the most recently pushed fqdn. Flush paths
    /// push each fqdn's rows consecutively, so one string compare
    /// usually replaces a hash lookup.
    last_fqdn: Option<u32>,
}

impl SegmentBuilder {
    pub fn new() -> SegmentBuilder {
        SegmentBuilder::default()
    }

    /// Builder with pre-sized tables. Flush paths know exactly how many
    /// dirty fqdns and pending rows they are about to push; sizing the
    /// dictionary maps and the row vector up front keeps a large flush
    /// from paying a rehash/regrow cascade at its tail.
    pub fn with_capacity(fqdns: usize, rows: usize) -> SegmentBuilder {
        SegmentBuilder {
            fqdns: Vec::with_capacity(fqdns),
            fqdn_idx: HashMap::with_capacity_and_hasher(fqdns, FnvBuildHasher::default()),
            rdatas: Vec::new(),
            rdata_idx: HashMap::default(),
            rows: Vec::with_capacity(rows),
            last_fqdn: None,
        }
    }

    /// [`with_capacity`](Self::with_capacity) for callers feeding only
    /// [`push_fqdn_rows`](Self::push_fqdn_rows): the fqdn dedupe map is
    /// never consulted, so it stays unallocated.
    pub fn for_distinct_fqdns(fqdns: usize, rows: usize) -> SegmentBuilder {
        SegmentBuilder {
            fqdns: Vec::with_capacity(fqdns),
            fqdn_idx: HashMap::default(),
            rdatas: Vec::new(),
            rdata_idx: HashMap::default(),
            rows: Vec::with_capacity(rows),
            last_fqdn: None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn push(&mut self, fqdn: &Fqdn, rdata: &Rdata, day: DayStamp, cnt: u64) {
        if cnt == 0 {
            return;
        }
        let fi = match self.last_fqdn {
            Some(i) if self.fqdns[i as usize] == *fqdn => i,
            _ => match self.fqdn_idx.get(fqdn) {
                Some(&i) => i,
                None => {
                    let i = self.fqdns.len() as u32;
                    self.fqdns.push(fqdn.clone());
                    self.fqdn_idx.insert(fqdn.clone(), i);
                    i
                }
            },
        };
        self.last_fqdn = Some(fi);
        let ri = match self.rdata_idx.get(rdata) {
            Some(&i) => i,
            None => {
                let i = self.rdatas.len() as u32;
                self.rdatas.push(rdata.clone());
                self.rdata_idx.insert(rdata.clone(), i);
                i
            }
        };
        self.rows.push((fi, day.0, ri, cnt));
    }

    /// Push every row of one fqdn, minting its dictionary entry without
    /// consulting (or populating) the dedupe map — one key clone and
    /// zero hashes instead of two clones plus a map insert. Caller
    /// contract: each fqdn is passed at most once per builder (the seal
    /// path walks the shard table, so keys are distinct); `push` may
    /// still be mixed in for *other* fqdns.
    pub fn push_fqdn_rows<'r>(
        &mut self,
        fqdn: &Fqdn,
        rows: impl Iterator<Item = (&'r Rdata, DayStamp, u64)>,
    ) {
        let mut fi = None;
        // Rows of one fqdn usually repeat one rdata across days; a
        // last-rdata compare dodges the hash for that run.
        let mut last_rdata: Option<u32> = None;
        for (rdata, day, cnt) in rows {
            if cnt == 0 {
                continue;
            }
            let fi = *fi.get_or_insert_with(|| {
                let i = self.fqdns.len() as u32;
                self.fqdns.push(fqdn.clone());
                i
            });
            let ri = match last_rdata {
                Some(i) if self.rdatas[i as usize] == *rdata => i,
                _ => match self.rdata_idx.get(rdata) {
                    Some(&i) => i,
                    None => {
                        let i = self.rdatas.len() as u32;
                        self.rdatas.push(rdata.clone());
                        self.rdata_idx.insert(rdata.clone(), i);
                        i
                    }
                },
            };
            last_rdata = Some(ri);
            self.rows.push((fi, day.0, ri, cnt));
        }
        // Keep the consecutive-push cache honest for mixed callers.
        self.last_fqdn = None;
    }

    /// Sort, merge duplicate `(fqdn, pdate, rdata)` keys, and encode.
    /// Returns `None` for an empty builder (the store never writes empty
    /// segments).
    pub fn finish(mut self) -> Option<Vec<u8>> {
        if self.rows.is_empty() {
            return None;
        }

        // Sort the fqdn dictionary so row order is lexicographic and the
        // per-row fqdn delta is non-negative.
        // Unstable is safe: the dictionary holds each fqdn once.
        let mut sorted: Vec<(Fqdn, u32)> = std::mem::take(&mut self.fqdns)
            .into_iter()
            .zip(0..)
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut remap = vec![0u32; sorted.len()];
        let mut fqdns = Vec::with_capacity(sorted.len());
        for (new, (fqdn, old)) in sorted.into_iter().enumerate() {
            remap[old as usize] = new as u32;
            fqdns.push(fqdn);
        }
        for row in &mut self.rows {
            row.0 = remap[row.0 as usize];
        }

        self.rows.sort_unstable_by_key(|r| (r.0, r.1, r.2));
        let mut merged: Vec<(u32, i64, u32, u64)> = Vec::with_capacity(self.rows.len());
        for row in self.rows.drain(..) {
            match merged.last_mut() {
                Some(last) if (last.0, last.1, last.2) == (row.0, row.1, row.2) => {
                    last.3 += row.3;
                }
                _ => merged.push(row),
            }
        }

        let min_day = merged.iter().map(|r| r.1).min().expect("non-empty");
        let max_day = merged.iter().map(|r| r.1).max().expect("non-empty");

        // Dictionary block payload. Pre-size from the dictionary text
        // itself (length prefixes are a few bytes per entry).
        let fqdn_text: usize = fqdns.iter().map(|f| f.as_str().len() + 2).sum();
        let mut dict = Vec::with_capacity(fqdn_text + self.rdatas.len() * 20 + 16);
        put_uvarint(&mut dict, fqdns.len() as u64);
        for f in &fqdns {
            let s = f.as_str().as_bytes();
            put_uvarint(&mut dict, s.len() as u64);
            dict.extend_from_slice(s);
        }
        put_uvarint(&mut dict, self.rdatas.len() as u64);
        for r in &self.rdatas {
            match r {
                Rdata::V4(ip) => {
                    dict.push(0);
                    dict.extend_from_slice(&ip.octets());
                }
                Rdata::V6(ip) => {
                    dict.push(1);
                    dict.extend_from_slice(&ip.octets());
                }
                Rdata::Name(n) => {
                    dict.push(2);
                    let s = n.as_str().as_bytes();
                    put_uvarint(&mut dict, s.len() as u64);
                    dict.extend_from_slice(s);
                }
            }
        }

        // Rows block payload; at PDNS shapes a row averages well under
        // eight varint bytes, so this almost never regrows.
        let mut rows = Vec::with_capacity(merged.len() * 8 + 16);
        put_uvarint(&mut rows, merged.len() as u64);
        let mut prev_fqdn = 0u32;
        for &(fi, pdate, ri, cnt) in &merged {
            put_uvarint(&mut rows, u64::from(fi - prev_fqdn));
            put_uvarint(&mut rows, (pdate - min_day) as u64);
            put_uvarint(&mut rows, u64::from(ri));
            put_uvarint(&mut rows, cnt);
            prev_fqdn = fi;
        }

        // Assemble the file.
        let mut out = Vec::with_capacity(dict.len() + rows.len() + 64);
        out.extend_from_slice(SEG_MAGIC);
        let dict_offset = out.len() as u64;
        write_block(&mut out, TAG_DICT, &dict);
        let rows_offset = out.len() as u64;
        write_block(&mut out, TAG_ROWS, &rows);

        let mut footer = Vec::new();
        put_uvarint(&mut footer, SEG_VERSION);
        put_uvarint(&mut footer, merged.len() as u64);
        put_uvarint(&mut footer, fqdns.len() as u64);
        put_uvarint(&mut footer, self.rdatas.len() as u64);
        put_ivarint(&mut footer, min_day);
        put_ivarint(&mut footer, max_day);
        put_uvarint(&mut footer, dict_offset);
        put_uvarint(&mut footer, rows_offset);
        let footer_offset = out.len() as u64;
        write_block(&mut out, TAG_FOOTER, &footer);

        out.extend_from_slice(&footer_offset.to_le_bytes());
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out.extend_from_slice(SEG_END_MAGIC);
        Some(out)
    }
}

fn write_block(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Read one framed block at `offset`, verify tag and CRC, return payload.
fn read_block(bytes: &[u8], offset: usize, want_tag: u8) -> Result<&[u8], StoreError> {
    let header_end = offset
        .checked_add(5)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| corrupt(format!("block header out of bounds at {offset}")))?;
    let tag = bytes[offset];
    if tag != want_tag {
        return Err(corrupt(format!(
            "block tag mismatch at {offset}: found {tag}, want {want_tag}"
        )));
    }
    let len =
        u32::from_le_bytes(bytes[offset + 1..header_end].try_into().expect("4 bytes")) as usize;
    let payload_end = header_end
        .checked_add(len)
        .filter(|&e| e + 4 <= bytes.len())
        .ok_or_else(|| corrupt(format!("block payload out of bounds at {offset}")))?;
    let payload = &bytes[header_end..payload_end];
    let stored = u32::from_le_bytes(
        bytes[payload_end..payload_end + 4]
            .try_into()
            .expect("4 bytes"),
    );
    if crc32(payload) != stored {
        return Err(corrupt(format!("block CRC mismatch at {offset}")));
    }
    Ok(payload)
}

/// A segment's dictionaries and row-block framing, parsed without
/// materializing any rows — the shared front half of the materializing
/// decoder and the streaming aggregate scanner.
pub(crate) struct SegmentDicts {
    pub fqdns: Vec<Fqdn>,
    pub rdatas: Vec<Rdata>,
    pub min_day: DayStamp,
    pub max_day: DayStamp,
    pub n_rows: usize,
}

/// Verify magic/CRCs, decode the dictionaries, and return a [`Reader`]
/// positioned at the first row varint (the row count has been read and
/// checked against the footer).
pub(crate) fn parse_segment(bytes: &[u8]) -> Result<(SegmentDicts, Reader<'_>), StoreError> {
    if bytes.len() < SEG_MAGIC.len() + TAIL_LEN {
        return Err(corrupt("segment shorter than header + tail"));
    }
    if &bytes[..8] != SEG_MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    let tail = &bytes[bytes.len() - TAIL_LEN..];
    if &tail[12..] != SEG_END_MAGIC {
        return Err(corrupt("bad segment end magic"));
    }
    let body = &bytes[..bytes.len() - 12];
    let stored_crc = u32::from_le_bytes(tail[8..12].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(corrupt("file CRC mismatch"));
    }
    let footer_offset = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes")) as usize;

    // Footer.
    let footer = read_block(bytes, footer_offset, TAG_FOOTER)?;
    let mut r = Reader::new(footer);
    let version = r.uvarint()?;
    if version != SEG_VERSION {
        return Err(StoreError::Version {
            found: version,
            expected: SEG_VERSION,
        });
    }
    let n_rows = r.read_len(MAX_ITEMS)?;
    let n_fqdns = r.read_len(MAX_ITEMS)?;
    let n_rdatas = r.read_len(MAX_ITEMS)?;
    let min_day = DayStamp(r.ivarint()?);
    let max_day = DayStamp(r.ivarint()?);
    if min_day > max_day {
        return Err(corrupt("inverted day range"));
    }
    let dict_offset = r.read_len(bytes.len())?;
    let rows_offset = r.read_len(bytes.len())?;

    // Dictionaries.
    let dict = read_block(bytes, dict_offset, TAG_DICT)?;
    let mut r = Reader::new(dict);
    let fqdn_cnt = r.read_len(MAX_ITEMS)?;
    if fqdn_cnt != n_fqdns {
        return Err(corrupt("fqdn count disagrees with footer"));
    }
    let mut fqdns = Vec::with_capacity(fqdn_cnt);
    for _ in 0..fqdn_cnt {
        let len = r.read_len(253)?;
        let raw = r.bytes(len)?;
        let text = std::str::from_utf8(raw).map_err(|_| corrupt("fqdn not UTF-8"))?;
        fqdns.push(Fqdn::parse(text).map_err(|e| corrupt(format!("bad fqdn in dictionary: {e}")))?);
    }
    let rdata_cnt = r.read_len(MAX_ITEMS)?;
    if rdata_cnt != n_rdatas {
        return Err(corrupt("rdata count disagrees with footer"));
    }
    let mut rdatas = Vec::with_capacity(rdata_cnt);
    for _ in 0..rdata_cnt {
        let kind = r.u8()?;
        rdatas.push(match kind {
            0 => {
                let o: [u8; 4] = r.bytes(4)?.try_into().expect("4 bytes");
                Rdata::V4(Ipv4Addr::from(o))
            }
            1 => {
                let o: [u8; 16] = r.bytes(16)?.try_into().expect("16 bytes");
                Rdata::V6(Ipv6Addr::from(o))
            }
            2 => {
                let len = r.read_len(253)?;
                let raw = r.bytes(len)?;
                let text = std::str::from_utf8(raw).map_err(|_| corrupt("cname not UTF-8"))?;
                Rdata::Name(
                    Fqdn::parse(text).map_err(|e| corrupt(format!("bad cname rdata: {e}")))?,
                )
            }
            other => return Err(corrupt(format!("unknown rdata kind {other}"))),
        });
    }

    // Rows block framing; rows themselves are decoded by the caller.
    let rows_blk = read_block(bytes, rows_offset, TAG_ROWS)?;
    let mut r = Reader::new(rows_blk);
    let row_cnt = r.read_len(MAX_ITEMS)?;
    if row_cnt != n_rows {
        return Err(corrupt("row count disagrees with footer"));
    }
    Ok((
        SegmentDicts {
            fqdns,
            rdatas,
            min_day,
            max_day,
            n_rows,
        },
        r,
    ))
}

/// Decode the next row from the rows block. Delta state lives in
/// `prev_fqdn`, which the caller threads through consecutive calls
/// (starting at 0).
pub(crate) fn next_row(
    r: &mut Reader<'_>,
    dicts: &SegmentDicts,
    prev_fqdn: &mut u64,
) -> Result<SegRow, StoreError> {
    let [d_fqdn, day_off, rdata, cnt] = r.uvarint4()?;
    *prev_fqdn += d_fqdn;
    if *prev_fqdn >= dicts.fqdns.len() as u64 {
        return Err(corrupt("row fqdn index out of range"));
    }
    if rdata >= dicts.rdatas.len() as u64 {
        return Err(corrupt("row rdata index out of range"));
    }
    let pdate = DayStamp(
        dicts
            .min_day
            .0
            .checked_add(day_off as i64)
            .ok_or_else(|| corrupt("day offset overflow"))?,
    );
    if pdate > dicts.max_day {
        return Err(corrupt("row day outside footer range"));
    }
    if cnt == 0 {
        return Err(corrupt("zero-count row"));
    }
    Ok(SegRow {
        fqdn: *prev_fqdn as u32,
        pdate,
        rdata: rdata as u32,
        cnt,
    })
}

/// Decode a segment from raw file bytes.
pub fn decode_segment(bytes: &[u8]) -> Result<SegmentData, StoreError> {
    let (dicts, mut r) = parse_segment(bytes)?;
    let mut rows = Vec::with_capacity(dicts.n_rows);
    let mut prev_fqdn = 0u64;
    for _ in 0..dicts.n_rows {
        rows.push(next_row(&mut r, &dicts, &mut prev_fqdn)?);
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in rows block"));
    }
    Ok(SegmentData {
        fqdns: dicts.fqdns,
        rdatas: dicts.rdatas,
        rows,
        min_day: dicts.min_day,
        max_day: dicts.max_day,
    })
}

/// Read and decode a segment file via a read-only memory mapping.
pub fn read_segment(path: &Path) -> Result<SegmentData, StoreError> {
    let bytes = crate::mmap::map_file(path)?;
    decode_segment(&bytes).map_err(|e| match e {
        StoreError::Corrupt(msg) => StoreError::Corrupt(format!("{}: {msg}", path.display())),
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn sample() -> Vec<u8> {
        let mut b = SegmentBuilder::new();
        let d0 = fw_types::MEASUREMENT_START;
        b.push(
            &fq("b.on.aws"),
            &Rdata::V4(Ipv4Addr::new(198, 51, 100, 1)),
            d0,
            3,
        );
        b.push(
            &fq("a.on.aws"),
            &Rdata::V4(Ipv4Addr::new(198, 51, 100, 2)),
            d0 + 1,
            5,
        );
        b.push(
            &fq("a.on.aws"),
            &Rdata::Name(fq("edge.a.run.app")),
            d0 + 1,
            2,
        );
        b.push(
            &fq("b.on.aws"),
            &Rdata::V4(Ipv4Addr::new(198, 51, 100, 1)),
            d0,
            4,
        );
        b.push(
            &fq("c.on.aws"),
            &Rdata::V6("2001:db8::1".parse().unwrap()),
            d0 + 700,
            1,
        );
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_sorts_and_merges() {
        let seg = decode_segment(&sample()).unwrap();
        assert_eq!(
            seg.fqdns,
            vec![fq("a.on.aws"), fq("b.on.aws"), fq("c.on.aws")]
        );
        assert_eq!(seg.rows.len(), 4); // the two b.on.aws rows merged
                                       // Sorted by (fqdn, pdate, rdata).
        let keys: Vec<(u32, i64, u32)> = seg
            .rows
            .iter()
            .map(|r| (r.fqdn, r.pdate.0, r.rdata))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        let merged = seg
            .rows
            .iter()
            .find(|r| seg.fqdns[r.fqdn as usize] == fq("b.on.aws"))
            .unwrap();
        assert_eq!(merged.cnt, 7);
        assert_eq!(seg.min_day, fw_types::MEASUREMENT_START);
        assert_eq!(seg.max_day, fw_types::MEASUREMENT_START + 700);
    }

    #[test]
    fn empty_builder_yields_no_segment() {
        assert!(SegmentBuilder::new().finish().is_none());
        let mut b = SegmentBuilder::new();
        b.push(
            &fq("a.on.aws"),
            &Rdata::V4(Ipv4Addr::new(1, 2, 3, 4)),
            fw_types::MEASUREMENT_START,
            0,
        );
        assert!(b.finish().is_none());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                decode_segment(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample();
        for pos in 0..bytes.len() {
            let mut dup = bytes.clone();
            dup[pos] ^= 0x01;
            assert!(
                decode_segment(&dup).is_err(),
                "bit flip at {pos} must not decode"
            );
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        // Rebuild with a patched version varint in the footer: simplest
        // is to corrupt via the public surface — decode must fail with
        // Version for a future-versioned footer. Emulate by encoding a
        // segment, then bumping the version byte and re-stamping CRCs.
        let mut bytes = sample();
        let footer_offset = u64::from_le_bytes(
            bytes[bytes.len() - 20..bytes.len() - 12]
                .try_into()
                .unwrap(),
        ) as usize;
        // Footer payload starts after [tag][u32 len]; first varint is the
        // version (value 1, single byte).
        let payload_start = footer_offset + 5;
        assert_eq!(bytes[payload_start], 1);
        bytes[payload_start] = 2;
        // Re-stamp the footer block CRC.
        let len = u32::from_le_bytes(
            bytes[footer_offset + 1..footer_offset + 5]
                .try_into()
                .unwrap(),
        ) as usize;
        let crc = crc32(&bytes[payload_start..payload_start + len]);
        bytes[payload_start + len..payload_start + len + 4].copy_from_slice(&crc.to_le_bytes());
        // Re-stamp the file CRC.
        let body_end = bytes.len() - 12;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
        match decode_segment(&bytes) {
            Err(StoreError::Version {
                found: 2,
                expected: 1,
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }
}
