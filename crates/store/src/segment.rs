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

/// Accumulates rows, then encodes one segment. The builder borrows its
/// dictionary: it keeps `&'a` references to the names and rdatas it is
/// fed, so building a segment from a table copies none of them.
#[derive(Debug, Default)]
pub struct SegmentBuilder<'a> {
    fqdns: Vec<&'a Fqdn>,
    fqdn_idx: HashMap<&'a Fqdn, u32, FnvBuildHasher>,
    rdatas: Vec<&'a Rdata>,
    rdata_idx: HashMap<&'a Rdata, u32, FnvBuildHasher>,
    /// `(fqdn_idx, pdate, rdata_idx, cnt)` in arrival order.
    rows: Vec<(u32, i64, u32, u64)>,
    /// Dictionary index of the most recently pushed fqdn. Flush paths
    /// push each fqdn's rows consecutively, so one string compare
    /// usually replaces a hash lookup.
    last_fqdn: Option<u32>,
}

impl<'a> SegmentBuilder<'a> {
    pub fn new() -> SegmentBuilder<'a> {
        SegmentBuilder::default()
    }

    /// Builder pre-sized for `fqdns` distinct fqdns and `rows` rows, for
    /// callers feeding only [`push_fqdn_rows`](Self::push_fqdn_rows):
    /// sizing the dictionary and row vector up front keeps a large seal
    /// from paying a regrow cascade at its tail, and the fqdn dedupe map
    /// is never consulted, so it stays unallocated.
    pub fn for_distinct_fqdns(fqdns: usize, rows: usize) -> SegmentBuilder<'a> {
        SegmentBuilder {
            fqdns: Vec::with_capacity(fqdns),
            rows: Vec::with_capacity(rows),
            ..SegmentBuilder::default()
        }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn push(&mut self, fqdn: &'a Fqdn, rdata: &'a Rdata, day: DayStamp, cnt: u64) {
        if cnt == 0 {
            return;
        }
        let fi = match self.last_fqdn {
            Some(i) if self.fqdns[i as usize] == fqdn => i,
            _ => *self.fqdn_idx.entry(fqdn).or_insert_with(|| {
                self.fqdns.push(fqdn);
                self.fqdns.len() as u32 - 1
            }),
        };
        self.last_fqdn = Some(fi);
        let ri = self.rdata_index(rdata);
        self.rows.push((fi, day.0, ri, cnt));
    }

    /// The dictionary index of `rdata`, added on first sight.
    fn rdata_index(&mut self, rdata: &'a Rdata) -> u32 {
        *self.rdata_idx.entry(rdata).or_insert_with(|| {
            self.rdatas.push(rdata);
            self.rdatas.len() as u32 - 1
        })
    }

    /// Push every row of one fqdn, minting its dictionary entry without
    /// consulting (or populating) the fqdn dedupe map. Caller contract:
    /// each fqdn is passed at most once per builder (the seal path walks
    /// the shard table, so keys are distinct); `push` may still be mixed
    /// in for *other* fqdns.
    pub fn push_fqdn_rows(
        &mut self,
        fqdn: &'a Fqdn,
        rows: impl Iterator<Item = (&'a Rdata, DayStamp, u64)>,
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
                self.fqdns.push(fqdn);
                self.fqdns.len() as u32 - 1
            });
            let ri = match last_rdata {
                Some(i) if self.rdatas[i as usize] == rdata => i,
                _ => self.rdata_index(rdata),
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
        let mut sorted: Vec<(&Fqdn, u32)> = std::mem::take(&mut self.fqdns)
            .into_iter()
            .zip(0..)
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
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
        for &r in &self.rdatas {
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

        Some(assemble(
            &dict,
            &rows,
            [merged.len(), fqdns.len(), self.rdatas.len()],
            min_day,
            max_day,
        ))
    }
}

/// Frame a segment file around its dictionary and rows payloads: the
/// magic, both blocks, the footer (`counts` are its row, fqdn and
/// rdata counts) and the tail.
fn assemble(dict: &[u8], rows: &[u8], counts: [usize; 3], min_day: i64, max_day: i64) -> Vec<u8> {
    // The magic, three block frames, the footer and the tail fit in 128
    // bytes, so the file never regrows.
    let mut out = Vec::with_capacity(dict.len() + rows.len() + 128);
    out.extend_from_slice(SEG_MAGIC);
    let dict_offset = out.len() as u64;
    write_block(&mut out, TAG_DICT, dict);
    let rows_offset = out.len() as u64;
    write_block(&mut out, TAG_ROWS, rows);

    let mut footer = Vec::new();
    put_uvarint(&mut footer, SEG_VERSION);
    for count in counts {
        put_uvarint(&mut footer, count as u64);
    }
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
    out
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
    /// The fqdn dictionary's length, which bounds every row's fqdn
    /// index even after a scan moves the names out of `fqdns`.
    pub n_fqdns: usize,
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
            n_fqdns: fqdn_cnt,
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
/// (starting at 0). Fqdn indices never decrease from row to row: a
/// delta that would wrap is [`StoreError::Corrupt`].
pub(crate) fn next_row(
    r: &mut Reader<'_>,
    dicts: &SegmentDicts,
    prev_fqdn: &mut u64,
) -> Result<SegRow, StoreError> {
    let [d_fqdn, day_off, rdata, cnt] = r.uvarint4()?;
    *prev_fqdn = prev_fqdn
        .checked_add(d_fqdn)
        .ok_or_else(|| corrupt("row fqdn delta overflow"))?;
    if *prev_fqdn >= dicts.n_fqdns as u64 {
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
pub(crate) mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    /// A segment with every CRC valid whose rows block holds `rows`
    /// verbatim as `[fqdn delta, day offset, rdata index, count]` varints,
    /// over the fqdn dictionary `fqdns` and one A rdata, all on one day:
    /// the decoders' defences against well-framed but inconsistent rows
    /// are tested on it.
    pub(crate) fn raw_segment(fqdns: &[&str], rows: &[[u64; 4]]) -> Vec<u8> {
        let mut dict = Vec::new();
        put_uvarint(&mut dict, fqdns.len() as u64);
        for fqdn in fqdns {
            put_uvarint(&mut dict, fqdn.len() as u64);
            dict.extend_from_slice(fqdn.as_bytes());
        }
        put_uvarint(&mut dict, 1);
        dict.extend_from_slice(&[0, 198, 51, 100, 1]);
        let mut body = Vec::new();
        put_uvarint(&mut body, rows.len() as u64);
        for &value in rows.iter().flatten() {
            put_uvarint(&mut body, value);
        }
        let day = fw_types::MEASUREMENT_START.0;
        assemble(&dict, &body, [rows.len(), fqdns.len(), 1], day, day)
    }

    fn sample() -> Vec<u8> {
        let (a, b, c) = (fq("a.on.aws"), fq("b.on.aws"), fq("c.on.aws"));
        let v4 = |last| Rdata::V4(Ipv4Addr::new(198, 51, 100, last));
        let (r1, r2) = (v4(1), v4(2));
        let name = Rdata::Name(fq("edge.a.run.app"));
        let v6 = Rdata::V6("2001:db8::1".parse().unwrap());
        let d0 = fw_types::MEASUREMENT_START;
        let mut builder = SegmentBuilder::new();
        builder.push(&b, &r1, d0, 3);
        builder.push(&a, &r2, d0 + 1, 5);
        builder.push(&a, &name, d0 + 1, 2);
        builder.push(&b, &r1, d0, 4);
        builder.push(&c, &v6, d0 + 700, 1);
        builder.finish().unwrap()
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
        let (fqdn, rdata) = (fq("a.on.aws"), Rdata::V4(Ipv4Addr::new(1, 2, 3, 4)));
        let mut b = SegmentBuilder::new();
        b.push(&fqdn, &rdata, fw_types::MEASUREMENT_START, 0);
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
    fn wrapping_fqdn_delta_is_corrupt() {
        let fqdns = ["a.on.aws", "b.on.aws"];
        let ok = decode_segment(&raw_segment(&fqdns, &[[0, 0, 0, 1], [1, 0, 0, 1]])).unwrap();
        assert_eq!(ok.rows.iter().map(|r| r.fqdn).collect::<Vec<_>>(), [0, 1]);
        // Row 2's delta wraps the index from fqdn 1 back to fqdn 0,
        // which would put the rows out of fqdn order.
        let wrapped = raw_segment(&fqdns, &[[1, 0, 0, 1], [u64::MAX, 0, 0, 1]]);
        match decode_segment(&wrapped) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("fqdn delta"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
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
