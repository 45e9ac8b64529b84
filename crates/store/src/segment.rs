//! The immutable segment file — the on-disk unit of the store.
//!
//! A segment holds one shard's PDNS daily-aggregate rows, sorted with
//! unique keys, dictionary-compressed and delta-encoded:
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
//! Dictionary entries: fqdns as length-prefixed lowercase text (strictly
//! increasing, so fqdn deltas are non-negative and each fqdn is one run
//! of rows); rdatas tagged `0` = A (4 raw bytes), `1` = AAAA (16 raw
//! bytes), `2` = CNAME (length-prefixed text). The writer orders the
//! rdata dictionary by the number of rows using each value, then by
//! value, so a segment's bytes are a function of its rows; the reader
//! accepts distinct rdatas in any order.
//!
//! [`SegmentBuilder`] is the one writer and [`read_runs`] the one
//! reader: the streaming scan and `DiskStore::open` both walk its row
//! loop, which refuses anything that breaks the format's contract as
//! [`StoreError::Corrupt`].

use crate::codec::{put_ivarint, put_uvarint, Reader};
use crate::crc::crc32;
use crate::StoreError;
use fw_types::fnv::FnvBuildHasher;
use fw_types::{DayStamp, Fqdn, Rdata};
use std::cmp::Reverse;
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
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegRow {
    pub fqdn: u32,
    pub pdate: DayStamp,
    pub rdata: u32,
    pub cnt: u64,
}

/// Encodes one segment from a shard table. The builder borrows its
/// dictionary: it keeps `&'a` references to the names and rdatas it is
/// fed, so building a segment from a table copies none of them.
#[derive(Debug)]
pub struct SegmentBuilder<'a> {
    fqdns: Vec<&'a Fqdn>,
    rdatas: Vec<&'a Rdata>,
    rdata_idx: HashMap<&'a Rdata, u32, FnvBuildHasher>,
    /// `(fqdn_idx, pdate, rdata_idx, cnt)` in arrival order.
    rows: Vec<(u32, i64, u32, u64)>,
}

impl<'a> SegmentBuilder<'a> {
    /// A builder for `fqdns` distinct fqdns and `rows` rows: sizing the
    /// dictionary and row vector up front keeps a large seal from paying
    /// a regrow cascade at its tail.
    pub fn for_distinct_fqdns(fqdns: usize, rows: usize) -> SegmentBuilder<'a> {
        SegmentBuilder {
            fqdns: Vec::with_capacity(fqdns),
            rdatas: Vec::new(),
            rdata_idx: HashMap::default(),
            rows: Vec::with_capacity(rows),
        }
    }

    /// Push every row of one fqdn; zero counts are skipped. Caller
    /// contract: each fqdn is pushed at most once per builder, and its
    /// rows' `(pdate, rdata)` keys are distinct. A shard table holds
    /// exactly that (its keys are distinct fqdns, and each entry merges
    /// observations on the exact key), so the seal pushes it as is.
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
                _ => *self.rdata_idx.entry(rdata).or_insert_with(|| {
                    self.rdatas.push(rdata);
                    self.rdatas.len() as u32 - 1
                }),
            };
            last_rdata = Some(ri);
            self.rows.push((fi, day.0, ri, cnt));
        }
    }

    /// Sort and encode. Returns `None` for an empty builder (the store
    /// never writes empty segments).
    pub fn finish(mut self) -> Option<Vec<u8>> {
        if self.rows.is_empty() {
            return None;
        }

        // Both dictionaries in canonical orders, so the bytes do not
        // depend on the order the table handed its rows over: fqdns by
        // name, so row order is lexicographic and the per-row fqdn
        // delta is non-negative; rdatas by how many rows use them (the
        // most used get the shortest index varints), then by value.
        let mut uses = vec![0u32; self.rdatas.len()];
        for row in &self.rows {
            uses[row.2 as usize] += 1;
        }
        let (fqdns, fqdn_remap) = sorted_dictionary(std::mem::take(&mut self.fqdns), |f, _| f);
        let (rdatas, rdata_remap) = sorted_dictionary(std::mem::take(&mut self.rdatas), |r, i| {
            (Reverse(uses[i as usize]), r)
        });
        for row in &mut self.rows {
            row.0 = fqdn_remap[row.0 as usize];
            row.2 = rdata_remap[row.2 as usize];
        }
        self.rows.sort_unstable_by_key(|r| (r.0, r.1, r.2));
        debug_assert!(
            self.rows
                .windows(2)
                .all(|w| (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2)),
            "a segment builder was fed a repeated key"
        );

        let min_day = self.rows.iter().map(|r| r.1).min().expect("non-empty");
        let max_day = self.rows.iter().map(|r| r.1).max().expect("non-empty");

        // Dictionary block payload. Pre-size from the dictionary text
        // itself (length prefixes are a few bytes per entry).
        let fqdn_text: usize = fqdns.iter().map(|f| f.as_str().len() + 2).sum();
        let mut dict = Vec::with_capacity(fqdn_text + rdatas.len() * 20 + 16);
        put_uvarint(&mut dict, fqdns.len() as u64);
        for f in &fqdns {
            let s = f.as_str().as_bytes();
            put_uvarint(&mut dict, s.len() as u64);
            dict.extend_from_slice(s);
        }
        put_uvarint(&mut dict, rdatas.len() as u64);
        for rdata in &rdatas {
            put_rdata(&mut dict, rdata);
        }

        // Rows block payload; at PDNS shapes a row averages well under
        // eight varint bytes, so this almost never regrows.
        let mut rows = Vec::with_capacity(self.rows.len() * 8 + 16);
        put_uvarint(&mut rows, self.rows.len() as u64);
        let mut prev_fqdn = 0u32;
        for &(fi, pdate, ri, cnt) in &self.rows {
            put_uvarint(&mut rows, u64::from(fi - prev_fqdn));
            put_uvarint(&mut rows, (pdate - min_day) as u64);
            put_uvarint(&mut rows, u64::from(ri));
            put_uvarint(&mut rows, cnt);
            prev_fqdn = fi;
        }

        Some(assemble(
            &dict,
            &rows,
            [self.rows.len(), fqdns.len(), rdatas.len()],
            min_day,
            max_day,
        ))
    }
}

/// Append one rdata dictionary entry: a kind tag, then 4 or 16 address
/// bytes or a length-prefixed name.
fn put_rdata(dict: &mut Vec<u8>, rdata: &Rdata) {
    match rdata {
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
            put_uvarint(dict, s.len() as u64);
            dict.extend_from_slice(s);
        }
    }
}

/// `dict` sorted by `key(value, old index)`, with the map from each
/// entry's old index to its new one. Unstable is safe: a dictionary
/// holds each value once, and every key ends with the value.
fn sorted_dictionary<'a, T: ?Sized, K: Ord>(
    dict: Vec<&'a T>,
    mut key: impl FnMut(&'a T, u32) -> K,
) -> (Vec<&'a T>, Vec<u32>) {
    let mut sorted: Vec<(&T, u32)> = dict.into_iter().zip(0..).collect();
    sorted.sort_unstable_by_key(|&(value, old)| key(value, old));
    let mut remap = vec![0u32; sorted.len()];
    let mut out = Vec::with_capacity(sorted.len());
    for (new, (value, old)) in sorted.into_iter().enumerate() {
        remap[old as usize] = new as u32;
        out.push(value);
    }
    (out, remap)
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
/// decoding any row: the front half of [`for_each_run`].
struct SegmentDicts {
    fqdns: Vec<Fqdn>,
    /// The fqdn dictionary's length, which bounds every row's fqdn
    /// index after the row loop moves the names out of `fqdns`.
    n_fqdns: usize,
    rdatas: Vec<Rdata>,
    min_day: DayStamp,
    max_day: DayStamp,
    n_rows: usize,
}

/// Verify magic/CRCs, decode the dictionaries (fqdns strictly
/// increasing, rdatas distinct), and return a [`Reader`] positioned at
/// the first row varint (the row count has been read and checked
/// against the footer).
fn parse_segment(bytes: &[u8]) -> Result<(SegmentDicts, Reader<'_>), StoreError> {
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
    let mut fqdns: Vec<Fqdn> = Vec::with_capacity(fqdn_cnt);
    for _ in 0..fqdn_cnt {
        let len = r.read_len(253)?;
        let raw = r.bytes(len)?;
        let text = std::str::from_utf8(raw).map_err(|_| corrupt("fqdn not UTF-8"))?;
        let fqdn =
            Fqdn::parse(text).map_err(|e| corrupt(format!("bad fqdn in dictionary: {e}")))?;
        // Strictly increasing names give each fqdn one run, so a reader
        // never meets a name twice.
        if fqdns.last().is_some_and(|prev| *prev >= fqdn) {
            return Err(corrupt("fqdn dictionary not strictly increasing"));
        }
        fqdns.push(fqdn);
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
    // Distinct rdatas, in any order: a repeated value would give one
    // key two rows.
    let mut sorted: Vec<&Rdata> = rdatas.iter().collect();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        return Err(corrupt("rdata dictionary repeats a value"));
    }

    // Rows block framing; the row loop decodes the rows themselves.
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
/// delta that would wrap is [`StoreError::Corrupt`], and so is an
/// index past a dictionary, a day outside the footer's range or a zero
/// count.
fn next_row(
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
    let pdate = dicts
        .min_day
        .0
        .checked_add_unsigned(day_off)
        .map(DayStamp)
        .filter(|day| *day <= dicts.max_day)
        .ok_or_else(|| corrupt("row day outside footer range"))?;
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

/// The row loop's callback: one fqdn's run as `(fqdn, rows, total,
/// rdatas)`. The name has moved out of the segment's dictionary; the
/// rows' `(pdate, rdata)` keys strictly increase; their request total
/// fits a `u64`, so every partial sum of them (a day's, an rdata's)
/// does too; `rdatas` is the dictionary the rows index.
pub(crate) type OnRun<'f> = dyn FnMut(Fqdn, &[SegRow], u64, &[Rdata]) + 'f;

/// The row loop: verify `bytes` as a segment, decode every row through
/// [`next_row`], and hand each fqdn's run to `on_run`. Within a run the
/// `(pdate, rdata)` keys must strictly increase and the counts must sum
/// within a `u64`; a segment that breaks either, or leaves bytes after
/// its last row, is [`StoreError::Corrupt`]. Runs arrive in dictionary
/// (lexicographic) order, each once its last row has decoded, so a
/// corrupt row fails the read before its run reaches `on_run`.
pub(crate) fn for_each_run(bytes: &[u8], on_run: &mut OnRun<'_>) -> Result<(), StoreError> {
    let (mut dicts, mut r) = parse_segment(bytes)?;
    // Row fqdn indices never decrease, so the names are taken in
    // dictionary order and none is needed again after its run.
    let mut names = std::mem::take(&mut dicts.fqdns).into_iter();
    let mut next_name = 0u32;
    let mut emit = |run: &mut Vec<SegRow>, total: u64, rdatas: &[Rdata]| {
        let fqdn = run[0].fqdn;
        // Skip the names of any fqdns without rows (a segment the
        // builder wrote has none).
        let name = names
            .nth((fqdn - next_name) as usize)
            .expect("next_row bounds the index by the dictionary");
        next_name = fqdn + 1;
        on_run(name, run, total, rdatas);
        run.clear();
    };
    let mut run: Vec<SegRow> = Vec::new();
    let mut total = 0u64;
    let mut prev = 0u64;
    for _ in 0..dicts.n_rows {
        let row = next_row(&mut r, &dicts, &mut prev)?;
        match run.last().copied() {
            Some(last) if last.fqdn != row.fqdn => {
                emit(&mut run, total, &dicts.rdatas);
                total = 0;
            }
            Some(last) if (row.pdate, row.rdata) <= (last.pdate, last.rdata) => {
                return Err(corrupt("row key not increasing within its fqdn"));
            }
            _ => {}
        }
        total = total
            .checked_add(row.cnt)
            .ok_or_else(|| corrupt("fqdn request total overflows u64"))?;
        run.push(row);
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes in rows block"));
    }
    if !run.is_empty() {
        emit(&mut run, total, &dicts.rdatas);
    }
    Ok(())
}

/// Read the segment file at `path` and walk [`for_each_run`] over it:
/// the one reader, shared by the streaming scan and `DiskStore::open`.
/// A [`StoreError::Corrupt`] names the file.
pub(crate) fn read_runs(path: &Path, on_run: &mut OnRun<'_>) -> Result<(), StoreError> {
    for_each_run(&std::fs::read(path)?, on_run).map_err(|e| match e {
        StoreError::Corrupt(msg) => StoreError::Corrupt(format!("{}: {msg}", path.display())),
        other => other,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::TempDir;
    use crate::{scan_shard_visit, DiskStore, StoreConfig};
    use fw_dns::pdns::PdnsBackend as _;
    use fw_types::{MEASUREMENT_END, MEASUREMENT_START};
    use proptest::prelude::*;
    use std::collections::HashMap;

    type Row = (Fqdn, Rdata, DayStamp, u64);

    fn fq(s: &str) -> Fqdn {
        Fqdn::parse(s).unwrap()
    }

    fn v4(last: u8) -> Rdata {
        Rdata::V4(Ipv4Addr::new(198, 51, 100, last))
    }

    /// The last day a [`raw_segment`] row may fall on, as an offset.
    const WINDOW: u64 = (MEASUREMENT_END.0 - MEASUREMENT_START.0) as u64;

    /// A segment with every CRC valid over the dictionaries `fqdns` and
    /// `rdatas`, whose rows block holds `rows` verbatim as
    /// `[fqdn delta, day offset, rdata index, count]` varints and whose
    /// footer spans the measurement window: the reader's defences
    /// against well-framed but inconsistent rows are tested on it.
    pub(crate) fn raw_segment(fqdns: &[&str], rdatas: &[Rdata], rows: &[[u64; 4]]) -> Vec<u8> {
        let mut dict = Vec::new();
        put_uvarint(&mut dict, fqdns.len() as u64);
        for fqdn in fqdns {
            put_uvarint(&mut dict, fqdn.len() as u64);
            dict.extend_from_slice(fqdn.as_bytes());
        }
        put_uvarint(&mut dict, rdatas.len() as u64);
        for rdata in rdatas {
            put_rdata(&mut dict, rdata);
        }
        let mut body = Vec::new();
        put_uvarint(&mut body, rows.len() as u64);
        for &value in rows.iter().flatten() {
            put_uvarint(&mut body, value);
        }
        let counts = [rows.len(), fqdns.len(), rdatas.len()];
        assemble(&dict, &body, counts, MEASUREMENT_START.0, MEASUREMENT_END.0)
    }

    /// Every row `bytes` holds, in segment order, through the one row
    /// loop; each run's total is checked against its rows.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<Row>, StoreError> {
        let mut out = Vec::new();
        for_each_run(bytes, &mut |fqdn, rows, total, rdatas| {
            assert_eq!(total, rows.iter().map(|r| r.cnt).sum::<u64>());
            for row in rows {
                let rdata = rdatas[row.rdata as usize].clone();
                out.push((fqdn.clone(), rdata, row.pdate, row.cnt));
            }
        })?;
        Ok(out)
    }

    /// Encode `rows` the way a seal does: keys merged as a shard entry
    /// merges them, then one `push_fqdn_rows` per fqdn, fqdns and rows
    /// in first-seen order.
    fn build(rows: &[Row]) -> Option<Vec<u8>> {
        let mut table: Vec<(&Fqdn, Vec<_>)> = Vec::new();
        for (fqdn, rdata, day, cnt) in rows {
            let at = match table.iter().position(|(f, _)| *f == fqdn) {
                Some(at) => at,
                None => {
                    table.push((fqdn, Vec::new()));
                    table.len() - 1
                }
            };
            let entry = &mut table[at].1;
            match entry.iter_mut().find(|(r, d, _)| *r == rdata && d == day) {
                Some(row) => row.2 += cnt,
                None => entry.push((rdata, *day, *cnt)),
            }
        }
        let mut builder = SegmentBuilder::for_distinct_fqdns(table.len(), rows.len());
        for (fqdn, entry) in &table {
            builder.push_fqdn_rows(fqdn, entry.iter().copied());
        }
        builder.finish()
    }

    fn sample_rows() -> Vec<Row> {
        let name = Rdata::Name(fq("edge.a.run.app"));
        let v6 = Rdata::V6("2001:db8::1".parse().unwrap());
        let d0 = MEASUREMENT_START;
        vec![
            (fq("b.on.aws"), v4(1), d0, 3),
            (fq("a.on.aws"), name.clone(), d0 + 1, 2),
            (fq("a.on.aws"), v4(2), d0 + 1, 5),
            (fq("b.on.aws"), v4(1), d0, 4),
            (fq("c.on.aws"), v6.clone(), d0 + 700, 1),
        ]
    }

    fn sample() -> Vec<u8> {
        build(&sample_rows()).unwrap()
    }

    fn expect_corrupt(bytes: &[u8], what: &str) {
        match decode(bytes) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_sorts_rows_and_both_dictionaries() {
        let d0 = MEASUREMENT_START;
        let want = vec![
            (fq("a.on.aws"), v4(2), d0 + 1, 5),
            (fq("a.on.aws"), Rdata::Name(fq("edge.a.run.app")), d0 + 1, 2),
            (fq("b.on.aws"), v4(1), d0, 7),
            (
                fq("c.on.aws"),
                Rdata::V6("2001:db8::1".parse().unwrap()),
                d0 + 700,
                1,
            ),
        ];
        assert_eq!(decode(&sample()).unwrap(), want);
        let (dicts, _) = parse_segment(&sample()).unwrap();
        assert_eq!((dicts.min_day, dicts.max_day), (d0, d0 + 700));
    }

    /// The rdata dictionary is ordered by how many rows use each value,
    /// then by value, so the most used take the shortest indices.
    #[test]
    fn rdata_dictionary_ranks_by_use_then_value() {
        let name = Rdata::Name(fq("edge.a.run.app"));
        let d0 = MEASUREMENT_START;
        let rows = [
            (fq("a.on.aws"), v4(2), d0, 1),
            (fq("a.on.aws"), name.clone(), d0, 1),
            (fq("b.on.aws"), name.clone(), d0, 1),
            (fq("b.on.aws"), v4(1), d0 + 1, 1),
        ];
        let (dicts, _) = parse_segment(&build(&rows).unwrap()).unwrap();
        assert_eq!(dicts.rdatas, [name, v4(1), v4(2)]);
    }

    /// The dictionaries are written in canonical order, so the bytes do
    /// not depend on the order a table hands its fqdns and rows over.
    #[test]
    fn bytes_are_a_function_of_the_rows() {
        let rows = sample_rows();
        let reversed: Vec<Row> = rows.iter().rev().cloned().collect();
        assert_eq!(build(&rows), build(&reversed));
    }

    #[test]
    fn empty_builder_yields_no_segment() {
        assert!(SegmentBuilder::for_distinct_fqdns(0, 0).finish().is_none());
        let (fqdn, rdata) = (fq("a.on.aws"), v4(4));
        let mut b = SegmentBuilder::for_distinct_fqdns(1, 1);
        b.push_fqdn_rows(&fqdn, std::iter::once((&rdata, MEASUREMENT_START, 0)));
        assert!(b.finish().is_none());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
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
            assert!(decode(&dup).is_err(), "bit flip at {pos} must not decode");
        }
    }

    #[test]
    fn wrapping_fqdn_delta_is_corrupt() {
        let fqdns = ["a.on.aws", "b.on.aws"];
        let ok = decode(&raw_segment(
            &fqdns,
            &[v4(1)],
            &[[0, 0, 0, 1], [1, 0, 0, 1]],
        ))
        .unwrap();
        assert_eq!(ok.iter().map(|r| r.0.as_str()).collect::<Vec<_>>(), fqdns);
        // Row 2's delta wraps the index from fqdn 1 back to fqdn 0,
        // which would put the rows out of fqdn order.
        let wrapped = raw_segment(&fqdns, &[v4(1)], &[[1, 0, 0, 1], [u64::MAX, 0, 0, 1]]);
        expect_corrupt(&wrapped, "fqdn delta");
    }

    /// One key twice, with counts `u64::MAX` and 1: the scan summed
    /// them with a plain `+=`.
    #[test]
    fn repeated_key_is_corrupt() {
        let seg = raw_segment(
            &["a.on.aws", "b.on.aws"],
            &[v4(1)],
            &[[0, 0, 0, u64::MAX], [0, 0, 0, 1]],
        );
        expect_corrupt(&seg, "row key not increasing within its fqdn");
    }

    #[test]
    fn descending_key_is_corrupt() {
        let rdatas = [v4(1), v4(2)];
        let day = raw_segment(&["a.on.aws"], &rdatas, &[[0, 1, 0, 1], [0, 0, 1, 1]]);
        expect_corrupt(&day, "row key not increasing");
        let rdata = raw_segment(&["a.on.aws"], &rdatas, &[[0, 0, 1, 1], [0, 0, 0, 1]]);
        expect_corrupt(&rdata, "row key not increasing");
    }

    /// Two distinct keys of one fqdn whose counts sum past `u64`; a
    /// total of exactly `u64::MAX` still reads.
    #[test]
    fn overflowing_fqdn_total_is_corrupt() {
        let rdatas = [v4(1), v4(2)];
        let over = raw_segment(&["a.on.aws"], &rdatas, &[[0, 0, 0, u64::MAX], [0, 0, 1, 1]]);
        expect_corrupt(&over, "total overflows");
        let over = raw_segment(&["a.on.aws"], &rdatas, &[[0, 0, 0, 2], [0, 3, 0, u64::MAX]]);
        expect_corrupt(&over, "total overflows");
        let max = raw_segment(
            &["a.on.aws"],
            &rdatas,
            &[[0, 0, 0, u64::MAX - 1], [0, 0, 1, 1]],
        );
        let rows = decode(&max).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.3).collect::<Vec<_>>(),
            [u64::MAX - 1, 1]
        );
        // Each fqdn has its own total.
        let two = raw_segment(
            &["a.on.aws", "b.on.aws"],
            &rdatas,
            &[[0, 0, 0, u64::MAX], [1, 0, 0, u64::MAX]],
        );
        assert_eq!(decode(&two).unwrap().len(), 2);
    }

    /// A day offset past the footer's range, including one whose `i64`
    /// reading is negative, is refused.
    #[test]
    fn day_outside_footer_range_is_corrupt() {
        let last = raw_segment(&["a.on.aws"], &[v4(1)], &[[0, WINDOW, 0, 1]]);
        assert_eq!(decode(&last).unwrap()[0].2, MEASUREMENT_END);
        for offset in [WINDOW + 1, u64::MAX] {
            let seg = raw_segment(&["a.on.aws"], &[v4(1)], &[[0, offset, 0, 1]]);
            expect_corrupt(&seg, "outside footer range");
        }
    }

    /// A name twice in the fqdn dictionary would give one fqdn two
    /// runs, and a value twice in the rdata dictionary one key two
    /// rows. An rdata dictionary in any other order (a segment written
    /// before the canonical order) still reads.
    #[test]
    fn dictionaries_hold_distinct_values() {
        let rows = [[0, 0, 0, 1], [1, 0, 0, 1]];
        let twice = raw_segment(&["a.on.aws", "a.on.aws"], &[v4(1)], &rows);
        expect_corrupt(&twice, "fqdn dictionary not strictly increasing");
        let unsorted = raw_segment(&["b.on.aws", "a.on.aws"], &[v4(1)], &rows);
        expect_corrupt(&unsorted, "fqdn dictionary not strictly increasing");
        let rows = [[0, 0, 0, 1], [0, 0, 1, 1]];
        let repeated = raw_segment(&["a.on.aws"], &[v4(1), v4(1)], &rows);
        expect_corrupt(&repeated, "rdata dictionary repeats a value");
        let descending = raw_segment(&["a.on.aws"], &[v4(2), v4(1)], &rows);
        let values: Vec<Rdata> = decode(&descending)
            .unwrap()
            .into_iter()
            .map(|r| r.1)
            .collect();
        assert_eq!(values, [v4(2), v4(1)]);
    }

    #[test]
    fn version_mismatch_is_reported() {
        // Bump the footer's version varint (value 1, one byte, the
        // first of its payload), then re-stamp the footer and file CRCs.
        let mut bytes = sample();
        let footer_offset = u64::from_le_bytes(
            bytes[bytes.len() - 20..bytes.len() - 12]
                .try_into()
                .unwrap(),
        ) as usize;
        // Footer payload starts after [tag][u32 len].
        let payload_start = footer_offset + 5;
        assert_eq!(bytes[payload_start], 1);
        bytes[payload_start] = 2;
        let len = u32::from_le_bytes(
            bytes[footer_offset + 1..footer_offset + 5]
                .try_into()
                .unwrap(),
        ) as usize;
        let crc = crc32(&bytes[payload_start..payload_start + len]);
        bytes[payload_start + len..payload_start + len + 4].copy_from_slice(&crc.to_le_bytes());
        let body_end = bytes.len() - 12;
        let crc = crc32(&bytes[..body_end]);
        bytes[body_end..body_end + 4].copy_from_slice(&crc.to_le_bytes());
        match decode(&bytes) {
            Err(StoreError::Version {
                found: 2,
                expected: 1,
            }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    /// A compact row spec: small index spaces force dictionary reuse
    /// and keys that merge.
    type RowSpec = (u8, u8, u16, u16, u32);

    fn row_spec() -> impl Strategy<Value = RowSpec> {
        (
            any::<u8>(),
            any::<u8>(),
            any::<u16>(),
            any::<u16>(),
            any::<u32>(),
        )
    }

    fn materialize(rows: &[RowSpec]) -> Vec<Row> {
        rows.iter()
            .map(|&(f, r, day, host, cnt)| {
                let fqdn = fq(&format!("fn{f}.lambda-url.us-east-1.on.aws"));
                let rdata = match r % 3 {
                    0 => v4(r),
                    1 => Rdata::V6(format!("2001:db8::{:x}", u16::from(r) + 1).parse().unwrap()),
                    _ => Rdata::Name(fq(&format!("edge{host}.a.run.app"))),
                };
                let day = MEASUREMENT_START + i64::from(day % 731);
                (fqdn, rdata, day, u64::from(cnt) + 1)
            })
            .collect()
    }

    /// The canonical view of a row set: `(fqdn, rdata, pdate) → total`.
    fn canonical(rows: &[Row]) -> HashMap<(Fqdn, Rdata, DayStamp), u64> {
        let mut out = HashMap::new();
        for (f, r, d, c) in rows {
            *out.entry((f.clone(), r.clone(), *d)).or_insert(0) += c;
        }
        out
    }

    /// The decoded fields of a segment: its dictionaries and its rows
    /// as `[fqdn delta, day offset, rdata index, count]`.
    #[derive(Debug)]
    struct Fields {
        fqdns: Vec<String>,
        rdatas: Vec<Rdata>,
        rows: Vec<[u64; 4]>,
    }

    impl Fields {
        /// A valid segment's fields: `n_fqdns` names, `n_rdatas`
        /// rdatas, and the distinct keys of `spec` as sorted rows.
        fn valid(n_fqdns: u64, n_rdatas: u64, spec: &[(u8, u8, u8, u32)]) -> Fields {
            let mut keys: Vec<[u64; 4]> = spec
                .iter()
                .map(|&(f, day, r, cnt)| {
                    let key = [u64::from(f) % n_fqdns, u64::from(day) % 6];
                    [key[0], key[1], u64::from(r) % n_rdatas, u64::from(cnt) + 1]
                })
                .collect();
            keys.sort_unstable();
            keys.dedup_by_key(|k| [k[0], k[1], k[2]]);
            let mut prev = 0;
            let rows = keys
                .into_iter()
                .map(|[f, day, r, cnt]| {
                    let delta = f - prev;
                    prev = f;
                    [delta, day, r, cnt]
                })
                .collect();
            let pool = [
                v4(1),
                v4(2),
                Rdata::V6("2001:db8::1".parse().unwrap()),
                Rdata::Name(fq("edge.a.run.app")),
            ];
            Fields {
                fqdns: (0..n_fqdns).map(|i| format!("f{i}.on.aws")).collect(),
                rdatas: pool[..n_rdatas as usize].to_vec(),
                rows,
            }
        }

        /// Change one decoded field of row `pos`: its count, fqdn
        /// delta, rdata index or day offset, or the order of its key
        /// and the next row's, or repeat its key in a new row.
        fn mutate(&mut self, kind: u8, pos: u64, value: u64) {
            let i = (pos % self.rows.len() as u64) as usize;
            let pick = |options: &[u64]| options[(value % options.len() as u64) as usize];
            match kind % 6 {
                0 => self.rows[i][3] = pick(&[0, 1, value >> 1, u64::MAX - 1, u64::MAX]),
                1 => self.rows[i][0] = pick(&[0, 1, 2, u64::MAX]),
                2 => self.rows[i][2] = value % (self.rdatas.len() as u64 + 1),
                3 => self.rows[i][1] = pick(&[0, 1, 5, WINDOW, WINDOW + 1, u64::MAX]),
                4 => {
                    let j = (i + 1) % self.rows.len();
                    let (a, b) = (self.rows[i], self.rows[j]);
                    self.rows[i][1..3].copy_from_slice(&b[1..3]);
                    self.rows[j][1..3].copy_from_slice(&a[1..3]);
                }
                _ => {
                    let [_, day, rdata, _] = self.rows[i];
                    self.rows.insert(i + 1, [0, day, rdata, value >> 1]);
                }
            }
        }

        fn encode(&self) -> Vec<u8> {
            let fqdns: Vec<&str> = self.fqdns.iter().map(String::as_str).collect();
            raw_segment(&fqdns, &self.rdatas, &self.rows)
        }

        /// The rows these fields hold if they keep the format's
        /// contract, else `None`: every index in range, every day in
        /// the footer's window, every count positive, one strict key
        /// order over the block (fqdn runs in dictionary order, then
        /// `(day, rdata)`), and each fqdn's total within a `u64`.
        fn rows(&self) -> Option<Vec<Row>> {
            let mut keys = Vec::with_capacity(self.rows.len());
            let mut fqdn = 0u64;
            for &[delta, day, rdata, cnt] in &self.rows {
                fqdn = fqdn.checked_add(delta)?;
                let in_range = fqdn < self.fqdns.len() as u64
                    && rdata < self.rdatas.len() as u64
                    && day <= WINDOW;
                if !in_range || cnt == 0 {
                    return None;
                }
                keys.push((fqdn as usize, day, rdata as usize, cnt));
            }
            let key = |k: &(usize, u64, usize, u64)| (k.0, k.1, k.2);
            if keys.windows(2).any(|w| key(&w[0]) >= key(&w[1])) {
                return None;
            }
            for run in keys.chunk_by(|a, b| a.0 == b.0) {
                run.iter().try_fold(0u64, |sum, k| sum.checked_add(k.3))?;
            }
            let rows = keys.into_iter().map(|(f, day, r, cnt)| {
                let day = MEASUREMENT_START + day as i64;
                (fq(&self.fqdns[f]), self.rdatas[r].clone(), day, cnt)
            });
            Some(rows.collect())
        }
    }

    /// Valid segments' fields, each with up to three mutations applied.
    fn mutated_fields() -> impl Strategy<Value = Fields> {
        let keys = (any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>());
        let mutation = (any::<u8>(), any::<u64>(), any::<u64>());
        (
            1u64..5,
            1u64..5,
            proptest::collection::vec(keys, 1..24),
            proptest::collection::vec(mutation, 0..4),
        )
            .prop_map(|(n_fqdns, n_rdatas, keys, mutations)| {
                let mut fields = Fields::valid(n_fqdns, n_rdatas, &keys);
                for (kind, pos, value) in mutations {
                    fields.mutate(kind, pos, value);
                }
                fields
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Mutated decoded fields, re-encoded with valid CRCs, read as
        /// exactly the rows they hold, or as `Corrupt` exactly when they
        /// break the format's contract: never a panic, a wrapped count
        /// or a silently different row.
        #[test]
        fn decoded_field_mutations_read_exactly_or_corrupt(fields in mutated_fields()) {
            match (decode(&fields.encode()), fields.rows()) {
                (Ok(got), Some(want)) => prop_assert_eq!(got, want),
                (Err(StoreError::Corrupt(_)), None) => {}
                (got, want) => prop_assert!(false, "{:?}: read {:?}, holds {:?}", fields, got, want),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The same property through `DiskStore::open` and the shard
        /// scan, which share the one reader: both read the mutated rows
        /// exactly, with equal aggregates, or both refuse the segment.
        #[test]
        fn reopen_and_scan_read_mutations_exactly_or_corrupt(fields in mutated_fields()) {
            let tmp = TempDir::new("mutated");
            let config = StoreConfig { shards: 1, flush_rows: 0 };
            drop(DiskStore::create(tmp.path(), config).unwrap());
            let segment = tmp.path().join("shard-000").join("seg-00000001.fws");
            std::fs::write(&segment, fields.encode()).unwrap();
            let mut scanned = Vec::new();
            let scan = scan_shard_visit(tmp.path(), 0, &mut |agg| scanned.push(agg), None);
            match (DiskStore::open_read_only(tmp.path()), scan, fields.rows()) {
                (Ok(store), Ok(()), Some(mut want)) => {
                    let mut got = Vec::new();
                    store.for_each_row(&mut |f, _, r, d, c| got.push((f.clone(), r.clone(), d, c)));
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(scanned, store.all_aggregates());
                }
                (Err(StoreError::Corrupt(_)), Err(StoreError::Corrupt(_)), None) => {}
                (open, scan, want) => prop_assert!(
                    false,
                    "{:?}: open {:?}, scan {:?}, holds {:?}",
                    fields, open.map(|_| ()), scan, want
                ),
            }
        }
    }

    proptest! {
        /// Encode → decode reproduces exactly the canonical row set,
        /// sorted by `(fqdn, pdate, rdata)` with every key once.
        #[test]
        fn roundtrip_is_lossless(spec in proptest::collection::vec(row_spec(), 1..120)) {
            let rows = materialize(&spec);
            let decoded = decode(&build(&rows).expect("non-empty segment")).unwrap();
            let keys: Vec<(&Fqdn, DayStamp, &Rdata)> =
                decoded.iter().map(|(f, r, d, _)| (f, *d, r)).collect();
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(canonical(&decoded), canonical(&rows));
            prop_assert_eq!(decoded.len(), canonical(&rows).len());
        }

        /// Any strict prefix of a segment fails to decode.
        #[test]
        fn truncation_rejected(
            spec in proptest::collection::vec(row_spec(), 1..40),
            cut_seed in any::<u64>(),
        ) {
            let bytes = build(&materialize(&spec)).unwrap();
            let cut = (cut_seed % bytes.len() as u64) as usize;
            prop_assert!(decode(&bytes[..cut]).is_err());
        }

        /// Any single corrupted byte fails to decode (whole-file CRC plus
        /// per-block CRCs and magics leave no unprotected byte).
        #[test]
        fn corruption_rejected(
            spec in proptest::collection::vec(row_spec(), 1..40),
            pos_seed in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let mut bytes = build(&materialize(&spec)).unwrap();
            let pos = (pos_seed % bytes.len() as u64) as usize;
            bytes[pos] ^= flip;
            prop_assert!(decode(&bytes).is_err(), "flip at {} survived", pos);
        }
    }
}
