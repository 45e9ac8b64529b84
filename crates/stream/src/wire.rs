//! Frame codec for streaming PDNS batches over a
//! [`Connection`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! frame     := 0x01 seq:u64 watermark:i64 count:u32 body_len:u32 row{count}  (batch)
//!            | 0x02                                                          (end of stream)
//! row       := fqdn_len:u16 fqdn_bytes
//!              rdata_tag:u8 rdata_body
//!              day:i64 cnt:u64
//! rdata_body:= 4 bytes            (tag 0, A)
//!            | 16 bytes           (tag 1, AAAA)
//!            | name_len:u16 bytes (tag 2, CNAME target)
//! ```
//!
//! `body_len` counts the bytes of the batch's rows, so a reader takes a
//! batch in three reads (tag, header, body) and decodes every row from
//! one slice. Before it allocates anything, the reader refuses a body
//! over the 16 MiB cap and a `count` the body cannot hold; after the
//! rows, it refuses bytes left over. Each is `InvalidData`, as is an
//! unknown frame or rdata tag.
//!
//! Rdata is encoded structurally (not as display text) so a decoded
//! row is `==` to the encoded one — the equivalence gate depends on
//! the codec being lossless. After the end-of-stream frame the daemon
//! answers with a single [`ACK`] byte, which the feeder blocks on; the
//! ack doubles as the "all batches applied" barrier in virtual time.

use fw_dns::pdns::PdnsRow;
use fw_net::Connection;
use fw_types::{DayStamp, Fqdn, Rdata};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr};

const TAG_BATCH: u8 = 0x01;
const TAG_EOS: u8 = 0x02;

const RDATA_V4: u8 = 0;
const RDATA_V6: u8 = 1;
const RDATA_NAME: u8 = 2;

/// A batch header after its tag: seq, watermark, count and body_len.
const HEADER_LEN: usize = 8 + 8 + 4 + 4;
/// Bytes before a batch's first row.
const FRAME_HEAD: usize = 1 + HEADER_LEN;
/// The smallest row: a 3-byte name (`a.b`) and an A record.
const MIN_ROW_BYTES: usize = 2 + 3 + 1 + 4 + 8 + 8;
/// The largest batch body either side accepts: 16 MiB. A replay's
/// largest frame is its busiest day at `batches_per_day` 1, which grows
/// about linearly with the world (seed 42: 288 KB at scale 0.1, 2.6 MB
/// at scale 1.0), so the cap covers daily frames up to about scale 6
/// and hourly frames (15 KB at most at scale 0.1) far beyond.
const MAX_BODY_LEN: usize = 16 << 20;

/// Byte the daemon writes back after processing the end-of-stream
/// frame.
pub const ACK: u8 = 0xA5;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    Batch {
        seq: u64,
        watermark_day: DayStamp,
        rows: Vec<PdnsRow>,
    },
    Eos,
}

fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "string too long for frame"))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_row(buf: &mut Vec<u8>, row: &PdnsRow) -> io::Result<()> {
    put_str(buf, row.fqdn.as_str())?;
    match &row.rdata {
        Rdata::V4(ip) => {
            buf.push(RDATA_V4);
            buf.extend_from_slice(&ip.octets());
        }
        Rdata::V6(ip) => {
            buf.push(RDATA_V6);
            buf.extend_from_slice(&ip.octets());
        }
        Rdata::Name(name) => {
            buf.push(RDATA_NAME);
            put_str(buf, name.as_str())?;
        }
    }
    buf.extend_from_slice(&row.day.0.to_le_bytes());
    buf.extend_from_slice(&row.cnt.to_le_bytes());
    Ok(())
}

/// Encode and send one batch frame; returns the bytes written.
pub fn write_batch<C: Connection + ?Sized>(
    conn: &mut C,
    seq: u64,
    watermark_day: DayStamp,
    rows: &[PdnsRow],
) -> io::Result<usize> {
    let count = u32::try_from(rows.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "batch too large"))?;
    let mut buf = Vec::with_capacity(FRAME_HEAD + rows.len() * 48);
    buf.push(TAG_BATCH);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&watermark_day.0.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&[0; 4]); // body_len, patched once the rows are in
    for row in rows {
        put_row(&mut buf, row)?;
    }
    let body_len = buf.len() - FRAME_HEAD;
    if body_len > MAX_BODY_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("batch body of {body_len} bytes exceeds the {MAX_BODY_LEN}-byte cap"),
        ));
    }
    buf[FRAME_HEAD - 4..FRAME_HEAD].copy_from_slice(&(body_len as u32).to_le_bytes());
    conn.write_all(&buf)?;
    Ok(buf.len())
}

/// Send the end-of-stream frame.
pub fn write_eos<C: Connection + ?Sized>(conn: &mut C) -> io::Result<usize> {
    conn.write_all(&[TAG_EOS])?;
    Ok(1)
}

/// A decoding cursor over a received header or batch body.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(invalid("batch body ends inside a row"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn fqdn(&mut self) -> io::Result<Fqdn> {
        let len = u16::from_le_bytes(self.array()?) as usize;
        let text = std::str::from_utf8(self.take(len)?)
            .map_err(|_| invalid("non-utf8 string in frame"))?;
        Fqdn::parse(text).map_err(|e| invalid(format!("bad fqdn in frame: {e}")))
    }

    fn row(&mut self) -> io::Result<PdnsRow> {
        let fqdn = self.fqdn()?;
        let [tag] = self.array()?;
        let rdata = match tag {
            RDATA_V4 => Rdata::V4(Ipv4Addr::from(self.array::<4>()?)),
            RDATA_V6 => Rdata::V6(Ipv6Addr::from(self.array::<16>()?)),
            RDATA_NAME => Rdata::Name(self.fqdn()?),
            t => return Err(invalid(format!("unknown rdata tag {t}"))),
        };
        let day = DayStamp(i64::from_le_bytes(self.array()?));
        let cnt = u64::from_le_bytes(self.array()?);
        Ok(PdnsRow {
            fqdn,
            rdata,
            day,
            cnt,
        })
    }
}

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly at a frame boundary.
pub fn read_frame<C: Connection + ?Sized>(conn: &mut C) -> io::Result<Option<Frame>> {
    let mut tag = [0u8; 1];
    if conn.read(&mut tag)? == 0 {
        return Ok(None);
    }
    match tag[0] {
        TAG_EOS => Ok(Some(Frame::Eos)),
        TAG_BATCH => read_batch(conn).map(Some),
        t => Err(invalid(format!("unknown frame tag {t}"))),
    }
}

/// The rest of a batch frame after its tag: one read for the header,
/// one for the body.
fn read_batch<C: Connection + ?Sized>(conn: &mut C) -> io::Result<Frame> {
    let mut head = [0u8; HEADER_LEN];
    conn.read_exact(&mut head)?;
    let mut h = Cursor(&head);
    let seq = u64::from_le_bytes(h.array()?);
    let watermark_day = DayStamp(i64::from_le_bytes(h.array()?));
    let count = u32::from_le_bytes(h.array()?) as usize;
    let body_len = u32::from_le_bytes(h.array()?) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(invalid(format!(
            "batch body of {body_len} bytes exceeds the {MAX_BODY_LEN}-byte cap"
        )));
    }
    if count > body_len / MIN_ROW_BYTES {
        return Err(invalid(format!(
            "{count} rows cannot fit a batch body of {body_len} bytes"
        )));
    }
    let mut body = vec![0u8; body_len];
    conn.read_exact(&mut body)?;
    let mut cur = Cursor(&body);
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push(cur.row()?);
    }
    if !cur.0.is_empty() {
        return Err(invalid(format!(
            "{} bytes left over after the batch's {count} rows",
            cur.0.len()
        )));
    }
    Ok(Frame::Batch {
        seq,
        watermark_day,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_net::{pipe_pair, PipeConn, SimNet};
    use proptest::prelude::*;
    use std::net::SocketAddr;
    use std::time::Duration;

    fn rows() -> Vec<PdnsRow> {
        vec![
            PdnsRow {
                fqdn: Fqdn::parse("fn1.example.com").unwrap(),
                rdata: Rdata::V4(Ipv4Addr::new(203, 0, 113, 7)),
                day: DayStamp(19_100),
                cnt: 42,
            },
            PdnsRow {
                fqdn: Fqdn::parse("fn2.example.com").unwrap(),
                rdata: Rdata::V6(Ipv6Addr::LOCALHOST),
                day: DayStamp(19_101),
                cnt: 1,
            },
            PdnsRow {
                fqdn: Fqdn::parse("fn3.example.com").unwrap(),
                rdata: Rdata::Name(Fqdn::parse("edge.cdn.example.net").unwrap()),
                day: DayStamp(19_102),
                cnt: u64::MAX / 2,
            },
        ]
    }

    /// A pipe end that counts its reads and the bytes they return.
    #[derive(Debug)]
    struct Counting {
        inner: PipeConn,
        reads: usize,
        bytes: usize,
    }

    impl Connection for Counting {
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.inner.write_all(buf)
        }
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.reads += 1;
            self.bytes += n;
            Ok(n)
        }
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            self.inner.set_read_timeout(timeout)
        }
        fn shutdown_write(&mut self) {
            self.inner.shutdown_write()
        }
        fn peer_addr(&self) -> SocketAddr {
            self.inner.peer_addr()
        }
    }

    /// A bare pipe: the writing end, and a counting reading end.
    fn pipe() -> (PipeConn, Counting) {
        let (tx, rx) = pipe_pair("10.0.0.1:1".parse().unwrap(), "10.0.0.2:2".parse().unwrap());
        let rx = Counting {
            inner: rx,
            reads: 0,
            bytes: 0,
        };
        (tx, rx)
    }

    /// Read one frame from `bytes` followed by a clean close.
    fn read_bytes(bytes: &[u8]) -> (io::Result<Option<Frame>>, Counting) {
        let (mut tx, mut rx) = pipe();
        tx.write_all(bytes).unwrap();
        tx.shutdown_write();
        (read_frame(&mut rx), rx)
    }

    fn encode(seq: u64, rows: &[PdnsRow]) -> Vec<u8> {
        let (mut tx, mut rx) = pipe();
        let n = write_batch(&mut tx, seq, DayStamp(19_102), rows).unwrap();
        tx.shutdown_write();
        let mut buf = vec![0u8; n];
        rx.read_exact(&mut buf).unwrap();
        buf
    }

    /// A batch header with the given count and body length.
    fn header(count: u32, body_len: u32) -> Vec<u8> {
        let mut buf = vec![TAG_BATCH];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&19_102i64.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&body_len.to_le_bytes());
        buf
    }

    fn invalid_data(result: io::Result<Option<Frame>>) -> bool {
        matches!(result, Err(e) if e.kind() == io::ErrorKind::InvalidData)
    }

    #[test]
    fn frames_round_trip_over_simnet() {
        let net = SimNet::new(7);
        let addr: SocketAddr = "10.0.0.1:9000".parse().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        net.listen_fn(addr, move |mut conn| loop {
            match read_frame(&mut conn).expect("read frame") {
                Some(Frame::Eos) => {
                    conn.write_all(&[ACK]).unwrap();
                    tx.send(Frame::Eos).unwrap();
                    break;
                }
                Some(f) => tx.send(f).unwrap(),
                None => break,
            }
        });
        let reg = net.clock().register();
        let net2 = net.clone();
        let sent = rows();
        let sent2 = sent.clone();
        let feeder = std::thread::spawn(move || {
            let _active = reg.map(|r| r.activate());
            let mut conn = net2.connect(addr).expect("connect");
            write_batch(&mut conn, 3, DayStamp(19_102), &sent2).unwrap();
            write_eos(&mut conn).unwrap();
            let mut ack = [0u8; 1];
            conn.read_exact(&mut ack).unwrap();
            assert_eq!(ack[0], ACK);
        });
        let got = rx.recv().unwrap();
        assert_eq!(
            got,
            Frame::Batch {
                seq: 3,
                watermark_day: DayStamp(19_102),
                rows: sent
            }
        );
        assert_eq!(rx.recv().unwrap(), Frame::Eos);
        feeder.join().unwrap();
    }

    /// A frame that is whole in the pipe costs three reads: tag,
    /// header, body.
    #[test]
    fn whole_frame_is_three_reads() {
        let sent: Vec<PdnsRow> = (0..20).map(|i| rows()[i % 3].clone()).collect();
        let (mut tx, mut rx) = pipe();
        let written = write_batch(&mut tx, 1, DayStamp(19_102), &sent).unwrap();
        let got = read_frame(&mut rx).unwrap();
        assert_eq!(
            got,
            Some(Frame::Batch {
                seq: 1,
                watermark_day: DayStamp(19_102),
                rows: sent
            })
        );
        assert!(rx.reads <= 3, "{} reads for one frame", rx.reads);
        assert_eq!(rx.bytes, written);
    }

    #[test]
    fn header_claiming_more_rows_than_its_body_holds_is_invalid() {
        let (got, rx) = read_bytes(&header(u32::MAX, 0));
        assert!(invalid_data(got));
        assert_eq!(rx.reads, 2, "refused before reading a body");
        let (got, rx) = read_bytes(&header(2, MIN_ROW_BYTES as u32 * 2 - 1));
        assert!(
            invalid_data(got),
            "two rows need {} bytes",
            MIN_ROW_BYTES * 2
        );
        assert_eq!(rx.reads, 2);
        let mut frame = encode(1, &rows());
        frame[17..21].copy_from_slice(&4u32.to_le_bytes());
        assert!(invalid_data(read_bytes(&frame).0));
    }

    #[test]
    fn body_over_the_cap_is_refused_before_it_is_read() {
        let (got, rx) = read_bytes(&header(1, MAX_BODY_LEN as u32 + 1));
        assert!(
            invalid_data(got),
            "not UnexpectedEof: the body was never read"
        );
        assert_eq!(rx.reads, 2);
        // At the cap the reader goes on to read the (missing) body.
        let (got, _) = read_bytes(&header(1, MAX_BODY_LEN as u32));
        assert_eq!(got.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_batch_refuses_a_body_over_the_cap() {
        let long = |c: &str| Fqdn::parse(&[c.repeat(63).as_str(); 4].join(".")[..253]).unwrap();
        let row = PdnsRow {
            fqdn: long("a"),
            rdata: Rdata::Name(long("b")),
            day: DayStamp(0),
            cnt: 1,
        };
        let rows = vec![row; MAX_BODY_LEN / 500 + 1];
        let (mut tx, _rx) = pipe();
        let err = write_batch(&mut tx, 1, DayStamp(0), &rows).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn trailing_bytes_after_the_rows_are_invalid() {
        let all = rows();
        // Two rows counted, three in the body.
        let mut frame = encode(1, &all);
        frame[17..21].copy_from_slice(&2u32.to_le_bytes());
        assert!(invalid_data(read_bytes(&frame).0));
        // Garbage past the last row, counted in body_len.
        let mut frame = encode(1, &all);
        let body_len = (frame.len() - FRAME_HEAD + 5) as u32;
        frame[21..25].copy_from_slice(&body_len.to_le_bytes());
        frame.extend_from_slice(&[0; 5]);
        assert!(invalid_data(read_bytes(&frame).0));
    }

    #[test]
    fn unknown_frame_and_rdata_tags_are_rejected() {
        assert!(invalid_data(read_bytes(&[0x03]).0));
        assert!(invalid_data(read_bytes(&[0x00]).0));
        let row = &rows()[..1];
        let mut frame = encode(1, row);
        let tag_at = FRAME_HEAD + 2 + row[0].fqdn.as_str().len();
        assert_eq!(frame[tag_at], RDATA_V4);
        frame[tag_at] = 3;
        assert!(invalid_data(read_bytes(&frame).0));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let frame = encode(9, &rows());
        assert!(
            matches!(read_bytes(&[]).0, Ok(None)),
            "empty stream is a clean close"
        );
        for cut in 1..frame.len() {
            let got = read_bytes(&frame[..cut]).0;
            assert!(
                got.is_err(),
                "{cut} of {} bytes read as {got:?}",
                frame.len()
            );
        }
        assert!(read_bytes(&frame).0.unwrap().is_some());
    }

    fn name() -> impl Strategy<Value = Fqdn> {
        prop_oneof![
            "[a-z0-9_-]{1,12}\\.[a-z0-9-]{1,12}(\\.[a-z]{2,6}){0,2}",
            "[a-z]{63}\\.[a-z]{63}\\.[a-z]{63}\\.[a-z]{61}",
            "a\\.b",
        ]
        .prop_map(|s| Fqdn::parse(&s).unwrap())
    }

    fn row() -> impl Strategy<Value = PdnsRow> {
        let rdata = prop_oneof![
            any::<[u8; 4]>().prop_map(|o| Rdata::V4(Ipv4Addr::from(o))),
            any::<[u8; 16]>().prop_map(|o| Rdata::V6(Ipv6Addr::from(o))),
            name().prop_map(Rdata::Name),
        ];
        let day = prop_oneof![
            any::<i64>(),
            Just(i64::MIN),
            Just(i64::MAX),
            18_000i64..21_000
        ];
        let cnt = prop_oneof![any::<u64>(), Just(u64::MAX), Just(0u64), 1u64..1_000];
        (name(), rdata, day, cnt).prop_map(|(fqdn, rdata, day, cnt)| PdnsRow {
            fqdn,
            rdata,
            day: DayStamp(day),
            cnt,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Frames of arbitrary rows round-trip back to back on one pipe,
        /// and the reader consumes exactly the bytes the writer reported.
        #[test]
        fn frames_round_trip_on_one_pipe(
            frames in proptest::collection::vec(
                (any::<u64>(), any::<i64>(), proptest::collection::vec(row(), 0..20)),
                1..5,
            ),
        ) {
            let (mut tx, mut rx) = pipe();
            let mut written = 0;
            for (seq, watermark, rows) in &frames {
                written += write_batch(&mut tx, *seq, DayStamp(*watermark), rows).unwrap();
            }
            written += write_eos(&mut tx).unwrap();
            tx.shutdown_write();
            for (seq, watermark, rows) in frames {
                let expected = Frame::Batch { seq, watermark_day: DayStamp(watermark), rows };
                prop_assert_eq!(read_frame(&mut rx).unwrap(), Some(expected));
            }
            prop_assert_eq!(read_frame(&mut rx).unwrap(), Some(Frame::Eos));
            prop_assert_eq!(rx.bytes, written);
            prop_assert_eq!(read_frame(&mut rx).unwrap(), None);
        }
    }
}
