//! Frame codec for streaming PDNS batches over a
//! [`Connection`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! frame     := 0x01 seq:u64 watermark:i64 count:u32 row*   (batch)
//!            | 0x02                                        (end of stream)
//! row       := fqdn_len:u16 fqdn_bytes
//!              rdata_tag:u8 rdata_body
//!              day:i64 cnt:u64
//! rdata_body:= 4 bytes            (tag 0, A)
//!            | 16 bytes           (tag 1, AAAA)
//!            | name_len:u16 bytes (tag 2, CNAME target)
//! ```
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
    let mut buf = Vec::with_capacity(32 + rows.len() * 48);
    buf.push(TAG_BATCH);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&watermark_day.0.to_le_bytes());
    let count = u32::try_from(rows.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "batch too large"))?;
    buf.extend_from_slice(&count.to_le_bytes());
    for row in rows {
        put_row(&mut buf, row)?;
    }
    conn.write_all(&buf)?;
    Ok(buf.len())
}

/// Send the end-of-stream frame.
pub fn write_eos<C: Connection + ?Sized>(conn: &mut C) -> io::Result<usize> {
    conn.write_all(&[TAG_EOS])?;
    Ok(1)
}

fn get_u16<C: Connection + ?Sized>(conn: &mut C) -> io::Result<u16> {
    let mut b = [0u8; 2];
    conn.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn get_u32<C: Connection + ?Sized>(conn: &mut C) -> io::Result<u32> {
    let mut b = [0u8; 4];
    conn.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<C: Connection + ?Sized>(conn: &mut C) -> io::Result<u64> {
    let mut b = [0u8; 8];
    conn.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_str<C: Connection + ?Sized>(conn: &mut C) -> io::Result<String> {
    let len = get_u16(conn)? as usize;
    let mut bytes = vec![0u8; len];
    conn.read_exact(&mut bytes)?;
    String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 string in frame"))
}

fn get_fqdn<C: Connection + ?Sized>(conn: &mut C) -> io::Result<Fqdn> {
    let s = get_str(conn)?;
    Fqdn::parse(&s).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad fqdn in frame: {e}"),
        )
    })
}

fn get_row<C: Connection + ?Sized>(conn: &mut C) -> io::Result<PdnsRow> {
    let fqdn = get_fqdn(conn)?;
    let mut tag = [0u8; 1];
    conn.read_exact(&mut tag)?;
    let rdata = match tag[0] {
        RDATA_V4 => {
            let mut o = [0u8; 4];
            conn.read_exact(&mut o)?;
            Rdata::V4(Ipv4Addr::from(o))
        }
        RDATA_V6 => {
            let mut o = [0u8; 16];
            conn.read_exact(&mut o)?;
            Rdata::V6(Ipv6Addr::from(o))
        }
        RDATA_NAME => Rdata::Name(get_fqdn(conn)?),
        t => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown rdata tag {t}"),
            ))
        }
    };
    let day = DayStamp(get_u64(conn)? as i64);
    let cnt = get_u64(conn)?;
    Ok(PdnsRow {
        fqdn,
        rdata,
        day,
        cnt,
    })
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
        TAG_BATCH => {
            let seq = get_u64(conn)?;
            let watermark_day = DayStamp(get_u64(conn)? as i64);
            let count = get_u32(conn)? as usize;
            let mut rows = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                rows.push(get_row(conn)?);
            }
            Ok(Some(Frame::Batch {
                seq,
                watermark_day,
                rows,
            }))
        }
        t => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame tag {t}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_net::SimNet;
    use std::net::SocketAddr;

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
}
