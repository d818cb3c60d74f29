//! Minimal libpcap-format reader: feed real captures to the sketches.
//!
//! Parses classic `.pcap` files (the 24-byte global header followed by
//! 16-byte per-record headers), Ethernet II framing, IPv4, and the
//! TCP/UDP port fields — exactly the fields a [`FiveTuple`] needs.
//! Non-IPv4 packets, fragments without a transport header, and
//! truncated captures are skipped and counted rather than failing the
//! whole file, which is how measurement pipelines treat dirty
//! captures.
//!
//! Both endiannesses of the magic are supported; nanosecond-precision
//! variants (magic `0xa1b23c4d`) parse identically since we ignore
//! timestamps. The `weight` of each produced packet is the captured
//! IP total length, so byte-count measurement works out of the box
//! (use [`Packet::count`]-style re-weighting for packet counting).

use crate::key::FiveTuple;
use crate::packet::{Packet, Trace};
use std::io;
use std::path::Path;

const MAGIC_US_BE: u32 = 0xa1b2_c3d4;
const MAGIC_US_LE: u32 = 0xd4c3_b2a1;
const MAGIC_NS_BE: u32 = 0xa1b2_3c4d;
const MAGIC_NS_LE: u32 = 0x4d3c_b2a1;

/// Outcome of parsing a capture.
#[derive(Debug, Clone, Default)]
pub struct PcapStats {
    /// Records successfully turned into packets.
    pub parsed: usize,
    /// Records skipped (non-IPv4, truncated, fragment, non-TCP/UDP
    /// kept — see note below).
    pub skipped: usize,
}

/// Read `u16`/`u32` helpers honoring the file's endianness.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    little_endian: bool,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = self.data.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(out)
    }

    fn u32_file(&mut self) -> Option<u32> {
        let b: [u8; 4] = self.take(4)?.try_into().ok()?;
        Some(if self.little_endian {
            u32::from_le_bytes(b)
        } else {
            u32::from_be_bytes(b)
        })
    }
}

/// Parse one captured frame into a packet (`None` = skip).
fn parse_frame(frame: &[u8]) -> Option<Packet> {
    // Ethernet II: 14-byte header; EtherType 0x0800 = IPv4 (802.1Q
    // single-tagged frames are unwrapped).
    if frame.len() < 14 {
        return None;
    }
    let (ethertype, mut ip) = {
        let et = u16::from_be_bytes([frame[12], frame[13]]);
        if et == 0x8100 {
            if frame.len() < 18 {
                return None;
            }
            (u16::from_be_bytes([frame[16], frame[17]]), &frame[18..])
        } else {
            (et, &frame[14..])
        }
    };
    if ethertype != 0x0800 {
        return None;
    }
    // IPv4 header.
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0F) * 4;
    if ihl < 20 || ip.len() < ihl {
        return None;
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]);
    let proto = ip[9];
    let src_ip = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
    let dst_ip = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
    // Fragment with offset > 0: no transport header present.
    let frag_offset = u16::from_be_bytes([ip[6], ip[7]]) & 0x1FFF;
    ip = &ip[ihl..];
    let (src_port, dst_port) = if frag_offset == 0 && (proto == 6 || proto == 17) && ip.len() >= 4 {
        (
            u16::from_be_bytes([ip[0], ip[1]]),
            u16::from_be_bytes([ip[2], ip[3]]),
        )
    } else {
        // ICMP and friends still carry measurable IPv4 flows; ports 0.
        (0, 0)
    };
    Some(Packet {
        flow: FiveTuple::new(src_ip, dst_ip, src_port, dst_port, proto),
        weight: u32::from(total_len).max(1),
    })
}

/// Decode a pcap byte buffer into a [`Trace`] plus parse statistics.
pub fn decode(data: &[u8]) -> io::Result<(Trace, PcapStats)> {
    let err = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if data.len() < 24 {
        return Err(err("truncated pcap global header"));
    }
    let magic = u32::from_be_bytes(data[0..4].try_into().unwrap());
    let little_endian = match magic {
        MAGIC_US_BE | MAGIC_NS_BE => false,
        MAGIC_US_LE | MAGIC_NS_LE => true,
        _ => return Err(err("not a pcap file (bad magic)")),
    };
    let mut r = Reader {
        data,
        pos: 24,
        little_endian,
    };
    let mut trace = Trace::new();
    let mut stats = PcapStats::default();
    while r.remaining() > 0 {
        if r.remaining() < 16 {
            return Err(err("truncated record header"));
        }
        let _ts_sec = r.u32_file().unwrap();
        let _ts_frac = r.u32_file().unwrap();
        let incl_len = r.u32_file().unwrap() as usize;
        let _orig_len = r.u32_file().unwrap();
        let frame = r
            .take(incl_len)
            .ok_or_else(|| err("truncated record body"))?;
        match parse_frame(frame) {
            Some(p) => {
                trace.packets.push(p);
                stats.parsed += 1;
            }
            None => stats.skipped += 1,
        }
    }
    Ok((trace, stats))
}

/// Read a `.pcap` file from disk.
pub fn load(path: &Path) -> io::Result<(Trace, PcapStats)> {
    decode(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a pcap file in memory with the given frames.
    fn pcap(frames: &[Vec<u8>], little_endian: bool) -> Vec<u8> {
        let mut out = Vec::new();
        let magic: u32 = 0xa1b2c3d4;
        let push32 = |out: &mut Vec<u8>, v: u32| {
            out.extend_from_slice(&if little_endian {
                v.to_le_bytes()
            } else {
                v.to_be_bytes()
            })
        };
        push32(&mut out, magic);
        // version 2.4, zone 0, sigfigs 0, snaplen, linktype 1 (Ethernet)
        let push16 = |out: &mut Vec<u8>, v: u16| {
            out.extend_from_slice(&if little_endian {
                v.to_le_bytes()
            } else {
                v.to_be_bytes()
            })
        };
        push16(&mut out, 2);
        push16(&mut out, 4);
        push32(&mut out, 0);
        push32(&mut out, 0);
        push32(&mut out, 65535);
        push32(&mut out, 1);
        for f in frames {
            push32(&mut out, 0); // ts_sec
            push32(&mut out, 0); // ts_usec
            push32(&mut out, f.len() as u32);
            push32(&mut out, f.len() as u32);
            out.extend_from_slice(f);
        }
        out
    }

    /// A TCP/IPv4/Ethernet frame.
    fn tcp_frame(src: u32, dst: u32, sport: u16, dport: u16, payload: usize) -> Vec<u8> {
        let mut f = vec![0u8; 14];
        f[12] = 0x08; // IPv4
        let total_len = (20 + 20 + payload) as u16;
        let mut ip = vec![0u8; 20];
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&total_len.to_be_bytes());
        ip[8] = 64; // TTL
        ip[9] = 6; // TCP
        ip[12..16].copy_from_slice(&src.to_be_bytes());
        ip[16..20].copy_from_slice(&dst.to_be_bytes());
        f.extend_from_slice(&ip);
        let mut tcp = vec![0u8; 20];
        tcp[0..2].copy_from_slice(&sport.to_be_bytes());
        tcp[2..4].copy_from_slice(&dport.to_be_bytes());
        f.extend_from_slice(&tcp);
        f.resize(f.len() + payload, 0);
        f
    }

    #[test]
    fn parses_tcp_flows_both_endiannesses() {
        for le in [false, true] {
            let frames = vec![
                tcp_frame(0x0A000001, 0x0A000002, 1234, 80, 100),
                tcp_frame(0x0A000001, 0x0A000002, 1234, 80, 50),
            ];
            let bytes = pcap(&frames, le);
            let (trace, stats) = decode(&bytes).unwrap();
            assert_eq!(stats.parsed, 2, "le={le}");
            assert_eq!(stats.skipped, 0);
            assert_eq!(trace.packets[0].flow.src_ip, 0x0A000001);
            assert_eq!(trace.packets[0].flow.dst_port, 80);
            assert_eq!(trace.packets[0].flow.proto, 6);
            assert_eq!(trace.packets[0].weight, 140, "IP total length");
            assert_eq!(trace.distinct_flows(), 1);
        }
    }

    #[test]
    fn skips_non_ipv4() {
        let mut arp = vec![0u8; 42];
        arp[12] = 0x08;
        arp[13] = 0x06; // ARP
        let bytes = pcap(&[arp, tcp_frame(1, 2, 3, 4, 0)], false);
        let (trace, stats) = decode(&bytes).unwrap();
        assert_eq!(stats.parsed, 1);
        assert_eq!(stats.skipped, 1);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn vlan_tagged_frames_unwrap() {
        let inner = tcp_frame(5, 6, 7, 8, 10);
        // Insert a 4-byte 802.1Q tag after the MACs.
        let mut tagged = inner[..12].to_vec();
        tagged.extend_from_slice(&[0x81, 0x00, 0x00, 0x2A]);
        tagged.extend_from_slice(&inner[12..]);
        let (trace, stats) = decode(&pcap(&[tagged], false)).unwrap();
        assert_eq!(stats.parsed, 1);
        assert_eq!(trace.packets[0].flow.dst_port, 8);
    }

    #[test]
    fn fragments_keep_ips_zero_ports() {
        let mut frag = tcp_frame(9, 10, 11, 12, 0);
        // Set a non-zero fragment offset in the IP header (bytes 6-7
        // after the 14-byte Ethernet header).
        frag[14 + 6] = 0x00;
        frag[14 + 7] = 0x08;
        let (trace, stats) = decode(&pcap(&[frag], false)).unwrap();
        assert_eq!(stats.parsed, 1);
        assert_eq!(trace.packets[0].flow.src_port, 0);
        assert_eq!(trace.packets[0].flow.src_ip, 9);
    }

    #[test]
    fn rejects_non_pcap() {
        assert!(decode(b"definitely not a pcap file, sorry!").is_err());
        assert!(decode(&[0u8; 10]).is_err());
    }

    #[test]
    fn rejects_truncated_record() {
        let mut bytes = pcap(&[tcp_frame(1, 2, 3, 4, 0)], false);
        bytes.truncate(bytes.len() - 5);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn icmp_counts_with_zero_ports() {
        let mut f = tcp_frame(1, 2, 0, 0, 0);
        f[14 + 9] = 1; // ICMP
        let (trace, stats) = decode(&pcap(&[f], false)).unwrap();
        assert_eq!(stats.parsed, 1);
        assert_eq!(trace.packets[0].flow.proto, 1);
    }

    #[test]
    fn empty_capture_is_empty_trace() {
        let (trace, stats) = decode(&pcap(&[], false)).unwrap();
        assert!(trace.is_empty());
        assert_eq!(stats.parsed + stats.skipped, 0);
    }
}
