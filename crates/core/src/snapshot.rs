//! Wire format for flow tables (control-plane collection).
//!
//! In a deployment, data-plane devices periodically export their
//! recorded `(full key, size)` tables to a collector, which merges and
//! queries them. This module gives [`FlowTable`] a compact, versioned
//! binary encoding:
//!
//! ```text
//! magic    4 bytes  b"CFT1"
//! keyspec  5 bytes  src_bits u8 | dst_bits u8 | flags u8 (bit0 src_port,
//!                   bit1 dst_port, bit2 proto) | reserved u16
//! rows     u32 LE
//! row      (key_len bytes | u64 LE size) x rows
//! ```

use crate::query::FlowTable;
use std::io;
use traffic::{KeyBytes, KeySpec};

const MAGIC: &[u8; 4] = b"CFT1";

/// Encode a flow table for export.
pub fn encode(table: &FlowTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(table));
    encode_into(table, &mut out);
    out
}

/// Length in bytes of [`encode`]'s output for `table`.
pub(crate) fn encoded_len(table: &FlowTable) -> usize {
    13 + table.len() * (table.full_spec().encoded_len() + 8)
}

/// Append [`encode`]'s bytes to `out`.
pub(crate) fn encode_into(table: &FlowTable, out: &mut Vec<u8>) {
    let spec = table.full_spec();
    out.extend_from_slice(MAGIC);
    out.push(spec.src_ip_bits);
    out.push(spec.dst_ip_bits);
    out.push(u8::from(spec.src_port) | u8::from(spec.dst_port) << 1 | u8::from(spec.proto) << 2);
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for (key, size) in table.rows() {
        out.extend_from_slice(key.as_slice());
        out.extend_from_slice(&size.to_le_bytes());
    }
}

/// Decode an exported flow table.
pub fn decode(data: &[u8]) -> io::Result<FlowTable> {
    let err = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if data.len() < 13 {
        return Err(err("truncated header"));
    }
    if data.get(0..4) != Some(MAGIC.as_slice()) {
        return Err(err("bad magic"));
    }
    let spec = KeySpec {
        src_ip_bits: data[4],
        dst_ip_bits: data[5],
        src_port: data[6] & 1 != 0,
        dst_port: data[6] & 2 != 0,
        proto: data[6] & 4 != 0,
    };
    if spec.src_ip_bits > 32 || spec.dst_ip_bits > 32 {
        return Err(err("invalid key spec"));
    }
    let rows = u32::from_le_bytes([data[9], data[10], data[11], data[12]]) as usize;
    let key_len = spec.encoded_len();
    let row_len = key_len + 8;
    let body = &data[13..]; // LINT: bounded(data.len() >= 13 checked above)
                            // `rows` comes off the wire: the product must not wrap, or a huge
                            // row count with a tiny body passes the equality below and the
                            // reserve allocates against a fictitious length.
    let need = rows
        .checked_mul(row_len)
        .ok_or_else(|| err("row count overflows the row section"))?;
    if body.len() != need {
        return Err(err("row section length mismatch"));
    }
    let mut out = Vec::with_capacity(rows);
    for chunk in body.chunks_exact(row_len) {
        let key = KeyBytes::new(&chunk[..key_len]); // LINT: bounded(chunk.len() = row_len = key_len + 8 via chunks_exact)
                                                    // `chunks_exact(row_len)` guarantees exactly 8 size bytes here.
        let mut size = [0u8; 8];
        size.copy_from_slice(&chunk[key_len..]); // LINT: bounded(chunk.len() = row_len = key_len + 8 via chunks_exact)
        let size = u64::from_le_bytes(size);
        out.push((key, size));
    }
    Ok(FlowTable::new(spec, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::FiveTuple;

    fn table() -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        let rows = (0..100u32)
            .map(|i| {
                (
                    full.project(&FiveTuple::new(i, i * 2, 80, 443, 6)),
                    u64::from(i) * 7 + 1,
                )
            })
            .collect();
        FlowTable::new(full, rows)
    }

    #[test]
    fn roundtrip_preserves_rows_and_spec() {
        let t = table();
        let bytes = encode(&t);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.full_spec(), t.full_spec());
        assert_eq!(back.rows(), t.rows());
    }

    #[test]
    fn roundtrip_narrow_spec() {
        let spec = KeySpec::src_prefix(24);
        let rows = vec![(spec.project(&FiveTuple::new(0x0A0B0C0D, 0, 0, 0, 0)), 42)];
        let t = FlowTable::new(spec, rows);
        let back = decode(&encode(&t)).unwrap();
        assert_eq!(back.full_spec(), &spec);
        assert_eq!(back.total(), 42);
    }

    #[test]
    fn queries_survive_the_wire() {
        let t = table();
        let back = decode(&encode(&t)).unwrap();
        let a = t.query_partial(&KeySpec::SRC_IP);
        let b = back.query_partial(&KeySpec::SRC_IP);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&table());
        bytes[0] ^= 0xFF;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_rows() {
        let bytes = encode(&table());
        assert!(decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode(&bytes[..6]).is_err());
    }

    #[test]
    fn rejects_invalid_spec() {
        let mut bytes = encode(&table());
        bytes[4] = 77; // src_ip_bits > 32
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn every_truncation_point_errs() {
        // The epoch envelope trusts this decoder to be total: any prefix
        // of a valid encoding must return Err, never panic.
        let bytes = encode(&table());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
    }

    #[test]
    fn garbage_never_panics() {
        use hashkit::XorShift64Star;
        let mut rng = XorShift64Star::new(0xC0DE);
        for len in 0..200usize {
            let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            let _ = decode(&data); // must return, Ok or Err — not panic
        }
        for len in 0..200usize {
            let mut data: Vec<u8> = MAGIC.to_vec();
            data.extend((0..len).map(|_| (rng.next_u64() & 0xFF) as u8));
            let _ = decode(&data);
        }
    }

    #[test]
    fn huge_row_count_errs() {
        let mut bytes = encode(&table());
        bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn empty_table_roundtrips() {
        let t = FlowTable::new(KeySpec::SRC_IP, vec![]);
        let back = decode(&encode(&t)).unwrap();
        assert!(back.is_empty());
    }
}
