//! Packet identifiers and their byte encodings.

use std::fmt;
use std::net::Ipv4Addr;

/// Maximum encoded key length in bytes.
///
/// The widest key we support is the full 5-tuple: 4 (SrcIP) + 4 (DstIP) +
/// 2 (SrcPort) + 2 (DstPort) + 1 (proto) = 13 bytes; 16 leaves headroom
/// for experimental keys while keeping [`KeyBytes`] two machine words of
/// payload.
pub const MAX_KEY_BYTES: usize = 16;

/// A compact, fixed-capacity encoded flow key.
///
/// Sketches store these directly in their bucket arrays: the type is
/// `Copy`, compares by value, and exposes its bytes for hashing. The
/// length is part of the value, so keys produced by different
/// [`KeySpec`](crate::KeySpec)s of different widths never compare equal by
/// accident.
/// The layout is pinned to `#[repr(C)]` (17 bytes: length prefix then
/// payload) because sketch buckets embed the key directly and assert
/// their own size/alignment at compile time — see `Bucket` in
/// `cocosketch::basic`, which packs two `(KeyBytes, u64)` buckets per
/// 64-byte cache line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct KeyBytes {
    len: u8,
    buf: [u8; MAX_KEY_BYTES],
}

impl KeyBytes {
    /// An empty key (length 0) — the encoding of the "empty key" level in
    /// HHH hierarchies, and the `Default` bucket state in sketches.
    pub const EMPTY: KeyBytes = KeyBytes {
        len: 0,
        buf: [0; MAX_KEY_BYTES],
    };

    /// Build from a byte slice.
    ///
    /// # Panics
    /// Panics if `bytes.len() > MAX_KEY_BYTES`; key widths are decided by
    /// `KeySpec`s, which are all within bounds, so a violation is a
    /// programming error.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= MAX_KEY_BYTES,
            "key of {} bytes exceeds MAX_KEY_BYTES",
            bytes.len()
        );
        let mut buf = [0u8; MAX_KEY_BYTES];
        buf[..bytes.len()].copy_from_slice(bytes); // LINT: bounded(bytes.len() <= MAX_KEY_BYTES asserted above)
        Self {
            len: bytes.len() as u8,
            buf,
        }
    }

    /// The encoded bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len as usize] // LINT: bounded(len <= MAX_KEY_BYTES is the type invariant)
    }

    /// The key as one big-endian integer: byte 0 is the top byte.
    ///
    /// Bytes past [`len`](Self::len) are always zero (an invariant
    /// every constructor keeps, and which `PartialEq`/`Hash` — derived
    /// over the whole array — rely on), so for keys of one length the
    /// order of their words is the order of their bytes. The compiled
    /// projector and the query plane's group-by sort work on words.
    #[inline]
    pub fn word(&self) -> u128 {
        u128::from_be_bytes(self.buf)
    }

    /// The key of length `len` whose leading bytes are `word`'s top
    /// `len` bytes: the inverse of [`word`](Self::word). Bytes past
    /// `len` are zeroed, whatever `word` holds there.
    ///
    /// # Panics
    /// Panics if `len > MAX_KEY_BYTES`, like [`KeyBytes::new`].
    #[inline]
    pub fn from_word(word: u128, len: usize) -> Self {
        assert!(
            len <= MAX_KEY_BYTES,
            "key of {len} bytes exceeds MAX_KEY_BYTES"
        );
        let tail_bits = 8 * (MAX_KEY_BYTES - len) as u32;
        let keep = u128::MAX.checked_shl(tail_bits).unwrap_or(0);
        Self {
            len: len as u8,
            buf: (word & keep).to_be_bytes(),
        }
    }

    /// Encoded length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the zero-length key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for KeyBytes {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl fmt::Debug for KeyBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyBytes(")?;
        for b in self.as_slice() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// A packet's full flow identity: the classic 5-tuple.
///
/// IPs and ports are stored in host order; encodings are big-endian so
/// that IP prefixes are leading bits of the encoded bytes (which is what
/// makes prefix keys simple masks).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP, ...).
    pub proto: u8,
}

impl FiveTuple {
    /// Construct from parts.
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        }
    }

    /// Encode the complete 13-byte 5-tuple key.
    #[inline]
    pub fn encode(&self) -> KeyBytes {
        let mut buf = [0u8; MAX_KEY_BYTES];
        buf[0..4].copy_from_slice(&self.src_ip.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[4..8].copy_from_slice(&self.dst_ip.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[8..10].copy_from_slice(&self.src_port.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[10..12].copy_from_slice(&self.dst_port.to_be_bytes()); // LINT: bounded(constant range, MAX_KEY_BYTES = 16)
        buf[12] = self.proto;
        KeyBytes { len: 13, buf }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            Ipv4Addr::from(self.src_ip),
            self.src_port,
            Ipv4Addr::from(self.dst_ip),
            self.dst_port,
            self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_roundtrip_layout() {
        let ft = FiveTuple::new(0x0A000001, 0xC0A80001, 443, 51234, 6);
        let k = ft.encode();
        assert_eq!(k.len(), 13);
        assert_eq!(&k.as_slice()[0..4], &[0x0A, 0, 0, 1]);
        assert_eq!(&k.as_slice()[4..8], &[0xC0, 0xA8, 0, 1]);
        assert_eq!(&k.as_slice()[8..10], &443u16.to_be_bytes());
        assert_eq!(&k.as_slice()[10..12], &51234u16.to_be_bytes());
        assert_eq!(k.as_slice()[12], 6);
    }

    #[test]
    fn keybytes_equality_includes_length() {
        let a = KeyBytes::new(&[1, 2]);
        let b = KeyBytes::new(&[1, 2, 0]);
        assert_ne!(a, b, "same bytes, different length must differ");
    }

    #[test]
    fn empty_key() {
        assert!(KeyBytes::EMPTY.is_empty());
        assert_eq!(KeyBytes::default(), KeyBytes::EMPTY);
        assert_eq!(KeyBytes::EMPTY.as_slice(), &[] as &[u8]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_KEY_BYTES")]
    fn oversized_key_panics() {
        let _ = KeyBytes::new(&[0u8; MAX_KEY_BYTES + 1]);
    }

    #[test]
    fn display_is_human_readable() {
        let ft = FiveTuple::new(0x0A000001, 0x08080808, 1234, 53, 17);
        assert_eq!(ft.to_string(), "10.0.0.1:1234 -> 8.8.8.8:53 proto 17");
    }

    #[test]
    fn words_roundtrip_and_zero_the_tail() {
        let mut x = 0x5EED_u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for len in 0..=MAX_KEY_BYTES {
            for _ in 0..64 {
                let bytes: Vec<u8> = (0..len).map(|_| (next() >> 56) as u8).collect();
                let key = KeyBytes::new(&bytes);
                assert_eq!(KeyBytes::from_word(key.word(), key.len()), key);
                // Random low bytes never leak into the key.
                let word = u128::from(next()) << 64 | u128::from(next());
                let back = KeyBytes::from_word(word, len);
                assert_eq!(back.len(), len);
                assert_eq!(back.as_slice(), &word.to_be_bytes()[..len]);
                assert_eq!(back, KeyBytes::new(back.as_slice()), "tail zeroed");
            }
        }
        // Word order is byte order for keys of one length.
        let a = FiveTuple::new(1, 2, 3, 4, 6).encode();
        let b = FiveTuple::new(1, 2, 3, 5, 0).encode();
        assert!(a.as_slice() < b.as_slice() && a.word() < b.word());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_KEY_BYTES")]
    fn oversized_word_key_panics() {
        let _ = KeyBytes::from_word(0, MAX_KEY_BYTES + 1);
    }

    #[test]
    fn distinct_tuples_encode_distinct() {
        let a = FiveTuple::new(1, 2, 3, 4, 5).encode();
        let b = FiveTuple::new(1, 2, 3, 4, 6).encode();
        let c = FiveTuple::new(1, 2, 4, 3, 5).encode();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
