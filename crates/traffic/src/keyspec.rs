//! Key specifications and the partial-key mapping `g(·)`.
//!
//! A [`KeySpec`] names one *key* in the paper's sense: a subset of the
//! 5-tuple fields, where the two IP fields may additionally be truncated
//! to a prefix. `KeySpec::FIVE_TUPLE` is the usual full key; `SrcIP/24` or
//! `(SrcIP, DstIP)` are partial keys of it.
//!
//! Definition 1 of the paper requires, for `k_P ≺ k_F`, a mapping `g` from
//! full-key flows to partial-key flows such that sizes aggregate. Here
//! `g` is [`KeySpec::project`] (from a [`FiveTuple`]) or
//! [`KeySpec::project_key`] (from an encoded full key): drop the fields
//! the partial key omits and mask the IPs to the prefix length.

use crate::key::{FiveTuple, KeyBytes, MAX_KEY_BYTES};
use std::fmt;

/// Mask keeping the top `bits` of a 32-bit value.
#[inline]
fn prefix_mask(bits: u8) -> u32 {
    debug_assert!(bits <= 32);
    if bits == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(bits))
    }
}

/// A measurement key: which 5-tuple fields participate, and at what IP
/// prefix granularity.
///
/// `src_ip_bits`/`dst_ip_bits` of 0 mean the field is absent; 1–32 keep
/// that many leading bits. Ports and protocol are either present or not.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KeySpec {
    /// Leading bits of the source IP included in the key (0 = absent).
    pub src_ip_bits: u8,
    /// Leading bits of the destination IP included in the key (0 = absent).
    pub dst_ip_bits: u8,
    /// Whether the source port participates.
    pub src_port: bool,
    /// Whether the destination port participates.
    pub dst_port: bool,
    /// Whether the protocol number participates.
    pub proto: bool,
}

impl KeySpec {
    /// The classic 104-bit 5-tuple (the paper's default full key).
    pub const FIVE_TUPLE: KeySpec = KeySpec {
        src_ip_bits: 32,
        dst_ip_bits: 32,
        src_port: true,
        dst_port: true,
        proto: true,
    };
    /// (SrcIP, DstIP) pair.
    pub const SRC_DST: KeySpec = KeySpec {
        src_ip_bits: 32,
        dst_ip_bits: 32,
        src_port: false,
        dst_port: false,
        proto: false,
    };
    /// (SrcIP, SrcPort) pair.
    pub const SRC_IP_PORT: KeySpec = KeySpec {
        src_ip_bits: 32,
        dst_ip_bits: 0,
        src_port: true,
        dst_port: false,
        proto: false,
    };
    /// (DstIP, DstPort) pair.
    pub const DST_IP_PORT: KeySpec = KeySpec {
        src_ip_bits: 0,
        dst_ip_bits: 32,
        src_port: false,
        dst_port: true,
        proto: false,
    };
    /// Source IP alone.
    pub const SRC_IP: KeySpec = KeySpec {
        src_ip_bits: 32,
        dst_ip_bits: 0,
        src_port: false,
        dst_port: false,
        proto: false,
    };
    /// Destination IP alone.
    pub const DST_IP: KeySpec = KeySpec {
        src_ip_bits: 0,
        dst_ip_bits: 32,
        src_port: false,
        dst_port: false,
        proto: false,
    };
    /// The empty key: every packet maps to the single empty-key flow
    /// (the root level of HHH hierarchies).
    pub const EMPTY: KeySpec = KeySpec {
        src_ip_bits: 0,
        dst_ip_bits: 0,
        src_port: false,
        dst_port: false,
        proto: false,
    };

    /// The six partial keys evaluated throughout §7 of the paper, in the
    /// order they are added as "number of keys" grows from 1 to 6.
    pub const PAPER_SIX: [KeySpec; 6] = [
        KeySpec::FIVE_TUPLE,
        KeySpec::SRC_DST,
        KeySpec::SRC_IP_PORT,
        KeySpec::DST_IP_PORT,
        KeySpec::SRC_IP,
        KeySpec::DST_IP,
    ];

    /// Source-IP prefix key of the given length (1..=32).
    pub const fn src_prefix(bits: u8) -> KeySpec {
        KeySpec {
            src_ip_bits: bits,
            dst_ip_bits: 0,
            src_port: false,
            dst_port: false,
            proto: false,
        }
    }

    /// (SrcIP/a, DstIP/b) two-dimensional prefix key.
    pub const fn src_dst_prefix(src_bits: u8, dst_bits: u8) -> KeySpec {
        KeySpec {
            src_ip_bits: src_bits,
            dst_ip_bits: dst_bits,
            src_port: false,
            dst_port: false,
            proto: false,
        }
    }

    /// Encoded key width in bytes under this spec.
    ///
    /// IP fields always occupy 4 bytes when present (masked, not packed),
    /// so the same spec always produces the same width.
    pub fn encoded_len(&self) -> usize {
        let mut n = 0usize;
        if self.src_ip_bits > 0 {
            n += 4;
        }
        if self.dst_ip_bits > 0 {
            n += 4;
        }
        if self.src_port {
            n += 2;
        }
        if self.dst_port {
            n += 2;
        }
        if self.proto {
            n += 1;
        }
        n
    }

    /// The paper charges memory per bucket by key width; this is the
    /// number of key bytes a hardware bucket for this spec stores.
    pub fn key_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// The mapping `g(·)`: project a packet's 5-tuple onto this key.
    #[inline]
    pub fn project(&self, ft: &FiveTuple) -> KeyBytes {
        let mut buf = [0u8; MAX_KEY_BYTES];
        let mut n = 0usize;
        if self.src_ip_bits > 0 {
            let v = ft.src_ip & prefix_mask(self.src_ip_bits);
            buf[n..n + 4].copy_from_slice(&v.to_be_bytes()); // LINT: bounded(n tracks encoded_len() <= MAX_KEY_BYTES = buf.len())
            n += 4;
        }
        if self.dst_ip_bits > 0 {
            let v = ft.dst_ip & prefix_mask(self.dst_ip_bits);
            buf[n..n + 4].copy_from_slice(&v.to_be_bytes()); // LINT: bounded(n tracks encoded_len() <= MAX_KEY_BYTES = buf.len())
            n += 4;
        }
        if self.src_port {
            buf[n..n + 2].copy_from_slice(&ft.src_port.to_be_bytes()); // LINT: bounded(n tracks encoded_len() <= MAX_KEY_BYTES = buf.len())
            n += 2;
        }
        if self.dst_port {
            buf[n..n + 2].copy_from_slice(&ft.dst_port.to_be_bytes()); // LINT: bounded(n tracks encoded_len() <= MAX_KEY_BYTES = buf.len())
            n += 2;
        }
        if self.proto {
            buf[n] = ft.proto; // LINT: bounded(n tracks encoded_len() <= MAX_KEY_BYTES = buf.len())
            n += 1;
        }
        KeyBytes::new(&buf[..n]) // LINT: bounded(n = encoded_len() <= MAX_KEY_BYTES = buf.len())
    }

    /// Decode a key encoded under this spec back into a [`FiveTuple`]
    /// with absent fields zeroed.
    ///
    /// # Panics
    /// Panics if `key` does not have this spec's [`encoded_len`].
    ///
    /// [`encoded_len`]: KeySpec::encoded_len
    pub fn decode(&self, key: &KeyBytes) -> FiveTuple {
        assert_eq!(
            key.len(),
            self.encoded_len(),
            "key width {} does not match spec {:?}",
            key.len(),
            self
        );
        let b = key.as_slice();
        let mut n = 0usize;
        let mut ft = FiveTuple::default();
        if self.src_ip_bits > 0 {
            ft.src_ip = u32::from_be_bytes(b[n..n + 4].try_into().unwrap());
            n += 4;
        }
        if self.dst_ip_bits > 0 {
            ft.dst_ip = u32::from_be_bytes(b[n..n + 4].try_into().unwrap());
            n += 4;
        }
        if self.src_port {
            ft.src_port = u16::from_be_bytes(b[n..n + 2].try_into().unwrap());
            n += 2;
        }
        if self.dst_port {
            ft.dst_port = u16::from_be_bytes(b[n..n + 2].try_into().unwrap());
            n += 2;
        }
        if self.proto {
            ft.proto = b[n];
        }
        ft
    }

    /// Project a key recorded under `full` down to this (partial) spec.
    ///
    /// This is `g(·)` applied at query time to the full keys a sketch has
    /// recorded. The caller must ensure `self.is_partial_of(full)`.
    ///
    /// One-shot convenience over [`KeySpec::projector`]: compiles the
    /// projection plan and applies it once. Query loops that project
    /// many keys under the same `(full, partial)` pair should compile
    /// the [`Projector`] once and reuse it instead.
    #[inline]
    pub fn project_key(&self, full: &KeySpec, key: &KeyBytes) -> KeyBytes {
        debug_assert!(
            self.is_partial_of(full),
            "{self:?} is not partial of {full:?}"
        );
        assert_eq!(
            key.len(),
            full.encoded_len(),
            "key width {} does not match spec {:?}",
            key.len(),
            full
        );
        self.projector(full).project(key)
    }

    /// Compile the projection `g(·)` from `full`-encoded keys down to
    /// this (partial) spec: a shift-and-mask plan over the key's
    /// [`word`](KeyBytes::word), built once per `(full, partial)` pair
    /// and applied per key with no [`FiveTuple`] decode, no allocation,
    /// and no branching over the spec structure.
    ///
    /// # Panics
    /// Panics unless `self.is_partial_of(full)`.
    pub fn projector(&self, full: &KeySpec) -> Projector {
        assert!(
            self.is_partial_of(full),
            "{self:?} is not a partial key of {full:?}"
        );
        let keep = |on: bool, mask: u32| if on { mask } else { 0 };
        // Per field, in encoding order: its width in bytes, whether the
        // full key carries it, and the bits of it this key keeps (0 when
        // this key drops the field).
        let fields: [(u32, bool, u32); RUNS] = [
            (4, full.src_ip_bits > 0, prefix_mask(self.src_ip_bits)),
            (4, full.dst_ip_bits > 0, prefix_mask(self.dst_ip_bits)),
            (2, full.src_port, keep(self.src_port, 0xFFFF)),
            (2, full.dst_port, keep(self.dst_port, 0xFFFF)),
            (1, full.proto, keep(self.proto, 0xFF)),
        ];
        let mut shifts = [0u32; RUNS];
        let mut masks = [0u128; RUNS];
        // `at` walks the full key's byte offsets, `n` this key's. A kept
        // field moves from `at` up to `n <= at`: a left shift of the word.
        let (mut at, mut n) = (0u32, 0u32);
        for ((width, in_full, kept), (shift, mask)) in fields
            .into_iter()
            .zip(shifts.iter_mut().zip(masks.iter_mut()))
        {
            if kept != 0 {
                *shift = 8 * (at - n);
                *mask = u128::from(kept) << (128 - 8 * (n + width));
                n += width;
            }
            if in_full {
                at += width;
            }
        }
        debug_assert_eq!(n as usize, self.encoded_len());
        Projector {
            full_len: full.encoded_len() as u8,
            out_len: n as u8,
            shifts,
            masks,
        }
    }

    /// Upper bound, in bits, on the number of distinct keys this spec
    /// can produce: the sum of the participating field widths. A /8
    /// source-prefix key has at most 2^8 values no matter how many
    /// flows were recorded — query result maps are sized accordingly.
    pub fn cardinality_bits(&self) -> u32 {
        u32::from(self.src_ip_bits)
            + u32::from(self.dst_ip_bits)
            + if self.src_port { 16 } else { 0 }
            + if self.dst_port { 16 } else { 0 }
            + if self.proto { 8 } else { 0 }
    }

    /// The partial-key relation `self ≺ other` (non-strict: every key is a
    /// partial key of itself).
    ///
    /// Holds iff every field of `self` is derivable from `other`: present
    /// fields are present there, and prefixes are no longer than the full
    /// key's.
    pub fn is_partial_of(&self, other: &KeySpec) -> bool {
        self.src_ip_bits <= other.src_ip_bits
            && self.dst_ip_bits <= other.dst_ip_bits
            && (!self.src_port || other.src_port)
            && (!self.dst_port || other.dst_port)
            && (!self.proto || other.proto)
    }
}

/// Fields of a 5-tuple key, and so the most runs a [`Projector`] has.
const RUNS: usize = 5;

/// A compiled projection plan from one key encoding to another — the
/// query-plane hot path of `g(·)`.
///
/// [`KeySpec::projector`] lowers a `(full, partial)` spec pair into one
/// run per field of the 5-tuple: output word `|=` (input word `<<`
/// shift) `&` mask, over the keys' big-endian
/// [`word`](KeyBytes::word)s. A field the partial key keeps moves up
/// past the fields it drops, so its shift is 8 × the bytes dropped
/// before it, and its mask keeps its prefix bits at their new place; a
/// dropped field's run has mask 0. Applying the plan is five fixed
/// shift-and-mask steps on one `u128` — branch-free over the spec
/// structure and allocation-free — so a query scan pays per row a few
/// integer operations, not a [`FiveTuple`] decode/re-encode round trip.
/// Every mask lies inside the output length, so projected words keep
/// [`KeyBytes`]'s zero tail.
#[derive(Clone, Copy, Debug)]
pub struct Projector {
    full_len: u8,
    out_len: u8,
    shifts: [u32; RUNS],
    masks: [u128; RUNS],
}

impl Projector {
    /// Width of the keys this plan consumes.
    #[inline]
    pub fn full_len(&self) -> usize {
        usize::from(self.full_len)
    }

    /// Width of the keys this plan produces.
    #[inline]
    pub fn out_len(&self) -> usize {
        usize::from(self.out_len)
    }

    /// Project a full key's [`word`](KeyBytes::word) to the partial
    /// key's word: [`project`](Self::project) without the key wrapper,
    /// for callers that sort and group words directly.
    #[inline]
    pub fn project_word(&self, word: u128) -> u128 {
        self.shifts
            .iter()
            .zip(&self.masks)
            .fold(0, |out, (&shift, &mask)| out | ((word << shift) & mask))
    }

    /// Project `key` into the caller-owned `out`, overwriting it.
    ///
    /// `out` may be any scratch [`KeyBytes`] (typically reused across a
    /// whole scan); its previous length and contents are irrelevant.
    #[inline]
    pub fn project_into(&self, key: &KeyBytes, out: &mut KeyBytes) {
        debug_assert_eq!(
            key.len(),
            self.full_len(),
            "key width does not match the projector's full-key spec"
        );
        *out = KeyBytes::from_word(self.project_word(key.word()), self.out_len());
    }

    /// Project `key` into a fresh [`KeyBytes`].
    #[inline]
    // LINT: hot
    pub fn project(&self, key: &KeyBytes) -> KeyBytes {
        let mut out = KeyBytes::EMPTY;
        self.project_into(key, &mut out);
        out
    }

    /// True when this projection is monotone under lexicographic byte
    /// order: `a <= b` implies `project(a) <= project(b)`, so projecting
    /// a sorted key sequence yields a sorted sequence and equal outputs
    /// sit adjacent.
    ///
    /// That holds exactly when the plan keeps a leading run of the
    /// input's bits in place: every kept field stays where it was
    /// (shift 0), and the kept bits together form one high-bit prefix
    /// of the word — then projection is the floor function onto that
    /// bit prefix, which is order-preserving. Prefix hierarchies over a
    /// common field order (e.g. SrcIP/32 → SrcIP/24) qualify;
    /// field-reordering projections (e.g. (SrcIP, DstIP) → DstIP) do
    /// not.
    pub fn preserves_order(&self) -> bool {
        let mut kept = 0u128;
        for (&shift, &mask) in self.shifts.iter().zip(&self.masks) {
            if mask != 0 && shift != 0 {
                return false;
            }
            kept |= mask;
        }
        kept.leading_ones() + kept.trailing_zeros() == 128
    }
}

impl fmt::Display for KeySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        match self.src_ip_bits {
            0 => {}
            32 => parts.push("SrcIP".into()),
            b => parts.push(format!("SrcIP/{b}")),
        }
        match self.dst_ip_bits {
            0 => {}
            32 => parts.push("DstIP".into()),
            b => parts.push(format!("DstIP/{b}")),
        }
        if self.src_port {
            parts.push("SrcPort".into());
        }
        if self.dst_port {
            parts.push("DstPort".into());
        }
        if self.proto {
            parts.push("Proto".into());
        }
        if parts.is_empty() {
            write!(f, "(empty)")
        } else {
            write!(f, "({})", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> FiveTuple {
        FiveTuple::new(0xC0A80A01, 0x08080404, 32000, 443, 6)
    }

    #[test]
    fn five_tuple_projection_matches_encode() {
        assert_eq!(KeySpec::FIVE_TUPLE.project(&ft()), ft().encode());
    }

    #[test]
    fn encoded_lengths() {
        assert_eq!(KeySpec::FIVE_TUPLE.encoded_len(), 13);
        assert_eq!(KeySpec::SRC_DST.encoded_len(), 8);
        assert_eq!(KeySpec::SRC_IP_PORT.encoded_len(), 6);
        assert_eq!(KeySpec::DST_IP_PORT.encoded_len(), 6);
        assert_eq!(KeySpec::SRC_IP.encoded_len(), 4);
        assert_eq!(KeySpec::EMPTY.encoded_len(), 0);
        assert_eq!(KeySpec::src_prefix(24).encoded_len(), 4);
    }

    #[test]
    fn prefix_projection_masks_low_bits() {
        let k = KeySpec::src_prefix(24).project(&ft());
        assert_eq!(k.as_slice(), &[0xC0, 0xA8, 0x0A, 0x00]);
        let k8 = KeySpec::src_prefix(8).project(&ft());
        assert_eq!(k8.as_slice(), &[0xC0, 0, 0, 0]);
    }

    #[test]
    fn partial_relation() {
        for spec in KeySpec::PAPER_SIX {
            assert!(spec.is_partial_of(&KeySpec::FIVE_TUPLE), "{spec}");
            assert!(KeySpec::EMPTY.is_partial_of(&spec));
        }
        assert!(!KeySpec::FIVE_TUPLE.is_partial_of(&KeySpec::SRC_DST));
        assert!(KeySpec::src_prefix(8).is_partial_of(&KeySpec::src_prefix(24)));
        assert!(!KeySpec::src_prefix(24).is_partial_of(&KeySpec::src_prefix(8)));
        assert!(!KeySpec::SRC_IP_PORT.is_partial_of(&KeySpec::SRC_DST));
    }

    #[test]
    fn decode_roundtrip_zeroes_absent_fields() {
        let spec = KeySpec::SRC_IP_PORT;
        let k = spec.project(&ft());
        let back = spec.decode(&k);
        assert_eq!(back.src_ip, ft().src_ip);
        assert_eq!(back.src_port, ft().src_port);
        assert_eq!(back.dst_ip, 0);
        assert_eq!(back.dst_port, 0);
        assert_eq!(back.proto, 0);
    }

    #[test]
    fn project_key_composes_with_project() {
        // g_{P←F}(g_F(pkt)) == g_P(pkt) for all paper keys.
        let full = KeySpec::FIVE_TUPLE;
        let fk = full.project(&ft());
        for part in KeySpec::PAPER_SIX {
            assert_eq!(part.project_key(&full, &fk), part.project(&ft()), "{part}");
        }
        // And through an intermediate key: SrcIP/8 ≺ SrcIP ≺ 5-tuple.
        let mid = KeySpec::SRC_IP;
        let p8 = KeySpec::src_prefix(8);
        let via_mid = p8.project_key(&mid, &mid.project_key(&full, &fk));
        assert_eq!(via_mid, p8.project(&ft()));
    }

    #[test]
    fn empty_spec_maps_everything_to_one_flow() {
        let a = KeySpec::EMPTY.project(&ft());
        let b = KeySpec::EMPTY.project(&FiveTuple::new(1, 2, 3, 4, 5));
        assert_eq!(a, b);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match spec")]
    fn decode_rejects_wrong_width() {
        let k = KeySpec::SRC_IP.project(&ft());
        let _ = KeySpec::SRC_DST.decode(&k);
    }

    #[test]
    fn projector_matches_project_key_for_all_pairs() {
        // The compiled plan and the decode/re-encode reference agree on
        // every (full, partial) pair drawn from the paper keys and a
        // sweep of prefix specs.
        let mut specs: Vec<KeySpec> = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        specs.extend((1..=32).map(KeySpec::src_prefix));
        specs.extend([
            KeySpec::src_dst_prefix(12, 20),
            KeySpec::src_dst_prefix(8, 8),
        ]);
        let flows = [
            ft(),
            FiveTuple::new(0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 255),
            FiveTuple::new(0, 0, 0, 0, 0),
            FiveTuple::new(0xDEADBEEF, 0x01020304, 7, 65000, 17),
        ];
        for full in &specs {
            for part in &specs {
                if !part.is_partial_of(full) {
                    continue;
                }
                let proj = part.projector(full);
                assert_eq!(proj.full_len(), full.encoded_len());
                assert_eq!(proj.out_len(), part.encoded_len());
                for flow in &flows {
                    let fk = full.project(flow);
                    let via_decode = part.project(&full.decode(&fk));
                    assert_eq!(proj.project(&fk), via_decode, "{part} ≺ {full}");
                }
            }
        }
    }

    /// Every spec with a partial of each field of `full`: IP prefixes
    /// 0..=its own, ports and protocol on or off where it has them.
    fn lattice(full: &KeySpec) -> Vec<KeySpec> {
        let mut specs = Vec::new();
        for src_ip_bits in 0..=full.src_ip_bits {
            for dst_ip_bits in 0..=full.dst_ip_bits {
                for flags in 0..8u8 {
                    let spec = KeySpec {
                        src_ip_bits,
                        dst_ip_bits,
                        src_port: flags & 1 != 0,
                        dst_port: flags & 2 != 0,
                        proto: flags & 4 != 0,
                    };
                    if spec.is_partial_of(full) {
                        specs.push(spec);
                    }
                }
            }
        }
        specs
    }

    /// `keys` seeded keys of `full`, with every field drawn at random.
    fn seeded_keys(full: &KeySpec, keys: usize, seed: u64) -> Vec<KeyBytes> {
        let mut x = seed;
        (0..keys)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = x.rotate_left(29) ^ x;
                full.project(&FiveTuple::new(
                    (x >> 32) as u32,
                    y as u32,
                    (x >> 8) as u16,
                    (y >> 40) as u16,
                    (x >> 3) as u8,
                ))
            })
            .collect()
    }

    /// The word plan and the decode/re-encode reference agree on every
    /// spec of `full`'s lattice, for `keys` seeded keys each.
    fn check_word_projection(full: &KeySpec, keys: usize) -> usize {
        let specs = lattice(full);
        let keys = seeded_keys(full, keys, 0xC0C0 ^ u64::from(full.src_ip_bits));
        for spec in &specs {
            let proj = spec.projector(full);
            for key in &keys {
                let via_word = KeyBytes::from_word(proj.project_word(key.word()), proj.out_len());
                assert_eq!(
                    via_word,
                    spec.project(&full.decode(key)),
                    "{spec} of {full}"
                );
            }
        }
        specs.len()
    }

    #[test]
    fn word_projection_matches_decode_over_the_five_tuple_lattice() {
        assert_eq!(check_word_projection(&KeySpec::FIVE_TUPLE, 64), 33 * 33 * 8);
    }

    #[test]
    fn word_projection_matches_decode_under_narrower_full_keys() {
        assert_eq!(check_word_projection(&KeySpec::SRC_DST, 16), 33 * 33);
        assert_eq!(check_word_projection(&KeySpec::src_prefix(24), 16), 25);
    }

    #[test]
    fn projector_scratch_reuse_restores_zero_tail() {
        // A wide projection followed by a narrower one into the same
        // scratch key must not leave stale bytes that break equality.
        let full = KeySpec::FIVE_TUPLE;
        let fk = full.project(&ft());
        let mut scratch = KeyBytes::EMPTY;
        KeySpec::SRC_DST
            .projector(&full)
            .project_into(&fk, &mut scratch);
        assert_eq!(scratch, KeySpec::SRC_DST.project(&ft()));
        KeySpec::src_prefix(8)
            .projector(&full)
            .project_into(&fk, &mut scratch);
        assert_eq!(scratch, KeySpec::src_prefix(8).project(&ft()));
        KeySpec::EMPTY
            .projector(&full)
            .project_into(&fk, &mut scratch);
        assert_eq!(scratch, KeyBytes::EMPTY);
    }

    #[test]
    #[should_panic(expected = "not a partial key")]
    fn projector_rejects_non_partial() {
        let _ = KeySpec::SRC_DST.projector(&KeySpec::SRC_IP_PORT);
    }

    #[test]
    fn preserves_order_classifies_and_holds() {
        let full = KeySpec::FIVE_TUPLE;
        // Leading-prefix plans: prefix hierarchies and identity.
        for (part, of) in [
            (KeySpec::src_prefix(24), KeySpec::SRC_IP),
            (KeySpec::src_prefix(9), full),
            (KeySpec::SRC_IP, KeySpec::SRC_DST),
            (full, full),
            (KeySpec::EMPTY, full),
        ] {
            assert!(part.projector(&of).preserves_order(), "{part} ≺ {of}");
        }
        // Field-reordering plans are not monotone.
        for (part, of) in [
            (KeySpec::DST_IP, full),
            (KeySpec::DST_IP, KeySpec::SRC_DST),
            (KeySpec::DST_IP_PORT, full),
        ] {
            assert!(!part.projector(&of).preserves_order(), "{part} ≺ {of}");
        }
        // The claimed invariant, exhaustively on a sorted key sample:
        // projection of a sorted sequence stays sorted.
        let proj = KeySpec::src_prefix(11).projector(&KeySpec::SRC_IP);
        let mut keys: Vec<KeyBytes> = (0..4096u32)
            .map(|i| {
                KeySpec::SRC_IP.project(&FiveTuple::new(i.wrapping_mul(0x9E3779B9), 0, 0, 0, 0))
            })
            .collect();
        keys.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
        let projected: Vec<KeyBytes> = keys.iter().map(|k| proj.project(k)).collect();
        assert!(projected
            .windows(2)
            .all(|w| w[0].as_slice() <= w[1].as_slice()));
    }

    #[test]
    fn cardinality_bits_counts_fields() {
        assert_eq!(KeySpec::EMPTY.cardinality_bits(), 0);
        assert_eq!(KeySpec::src_prefix(8).cardinality_bits(), 8);
        assert_eq!(KeySpec::SRC_DST.cardinality_bits(), 64);
        assert_eq!(KeySpec::FIVE_TUPLE.cardinality_bits(), 104);
        assert_eq!(KeySpec::SRC_IP_PORT.cardinality_bits(), 48);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            KeySpec::FIVE_TUPLE.to_string(),
            "(SrcIP,DstIP,SrcPort,DstPort,Proto)"
        );
        assert_eq!(KeySpec::src_prefix(24).to_string(), "(SrcIP/24)");
        assert_eq!(KeySpec::EMPTY.to_string(), "(empty)");
    }
}
