//! Lane-parallel Bob-hash kernels and cache-control shims for the
//! batched sketch hot path.
//!
//! [`bob_hash_13x8`] hashes a whole window of eight 13-byte 5-tuple
//! keys under one seed, bit-identically to eight calls of
//! [`crate::bob_hash_13`]. The portable implementation is plain Rust
//! over `[u32; 8]` lanes (independent per-lane arithmetic that LLVM
//! auto-vectorizes); with the `simd` feature enabled on x86-64 an
//! explicit AVX2 kernel is selected at runtime via
//! `is_x86_feature_detected!`, falling back to the portable path on
//! hosts without AVX2. Either way the scalar hash remains the oracle:
//! the kernels are tested bit-identical against it lane by lane, and
//! the sketch hot path asserts that identity before any timed run.
//!
//! The window width is fixed at [`LANES`] = 8 — one AVX2 register of
//! 32-bit lanes, and the same window the batched sketch update uses
//! for software pipelining. Callers with partial windows fill the
//! spare lanes with anything (commonly zeroes) and ignore those
//! outputs; hashing consumes no random state, so dead lanes cannot
//! perturb sketch contents.
//!
//! [`prefetch_read`] is the software-prefetch shim the sketch update
//! loop uses to pull candidate bucket cache lines into L1 one window
//! ahead of their use.

use crate::bob::mix;

/// Number of keys a lane-parallel kernel hashes per call: one AVX2
/// register of 32-bit lanes.
pub const LANES: usize = 8;

/// Jenkins' golden-ratio initialiser, identical to the scalar hash.
const GOLDEN: u32 = 0x9e37_79b9;

/// Transposed 32-bit words of up to [`LANES`] 13-byte keys.
///
/// The batched update transposes each window of keys once — four
/// little-endian words per key: bytes `0..4`, `4..8`, `8..12`, and the
/// zero-extended tail byte 12 — and then reuses the transposed form
/// across all `d` seeds, so the per-key byte shuffling is paid once
/// per window instead of once per `(key, seed)` pair.
#[derive(Debug, Clone, Copy)]
pub struct KeyWords8 {
    w0: [u32; LANES],
    w1: [u32; LANES],
    w2: [u32; LANES],
    tail: [u32; LANES],
}

impl KeyWords8 {
    /// A window with every lane holding the all-zero key.
    #[must_use]
    pub const fn zeroed() -> Self {
        Self {
            w0: [0; LANES],
            w1: [0; LANES],
            w2: [0; LANES],
            tail: [0; LANES],
        }
    }

    /// Load one 13-byte key into lane `lane & (LANES - 1)`.
    ///
    /// The lane index is masked rather than bounds-checked so the hot
    /// loop stays branch-free; callers enumerate window chunks of at
    /// most [`LANES`] keys, which a debug assertion pins.
    #[inline]
    pub fn set_lane(&mut self, lane: usize, key: &[u8; 13]) {
        debug_assert!(lane < LANES, "lane {lane} out of range");
        self.w0[lane & (LANES - 1)] = u32::from_le_bytes([key[0], key[1], key[2], key[3]]);
        self.w1[lane & (LANES - 1)] = u32::from_le_bytes([key[4], key[5], key[6], key[7]]);
        self.w2[lane & (LANES - 1)] = u32::from_le_bytes([key[8], key[9], key[10], key[11]]);
        self.tail[lane & (LANES - 1)] = u32::from(key[12]);
    }
}

impl Default for KeyWords8 {
    fn default() -> Self {
        Self::zeroed()
    }
}

/// Hash all [`LANES`] transposed keys under one `seed`.
///
/// Lane `i` of the result equals `bob_hash_13(key_i, seed)` exactly —
/// the kernels replicate the scalar mix arithmetic (wrapping adds and
/// subs, logical shifts) per 32-bit lane, so SIMD-built sketches place
/// keys identically to scalar-built ones.
///
/// Dispatch: with the `simd` feature on x86-64, the AVX2 kernel is
/// used when the CPU supports it (`is_x86_feature_detected!` caches
/// the CPUID probe, so the check is a load-and-branch per call);
/// otherwise the portable lane-loop below runs.
#[inline]
#[must_use]
pub fn bob_hash_13x8(words: &KeyWords8, seed: u32) -> [u32; LANES] {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 kernel's only precondition is that the
            // host supports AVX2, which the runtime probe just
            // established for this process.
            #[allow(unsafe_code)]
            return unsafe { avx2::hash13x8(words, seed) };
        }
    }
    portable13x8(words, seed)
}

/// Which kernel [`bob_hash_13x8`] dispatches to on this host/build:
/// `"avx2"` or `"portable"`. Reported by the throughput bench so the
/// recorded numbers say what they measured.
#[must_use]
pub fn backend() -> &'static str {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Portable lane-parallel kernel: the scalar [`mix`] applied to each
/// lane of the transposed window. Each iteration is independent, so
/// LLVM vectorizes the loops even without the `simd` feature; more
/// importantly, reusing the scalar `mix` makes bit-identity true by
/// construction.
#[inline]
fn portable13x8(words: &KeyWords8, seed: u32) -> [u32; LANES] {
    let mut a = [0u32; LANES];
    let mut b = [0u32; LANES];
    let mut c = [0u32; LANES];
    for (((a, b), c), ((&w0, &w1), &w2)) in a
        .iter_mut()
        .zip(b.iter_mut())
        .zip(c.iter_mut())
        .zip(words.w0.iter().zip(words.w1.iter()).zip(words.w2.iter()))
    {
        *a = GOLDEN.wrapping_add(w0);
        *b = GOLDEN.wrapping_add(w1);
        *c = seed.wrapping_add(w2);
    }
    mix8(&mut a, &mut b, &mut c);
    for ((a, c), &tail) in a.iter_mut().zip(c.iter_mut()).zip(words.tail.iter()) {
        *c = c.wrapping_add(13);
        *a = a.wrapping_add(tail);
    }
    mix8(&mut a, &mut b, &mut c);
    c
}

/// One scalar [`mix`] round per lane.
#[inline(always)]
fn mix8(a: &mut [u32; LANES], b: &mut [u32; LANES], c: &mut [u32; LANES]) {
    for ((a, b), c) in a.iter_mut().zip(b.iter_mut()).zip(c.iter_mut()) {
        let (x, y, z) = mix(*a, *b, *c);
        *a = x;
        *b = y;
        *c = z;
    }
}

/// Prefetch the cache line containing `p` for reading (T0 hint: pull
/// into every cache level). A no-op off x86-64.
///
/// Safe for any pointer, valid or not: `prefetcht0` is an
/// architectural hint that never faults and never reads architectural
/// state — at worst a bad address wastes one fill buffer.
#[allow(unsafe_code)]
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` has no memory-safety preconditions;
        // the instruction is a pure hint, documented to never fault
        // regardless of the address's validity or mapping.
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    //! Explicit AVX2 kernel: the same Jenkins mix, one `__m256i`
    //! register per 96-bit-state lane-set, eight keys per instruction.

    use super::{KeyWords8, GOLDEN, LANES};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_set1_epi32, _mm256_slli_epi32,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm256_sub_epi32, _mm256_xor_si256,
    };

    /// Eight-lane [`super::bob_hash_13x8`] over AVX2 registers.
    ///
    /// # Safety
    ///
    /// The host CPU must support AVX2; the dispatch site establishes
    /// this with `is_x86_feature_detected!("avx2")` before calling.
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn hash13x8(words: &KeyWords8, seed: u32) -> [u32; LANES] {
        // SAFETY: the four loads read 32 bytes each from `&[u32; 8]`
        // fields of `words`, which are live for the whole call;
        // `loadu` has no alignment requirement. The store writes 32
        // bytes into `out`, a local `[u32; 8]`. The intrinsics
        // themselves require AVX2, guaranteed by this fn's contract.
        unsafe {
            let golden = _mm256_set1_epi32(GOLDEN as i32);
            let mut a = _mm256_add_epi32(golden, _mm256_loadu_si256(words.w0.as_ptr().cast()));
            let mut b = _mm256_add_epi32(golden, _mm256_loadu_si256(words.w1.as_ptr().cast()));
            let mut c = _mm256_add_epi32(
                _mm256_set1_epi32(seed as i32),
                _mm256_loadu_si256(words.w2.as_ptr().cast()),
            );
            (a, b, c) = mix8(a, b, c);
            // Tail fold: length byte into c, trailing byte into a —
            // the same two adds as the scalar fast path.
            c = _mm256_add_epi32(c, _mm256_set1_epi32(13));
            a = _mm256_add_epi32(a, _mm256_loadu_si256(words.tail.as_ptr().cast()));
            (_, _, c) = mix8(a, b, c);
            let mut out = [0u32; LANES];
            _mm256_storeu_si256(out.as_mut_ptr().cast(), c);
            out
        }
    }

    /// Jenkins' 96-bit `mix`, eight lanes wide. `sub_epi32` wraps like
    /// `wrapping_sub`; `srli`/`slli` are the logical shifts of the
    /// scalar `u32` code, so each lane computes exactly [`crate::bob::mix`].
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mix8(mut a: __m256i, mut b: __m256i, mut c: __m256i) -> (__m256i, __m256i, __m256i) {
        a = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(a, b), c),
            _mm256_srli_epi32(c, 13),
        );
        b = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(b, c), a),
            _mm256_slli_epi32(a, 8),
        );
        c = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(c, a), b),
            _mm256_srli_epi32(b, 13),
        );
        a = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(a, b), c),
            _mm256_srli_epi32(c, 12),
        );
        b = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(b, c), a),
            _mm256_slli_epi32(a, 16),
        );
        c = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(c, a), b),
            _mm256_srli_epi32(b, 5),
        );
        a = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(a, b), c),
            _mm256_srli_epi32(c, 3),
        );
        b = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(b, c), a),
            _mm256_slli_epi32(a, 10),
        );
        c = _mm256_xor_si256(
            _mm256_sub_epi32(_mm256_sub_epi32(c, a), b),
            _mm256_srli_epi32(b, 15),
        );
        (a, b, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bob_hash_13;
    use crate::SplitMix64;

    fn random_key(rng: &mut SplitMix64) -> [u8; 13] {
        let mut k = [0u8; 13];
        let (lo, hi) = (rng.next_u64().to_le_bytes(), rng.next_u64().to_le_bytes());
        k[..8].copy_from_slice(&lo);
        k[8..13].copy_from_slice(&hi[..5]);
        k
    }

    /// Lane-by-lane bit-identity against the scalar oracle. Runs with
    /// whatever kernel the build/host dispatches to — under
    /// `--features simd` on an AVX2 host this exercises the AVX2
    /// path, otherwise the portable one.
    #[test]
    fn lanes_match_scalar_oracle() {
        let mut rng = SplitMix64::new(0xc0c0_13e8);
        for trial in 0..200u32 {
            let keys: Vec<[u8; 13]> = (0..LANES).map(|_| random_key(&mut rng)).collect();
            let mut words = KeyWords8::zeroed();
            for (lane, key) in keys.iter().enumerate() {
                words.set_lane(lane, key);
            }
            for seed in [0u32, 1, trial, 0x9e37_79b9, u32::MAX] {
                let got = bob_hash_13x8(&words, seed);
                for (lane, key) in keys.iter().enumerate() {
                    assert_eq!(
                        got[lane],
                        bob_hash_13(key, seed),
                        "trial {trial} lane {lane} seed {seed:#x}"
                    );
                }
            }
        }
    }

    /// The portable kernel is the oracle-shaped reference: check it
    /// explicitly too, so a dispatch bug cannot mask a portable bug.
    #[test]
    fn portable_matches_scalar_oracle() {
        let mut rng = SplitMix64::new(0x5eed_f00d);
        for _ in 0..200 {
            let keys: Vec<[u8; 13]> = (0..LANES).map(|_| random_key(&mut rng)).collect();
            let mut words = KeyWords8::zeroed();
            for (lane, key) in keys.iter().enumerate() {
                words.set_lane(lane, key);
            }
            let seed = rng.next_u64() as u32;
            let got = portable13x8(&words, seed);
            for (lane, key) in keys.iter().enumerate() {
                assert_eq!(got[lane], bob_hash_13(key, seed));
            }
        }
    }

    /// Partial windows: unset lanes hold the zero key and hash to the
    /// zero key's hash — they never contaminate the set lanes.
    #[test]
    fn unset_lanes_hash_the_zero_key() {
        let mut words = KeyWords8::zeroed();
        words.set_lane(0, &[0xab; 13]);
        let got = bob_hash_13x8(&words, 7);
        assert_eq!(got[0], bob_hash_13(&[0xab; 13], 7));
        for &unset in &got[1..] {
            assert_eq!(unset, bob_hash_13(&[0u8; 13], 7));
        }
    }

    /// Prefetch is a hint: callable on anything, including dangling
    /// and null pointers, without observable effect.
    #[test]
    fn prefetch_never_faults() {
        let x = 42u64;
        prefetch_read(&raw const x);
        prefetch_read(core::ptr::null::<u64>());
        prefetch_read(0xdead_beefusize as *const u8);
        assert_eq!(x, 42);
    }
}
