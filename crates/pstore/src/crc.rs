//! CRC-32 (IEEE 802.3 polynomial, reflected — zlib's `crc32`), implemented
//! in-repo to keep the dependency set to the approved list.
//!
//! Algorithm for long parts on x86_64: carry-less-multiply folding, from
//! Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ Instruction" (Intel, 2009), in its bit-reflected form. Four
//! 128-bit lanes start as the first 64 bytes, the running register XOR-ed
//! into the lowest. Each further 64-byte line moves every lane 512 bits
//! forward (two PCLMULQDQs, by `x^(512+32)` and `x^(512-32)` mod P) and
//! XORs in the lane's next 16 bytes. The lanes then fold into one, and
//! every remaining 16-byte step into it, the same way by `x^(128±32)`. The
//! 128-bit remainder folds to 64 bits, then by `x^64` to 32 bits, and a
//! Barrett reduction by `μ = x^64 div P` leaves the register. The
//! constants (`clmul::{K512, K128, K64, BARRETT}`) are the paper's
//! for the reflected IEEE polynomial (Linux's `crc32-pclmul_asm.S` uses
//! the same); `tests::fold_constants_are_powers_of_x_mod_p` derives each
//! one from P.
//!
//! Every other part (shorter than 64 bytes, or any part on a CPU without
//! PCLMULQDQ and SSE4.1 or on another architecture) and the tail under
//! 16 bytes of a long part fold with table-driven *slicing-by-16* on the
//! same running register, so a checksum streamed over several parts equals
//! the checksum of their concatenation however the bytes are split.
//! Sixteen 256-entry tables (`TABLES[k][b]` is the CRC of byte `b` followed
//! by `k` zero bytes) let one step fold sixteen input bytes with sixteen
//! independent lookups.
//!
//! Measured single-threaded (`taskset -c 0`, 2-vCPU Intel Xeon VM, rustc
//! 1.95, release; `cargo bench --bench micro -- crc32/`, medians of two
//! runs), against the four slicing-by-16 lanes joined by a GF(2) shift
//! that the fold replaced:
//!
//! | size | four table lanes | fold |
//! |---|---|---|
//! | 4 KiB | 1.05–1.12 µs | 0.18 µs |
//! | 64 KiB | 14.0–14.4 µs | 2.8 µs |
//! | 1 MiB | 241–259 µs | 44.5 µs |
//!
//! Right after a 256 KiB copy (a page fetched from disk has just been
//! copied) the table lanes took ≈ 30 µs a page and the fold ≈ 3.5 µs: the
//! tables fall out of L1, and the fold reads none. A host without the fold
//! pays one slicing-by-16 lane: 38.7–40.6 µs per 64 KiB on the same VM
//! (33.2 µs when the lanes were measured).
//!
//! No VPCLMULQDQ / AVX-512 variant: at ≈ 3 µs a 64 KiB page, the checksums
//! of a 256 KiB cold read are ≈ 6–9 % of it (`live_read_cold`'s
//! `client.read_cold_ns` ≈ 150–200 µs), so folding twice as wide would
//! save little and add a second unsafe dispatch.
//!
//! Why not CRC-32C with the hardware instruction: every record and
//! checkpoint already on disk carries an IEEE checksum, and the stored format
//! stays as it is. Both paths are bit-identical to the bytewise loop
//! slicing-by-16 replaced, which survives below as the test oracle.

const POLY: u32 = 0xEDB8_8320;

/// `BYTE[b]`: the CRC register after shifting byte `b` through it (the
/// classic one-table CRC; `TABLES[0]` at run time).
#[expect(
    clippy::indexing_slicing,
    reason = "every subscript is masked to its table's size (`& 0xFF` of 256, `& 0xF` of 16)"
)]
const BYTE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[i & 0xFF] = c;
        i += 1;
    }
    t
};

/// `TABLES[k][b]`: the register after byte `b` and then `k` zero bytes.
#[expect(
    clippy::indexing_slicing,
    reason = "every subscript is masked to its table's size (`& 0xFF` of 256, `& 0xF` of 16)"
)]
static TABLES: [[u32; 256]; 16] = {
    let mut t = [BYTE; 16];
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[(k - 1) & 0xF][i & 0xFF];
            t[k & 0xF][i & 0xFF] = BYTE[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// One slicing-by-16 step: the register after `block`.
#[expect(
    clippy::indexing_slicing,
    reason = "every subscript is `& 0xFF` into a 256-entry table"
)]
#[inline(always)]
fn step(c: u32, block: &[u8; 16]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let lane = |t: &[u32; 256], word: u32, shift: u32| t[((word >> shift) & 0xFF) as usize];
    let w = u128::from_le_bytes(*block);
    let a = w as u32 ^ c;
    let b = (w >> 32) as u32;
    let d = (w >> 64) as u32;
    let e = (w >> 96) as u32;
    lane(t15, a, 0)
        ^ lane(t14, a, 8)
        ^ lane(t13, a, 16)
        ^ lane(t12, a, 24)
        ^ lane(t11, b, 0)
        ^ lane(t10, b, 8)
        ^ lane(t9, b, 16)
        ^ lane(t8, b, 24)
        ^ lane(t7, d, 0)
        ^ lane(t6, d, 8)
        ^ lane(t5, d, 16)
        ^ lane(t4, d, 24)
        ^ lane(t3, e, 0)
        ^ lane(t2, e, 8)
        ^ lane(t1, e, 16)
        ^ lane(t0, e, 24)
}

/// The register after `data` by table: step by step, then byte by byte.
#[expect(
    clippy::indexing_slicing,
    reason = "every subscript is `& 0xFF` into a 256-entry table"
)]
fn fold_one(mut c: u32, data: &[u8]) -> u32 {
    let (steps, tail) = data.as_chunks::<16>();
    for block in steps {
        c = step(c, block);
    }
    for &byte in tail {
        c = TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply fold and its constants (x86_64 only).
#[cfg(target_arch = "x86_64")]
mod clmul {
    /// `(x^(512-32), x^(512+32))` mod P, bit-reflected and shifted left by one
    /// (the high and low halves of the multiplier a 64-byte line folds by).
    pub(super) const K512: (i64, i64) = (0x1_C6E4_1596, 0x1_5444_2BD4);
    /// `(x^(128-32), x^(128+32))` mod P, in the same form.
    pub(super) const K128: (i64, i64) = (0x0_CCAA_009E, 0x1_7519_97D0);
    /// `x^64 mod P`, in the same form.
    pub(super) const K64: i64 = 0x1_63CD_6124;
    /// `(μ, P)` for the Barrett reduction: `x^64 div P` and P, bit-reflected
    /// with the `x^32` term kept.
    pub(super) const BARRETT: (i64, i64) = (0x1_F701_1641, 0x1_DB71_0641);

    /// The register after `data`: its 16-byte steps by carry-less
    /// multiplication, the byte tail (and all of a part under 64 bytes) by
    /// table. Outside a function that enables both features, the call is
    /// `unsafe`: the CPU must have them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(c: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::{
            __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
            _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
        };
        let load = |block: &[u8; 16]| {
            let w = u128::from_le_bytes(*block);
            _mm_set_epi64x((w >> 64) as i64, w as i64)
        };
        // The lane moved past 128 (`k` = K128) or 512 (`k` = K512) more bits.
        let forward = |x: __m128i, k: __m128i| {
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(x, k),
                _mm_clmulepi64_si128::<0x11>(x, k),
            )
        };
        let k512 = _mm_set_epi64x(K512.0, K512.1);
        let k128 = _mm_set_epi64x(K128.0, K128.1);

        let (steps, tail) = data.as_chunks::<16>();
        let (lines, rest) = steps.as_chunks::<4>();
        let Some(([b0, b1, b2, b3], lines)) = lines.split_first() else {
            return super::fold_one(c, data);
        };
        let mut lanes = [
            _mm_xor_si128(load(b0), _mm_cvtsi32_si128(c as i32)),
            load(b1),
            load(b2),
            load(b3),
        ];
        for line in lines {
            for (lane, block) in lanes.iter_mut().zip(line) {
                *lane = _mm_xor_si128(forward(*lane, k512), load(block));
            }
        }
        let [l0, l1, l2, l3] = lanes;
        let mut x = [l1, l2, l3]
            .into_iter()
            .fold(l0, |x, lane| _mm_xor_si128(forward(x, k128), lane));
        for block in rest {
            x = _mm_xor_si128(forward(x, k128), load(block));
        }

        // 128 → 64 bits: the low half moves past the high one (by x^(128-32),
        // which also appends the 32 zero bits the register needs).
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k128),
            _mm_srli_si128::<8>(x),
        );
        // 64 → 32 bits, then Barrett: the low word of `x` times μ, truncated,
        // times P, cancels all but the remainder's 32 bits.
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K64)),
            _mm_srli_si128::<4>(x),
        );
        let barrett = _mm_set_epi64x(BARRETT.0, BARRETT.1);
        let q = _mm_and_si128(
            _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett),
            low32,
        );
        let x = _mm_xor_si128(x, _mm_clmulepi64_si128::<0x00>(q, barrett));
        super::fold_one(_mm_extract_epi32::<1>(x) as u32, tail)
    }
}

/// The register after `part`: by carry-less multiplication when the CPU
/// has it, by table otherwise.
fn fold(c: u32, part: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        #[expect(
            unsafe_code,
            reason = "the one call into the CPU-specific fold, after detection"
        )]
        // SAFETY: `clmul::fold` enables exactly the two features detected above.
        return unsafe { clmul::fold(c, part) };
    }
    fold_one(c, part)
}

/// CRC-32 of `data` (matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_multi(&[data])
}

/// CRC-32 over the concatenation of several slices without copying.
pub(crate) fn crc32_multi(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |c, part| fold(c, part))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32_multi` used to be: the oracle.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// `crc32_multi` with every part on the table path: the fallback a
    /// host without the fold runs, which this one never sends a long part.
    fn crc32_table(parts: &[&[u8]]) -> u32 {
        !parts.iter().fold(!0, |c, part| fold_one(c, part))
    }

    /// The dispatching path and the table path: each oracle test wants
    /// `(want, want)`.
    fn both(parts: &[&[u8]]) -> (u32, u32) {
        (crc32_multi(parts), crc32_table(parts))
    }

    /// Deterministic non-repeating filler.
    fn filler(len: usize) -> Vec<u8> {
        seeded_filler(len, 0)
    }

    /// `filler` started `seed` bytes further along its sequence.
    fn seeded_filler(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_add(seed).wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    /// Literal values (zlib's `crc32` of `filler(len)`) at every length where
    /// a fold path could start or stop: step (16), four-step (64), one and
    /// two 64-byte lines with 16-byte steps and byte tails after them, the
    /// 1 KiB and 4 KiB marks, a page (64 KiB) and 1 MiB, each with its
    /// neighbours.
    #[test]
    fn pinned_values_at_path_boundaries() {
        const PINNED: [(usize, u32); 27] = [
            (0, 0x0000_0000),
            (1, 0xD202_EF8D),
            (15, 0x20A6_F16E),
            (16, 0x7E9E_B03C),
            (17, 0xC410_BE78),
            (63, 0x6B53_518C),
            (64, 0x06D2_8C3E),
            (65, 0x806C_DF37),
            (79, 0xAC0A_5FAF),
            (80, 0x8B1D_D8C5),
            (81, 0x1E85_85C0),
            (112, 0x2B93_A456),
            (127, 0x37FD_09FD),
            (128, 0x3F8D_91A4),
            (129, 0x89E3_CC01),
            (143, 0xBCE5_75BE),
            (1023, 0xBC3E_07D3),
            (1024, 0x7B02_7FD9),
            (1025, 0xD514_29EB),
            (4095, 0xF0FB_D39A),
            (4096, 0x3D27_0474),
            (4097, 0x4B36_9933),
            (65_535, 0x9465_5158),
            (65_536, 0xA627_5846),
            (65_537, 0x64C2_E5E8),
            (1 << 20, 0x1589_87C5),
            ((1 << 20) + 13, 0x5360_E84C),
        ];
        let buf = filler((1 << 20) + 13);
        for (len, want) in PINNED {
            assert_eq!(crc32(&buf[..len]), want, "len {len}");
        }
        // One 64 KiB + 7 input cut into 2–4 parts: inside the first quarter,
        // on quarter boundaries (16 KiB multiples), inside the last quarter,
        // a 3-byte first part ahead of a long one, short parts on either
        // side of the 64-byte mark ahead of a long one, and a long part
        // followed by a short one.
        let page = &buf[..65_536 + 7];
        for cuts in [
            &[5000][..],
            &[16_384],
            &[60_000],
            &[3],
            &[15],
            &[63],
            &[64],
            &[15, 79],
            &[63, 65_536],
            &[100, 65_490],
            &[1000, 40_000],
            &[16_384, 32_768, 49_152],
            &[3, 16_384, 60_000],
        ] {
            assert_eq!(crc32_multi(&cut(page, cuts)), 0xE697_429B, "cuts {cuts:?}");
        }
        // The put path's shape: key length, value length, an 18-byte page
        // key, then a 4 KiB or a 64 KiB value.
        for (value, want) in [(4096, 0x3AEE_BB23), (65_536, 0xB9B5_665B)] {
            let record = &buf[..26 + value];
            assert_eq!(
                crc32_multi(&cut(record, &[4, 8, 26])),
                want,
                "value {value}"
            );
        }
    }

    /// `data` split at each of `cuts` (ascending offsets).
    fn cut<'a>(data: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
        let mut parts = Vec::new();
        let mut from = 0;
        for &at in cuts {
            parts.push(&data[from..at]);
            from = at;
        }
        parts.push(&data[from..]);
        parts
    }

    #[test]
    fn multi_equals_concat() {
        let whole = crc32(b"hello world");
        let parts = crc32_multi(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let before = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(before, crc32(&data));
    }

    /// Each constant the fold multiplies by, derived from P: `x^n mod P`
    /// (or `x^64 div P`) in the normal bit order, then reflected.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_powers_of_x_mod_p() {
        use super::clmul::{BARRETT, K128, K512, K64};
        const P: u64 = 0x1_04C1_1DB7;
        let x_mod_p = |n: u32| {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r >> 32 & 1 == 1 {
                    r ^ P
                } else {
                    r
                }
            })
        };
        let k = |n: u32| i64::from((x_mod_p(n) as u32).reverse_bits()) << 1;
        assert_eq!(K512, (k(512 - 32), k(512 + 32)));
        assert_eq!(K128, (k(128 - 32), k(128 + 32)));
        assert_eq!(K64, k(64));
        // x^64 div P by long division; 33-bit values reflect as 33 bits.
        let mut rem = 1u128 << 64;
        let mut mu = 0u64;
        while let Some(shift @ 0..) = (127 - rem.leading_zeros()).checked_sub(32) {
            mu |= 1 << shift;
            rem ^= u128::from(P) << shift;
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(BARRETT, (reflect33(mu), reflect33(P)));
    }

    #[test]
    fn equals_oracle_at_every_length_and_alignment() {
        let buf = filler(4096 + 17 + 16);
        // Every length 0..=4 KiB+17; the start offset walks 0..16 once per
        // 16 lengths, so every (offset, length mod 16) pair occurs.
        for len in 0..=4096 + 17 {
            let head = (len / 16) % 16;
            let data = &buf[head..head + len];
            let want = crc32_bytewise(&[data]);
            assert_eq!(both(&[data]), (want, want), "len {len} head {head}");
        }
        // Every head/tail alignment of one long input.
        for head in 0..16 {
            for tail in 0..16 {
                let data = &buf[head..buf.len() - tail];
                let want = crc32_bytewise(&[data]);
                assert_eq!(both(&[data]), (want, want), "head {head} tail {tail}");
            }
        }
    }

    #[test]
    fn equals_oracle_over_every_split_of_short_inputs() {
        // Every way to cut the input into up to 4 parts (empty parts
        // included): cuts land inside, at and around a 16-byte step, and
        // the longer inputs leave a part on either side of the 64-byte
        // mark where the fold starts.
        for len in [0usize, 1, 15, 16, 17, 33, 40, 64, 81] {
            let data = filler(len);
            let want = crc32_bytewise(&[&data]);
            for a in 0..=len {
                for b in a..=len {
                    for c in b..=len {
                        let parts = [&data[..a], &data[a..b], &data[b..c], &data[c..]];
                        assert_eq!(both(&parts), (want, want), "len {len} cuts {a},{b},{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn equals_oracle_around_the_fold_boundaries() {
        // ±80 bytes around where the fold starts (64), and around whole
        // 64-byte lines of 4 KiB, 64 KiB and 64 KiB + 1 KiB; the start offset
        // walks with the length so the steps sit at every alignment.
        let buf = filler(65 * 1024 + 80 + 16);
        for centre in [80, 4096, 65_536, 66_560] {
            for len in centre - 80..=centre + 80 {
                let head = len % 16;
                let data = &buf[head..head + len];
                let want = crc32_bytewise(&[data]);
                assert_eq!(both(&[data]), (want, want), "len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn equals_oracle_over_long_random_lengths_and_splits(
            len in 0usize..256 * 1024,
            seed in any::<u32>(),
            cuts in (any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let data = seeded_filler(len, seed);
            let mut at = [cuts.0, cuts.1, cuts.2].map(|c| c as usize % (len + 1));
            at.sort_unstable();
            let want = crc32_bytewise(&[&data]);
            for n in 0..=3usize {
                let parts = cut(&data, &at[..n]);
                prop_assert_eq!(both(&parts), (want, want), "len {} cuts {:?}", len, &at[..n]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn equals_oracle_over_random_lengths_and_splits(
            buf in prop::collection::vec(any::<u8>(), 16..4096 + 18 + 16),
            head in any::<u8>(),
            cuts in (any::<u16>(), any::<u16>(), any::<u16>()),
        ) {
            let data = &buf[head as usize % 16..];
            let len = data.len();
            let mut at = [cuts.0, cuts.1, cuts.2].map(|c| c as usize % (len + 1));
            at.sort_unstable();
            let want = crc32_bytewise(&[data]);
            // 1, 2, 3 and 4 parts: the first n-1 cuts, the rest as one part.
            for n in 0..=3usize {
                let parts = cut(data, &at[..n]);
                prop_assert_eq!(both(&parts), (want, want), "len {} cuts {:?}", len, &at[..n]);
            }
        }
    }
}
