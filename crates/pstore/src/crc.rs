//! CRC-32 (IEEE 802.3 polynomial, reflected — zlib's `crc32`), implemented
//! in-repo to keep the dependency set to the approved list.
//!
//! Algorithm: table-driven *slicing-by-16* in four interleaved lanes. The
//! classic byte-at-a-time loop does one dependent table lookup per input
//! byte; sixteen 256-entry tables (`TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes) let one step fold sixteen input bytes with
//! sixteen independent lookups. One register still makes every step wait
//! for the last, so a long part is cut into [`LANES`] equal contiguous
//! quarters, each folded into its own register in the same loop: 64
//! independent lookups per iteration instead of 16.
//!
//! The lanes are joined by arithmetic in GF(2)\[x\]/P. A CRC register is
//! linear in its input: the register after `A‖B` is the register after `A`
//! shifted past `|B|` zero bytes, XOR the register of `B` folded from zero.
//! Shifting past `n` zero bytes is a multiply by `x^(8n) mod P`; a
//! compile-time table of `x^(8·2^k) mod P` ([`X8_POW2`]) builds that factor
//! in one carry-less multiply per set bit of `n`. Lane 0 starts from the
//! running register, the others from zero, and each join multiplies the
//! running register by the quarter's factor and XORs in the next lane.
//!
//! Parts shorter than [`CROSSOVER`], the tail under `16 · LANES` bytes of a
//! long part, and the tail under one step of every part fold in one lane on
//! the same running register, so a checksum streamed over several parts
//! equals the checksum of their concatenation however the bytes are split.
//!
//! Measured single-threaded (`taskset -c 0`, Intel Xeon, rustc 1.95,
//! release), one lane → four lanes: 64 KiB 33.2 → 12.9 µs, 4 KiB 2.05 →
//! 0.95 µs, 1 KiB 0.49 → 0.37 µs. At 64 KiB the other lane counts give
//! 2: 17.9, 3: 13.4, 5: 17.6, 6: 17.2, 8: 17.1 µs. The join (three
//! multiplies, plus one per set bit of the quarter's length) costs ≈ 170 ns,
//! so lanes break even near 768 bytes.
//!
//! Why not CRC-32C with the hardware instruction: every record and
//! checkpoint already on disk carries an IEEE checksum, and the stored format
//! stays as it is. The value computed here is bit-identical to the bytewise
//! loop slicing-by-16 replaced, which survives below as the test oracle.

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

/// Registers a long part is folded in at once. Four is the fastest count
/// measured (numbers in the module docs): fewer leave lookup slots idle,
/// more run out of registers.
const LANES: usize = 4;

/// Parts at least this long fold in [`LANES`] lanes. Below it the join's
/// multiplies cost more than the lanes save (break-even ≈ 768 bytes; at
/// 1 KiB lanes are 1.3× faster).
const CROSSOVER: usize = 1024;

/// `x^0` in the reflected representation: bit 31 holds the `x^0`
/// coefficient, bit 0 the `x^31` one.
const ONE: u32 = 1 << 31;

/// `a·b mod P` over GF(2), operands and result reflected.
const fn mul(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    let mut bit = 0;
    while bit < 32 {
        // `b` is the original `b·x^bit` here: add it when `a` has `x^bit`.
        p ^= b & 0u32.wrapping_sub((a >> (31 - bit)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        bit += 1;
    }
    p
}

/// `X8_POW2[k]` is `x^(8·2^k) mod P`: the factor that shifts a register
/// past `2^k` zero bytes. Each entry squares the one before.
#[expect(clippy::indexing_slicing, reason = "`k` runs over 1..t.len()")]
const X8_POW2: [u32; usize::BITS as usize] = {
    let mut t = [ONE >> 8; usize::BITS as usize]; // x^8
    let mut k = 1;
    while k < t.len() {
        t[k] = mul(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// `x^(8n) mod P`, the factor that shifts a register past `n` zero bytes:
/// one multiply per set bit of `n`.
fn zeros(n: usize) -> u32 {
    X8_POW2
        .iter()
        .enumerate()
        .filter(|&(k, _)| (n >> k) & 1 == 1)
        .fold(ONE, |acc, (_, &x)| mul(acc, x))
}

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

/// The register after `data` in one lane: step by step, then byte by byte.
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

/// The register after `body`, a whole number of steps per lane: each lane
/// folds its quarter (lane 0 from `c`, the others from zero), then the
/// running register is shifted past each next quarter and that lane's
/// register XOR-ed in.
fn fold_lanes(c: u32, body: &[u8]) -> u32 {
    let (steps, _) = body.as_chunks::<16>();
    let q = steps.len() / LANES;
    let mut lanes: [std::slice::Iter<'_, [u8; 16]>; LANES] =
        std::array::from_fn(|l| steps.get(l * q..(l + 1) * q).unwrap_or_default().iter());
    let mut regs = [0u32; LANES];
    regs[0] = c;
    for _ in 0..q {
        for (reg, lane) in regs.iter_mut().zip(&mut lanes) {
            if let Some(block) = lane.next() {
                *reg = step(*reg, block);
            }
        }
    }
    let shift = zeros(16 * q);
    regs.into_iter()
        .reduce(|c, lane| mul(c, shift) ^ lane)
        .unwrap_or(c)
}

/// CRC-32 of `data` (matches zlib's `crc32(0, data)`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_multi(&[data])
}

/// CRC-32 over the concatenation of several slices without copying.
pub fn crc32_multi(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let rest = if part.len() >= CROSSOVER {
            let (body, tail) = part.split_at(part.len() / (16 * LANES) * (16 * LANES));
            c = fold_lanes(c, body);
            tail
        } else {
            part
        };
        c = fold_one(c, rest);
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
    /// a fold path could start or stop: step (16), four-step (64), the 1 KiB
    /// and 4 KiB marks, a page (64 KiB) and 1 MiB, each with its neighbours.
    #[test]
    fn pinned_values_at_path_boundaries() {
        const PINNED: [(usize, u32); 19] = [
            (0, 0x0000_0000),
            (1, 0xD202_EF8D),
            (15, 0x20A6_F16E),
            (16, 0x7E9E_B03C),
            (17, 0xC410_BE78),
            (63, 0x6B53_518C),
            (64, 0x06D2_8C3E),
            (65, 0x806C_DF37),
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
        // and a 3-byte first part ahead of a long one.
        let page = &buf[..65_536 + 7];
        for cuts in [
            &[5000][..],
            &[16_384],
            &[60_000],
            &[3],
            &[1000, 40_000],
            &[16_384, 32_768, 49_152],
            &[3, 16_384, 60_000],
        ] {
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut from = 0;
            for &cut in cuts {
                parts.push(&page[from..cut]);
                from = cut;
            }
            parts.push(&page[from..]);
            assert_eq!(crc32_multi(&parts), 0xE697_429B, "cuts {cuts:?}");
        }
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

    #[test]
    fn equals_oracle_around_the_crossover_and_lane_multiples() {
        // ±80 bytes around where lanes start, and around whole four-lane
        // bodies of 4 KiB, 64 KiB and 64 KiB + 1 KiB; the start offset walks
        // with the length so the steps sit at every alignment.
        let buf = filler(65 * 1024 + 80 + 16);
        for centre in [
            CROSSOVER,
            16 * LANES * 64,
            16 * LANES * 1024,
            16 * LANES * 1040,
        ] {
            for len in centre - 80..=centre + 80 {
                let head = len % 16;
                let data = &buf[head..head + len];
                assert_eq!(crc32(data), crc32_bytewise(&[data]), "len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The join identity: A's register shifted past |B| zero bytes, XOR
        /// B's register folded from zero, is the register of A‖B.
        #[test]
        fn shift_joins_two_registers(
            alen in 0usize..4096,
            blen in 0usize..1 << 18,
            seed in any::<u32>(),
        ) {
            let ab = seeded_filler(alen + blen, seed);
            let (a, b) = ab.split_at(alen);
            let joined = mul(fold_one(!0, a), zeros(blen)) ^ fold_one(0, b);
            prop_assert_eq!(joined, fold_one(!0, &ab), "|A| {} |B| {}", alen, blen);
        }

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
