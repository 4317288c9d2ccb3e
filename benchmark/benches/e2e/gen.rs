//! Seeded input generators. Everything the program under test sees is made
//! here from `--seed`; the same seed gives byte-identical inputs.

/// SplitMix64: tiny, fast, and owned by the benchmark so that a change to the
/// repo's `rand` shim cannot silently change the inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)` — one per client or purpose.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checksum used by every output check: wrapping sum of little-endian u64
/// words (a short tail is zero-padded). Runs at memory speed, and sums of
/// adjacent ranges add, so expected values come from a prefix table.
pub fn word_sum(data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(8);
    let mut s = 0u64;
    for c in &mut chunks {
        s = s.wrapping_add(u64::from_le_bytes(c.try_into().unwrap()));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        s = s.wrapping_add(u64::from_le_bytes(w));
    }
    s
}

/// Granularity of read offsets and of the expected-checksum table.
pub const BLOCK: u64 = 4096;

/// Position-dependent blob content for the read workloads: word `i` of the
/// blob is `mix(seed + i)`, so any misplaced, stale or torn range changes
/// the checksum.
pub struct BlobContent {
    seed: u64,
    /// `prefix[b]` = word_sum of blocks `[0, b)`.
    prefix: Vec<u64>,
}

impl BlobContent {
    pub fn new(seed: u64, total_bytes: u64) -> BlobContent {
        assert_eq!(total_bytes % BLOCK, 0);
        let blocks = total_bytes / BLOCK;
        let mut prefix = Vec::with_capacity(blocks as usize + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        let words_per_block = BLOCK / 8;
        for b in 0..blocks {
            let base = seed.wrapping_add(b * words_per_block);
            for w in 0..words_per_block {
                acc = acc.wrapping_add(mix(base.wrapping_add(w)));
            }
            prefix.push(acc);
        }
        BlobContent { seed, prefix }
    }

    /// The bytes of `[offset, offset+len)`; both multiples of 8.
    pub fn bytes(&self, offset: u64, len: u64) -> Vec<u8> {
        assert!(offset.is_multiple_of(8) && len.is_multiple_of(8));
        let mut out = Vec::with_capacity(len as usize);
        let first = offset / 8;
        for w in first..first + len / 8 {
            out.extend_from_slice(&mix(self.seed.wrapping_add(w)).to_le_bytes());
        }
        out
    }

    /// Expected [`word_sum`] of `[offset, offset+len)`; both multiples of
    /// [`BLOCK`].
    pub fn expected_sum(&self, offset: u64, len: u64) -> u64 {
        assert!(offset.is_multiple_of(BLOCK) && len.is_multiple_of(BLOCK));
        let (lo, hi) = ((offset / BLOCK) as usize, ((offset + len) / BLOCK) as usize);
        self.prefix[hi].wrapping_sub(self.prefix[lo])
    }
}

/// Header of one append record: magic, writer, sequence, length, and the
/// word_sum of the fill that follows — enough to find every record in the
/// read-back and prove it whole, once, and unmixed.
pub const RECORD_HEADER: usize = 40;
const RECORD_MAGIC: u64 = 0xB10B_5EE8_A99E_4D01;

/// One append payload of exactly `len` bytes (`len >= RECORD_HEADER`, a
/// multiple of 8): header + fill seeded by `(seed, writer, seq)`.
pub fn append_record(seed: u64, writer: u64, seq: u64, len: usize) -> Vec<u8> {
    assert!(len >= RECORD_HEADER && len.is_multiple_of(8));
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&[0u8; RECORD_HEADER]);
    let base = mix(seed ^ mix(writer.wrapping_mul(0x1_0000_0001).wrapping_add(seq)));
    let mut fill_sum = 0u64;
    for w in 0..((len - RECORD_HEADER) / 8) as u64 {
        let v = mix(base.wrapping_add(w));
        fill_sum = fill_sum.wrapping_add(v);
        out.extend_from_slice(&v.to_le_bytes());
    }
    for (i, v) in [RECORD_MAGIC, writer, seq, len as u64, fill_sum]
        .into_iter()
        .enumerate()
    {
        out[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parse and verify the record at the head of `data`: returns
/// `(writer, seq, len)` when the header is well-formed, the record fits and
/// its fill matches both the header checksum and the generator.
pub fn check_record(seed: u64, data: &[u8]) -> Option<(u64, u64, usize)> {
    if data.len() < RECORD_HEADER {
        return None;
    }
    let field = |i: usize| u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap());
    if field(0) != RECORD_MAGIC {
        return None;
    }
    let (writer, seq, len, fill_sum) = (field(1), field(2), field(3) as usize, field(4));
    if len < RECORD_HEADER || len > data.len() || len % 8 != 0 {
        return None;
    }
    if word_sum(&data[RECORD_HEADER..len]) != fill_sum {
        return None;
    }
    // The header checksum proves the record is whole; regenerating the first
    // and last fill words proves it is *this* (writer, seq)'s record and not
    // a consistent record from elsewhere.
    let base = mix(seed ^ mix(writer.wrapping_mul(0x1_0000_0001).wrapping_add(seq)));
    let words = ((len - RECORD_HEADER) / 8) as u64;
    if words > 0 {
        let word_at = |w: u64| {
            let at = RECORD_HEADER + w as usize * 8;
            u64::from_le_bytes(data[at..at + 8].try_into().unwrap())
        };
        if word_at(0) != mix(base) || word_at(words - 1) != mix(base.wrapping_add(words - 1)) {
            return None;
        }
    }
    Some((writer, seq, len))
}

/// Zipf-distributed text over a synthetic vocabulary, newline every
/// `words_per_line` words. Word `r` (rank from 0) is `w<r in base 36>`, so
/// the vocabulary needs no table and a count can be checked by rank.
pub struct ZipfText {
    /// Cumulative probabilities by rank.
    cdf: Vec<f64>,
}

impl ZipfText {
    pub fn new(vocabulary: usize) -> ZipfText {
        let mut cdf = Vec::with_capacity(vocabulary);
        let mut acc = 0.0;
        for r in 1..=vocabulary {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfText { cdf }
    }

    /// At least `bytes` bytes of text ending in a newline.
    pub fn generate(&self, rng: &mut Rng, bytes: usize) -> String {
        const WORDS_PER_LINE: usize = 12;
        let mut out = String::with_capacity(bytes + 128);
        let mut in_line = 0;
        while out.len() < bytes || in_line != 0 {
            let u = rng.unit_f64();
            let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
            out.push('w');
            push_base36(&mut out, rank as u64);
            in_line += 1;
            if in_line == WORDS_PER_LINE {
                out.push('\n');
                in_line = 0;
            } else {
                out.push(' ');
            }
        }
        out
    }
}

fn push_base36(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 13];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b"0123456789abcdefghijklmnopqrstuvwxyz"[(n % 36) as usize];
        n /= 36;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(
            append_record(7, 1, 42, 16384),
            append_record(7, 1, 42, 16384)
        );
        assert_ne!(
            append_record(7, 1, 42, 16384),
            append_record(8, 1, 42, 16384)
        );
        assert_ne!(
            append_record(7, 1, 42, 16384),
            append_record(7, 0, 42, 16384)
        );
        assert_ne!(
            append_record(7, 1, 42, 16384),
            append_record(7, 1, 43, 16384)
        );

        let (a, b, c) = (
            BlobContent::new(7, 1 << 20),
            BlobContent::new(7, 1 << 20),
            BlobContent::new(8, 1 << 20),
        );
        assert_eq!(a.bytes(8192, 65536), b.bytes(8192, 65536));
        assert_ne!(a.bytes(8192, 65536), c.bytes(8192, 65536));

        let z = ZipfText::new(1000);
        let text = |seed| z.generate(&mut Rng::lane(seed, 0), 10_000);
        assert_eq!(text(7), text(7));
        assert_ne!(text(7), text(8));
        assert!(text(7).ends_with('\n') && text(7).len() >= 10_000);
    }

    #[test]
    fn expected_sum_matches_generated_bytes() {
        let c = BlobContent::new(99, 1 << 20);
        for (off, len) in [(0, 4096), (4096 * 3, 4096 * 17), (0, 1 << 20)] {
            assert_eq!(word_sum(&c.bytes(off, len)), c.expected_sum(off, len));
        }
    }

    #[test]
    fn records_verify_and_damage_is_caught() {
        let rec = append_record(5, 1, 9, 16384);
        assert_eq!(check_record(5, &rec), Some((1, 9, 16384)));
        // Wrong seed, a flipped fill byte, a truncated record, a record whose
        // tail belongs to another writer: all rejected.
        assert_eq!(check_record(6, &rec), None);
        let mut bad = rec.clone();
        bad[9000] ^= 1;
        assert_eq!(check_record(5, &bad), None);
        assert_eq!(check_record(5, &rec[..16000]), None);
        let other = append_record(5, 0, 9, 16384);
        let mut mixed = rec.clone();
        mixed[8192..].copy_from_slice(&other[8192..]);
        assert_eq!(check_record(5, &mixed), None);
    }

    #[test]
    fn word_sum_handles_tails_and_adds_over_ranges() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4099).collect();
        let whole = word_sum(&data[..4096]);
        assert_eq!(
            whole,
            word_sum(&data[..1024]).wrapping_add(word_sum(&data[1024..4096]))
        );
        assert_ne!(word_sum(&data), whole);
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut r = Rng::lane(1, 0);
        for n in [1u64, 2, 7, 1 << 40] {
            for _ in 0..100 {
                assert!(r.below(n) < n);
            }
        }
    }
}
