//! SHA-256 per FIPS 180-4: incremental and one-shot interfaces.
//!
//! Implemented from the specification; verified against the NIST example
//! vectors ("abc", the two-block message, the empty string, and a
//! million-'a' message), against an independently computed fold over every
//! message length 0..=300, and tested for incremental/one-shot equivalence.

/// Initial hash values (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding in one go: 0x80, zeros, then the 64-bit big-endian bit
        // length in the last 8 bytes. When fewer than 9 bytes are left
        // after the tail, the length spills into a second block.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Folds one 64-byte block into `state` (FIPS 180-4 §6.2.2).
///
/// All 64 rounds are unrolled by `round!`: the eight working variables
/// rotate by renaming the macro's arguments rather than by moving values,
/// and the message schedule is a 16-word ring that rounds 16..64 expand in
/// place as they consume it.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // The schedule word `W[i]`, three ways. Rounds 0..16 read the block;
    // later rounds compute `W[i-16] + σ0(W[i-15]) + W[i-7] + σ1(W[i-2])`
    // from the ring (indices mod 16) and store it over `W[i-16]`, except
    // that nothing reads `W[62]` and `W[63]` again, so they are not stored.
    macro_rules! block_word {
        ($i:expr) => {
            w[$i]
        };
    }
    macro_rules! final_word {
        ($i:expr) => {{
            let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
            w[$i & 15]
                .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                .wrapping_add(w[($i + 9) & 15])
                .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10))
        }};
    }
    macro_rules! ring_word {
        ($i:expr) => {{
            let next = final_word!($i);
            w[$i & 15] = next;
            next
        }};
    }
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $i:expr, $word:ident) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add(K[$i])
                .wrapping_add($word!($i));
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    // Eight rounds from `$i`, after which every variable is back in its
    // own role; the last two take their word from `$tail`.
    macro_rules! eight_rounds {
        ($i:expr, $word:ident, $tail:ident) => {
            round!(a, b, c, d, e, f, g, h, $i, $word);
            round!(h, a, b, c, d, e, f, g, $i + 1, $word);
            round!(g, h, a, b, c, d, e, f, $i + 2, $word);
            round!(f, g, h, a, b, c, d, e, $i + 3, $word);
            round!(e, f, g, h, a, b, c, d, $i + 4, $word);
            round!(d, e, f, g, h, a, b, c, $i + 5, $word);
            round!(c, d, e, f, g, h, a, b, $i + 6, $tail);
            round!(b, c, d, e, f, g, h, a, $i + 7, $tail);
        };
    }
    eight_rounds!(0, block_word, block_word);
    eight_rounds!(8, block_word, block_word);
    eight_rounds!(16, ring_word, ring_word);
    eight_rounds!(24, ring_word, ring_word);
    eight_rounds!(32, ring_word, ring_word);
    eight_rounds!(40, ring_word, ring_word);
    eight_rounds!(48, ring_word, ring_word);
    eight_rounds!(56, ring_word, final_word);

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of two digests (Merkle node hashing).
pub fn digest_pair(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::to_hex;

    #[test]
    fn nist_empty() {
        assert_eq!(
            to_hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            to_hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            to_hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_across_splits() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let want = digest(&data);
        for split in [0usize, 1, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
        // Byte-at-a-time.
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn sha256_every_length_fold() {
        // Every prefix length 0..=300 of a fixed pattern: each padding
        // boundary (55/56 and 119/120 bytes) with one and with two tail
        // blocks. The expected fold was computed with Python's hashlib, so
        // it does not trust this kernel.
        let data: Vec<u8> = (0..300usize).map(|i| ((i * 31 + 7) % 251) as u8).collect();
        let mut fold = Sha256::new();
        for n in 0..=data.len() {
            fold.update(&digest(&data[..n]));
        }
        assert_eq!(
            to_hex(&fold.finalize()),
            "3a9fcbf6bfd4421754cdc62d7b0a1a846bcd8fcaae5e64d29ca4bb3a3861610d"
        );
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of length 55, 56, 57, 63, 64 exercise the padding edges.
        for len in [55usize, 56, 57, 63, 64, 119, 120] {
            let data = vec![0xabu8; len];
            let d1 = digest(&data);
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), d1, "len {len}");
            // Different lengths yield different digests (sanity).
            assert_ne!(d1, digest(&vec![0xabu8; len + 1]));
        }
    }
}
