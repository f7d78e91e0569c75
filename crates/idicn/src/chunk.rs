//! Content chunking and piece digests (Metalink-style).
//!
//! Metalink describes a download by its total digest plus per-piece digests
//! so clients can verify partial transfers — exactly what a resuming mobile
//! client (§6.3) needs: after resuming mid-object it can still verify every
//! piece it fetched.

use crate::crypto::sha256::digest;
use crate::crypto::Digest;

/// Piece-wise digests of one content object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedDigests {
    /// Digest over the full content.
    pub full: Digest,
    /// Piece size in bytes (the final piece may be shorter).
    pub piece_size: usize,
    /// One digest per piece, in order.
    pub pieces: Vec<Digest>,
}

impl ChunkedDigests {
    /// Computes digests for `content` with the given `piece_size`.
    ///
    /// # Panics
    /// Panics if `piece_size == 0`.
    pub fn compute(content: &[u8], piece_size: usize) -> Self {
        assert!(piece_size > 0, "piece size must be positive");
        let pieces = content.chunks(piece_size).map(digest).collect();
        Self {
            full: digest(content),
            piece_size,
            pieces,
        }
    }

    /// Number of pieces.
    pub fn num_pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Verifies the whole content against the full digest.
    pub fn verify_full(&self, content: &[u8]) -> bool {
        digest(content) == self.full
    }

    /// Verifies one piece by index. The caller supplies the piece's bytes
    /// (e.g. from a ranged fetch); the final piece may be short.
    pub fn verify_piece(&self, index: usize, piece: &[u8]) -> bool {
        match self.pieces.get(index) {
            Some(d) => digest(piece) == *d,
            None => false,
        }
    }

    /// The byte range `[start, end)` of piece `index` within an object of
    /// `total_len` bytes; `None` when the index is out of range or the
    /// piece would start at or past `total_len`, as it does for a hostile
    /// piece size near `usize::MAX`.
    pub fn piece_range(&self, index: usize, total_len: usize) -> Option<(usize, usize)> {
        if index >= self.pieces.len() {
            return None;
        }
        let start = index
            .checked_mul(self.piece_size)
            .filter(|&start| start < total_len)?;
        Some((start, start + self.piece_size.min(total_len - start)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_cover_all_pieces() {
        let content = vec![7u8; 1000];
        let d = ChunkedDigests::compute(&content, 256);
        assert_eq!(d.num_pieces(), 4); // 256+256+256+232
        assert!(d.verify_full(&content));
        for i in 0..4 {
            let (s, e) = d.piece_range(i, content.len()).unwrap();
            assert!(d.verify_piece(i, &content[s..e]), "piece {i}");
        }
        assert_eq!(d.piece_range(3, 1000), Some((768, 1000)));
        assert_eq!(d.piece_range(4, 1000), None);
    }

    #[test]
    fn corrupt_piece_detected() {
        let content: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        let d = ChunkedDigests::compute(&content, 128);
        let mut bad = content.clone();
        bad[200] ^= 0xff;
        assert!(!d.verify_full(&bad));
        assert!(
            d.verify_piece(0, &bad[0..128]),
            "untouched piece still good"
        );
        assert!(!d.verify_piece(1, &bad[128..256]), "corrupt piece detected");
    }

    #[test]
    fn exact_multiple_and_empty() {
        let content = vec![1u8; 512];
        let d = ChunkedDigests::compute(&content, 256);
        assert_eq!(d.num_pieces(), 2);
        let empty = ChunkedDigests::compute(&[], 256);
        assert_eq!(empty.num_pieces(), 0);
        assert!(empty.verify_full(&[]));
        assert!(!empty.verify_piece(0, &[]));
    }

    #[test]
    fn piece_range_rejects_hostile_piece_size() {
        // Two pieces of `usize::MAX` bytes: the second one's start is past
        // any object, and its end would overflow.
        let d = ChunkedDigests {
            full: [0; 32],
            piece_size: usize::MAX,
            pieces: vec![[0; 32]; 2],
        };
        assert_eq!(d.piece_range(0, 10), Some((0, 10)));
        assert_eq!(d.piece_range(1, 10), None);
        assert_eq!(d.piece_range(1, usize::MAX), None);
        let d = ChunkedDigests {
            piece_size: usize::MAX / 2 + 1,
            pieces: vec![[0; 32]; 3],
            ..d
        };
        assert_eq!(
            d.piece_range(1, usize::MAX),
            Some((usize::MAX / 2 + 1, usize::MAX))
        );
        assert_eq!(d.piece_range(2, usize::MAX), None, "start overflows");
        // A piece that would start exactly at the end is out of range too.
        let d = ChunkedDigests::compute(&[1u8; 512], 256);
        assert_eq!(d.piece_range(1, 256), None);
    }

    #[test]
    fn single_byte_pieces() {
        let content = b"abc";
        let d = ChunkedDigests::compute(content, 1);
        assert_eq!(d.num_pieces(), 3);
        assert!(d.verify_piece(1, b"b"));
        assert!(!d.verify_piece(1, b"x"));
    }
}
