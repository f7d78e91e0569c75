//! Metalink/HTTP-style content metadata carried in HTTP headers (§6.1).
//!
//! The reverse proxy attaches, to every response, the metadata a client (or
//! edge proxy) needs to verify content authenticity without trusting the
//! channel: the full and per-piece digests, the publisher's MSS root, the
//! signature binding `(name, content digest)` to the publisher, and a list
//! of mirrors. Metalink-unaware clients simply ignore the headers — the
//! backward-compatibility property the paper leans on.

use crate::chunk::ChunkedDigests;
use crate::crypto::mss::MssSignature;
use crate::crypto::sha256::digest;
use crate::crypto::{from_hex, to_hex, Digest};
use crate::http::{Headers, MAX_HEADER_BYTES};
use crate::name::ContentName;
use crate::{Error, Result};

/// Header names (the `X-IdICN-` prefix marks the overlay's extension
/// headers; `Digest` mirrors RFC 3230 / RFC 6249 usage).
pub mod header {
    /// Full-content digest, `sha-256=<hex>`.
    pub const DIGEST: &str = "Digest";
    /// The flat `L.P` content name.
    pub const NAME: &str = "X-IdICN-Name";
    /// Piece size in bytes.
    pub const PIECE_SIZE: &str = "X-IdICN-Piece-Size";
    /// Comma-separated hex piece digests.
    pub const PIECES: &str = "X-IdICN-Pieces";
    /// Publisher's Merkle root (hex).
    pub const PUBLISHER_ROOT: &str = "X-IdICN-Publisher-Root";
    /// Hex-encoded MSS signature over the name/content binding.
    pub const SIGNATURE: &str = "X-IdICN-Signature";
    /// Mirror URL (repeatable).
    pub const MIRROR: &str = "Link";
}

/// Everything needed to verify and re-locate one content object.
#[derive(Debug, Clone)]
pub struct Metadata {
    /// The content's flat name.
    pub name: ContentName,
    /// Full and piece digests.
    pub digests: ChunkedDigests,
    /// The publisher's Merkle root (pre-image of the principal).
    pub publisher_root: Digest,
    /// MSS signature over [`ContentName::binding_bytes`].
    pub signature: MssSignature,
    /// Mirror locations (absolute URLs).
    pub mirrors: Vec<String>,
}

impl Metadata {
    /// Verifies the complete chain for `content`:
    ///
    /// 1. the principal in the name matches the publisher root
    ///    (self-certification: `P == H(root)`);
    /// 2. the signature over the name/content binding verifies against the
    ///    root;
    /// 3. the content matches the signed full digest;
    /// 4. the piece digests are consistent with the content.
    ///
    /// Steps 1 and 2 hash only fixed-size data: `H(root)`, `H(binding)`,
    /// and inside the signature check 256 one-block Lamport digests, the
    /// one-time key's 16 KiB commitment and one hash per Merkle level.
    /// Step 3 is one pass over the content. Step 4 adds no pass when the
    /// content fits in one piece, since that piece's digest must then be
    /// the full digest (and empty content has no pieces); larger content
    /// is hashed a second time, piece by piece.
    pub fn verify(&self, content: &[u8]) -> Result<()> {
        if digest(&self.publisher_root) != self.name.principal.0 {
            return Err(Error::Verification(
                "publisher root does not match the name's principal".into(),
            ));
        }
        let binding = self.name.binding_bytes(&self.digests.full);
        if !self
            .signature
            .verify(&digest(&binding), &self.publisher_root)
        {
            return Err(Error::Verification("signature does not verify".into()));
        }
        if !self.digests.verify_full(content) {
            return Err(Error::Verification("content digest mismatch".into()));
        }
        if !pieces_match(&self.digests, content) {
            return Err(Error::Verification("piece digests inconsistent".into()));
        }
        Ok(())
    }

    /// Writes the metadata into HTTP response headers.
    pub fn to_headers(&self, headers: &mut Headers) {
        headers.set(header::NAME, self.name.to_flat());
        headers.set(
            header::DIGEST,
            format!("sha-256={}", to_hex(&self.digests.full)),
        );
        headers.set(header::PIECE_SIZE, self.digests.piece_size.to_string());
        headers.set(
            header::PIECES,
            self.digests
                .pieces
                .iter()
                .map(|d| to_hex(d))
                .collect::<Vec<_>>()
                .join(","),
        );
        headers.set(header::PUBLISHER_ROOT, to_hex(&self.publisher_root));
        headers.set(header::SIGNATURE, to_hex(&self.signature.to_bytes()));
        for m in &self.mirrors {
            headers.add(header::MIRROR, format!("<{m}>; rel=duplicate"));
        }
    }

    /// Parses metadata back out of HTTP headers.
    ///
    /// Every malformed, missing or oversized field is an
    /// [`Error::Protocol`]; no input makes it panic. A value is oversized
    /// when it is as long as a whole HTTP head may be, so callers that
    /// build `Headers` themselves get the same limit as the wire parser.
    pub fn from_headers(headers: &Headers) -> Result<Self> {
        let get = |name: &str| match headers.get(name) {
            Some(v) => bounded(name, v),
            None => Err(Error::Protocol(format!("missing header {name}"))),
        };
        let name = ContentName::parse(get(header::NAME)?)
            .ok_or_else(|| Error::Protocol("bad content name".into()))?;
        let digest_v = get(header::DIGEST)?;
        let full_hex = digest_v
            .strip_prefix("sha-256=")
            .ok_or_else(|| Error::Protocol("unsupported digest algorithm".into()))?;
        let full: Digest = from_hex(full_hex)
            .and_then(|v| v.try_into().ok())
            .ok_or_else(|| Error::Protocol("bad digest hex".into()))?;
        let piece_size: usize = get(header::PIECE_SIZE)?
            .parse()
            .map_err(|_| Error::Protocol("bad piece size".into()))?;
        if piece_size == 0 {
            return Err(Error::Protocol("zero piece size".into()));
        }
        let pieces_v = get(header::PIECES)?;
        let mut pieces = Vec::new();
        if !pieces_v.is_empty() {
            for p in pieces_v.split(',') {
                let d: Digest = from_hex(p)
                    .and_then(|v| v.try_into().ok())
                    .ok_or_else(|| Error::Protocol("bad piece hex".into()))?;
                pieces.push(d);
            }
        }
        let publisher_root: Digest = from_hex(get(header::PUBLISHER_ROOT)?)
            .and_then(|v| v.try_into().ok())
            .ok_or_else(|| Error::Protocol("bad publisher root".into()))?;
        let signature = from_hex(get(header::SIGNATURE)?)
            .and_then(|b| MssSignature::from_bytes(&b))
            .ok_or_else(|| Error::Protocol("bad signature encoding".into()))?;
        let mirrors = headers
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(header::MIRROR))
            .map(|(_, v)| {
                bounded(header::MIRROR, v)?
                    .trim()
                    .strip_prefix('<')
                    .and_then(|s| s.split_once('>'))
                    .map(|(url, _)| url.to_string())
                    .ok_or_else(|| Error::Protocol("bad mirror link".into()))
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            name,
            digests: ChunkedDigests {
                full,
                piece_size,
                pieces,
            },
            publisher_root,
            signature,
            mirrors,
        })
    }
}

/// `value` of header `name`, unless it is as long as a whole HTTP head may
/// be (a limit the wire parser enforces, applied here to any caller).
fn bounded<'a>(name: &str, value: &'a str) -> Result<&'a str> {
    if value.len() >= MAX_HEADER_BYTES {
        return Err(Error::Protocol(format!("oversized header {name}")));
    }
    Ok(value)
}

/// Whether `d.pieces` are the piece digests of `content`, given that
/// `d.full` has already been checked to be its full digest: content of at
/// most one piece reuses `d.full` instead of hashing again.
fn pieces_match(d: &ChunkedDigests, content: &[u8]) -> bool {
    if content.is_empty() {
        return d.pieces.is_empty();
    }
    if content.len() <= d.piece_size {
        return d.pieces == [d.full];
    }
    d.pieces.len() == content.len().div_ceil(d.piece_size)
        && content
            .chunks(d.piece_size)
            .zip(&d.pieces)
            .all(|(piece, want)| digest(piece) == *want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::mss::Identity;
    use crate::name::Principal;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn signed_metadata(content: &[u8]) -> (Metadata, Identity) {
        signed_with_piece_size(content, 64)
    }

    fn signed_with_piece_size(content: &[u8], piece_size: usize) -> (Metadata, Identity) {
        let mut id = Identity::generate(&mut StdRng::seed_from_u64(3), 2);
        let principal = Principal(id.principal_digest());
        let name = ContentName::new("testobj", principal).unwrap();
        let digests = ChunkedDigests::compute(content, piece_size);
        let binding = name.binding_bytes(&digests.full);
        let signature = id.sign(&digest(&binding));
        (
            Metadata {
                name,
                digests,
                publisher_root: id.root(),
                signature,
                mirrors: vec!["http://127.0.0.1:9999/mirror".into()],
            },
            id,
        )
    }

    /// Headers of a valid signed object.
    fn valid_headers() -> Headers {
        let (meta, _) = signed_metadata(b"hostile bytes");
        let mut headers = Headers::new();
        meta.to_headers(&mut headers);
        headers
    }

    /// [`valid_headers`] with every value of `name` replaced by `value`.
    fn headers_with(name: &str, value: &str) -> Headers {
        let mut headers = valid_headers();
        headers.set(name, value);
        headers
    }

    fn assert_protocol_error(headers: &Headers, what: &str) {
        match Metadata::from_headers(headers) {
            Err(Error::Protocol(_)) => {}
            other => panic!("{what}: expected Error::Protocol, got {other:?}"),
        }
    }

    #[test]
    fn verify_accepts_authentic_content() {
        let content = b"the quick brown fox".repeat(10);
        let (meta, _) = signed_metadata(&content);
        meta.verify(&content).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_content() {
        let content = b"data".repeat(50);
        let (meta, _) = signed_metadata(&content);
        let mut bad = content.clone();
        bad[10] ^= 1;
        assert!(matches!(meta.verify(&bad), Err(Error::Verification(_))));
    }

    #[test]
    fn verify_rejects_wrong_principal() {
        let content = b"data".to_vec();
        let (mut meta, _) = signed_metadata(&content);
        // Re-point the name at a different principal.
        meta.name.principal = Principal(digest(b"someone else"));
        assert!(matches!(meta.verify(&content), Err(Error::Verification(_))));
    }

    #[test]
    fn verify_rejects_resigned_name() {
        // An attacker serving the right bytes under a different label must
        // fail (binding covers the label).
        let content = b"payload".to_vec();
        let (mut meta, _) = signed_metadata(&content);
        meta.name.label = "othername".into();
        assert!(matches!(meta.verify(&content), Err(Error::Verification(_))));
    }

    #[test]
    fn header_roundtrip() {
        let content = b"roundtrip content".repeat(8);
        let (meta, _) = signed_metadata(&content);
        let mut headers = Headers::new();
        meta.to_headers(&mut headers);
        let parsed = Metadata::from_headers(&headers).unwrap();
        parsed.verify(&content).unwrap();
        assert_eq!(parsed.name, meta.name);
        assert_eq!(parsed.mirrors, meta.mirrors);
        assert_eq!(parsed.digests, meta.digests);
    }

    #[test]
    fn missing_headers_rejected() {
        let headers = valid_headers();
        for name in [
            header::NAME,
            header::DIGEST,
            header::PIECE_SIZE,
            header::PIECES,
            header::PUBLISHER_ROOT,
            header::SIGNATURE,
        ] {
            let mut stripped = Headers::new();
            for (n, v) in headers.iter() {
                if !n.eq_ignore_ascii_case(name) {
                    stripped.add(n, v.to_string());
                }
            }
            assert_protocol_error(&stripped, name);
        }
    }

    #[test]
    fn empty_content_roundtrip() {
        let (meta, _) = signed_metadata(b"");
        let mut headers = Headers::new();
        meta.to_headers(&mut headers);
        let parsed = Metadata::from_headers(&headers).unwrap();
        parsed.verify(b"").unwrap();
    }

    /// The piece-list tampers the differential test applies.
    const TAMPERS: [&str; 6] = ["none", "flip", "append", "drop-last", "empty", "swap"];

    fn tamper(pieces: &mut Vec<Digest>, how: &str, at: usize) {
        let n = pieces.len();
        match how {
            "flip" if n > 0 => pieces[at % n][at % 32] ^= 1,
            "append" => pieces.push(digest(b"extra piece")),
            "drop-last" => {
                pieces.pop();
            }
            "empty" => pieces.clear(),
            "swap" if n > 1 => pieces.swap(at % n, (at + 1) % n),
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn verify_pieces_agree_with_recompute_rule(
            ps_kind in 0usize..3,
            len_kind in 0usize..7,
            random_len in 0usize..200_000,
            seed in 0u64..u64::MAX,
            at in 0usize..1000,
        ) {
            let ps = [1, 64, 64 << 10][ps_kind];
            // Single-byte pieces hash once per byte: keep those objects small.
            let random_len = if ps == 1 { random_len % 2048 } else { random_len };
            let len = [0, 1, ps - 1, ps, ps + 1, 3 * ps + 5, random_len][len_kind];
            let mut content = vec![0u8; len];
            StdRng::seed_from_u64(seed).fill_bytes(&mut content);
            if seed % 2 == 0 {
                // Half the objects are bits, so small pieces repeat and a
                // swap can leave the list unchanged.
                content.iter_mut().for_each(|b| *b &= 1);
            }
            let (meta, _) = signed_with_piece_size(&content, ps);
            // The oracle is the rule `verify` applied before it reused the
            // full digest: recompute every digest, compare the piece lists.
            let recomputed = ChunkedDigests::compute(&content, ps);
            for how in TAMPERS {
                let mut m = meta.clone();
                tamper(&mut m.digests.pieces, how, at);
                let accepted = m.verify(&content);
                prop_assert_eq!(
                    accepted.is_ok(),
                    m.digests.full == recomputed.full && m.digests.pieces == recomputed.pieces,
                    "len {} ps {} tamper {}: {:?}", len, ps, how, accepted
                );
                if let Err(e) = accepted {
                    prop_assert!(matches!(e, Error::Verification(_)), "{e:?}");
                }
            }
        }
    }

    #[test]
    fn hostile_signature_rejected() {
        let (meta, _) = signed_metadata(b"hostile bytes");
        let good = to_hex(&meta.signature.to_bytes());
        let mut non_hex = good.clone();
        non_hex.replace_range(10..11, "g");
        let cases = [
            ("odd length", good[1..].to_string()),
            ("non-hex", non_hex),
            ("truncated", good[..good.len() - 2].to_string()),
            ("oversized", format!("{good}00")),
            ("1 MiB", "ab".repeat(MAX_HEADER_BYTES / 2)),
            ("empty", String::new()),
        ];
        for (what, value) in cases {
            assert_protocol_error(&headers_with(header::SIGNATURE, &value), what);
        }
    }

    #[test]
    fn auth_path_longer_than_32_rejected() {
        let (meta, _) = signed_metadata(b"hostile bytes");
        let mut sig = meta.signature.clone();
        sig.auth_path = vec![[7; 32]; 33];
        let value = to_hex(&sig.to_bytes());
        assert_protocol_error(&headers_with(header::SIGNATURE, &value), "33-node path");
    }

    #[test]
    fn hostile_piece_size_rejected() {
        for value in ["0", "-1", "18446744073709551616", "", " 64", "0x40", "64k"] {
            assert_protocol_error(&headers_with(header::PIECE_SIZE, value), value);
        }
    }

    #[test]
    fn huge_piece_list_rejected() {
        // Just over 1 MiB of well-formed digests, and 1 MiB of garbage.
        let one = to_hex(&digest(b"piece"));
        let valid = vec![one; MAX_HEADER_BYTES / 65 + 1].join(",");
        assert!(valid.len() >= MAX_HEADER_BYTES);
        assert_protocol_error(&headers_with(header::PIECES, &valid), "1 MiB of digests");
        let garbage = ",z".repeat(MAX_HEADER_BYTES / 2);
        assert_protocol_error(&headers_with(header::PIECES, &garbage), "1 MiB of garbage");
        assert_protocol_error(&headers_with(header::PIECES, ","), "empty piece");
    }

    #[test]
    fn malformed_mirror_link_rejected() {
        for value in [
            "http://127.0.0.1:9999/mirror",
            "<http://127.0.0.1:9999/mirror",
            "http://127.0.0.1:9999/mirror>",
            "><http://127.0.0.1:9999/mirror",
            ">",
            "",
        ] {
            assert_protocol_error(&headers_with(header::MIRROR, value), value);
        }
        // The size limit applies to mirrors too, from exactly 1 MiB on.
        let url = "a".repeat(MAX_HEADER_BYTES - 3);
        let link = format!("<{url}>");
        let parsed = Metadata::from_headers(&headers_with(header::MIRROR, &link)).unwrap();
        assert_eq!(parsed.mirrors, [url]);
        assert_protocol_error(
            &headers_with(header::MIRROR, &format!("{link} ")),
            "1 MiB link",
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mutated_header_never_panics_or_verifies_other_content(
            field in 0usize..7,
            cut in 0usize..30_000,
            flip in 1u8..=255,
            truncate in 0usize..2,
        ) {
            let content = b"the original object".repeat(5);
            let (meta, _) = signed_metadata(&content);
            let mut headers = Headers::new();
            meta.to_headers(&mut headers);
            let mut mutated = Headers::new();
            for (i, (n, v)) in headers.iter().enumerate() {
                let mut v = v.as_bytes().to_vec();
                if i == field % headers.len() && !v.is_empty() {
                    let at = cut % v.len();
                    if truncate == 1 {
                        v.truncate(at);
                    } else {
                        v[at] ^= flip;
                    }
                }
                mutated.add(n, String::from_utf8_lossy(&v).into_owned());
            }
            if let Ok(parsed) = Metadata::from_headers(&mutated) {
                let mut other = content.clone();
                other[cut % content.len()] ^= 1;
                prop_assert!(parsed.verify(&other).is_err());
                prop_assert!(parsed.verify(&content[1..]).is_err());
                prop_assert!(parsed.verify(b"").is_err());
            }
        }
    }
}
