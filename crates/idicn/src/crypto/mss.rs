//! A Merkle signature scheme: a reusable identity from one-time keys.
//!
//! A publisher generates `2^h` Lamport one-time keypairs and publishes only
//! the root of a Merkle tree over their public-key digests. Each signature
//! consists of (the OTS signature, the OTS public key, the leaf index, and
//! the Merkle authentication path); verifiers hash the OTS public key back
//! up the path and compare against the root. The ICN principal
//! [`crate::name::Principal`] is the SHA-256 of the root, so a single
//! self-certifying `P` can sign up to `2^h` objects.
//!
//! This is the textbook MSS construction (the ancestor of XMSS/RFC 8391),
//! chosen because it is implementable and auditable with nothing but a
//! hash function.

use crate::crypto::lamport::{self, KeyPair};
use crate::crypto::sha256::{digest, digest_pair};
use crate::crypto::Digest;
use rand::RngCore;

/// A signing identity holding `2^h` one-time keys.
pub struct Identity {
    keypairs: Vec<KeyPair>,
    /// Merkle tree nodes, level by level: `levels[0]` = leaf digests,
    /// `levels[h]` = [root].
    levels: Vec<Vec<Digest>>,
    next: usize,
}

/// A verifiable MSS signature.
#[derive(Debug, Clone)]
pub struct MssSignature {
    /// The one-time signature over the message digest.
    pub ots_sig: lamport::Signature,
    /// The one-time public key used.
    pub ots_pub: lamport::PublicKey,
    /// Which leaf of the Merkle tree the key occupies.
    pub leaf_index: u32,
    /// Sibling digests from the leaf to the root.
    pub auth_path: Vec<Digest>,
}

impl Identity {
    /// Generates an identity with `2^height` one-time keys.
    ///
    /// # Panics
    /// Panics if `height > 16` (that would be 65536 Lamport keys — far more
    /// than any demo needs and slow to generate).
    pub fn generate<R: RngCore>(rng: &mut R, height: u32) -> Self {
        assert!(height <= 16, "identity too large");
        let n = 1usize << height;
        let keypairs: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(rng)).collect();
        let mut levels = Vec::with_capacity(height as usize + 1);
        levels.push(
            keypairs
                .iter()
                .map(|kp| kp.public.digest())
                .collect::<Vec<_>>(),
        );
        loop {
            let next: Vec<Digest> = match levels.last() {
                Some(prev) if prev.len() > 1 => prev
                    .chunks(2)
                    .map(|pair| digest_pair(&pair[0], &pair[1]))
                    .collect(),
                _ => break,
            };
            levels.push(next);
        }
        Self {
            keypairs,
            levels,
            next: 0,
        }
    }

    /// The Merkle root committing to all one-time keys.
    pub fn root(&self) -> Digest {
        self.levels.last().map_or([0u8; 32], |top| top[0])
    }

    /// The principal `P = H(root)` this identity certifies.
    pub fn principal_digest(&self) -> Digest {
        digest(&self.root())
    }

    /// Signatures remaining before the identity is exhausted.
    pub fn remaining(&self) -> usize {
        self.keypairs.len() - self.next
    }

    /// Signs a message digest with the next unused one-time key.
    ///
    /// # Panics
    /// Panics when all one-time keys have been used.
    pub fn sign(&mut self, msg_digest: &Digest) -> MssSignature {
        assert!(self.next < self.keypairs.len(), "identity exhausted");
        let leaf = self.next;
        self.next += 1;
        let kp = &self.keypairs[leaf];
        let mut auth_path = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = leaf;
        for level in &self.levels[..self.levels.len() - 1] {
            auth_path.push(level[idx ^ 1]);
            idx >>= 1;
        }
        MssSignature {
            ots_sig: kp.secret.sign(msg_digest),
            ots_pub: kp.public.clone(),
            leaf_index: leaf as u32,
            auth_path,
        }
    }
}

impl MssSignature {
    /// Verifies the signature over `msg_digest` against a Merkle `root`.
    pub fn verify(&self, msg_digest: &Digest, root: &Digest) -> bool {
        if !self.ots_pub.verify(msg_digest, &self.ots_sig) {
            return false;
        }
        let mut node = self.ots_pub.digest();
        let mut idx = self.leaf_index;
        for sib in &self.auth_path {
            node = if idx & 1 == 0 {
                digest_pair(&node, sib)
            } else {
                digest_pair(sib, &node)
            };
            idx >>= 1;
        }
        idx == 0 && node == *root
    }

    /// Serializes to bytes (length-prefixed fields).
    pub fn to_bytes(&self) -> Vec<u8> {
        let sig = self.ots_sig.to_bytes();
        let pk = self.ots_pub.to_bytes();
        let mut out = Vec::with_capacity(8 + sig.len() + pk.len() + self.auth_path.len() * 32);
        out.extend_from_slice(&self.leaf_index.to_be_bytes());
        out.extend_from_slice(&(self.auth_path.len() as u32).to_be_bytes());
        out.extend_from_slice(&sig);
        out.extend_from_slice(&pk);
        for d in &self.auth_path {
            out.extend_from_slice(d);
        }
        out
    }

    /// Parses the serialization from [`MssSignature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        const SIG_LEN: usize = lamport::BITS * 32;
        const PK_LEN: usize = lamport::BITS * 64;
        if bytes.len() < 8 {
            return None;
        }
        let leaf_index = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
        let path_len = u32::from_be_bytes(bytes[4..8].try_into().ok()?) as usize;
        if path_len > 32 {
            return None;
        }
        let expected = 8 + SIG_LEN + PK_LEN + path_len * 32;
        if bytes.len() != expected {
            return None;
        }
        let ots_sig = lamport::Signature::from_bytes(&bytes[8..8 + SIG_LEN])?;
        let ots_pub = lamport::PublicKey::from_bytes(&bytes[8 + SIG_LEN..8 + SIG_LEN + PK_LEN])?;
        let mut auth_path = Vec::with_capacity(path_len);
        let base = 8 + SIG_LEN + PK_LEN;
        for i in 0..path_len {
            let mut d = [0u8; 32];
            d.copy_from_slice(&bytes[base + i * 32..base + (i + 1) * 32]);
            auth_path.push(d);
        }
        Some(Self {
            ots_sig,
            ots_pub,
            leaf_index,
            auth_path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity(h: u32) -> Identity {
        Identity::generate(&mut StdRng::seed_from_u64(7), h)
    }

    #[test]
    fn sign_verify_multiple_messages() {
        let mut id = identity(2); // 4 keys
        let root = id.root();
        for i in 0..4 {
            let msg = digest(format!("object {i}").as_bytes());
            let sig = id.sign(&msg);
            assert!(sig.verify(&msg, &root), "message {i}");
        }
        assert_eq!(id.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut id = identity(0); // 1 key
        id.sign(&digest(b"a"));
        id.sign(&digest(b"b"));
    }

    #[test]
    fn wrong_root_rejected() {
        let mut id = identity(1);
        let other = Identity::generate(&mut StdRng::seed_from_u64(1234), 1);
        let msg = digest(b"m");
        let sig = id.sign(&msg);
        assert!(sig.verify(&msg, &id.root()));
        assert!(!sig.verify(&msg, &other.root()));
    }

    #[test]
    fn tampered_auth_path_rejected() {
        let mut id = identity(2);
        let msg = digest(b"m");
        let mut sig = id.sign(&msg);
        sig.auth_path[0][0] ^= 1;
        assert!(!sig.verify(&msg, &id.root()));
    }

    #[test]
    fn forged_leaf_index_rejected() {
        let mut id = identity(2);
        let msg = digest(b"m");
        let mut sig = id.sign(&msg);
        sig.leaf_index = 2;
        assert!(!sig.verify(&msg, &id.root()));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut id = identity(2);
        let msg = digest(b"roundtrip");
        let sig = id.sign(&msg);
        let back = MssSignature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(back.verify(&msg, &id.root()));
        assert!(MssSignature::from_bytes(b"short").is_none());
        // Truncated body.
        let mut bytes = sig.to_bytes();
        bytes.pop();
        assert!(MssSignature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn identity_root_is_stable() {
        // Pins the root over sixteen one-time keys, so a change to how a
        // public key is committed to cannot move any principal or name.
        assert_eq!(
            crate::crypto::to_hex(&identity(4).root()),
            "c3829ee35cad5b51161e3fe4bc95c922f328852ecb5ac097d18473f1df3009fa"
        );
    }

    #[test]
    fn principal_is_stable() {
        let id1 = identity(1);
        let id2 = identity(1);
        assert_eq!(id1.principal_digest(), id2.principal_digest(), "same seed");
        let other = Identity::generate(&mut StdRng::seed_from_u64(8), 1);
        assert_ne!(id1.principal_digest(), other.principal_digest());
    }
}
