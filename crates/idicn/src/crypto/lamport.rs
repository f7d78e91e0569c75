//! Lamport one-time signatures over SHA-256.
//!
//! A Lamport key signs exactly one 256-bit message digest: the secret key is
//! 2×256 random 32-byte preimages, the public key their hashes; the
//! signature reveals one preimage per message bit. Security reduces to the
//! preimage resistance of SHA-256. **Each key must sign at most once** —
//! the Merkle scheme in [`crate::crypto::mss`] turns a batch of these into
//! a reusable identity.

use crate::crypto::sha256::digest;
use crate::crypto::Digest;
use rand::RngCore;

/// Number of message bits signed (SHA-256 digests).
pub const BITS: usize = 256;

/// Secret key: `preimages[bit][value]`.
#[derive(Debug, Clone)]
pub struct SecretKey {
    preimages: Box<[[Digest; 2]; BITS]>,
}

/// Public key: hashes of all preimages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    hashes: Box<[[Digest; 2]; BITS]>,
}

/// A signature: one revealed preimage per bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    revealed: Box<[Digest; BITS]>,
}

/// A freshly generated one-time keypair.
pub struct KeyPair {
    /// The signing key (use once!).
    pub secret: SecretKey,
    /// The corresponding verification key.
    pub public: PublicKey,
}

impl KeyPair {
    /// Generates a keypair from the given RNG.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut preimages = Box::new([[[0u8; 32]; 2]; BITS]);
        let mut hashes = Box::new([[[0u8; 32]; 2]; BITS]);
        for bit in 0..BITS {
            for v in 0..2 {
                rng.fill_bytes(&mut preimages[bit][v]);
                hashes[bit][v] = digest(&preimages[bit][v]);
            }
        }
        KeyPair {
            secret: SecretKey { preimages },
            public: PublicKey { hashes },
        }
    }
}

impl SecretKey {
    /// Signs a 256-bit message digest (sign the *digest* of your message).
    pub fn sign(&self, msg_digest: &Digest) -> Signature {
        let mut revealed = Box::new([[0u8; 32]; BITS]);
        for bit in 0..BITS {
            let v = bit_of(msg_digest, bit);
            revealed[bit] = self.preimages[bit][v];
        }
        Signature { revealed }
    }
}

impl PublicKey {
    /// Verifies `sig` over a message digest.
    pub fn verify(&self, msg_digest: &Digest, sig: &Signature) -> bool {
        for bit in 0..BITS {
            let v = bit_of(msg_digest, bit);
            if digest(&sig.revealed[bit]) != self.hashes[bit][v] {
                return false;
            }
        }
        true
    }

    /// A compact commitment to this public key: SHA-256 over all hashes,
    /// in [`PublicKey::to_bytes`] order, hashed in one pass.
    pub fn digest(&self) -> Digest {
        digest(self.hashes.as_flattened().as_flattened())
    }

    /// Serializes to `BITS * 2 * 32` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BITS * 64);
        for bit in 0..BITS {
            out.extend_from_slice(&self.hashes[bit][0]);
            out.extend_from_slice(&self.hashes[bit][1]);
        }
        out
    }

    /// Parses the serialization from [`PublicKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != BITS * 64 {
            return None;
        }
        let mut hashes = Box::new([[[0u8; 32]; 2]; BITS]);
        for bit in 0..BITS {
            hashes[bit][0].copy_from_slice(&bytes[bit * 64..bit * 64 + 32]);
            hashes[bit][1].copy_from_slice(&bytes[bit * 64 + 32..bit * 64 + 64]);
        }
        Some(Self { hashes })
    }
}

impl Signature {
    /// Serializes to `BITS * 32` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BITS * 32);
        for bit in 0..BITS {
            out.extend_from_slice(&self.revealed[bit]);
        }
        out
    }

    /// Parses the serialization from [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != BITS * 32 {
            return None;
        }
        let mut revealed = Box::new([[0u8; 32]; BITS]);
        for bit in 0..BITS {
            revealed[bit].copy_from_slice(&bytes[bit * 32..bit * 32 + 32]);
        }
        Some(Self { revealed })
    }
}

#[inline]
fn bit_of(digest: &Digest, bit: usize) -> usize {
    ((digest[bit / 8] >> (bit % 8)) & 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> KeyPair {
        KeyPair::generate(&mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let msg = digest(b"hello icn");
        let sig = kp.secret.sign(&msg);
        assert!(kp.public.verify(&msg, &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = keypair();
        let sig = kp.secret.sign(&digest(b"message A"));
        assert!(!kp.public.verify(&digest(b"message B"), &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let msg = digest(b"m");
        let mut sig = kp.secret.sign(&msg);
        sig.revealed[0][0] ^= 1;
        assert!(!kp.public.verify(&msg, &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = keypair();
        let kp2 = KeyPair::generate(&mut StdRng::seed_from_u64(2));
        let msg = digest(b"m");
        let sig = kp1.secret.sign(&msg);
        assert!(!kp2.public.verify(&msg, &sig));
    }

    #[test]
    fn serialization_roundtrip() {
        let kp = keypair();
        let msg = digest(b"serialize me");
        let sig = kp.secret.sign(&msg);
        let pk2 = PublicKey::from_bytes(&kp.public.to_bytes()).unwrap();
        let sig2 = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(pk2.verify(&msg, &sig2));
        assert_eq!(pk2.digest(), kp.public.digest());
        assert!(PublicKey::from_bytes(&[0u8; 3]).is_none());
        assert!(Signature::from_bytes(&[0u8; 3]).is_none());
    }
}
