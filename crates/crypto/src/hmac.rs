//! HMAC-SHA-256 (RFC 2104), built on the from-scratch [`Sha256`].
//!
//! [`hmac_sha256_parts`] is the reference construction. [`HmacKey`] is the
//! same MAC with the key schedule done once: it keeps the SHA-256 midstates
//! after the padded key's inner and outer blocks, so a tag over a 32-byte
//! message costs two compressions instead of four.

use crate::digest::Digest;
use crate::sha256::Sha256;
use std::fmt;

const BLOCK_SIZE: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac_sha256_parts(key, &[message])
}

/// Computes `HMAC-SHA256(key, m_0 || m_1 || ...)` without materializing the
/// concatenated message.
pub fn hmac_sha256_parts(key: &[u8], message_parts: &[&[u8]]) -> Digest {
    let (ipad, opad) = pad_blocks(key);

    let mut inner = Sha256::new();
    inner.update(&ipad);
    for part in message_parts {
        inner.update(part);
    }
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

/// The inner and outer padded key blocks of RFC 2104.
fn pad_blocks(key: &[u8]) -> ([u8; BLOCK_SIZE], [u8; BLOCK_SIZE]) {
    // Keys longer than one block are hashed first; shorter keys are padded
    // with zeros to the block size.
    let mut key_block = [0u8; BLOCK_SIZE];
    if key.len() > BLOCK_SIZE {
        let hashed = Sha256::digest(key);
        key_block[..32].copy_from_slice(hashed.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0u8; BLOCK_SIZE];
    let mut opad = [0u8; BLOCK_SIZE];
    for i in 0..BLOCK_SIZE {
        ipad[i] = key_block[i] ^ IPAD;
        opad[i] = key_block[i] ^ OPAD;
    }
    (ipad, opad)
}

/// An HMAC-SHA-256 key with its pad blocks already absorbed: the SHA-256
/// midstates after the inner (`key ^ ipad`) and outer (`key ^ opad`)
/// blocks. Tags are identical to [`hmac_sha256_parts`] under the same key.
#[derive(Clone, Copy)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Runs the key schedule: two compressions (three for a key longer than
    /// one block), paid once per key instead of once per tag.
    pub fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pad_blocks(key);
        let absorb = |block: &[u8; BLOCK_SIZE]| {
            let mut h = Sha256::new();
            h.update(block);
            h.midstate()
        };
        HmacKey {
            inner: absorb(&ipad),
            outer: absorb(&opad),
        }
    }

    /// Computes the tag over `m_0 || m_1 || ...`.
    pub fn mac_parts(&self, message_parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::resume(self.inner, BLOCK_SIZE as u64);
        for part in message_parts {
            inner.update(part);
        }
        let inner_digest = inner.finalize();
        let mut outer = Sha256::resume(self.outer, BLOCK_SIZE as u64);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates are key material: never print them.
        f.write_str("HmacKey{..}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.to_hex()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex(&hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn parts_match_concatenation() {
        let key = b"secret key";
        let tag1 = hmac_sha256(key, b"hello world");
        let tag2 = hmac_sha256_parts(key, &[b"hello", b" ", b"world"]);
        assert_eq!(tag1, tag2);
    }

    /// The precomputed key gives the reference tags on the RFC 4231 cases,
    /// including the longer-than-a-block key (case 6) and a key of exactly
    /// one block, and over a message split into parts.
    #[test]
    fn precomputed_key_matches_reference() {
        let cases: [(&[u8], &[u8]); 6] = [
            (&[0x0b; 20], b"Hi There"),
            (b"Jefe", b"what do ya want for nothing?"),
            (&[0xaa; 20], &[0xdd; 50]),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
            ),
            (&[0x5a; 64], b"a key of exactly one block"),
            (b"", b""),
        ];
        for (key, data) in cases {
            let hk = HmacKey::new(key);
            assert_eq!(
                hk.mac_parts(&[data]),
                hmac_sha256(key, data),
                "key len {}",
                key.len()
            );
            let (a, b) = data.split_at(data.len() / 2);
            assert_eq!(hk.mac_parts(&[a, b]), hmac_sha256(key, data));
        }
        assert_eq!(
            hex(&HmacKey::new(&[0xaa; 131])
                .mac_parts(&[b"Test Using Larger Than Block-Size Key - Hash Key First"])),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey{..}");
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(hmac_sha256(b"key1", b"msg"), hmac_sha256(b"key2", b"msg"));
        assert_ne!(hmac_sha256(b"key", b"msg1"), hmac_sha256(b"key", b"msg2"));
    }
}
