//! Per-node signatures and the verification key registry.
//!
//! ## Substitution note (documented in DESIGN.md §1)
//!
//! The paper's prototype uses ed25519 digital signatures. In this
//! reproduction every participant runs inside one simulated process, so
//! asymmetric cryptography would not add trust: the adversary either is the
//! process (and can read any private key) or is modelled by our Byzantine
//! behaviour hooks (which only sign through their own [`KeyPair`]). We
//! therefore use HMAC-SHA-256 tags under per-node keys that are derived
//! deterministically from a deployment master seed, and verify them through a
//! [`KeyRegistry`]. What the evaluation actually measures — the CPU time spent
//! signing and verifying — is charged by the simulator according to
//! [`crate::cost::CostModel`], using published ed25519 latencies.

use crate::digest::Digest;
use crate::hmac::HmacKey;
use basil_common::{FastHashMap, NodeId};
use std::fmt;
use std::sync::Arc;

/// A signature: an HMAC-SHA-256 tag over the message under the signer's key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The node that produced the signature.
    pub signer: NodeId,
    /// The MAC tag.
    pub tag: Digest,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig[{:?}]{:?}", self.signer, self.tag)
    }
}

/// A node's signing key, held as its precomputed HMAC midstates.
#[derive(Clone)]
pub struct KeyPair {
    node: NodeId,
    key: HmacKey,
}

impl KeyPair {
    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_parts(&[message])
    }

    /// Signs the concatenation of several message parts.
    pub fn sign_parts(&self, parts: &[&[u8]]) -> Signature {
        Signature {
            signer: self.node,
            tag: self.key.mac_parts(parts),
        }
    }

    /// The node this key belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "KeyPair({:?})", self.node)
    }
}

/// Deployment-wide key material: derives per-node keys from a master seed and
/// verifies signatures.
///
/// Cloning is cheap (`Arc` inside); every replica and client in a simulation
/// shares one registry.
#[derive(Clone)]
pub struct KeyRegistry {
    inner: Arc<RegistryInner>,
}

struct RegistryInner {
    /// The master seed as an HMAC key, so deriving a node's secret costs
    /// two compressions and the node's own key schedule two more.
    master: HmacKey,
    /// Verification keys derived once at deployment build time. Plain
    /// immutable map after construction. Nodes not listed here fall back
    /// to on-the-fly derivation (four extra SHA-256 compressions per
    /// verification — the cost the precomputation removes).
    precomputed: FastHashMap<NodeId, HmacKey>,
}

impl KeyRegistry {
    /// Creates a registry from a 64-bit seed (convenient for tests and
    /// deterministic experiments).
    pub fn from_seed(seed: u64) -> Self {
        Self::from_seed_with_nodes(seed, [])
    }

    /// Creates a registry and derives the verification keys of `nodes` up
    /// front. The cluster harness lists every replica and client of the
    /// deployment here, so the per-signature key derivation (an HMAC of its
    /// own) is paid once per node instead of once per verification — the
    /// "one pass per quorum" half of batched certificate validation.
    pub fn from_seed_with_nodes(seed: u64, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut master_seed = [0u8; 32];
        master_seed[..8].copy_from_slice(&seed.to_be_bytes());
        let mut inner = RegistryInner {
            master: HmacKey::new(&master_seed),
            precomputed: FastHashMap::default(),
        };
        let keys: FastHashMap<NodeId, HmacKey> = nodes
            .into_iter()
            .map(|n| (n, inner.derive_key(n)))
            .collect();
        inner.precomputed = keys;
        KeyRegistry {
            inner: Arc::new(inner),
        }
    }

    /// Number of nodes whose verification keys are precomputed.
    pub fn precomputed_nodes(&self) -> usize {
        self.inner.precomputed.len()
    }

    /// Derives the signing key pair for a node.
    pub fn keypair(&self, node: NodeId) -> KeyPair {
        KeyPair {
            node,
            key: self.node_key(node),
        }
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify_parts(&[message], sig)
    }

    /// Verifies a signature over the concatenation of several message parts.
    pub fn verify_parts(&self, parts: &[&[u8]], sig: &Signature) -> bool {
        let expected = self.node_key(sig.signer).mac_parts(parts);
        // Constant-time comparison is unnecessary in a simulation, but cheap.
        let mut diff = 0u8;
        for (a, b) in expected.as_bytes().iter().zip(sig.tag.as_bytes()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    fn node_key(&self, node: NodeId) -> HmacKey {
        match self.inner.precomputed.get(&node) {
            Some(key) => *key,
            None => self.inner.derive_key(node),
        }
    }
}

impl RegistryInner {
    /// A node's secret is `HMAC(master_seed, encode_node(node))`; its key is
    /// that secret's HMAC key schedule.
    fn derive_key(&self, node: NodeId) -> HmacKey {
        let secret = self.master.mac_parts(&[&encode_node(node)]);
        HmacKey::new(secret.as_bytes())
    }
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeyRegistry{..}")
    }
}

fn encode_node(node: NodeId) -> [u8; 13] {
    let mut out = [0u8; 13];
    match node {
        NodeId::Client(c) => {
            out[0] = 0x01;
            out[1..9].copy_from_slice(&c.0.to_be_bytes());
        }
        NodeId::Replica(r) => {
            out[0] = 0x02;
            out[1..5].copy_from_slice(&r.shard.0.to_be_bytes());
            out[5..9].copy_from_slice(&r.index.to_be_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::{ClientId, ReplicaId, ShardId};

    fn client(n: u64) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    fn replica(s: u32, i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(s), i))
    }

    #[test]
    fn sign_verify_round_trip() {
        let reg = KeyRegistry::from_seed(42);
        let kp = reg.keypair(replica(0, 3));
        let sig = kp.sign(b"prepare tx 17");
        assert!(reg.verify(b"prepare tx 17", &sig));
    }

    #[test]
    fn precomputed_registry_is_equivalent_to_derived() {
        let nodes = [replica(0, 0), replica(0, 1), client(7)];
        let plain = KeyRegistry::from_seed(42);
        let pre = KeyRegistry::from_seed_with_nodes(42, nodes);
        assert_eq!(pre.precomputed_nodes(), 3);
        for n in nodes {
            let sig = plain.keypair(n).sign(b"msg");
            assert_eq!(sig, pre.keypair(n).sign(b"msg"));
            assert!(pre.verify(b"msg", &sig));
        }
        // A node outside the precomputed set still verifies (fallback
        // derivation).
        let other = client(99);
        let sig = pre.keypair(other).sign(b"msg");
        assert!(pre.verify(b"msg", &sig));
    }

    /// The precomputed midstates change no tag byte: a signature equals the
    /// reference HMAC under the secret `HMAC(master_seed, encode_node)`.
    #[test]
    fn tags_match_the_reference_key_derivation() {
        use crate::hmac::hmac_sha256_parts;
        let mut master_seed = [0u8; 32];
        master_seed[..8].copy_from_slice(&42u64.to_be_bytes());
        let reg = KeyRegistry::from_seed_with_nodes(42, [replica(0, 1)]);
        for node in [replica(0, 1), client(7)] {
            let secret = hmac_sha256_parts(&master_seed, &[&encode_node(node)]);
            let sig = reg.keypair(node).sign_parts(&[b"root", b" bytes"]);
            assert_eq!(
                sig.tag,
                hmac_sha256_parts(secret.as_bytes(), &[b"root bytes"])
            );
        }
    }

    #[test]
    fn verification_fails_for_tampered_message() {
        let reg = KeyRegistry::from_seed(42);
        let kp = reg.keypair(client(9));
        let sig = kp.sign(b"commit");
        assert!(!reg.verify(b"abort", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_claimed_signer() {
        let reg = KeyRegistry::from_seed(42);
        let kp = reg.keypair(replica(0, 1));
        let mut sig = kp.sign(b"vote");
        // A Byzantine node claims the signature came from replica 2.
        sig.signer = replica(0, 2);
        assert!(!reg.verify(b"vote", &sig));
    }

    #[test]
    fn different_nodes_have_different_keys() {
        let reg = KeyRegistry::from_seed(1);
        let s1 = reg.keypair(replica(0, 0)).sign(b"m");
        let s2 = reg.keypair(replica(0, 1)).sign(b"m");
        let s3 = reg.keypair(client(0)).sign(b"m");
        assert_ne!(s1.tag, s2.tag);
        assert_ne!(s1.tag, s3.tag);
    }

    #[test]
    fn different_seeds_give_different_keys() {
        let a = KeyRegistry::from_seed(1).keypair(client(5)).sign(b"m");
        let b = KeyRegistry::from_seed(2).keypair(client(5)).sign(b"m");
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn sign_parts_matches_concatenated_sign() {
        let reg = KeyRegistry::from_seed(7);
        let kp = reg.keypair(client(1));
        let a = kp.sign(b"hello world");
        let b = kp.sign_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(a, b);
        assert!(reg.verify_parts(&[b"hello world"], &b));
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let reg = KeyRegistry::from_seed(3);
        let kp = reg.keypair(client(1));
        let dbg = format!("{kp:?}");
        assert!(!dbg.contains("secret"));
        assert_eq!(dbg, "KeyPair(c1)");
    }
}
