//! Property-based tests for the cryptographic substrate.

use basil_common::{ClientId, NodeId, ReplicaId, ShardId};
use basil_crypto::{
    BatchProof, BatchSigner, Digest, KeyRegistry, MerkleTree, Sha256, SignatureCache,
};
use proptest::prelude::*;

/// A deterministic stream of pseudo-random words (xorshift64*).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// One signed batch of `n` replies with every reply's genuine proof, plus,
/// for the first, the last and one random reply, proofs tampered in each
/// way a verifier must judge: another payload, a changed sibling at every
/// level (a sibling added where the node has none), a wrong leaf index or
/// leaf count, and a wrong root signature.
fn batch_probes(
    registry: &KeyRegistry,
    n: usize,
    words: &mut Stream,
) -> Vec<(Vec<u8>, BatchProof)> {
    let signer_node = NodeId::Replica(ReplicaId::new(ShardId(0), 2));
    let mut signer = BatchSigner::new(registry.keypair(signer_node), n);
    let payloads: Vec<Vec<u8>> = (0..n)
        .map(|i| format!("reply {i} {}", words.next()).into_bytes())
        .collect();
    let mut proofs = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        proofs.extend(signer.push(NodeId::Client(ClientId(i as u64)), payload));
    }
    let proofs: Vec<BatchProof> = proofs.into_iter().flatten().map(|(_, p)| p).collect();
    assert_eq!(proofs.len(), n);

    let mut probes: Vec<(Vec<u8>, BatchProof)> = payloads
        .iter()
        .cloned()
        .zip(proofs.iter().cloned())
        .collect();
    for i in [0, n - 1, words.below(n)] {
        let (payload, proof) = (&payloads[i], &proofs[i]);
        let mut other = payload.clone();
        other.push(b'!');
        probes.push((other, proof.clone()));
        for level in 0..proof.inclusion.siblings.len() {
            let mut tampered = proof.clone();
            let sibling = &mut tampered.inclusion.siblings[level];
            match sibling {
                Some(digest) => digest.0[words.below(32)] ^= 1 << words.below(8),
                None => *sibling = Some(Digest([words.next() as u8; 32])),
            }
            probes.push((payload.clone(), tampered));
        }
        let depth = proof.inclusion.siblings.len();
        for leaf_index in [(i + 1) % n, i ^ 1, i + (1 << depth), words.below(2 * n)] {
            let mut wrong = proof.clone();
            wrong.inclusion.leaf_index = leaf_index;
            probes.push((payload.clone(), wrong));
        }
        for leaf_count in [n - 1, n + 1, 2 * n, 1 + words.below(2 * n)] {
            let mut wrong = proof.clone();
            wrong.inclusion.leaf_count = leaf_count;
            probes.push((payload.clone(), wrong));
        }
        let mut wrong_tag = proof.clone();
        wrong_tag.root_signature.tag.0[words.below(32)] ^= 1;
        probes.push((payload.clone(), wrong_tag));
        let mut wrong_signer = proof.clone();
        wrong_signer.root_signature.signer = NodeId::Replica(ReplicaId::new(ShardId(0), 3));
        probes.push((payload.clone(), wrong_signer));
    }
    probes
}

/// Verifies every probe, in a shuffled order and then again, through one
/// shared cache, and checks each verdict against a fresh cache's (a full
/// recomputation). The second pass meets every probe with the batch's whole
/// tree already known, so tampering above the meeting node is exercised.
fn shared_cache_matches_fresh_verdicts(n: usize, seed: u64) -> Result<(), String> {
    let registry = KeyRegistry::from_seed(seed);
    let mut words = Stream(seed | 1);
    let mut probes = batch_probes(&registry, n, &mut words);
    for i in (1..probes.len()).rev() {
        probes.swap(i, words.below(i + 1));
    }
    let fresh: Vec<bool> = probes
        .iter()
        .map(|(payload, proof)| {
            proof
                .verify(payload, &registry, &mut SignatureCache::new())
                .valid
        })
        .collect();
    let mut shared = SignatureCache::new();
    for pass in 0..2 {
        for (k, (payload, proof)) in probes.iter().enumerate() {
            let cached = proof.verify(payload, &registry, &mut shared).valid;
            let fresh = fresh[k];
            if cached != fresh {
                return Err(format!(
                    "n={n} seed={seed} pass={pass} probe={k}: cached {cached}, fresh {fresh}, proof {proof:?}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn shared_cache_matches_fresh_verdicts_for_batches_1_through_65() {
    for n in 1..=65 {
        shared_cache_matches_fresh_verdicts(n, 0x5eed + n as u64).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing over arbitrary chunkings equals one-shot hashing.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                         chunk in 1usize..512) {
        let mut hasher = Sha256::new();
        for part in data.chunks(chunk) {
            hasher.update(part);
        }
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    /// Distinct inputs produce distinct digests (no accidental collisions in
    /// the generated sample).
    #[test]
    fn sha256_distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..256),
                                               b in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    /// Every leaf of an arbitrary batch yields a valid inclusion proof, and
    /// proofs do not validate against other payloads in the batch.
    #[test]
    fn merkle_proofs_round_trip(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..40),
                                probe in any::<proptest::sample::Index>()) {
        let tree = MerkleTree::build(&leaves);
        let index = probe.index(leaves.len());
        let proof = tree.prove(index);
        prop_assert!(proof.verify(&leaves[index], &tree.root()));
        // A proof transplanted onto a different payload fails unless the
        // payloads are identical.
        let other = (index + 1) % leaves.len();
        if leaves[other] != leaves[index] {
            prop_assert!(!proof.verify(&leaves[other], &tree.root()));
        }
    }

    /// Signatures verify only for the signing node and the exact payload.
    #[test]
    fn signatures_bind_signer_and_payload(seed in any::<u64>(),
                                          payload in proptest::collection::vec(any::<u8>(), 0..128),
                                          tamper in proptest::collection::vec(any::<u8>(), 0..128)) {
        let registry = KeyRegistry::from_seed(seed);
        let signer = NodeId::Replica(ReplicaId::new(ShardId(0), 3));
        let proof = BatchProof::sign_single(&registry.keypair(signer), &payload);
        let mut cache = SignatureCache::new();
        prop_assert!(proof.verify(&payload, &registry, &mut cache).valid);
        if tamper != payload {
            let mut cache = SignatureCache::new();
            prop_assert!(!proof.verify(&tamper, &registry, &mut cache).valid);
        }
        // A different deployment (different master seed) rejects it.
        let other_registry = KeyRegistry::from_seed(seed.wrapping_add(1));
        let mut cache = SignatureCache::new();
        prop_assert!(!proof.verify(&payload, &other_registry, &mut cache).valid);
    }

    /// A verifier's shared cache, with its known Merkle nodes, gives every
    /// genuine and tampered proof the verdict a fresh cache gives.
    #[test]
    fn shared_cache_verdicts_equal_fresh_ones(n in 1usize..=65, seed in any::<u64>()) {
        let outcome = shared_cache_matches_fresh_verdicts(n, seed);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Batch signing: every reply in an arbitrary batch verifies, and the
    /// signature count equals the number of flushes.
    #[test]
    fn batch_signer_covers_every_reply(payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..48), 1..32),
                                       batch_size in 1usize..8) {
        let registry = KeyRegistry::from_seed(9);
        let node = NodeId::Client(ClientId(1));
        let mut signer = BatchSigner::new(registry.keypair(node), batch_size);
        let mut signed: Vec<(Vec<u8>, BatchProof)> = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            if let Some(batch) = signer.push(NodeId::Client(ClientId(i as u64)), payload) {
                // Pair the returned proofs with the payloads of that batch.
                let start = signed.len();
                for (j, (_, proof)) in batch.into_iter().enumerate() {
                    signed.push((payloads[start + j].clone(), proof));
                }
            }
        }
        for (_, proof) in signer.flush().into_iter().enumerate().map(|(j, p)| (j, p.1)).collect::<Vec<_>>() {
            let idx = signed.len();
            signed.push((payloads[idx].clone(), proof));
        }
        prop_assert_eq!(signed.len(), payloads.len());
        let mut cache = SignatureCache::new();
        for (payload, proof) in &signed {
            prop_assert!(proof.verify(payload, &registry, &mut cache).valid);
        }
    }
}
