//! Reply batching and the signature cache (Section 4.4, Figure 2).
//!
//! Basil has no central sequencer, so batching happens at each replica after
//! message processing: the replica collects `b` pending reply payloads, builds
//! a Merkle tree over them, signs only the root, and sends every client its
//! reply plus (root, signature, sibling path). Verifiers recompute the root
//! from the reply and the path, verify the root signature once, and cache the
//! (root, signature) pair so other replies from the same batch verify with a
//! hash-only check.
//!
//! The cache also keeps the Merkle nodes beneath each verified root, so the
//! hash-only check of a later reply from the same batch hashes only up to
//! the first node already authenticated, then compares the remaining
//! siblings against the known ones (see [`SignatureCache`]).

use crate::digest::Digest;
use crate::merkle::{climb, leaf_hash, MerkleFrontier, MerkleProof, MerkleTree};
use crate::sig::{KeyPair, KeyRegistry, Signature};
use basil_common::{BoundedFifoMap, NodeId};

/// Everything a recipient needs to authenticate one reply out of a batch.
#[derive(Clone, Debug)]
pub struct BatchProof {
    /// Root of the batch's Merkle tree.
    pub root: Digest,
    /// The replica's signature over the root.
    pub root_signature: Signature,
    /// Inclusion proof tying the recipient's reply to the root.
    pub inclusion: MerkleProof,
    /// Number of replies that shared this signature (for accounting/metrics).
    pub batch_size: usize,
}

impl BatchProof {
    /// Signs a single payload, producing a one-leaf "batch". This is how
    /// clients (which have nothing to batch) and unbatched replicas sign
    /// messages, so the whole protocol uses one proof type.
    pub fn sign_single(keypair: &KeyPair, payload: &[u8]) -> BatchProof {
        let tree = MerkleTree::build(&[payload]);
        let root = tree.root();
        BatchProof {
            root,
            root_signature: keypair.sign(root.as_bytes()),
            inclusion: tree.prove(0),
            batch_size: 1,
        }
    }

    /// The node that signed the batch root.
    pub fn signer(&self) -> NodeId {
        self.root_signature.signer
    }

    /// Verifies this proof for `reply_payload`, using (and updating) the
    /// verifier's signature cache. Returns `true` when the reply is
    /// authenticated, along with whether a signature verification was
    /// actually performed (`false` on a cache hit) so callers can charge the
    /// appropriate CPU cost.
    pub fn verify(
        &self,
        reply_payload: &[u8],
        registry: &KeyRegistry,
        cache: &mut SignatureCache,
    ) -> BatchVerifyOutcome {
        let computed_root = cache.compute_root(self, leaf_hash(reply_payload));
        if computed_root != self.root {
            return BatchVerifyOutcome::invalid();
        }
        if cache.contains(&self.root, &self.root_signature) {
            cache.learn(self);
            return BatchVerifyOutcome {
                valid: true,
                signature_checked: false,
            };
        }
        let ok = registry.verify(self.root.as_bytes(), &self.root_signature);
        if ok {
            cache.insert(self.root, self.root_signature);
            cache.learn(self);
        }
        BatchVerifyOutcome {
            valid: ok,
            signature_checked: true,
        }
    }
}

/// Result of verifying a batched reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchVerifyOutcome {
    /// Whether the reply is authentic.
    pub valid: bool,
    /// Whether a full signature verification was performed (false on a
    /// signature-cache hit, where only hashing was needed).
    pub signature_checked: bool,
}

impl BatchVerifyOutcome {
    fn invalid() -> Self {
        BatchVerifyOutcome {
            valid: false,
            signature_checked: false,
        }
    }
}

/// A replica-side accumulator that turns pending replies into signed batches.
///
/// Payloads are hashed into an incremental [`MerkleFrontier`] the moment they
/// are queued, so the signer never stores reply bytes and the flush path no
/// longer rebuilds the whole tree: it seals the frontier (an `O(log b)`
/// right-edge walk), signs the root once, and extracts each recipient's
/// inclusion proof.
#[derive(Debug)]
pub struct BatchSigner {
    keypair: KeyPair,
    batch_size: usize,
    frontier: MerkleFrontier,
    recipients: Vec<NodeId>,
    /// Statistics: total replies signed and total signatures produced.
    replies_signed: u64,
    signatures_produced: u64,
}

impl BatchSigner {
    /// Creates a signer that flushes automatically once `batch_size` replies
    /// accumulate. A `batch_size` of 1 disables batching (every reply gets
    /// its own signature).
    pub fn new(keypair: KeyPair, batch_size: usize) -> Self {
        BatchSigner {
            keypair,
            batch_size: batch_size.max(1),
            frontier: MerkleFrontier::new(),
            recipients: Vec::new(),
            replies_signed: 0,
            signatures_produced: 0,
        }
    }

    /// Queues a reply for `recipient`, folding its hash into the batch
    /// frontier immediately. Returns the signed batch if this addition
    /// filled the batch, `None` otherwise.
    pub fn push(&mut self, recipient: NodeId, payload: &[u8]) -> Option<Vec<(NodeId, BatchProof)>> {
        self.frontier.append(payload);
        self.recipients.push(recipient);
        if self.recipients.len() >= self.batch_size {
            Some(self.flush())
        } else {
            None
        }
    }

    /// Number of replies currently waiting for a batch to fill.
    pub fn pending_len(&self) -> usize {
        self.recipients.len()
    }

    /// Configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Signs whatever is pending (used on batch timeout). Returns an empty
    /// vector if nothing is pending.
    pub fn flush(&mut self) -> Vec<(NodeId, BatchProof)> {
        if self.recipients.is_empty() {
            return Vec::new();
        }
        let sealed = self.frontier.seal();
        let root = sealed.root();
        let root_signature = self.keypair.sign(root.as_bytes());
        self.signatures_produced += 1;
        self.replies_signed += self.recipients.len() as u64;
        let batch_len = self.recipients.len();
        let out = self
            .recipients
            .drain(..)
            .enumerate()
            .map(|(i, recipient)| {
                (
                    recipient,
                    BatchProof {
                        root,
                        root_signature,
                        inclusion: sealed.prove(i),
                        batch_size: batch_len,
                    },
                )
            })
            .collect();
        self.frontier.reset();
        out
    }

    /// Number of replies signed so far.
    pub fn replies_signed(&self) -> u64 {
        self.replies_signed
    }

    /// Number of root signatures produced so far. The ratio
    /// `replies_signed / signatures_produced` is the achieved amortization.
    pub fn signatures_produced(&self) -> u64 {
        self.signatures_produced
    }
}

/// A verifier-side cache mapping Merkle roots to already-verified signatures.
///
/// When a replica later receives another message carrying the same root and
/// signature (i.e. another reply from the same batch), it can skip the
/// signature verification after checking the root recomputation.
///
/// The cache is **bounded**: batch roots only ever pay off while their batch
/// is in flight, so entries are evicted in insertion (FIFO) order once
/// [`SignatureCache::capacity`] is reached. Without the bound the map grows
/// by one root per batch for the lifetime of a node. Roots are SHA-256
/// digests, so the map uses `basil_common::fasthash` instead of SipHash.
///
/// **Authenticated nodes.** For the 32 most recently verified roots the
/// cache also keeps the Merkle nodes it has seen beneath
/// them, so the root recomputation of a later proof under the same root
/// skips every hash whose inputs are already known. Two rules keep the
/// verdict identical to a full recomputation:
///
/// * a node enters only on the path of a proof that reached a root whose
///   signature verified (or was already cached), together with every
///   ancestor on that path and each ancestor's sibling — so a known node's
///   ancestors and their siblings are known too;
/// * a path that contradicts a known node is not recorded at all.
///
/// Hence wherever both nodes of a sibling pair are known, their parent is
/// known and is exactly the node hash of the pair: a step whose inputs
/// match a known pair yields the same digest hashing would. Proofs whose
/// shape does not match their claimed `leaf_count` (or batches of more than
/// 64 replies) are recomputed in full and never recorded. The memory bound
/// is 32 trees of at most 127 node slots (33 bytes each), about 134 KB per
/// cache. The cache's hit and miss counts are unaffected: they count
/// signature lookups only.
#[derive(Debug)]
pub struct SignatureCache {
    /// The verified `(root, signature)` pairs, FIFO-bounded. The map
    /// structure is the shared [`BoundedFifoMap`] primitive (also behind the
    /// client-side validated-certificate cache).
    verified: BoundedFifoMap<Digest, Signature>,
    /// Authenticated Merkle nodes beneath the most recent verified roots.
    trees: BoundedFifoMap<Digest, KnownTree>,
    /// The node digests on the path of the proof last passed to
    /// [`SignatureCache::compute_root`], leaf first (scratch, reused).
    path: Vec<Digest>,
    hits: u64,
    misses: u64,
}

/// How many verified batch roots keep their authenticated Merkle nodes,
/// evicted FIFO. A batch's proofs reach a verifier within a few round
/// trips of each other, so only recent roots are met again: on the
/// perfbench YCSB workloads (reply batch 16), 16 roots already skip every
/// node hash that 256 skip on uniform keys, and 32 come within 2% of 256
/// under Zipf contention, where batch timers and retries stretch the window.
const KNOWN_TREE_ROOTS: usize = 32;

/// The largest batch whose nodes are kept (the evaluation's batch-size
/// sweep ends at 64). Larger batches verify by full recomputation.
const KNOWN_TREE_MAX_LEAVES: usize = 64;

/// The authenticated nodes beneath one verified root, level-major: the
/// leaves first, the root last; `None` is a node not yet seen.
#[derive(Debug)]
struct KnownTree {
    leaf_count: usize,
    nodes: Vec<Option<Digest>>,
}

/// Where one level of a [`KnownTree`] lies in its node vector.
#[derive(Clone, Copy)]
struct Level {
    offset: usize,
    width: usize,
}

impl Level {
    fn leaves(leaf_count: usize) -> Self {
        Level {
            offset: 0,
            width: leaf_count,
        }
    }

    fn up(self) -> Self {
        Level {
            offset: self.offset + self.width,
            width: self.width.div_ceil(2),
        }
    }
}

/// Whether `proof` has the exact shape of a proof in a batch of its
/// `leaf_count` leaves, for a batch a [`KnownTree`] may hold: the leaf
/// index in range, one sibling per level, and a sibling present exactly
/// where the node has one (an odd tail is promoted without one).
fn fits(proof: &MerkleProof) -> bool {
    let n = proof.leaf_count;
    if !(2..=KNOWN_TREE_MAX_LEAVES).contains(&n)
        || proof.leaf_index >= n
        || proof.siblings.len() != n.next_power_of_two().trailing_zeros() as usize
    {
        return false;
    }
    let mut level = Level::leaves(n);
    let mut idx = proof.leaf_index;
    for sibling in &proof.siblings {
        if sibling.is_some() != ((idx ^ 1) < level.width) {
            return false;
        }
        idx /= 2;
        level = level.up();
    }
    true
}

impl KnownTree {
    fn new(leaf_count: usize) -> Self {
        let mut level = Level::leaves(leaf_count);
        while level.width > 1 {
            level = level.up();
        }
        KnownTree {
            leaf_count,
            nodes: vec![None; level.offset + 1],
        }
    }

    /// The parent of the node at `idx` on `level`, if both it (`current`)
    /// and its sibling are known nodes.
    fn known_parent(
        &self,
        level: Level,
        idx: usize,
        current: &Digest,
        sibling: &Digest,
    ) -> Option<Digest> {
        let pair = idx ^ 1;
        if pair < level.width
            && self.nodes[level.offset + idx].as_ref() == Some(current)
            && self.nodes[level.offset + pair].as_ref() == Some(sibling)
        {
            self.nodes[level.up().offset + idx / 2]
        } else {
            None
        }
    }

    /// Records a fitting proof's path to this tree's root: the node on each
    /// level (`path`, leaf first), its sibling, and the root. A path that
    /// contradicts a known node is dropped whole.
    fn learn(&mut self, proof: &MerkleProof, path: &[Digest], root: Digest) {
        let root_slot = self.nodes.len() - 1;
        let slots = || {
            std::iter::successors(
                Some((Level::leaves(proof.leaf_count), proof.leaf_index)),
                |&(level, idx)| Some((level.up(), idx / 2)),
            )
            .zip(path.iter().zip(&proof.siblings))
            .flat_map(|((level, idx), (node, sibling))| {
                let sibling = sibling.map(|s| (level.offset + (idx ^ 1), s));
                std::iter::once((level.offset + idx, *node)).chain(sibling)
            })
            .chain(std::iter::once((root_slot, root)))
        };
        if slots().all(|(slot, digest)| self.nodes[slot].is_none_or(|known| known == digest)) {
            for (slot, digest) in slots() {
                self.nodes[slot] = Some(digest);
            }
        }
    }
}

impl Default for SignatureCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl SignatureCache {
    /// Default bound on cached roots. A batch's proofs arrive within one
    /// round trip of each other, so the working set at any moment is roughly
    /// (in-flight batches x peers); 8192 roots (~0.75 MiB) is far above that
    /// for every deployment in the evaluation while keeping a long-running
    /// node's memory flat.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache bounded to `capacity` roots (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        SignatureCache {
            verified: BoundedFifoMap::with_capacity(capacity),
            trees: BoundedFifoMap::with_capacity(KNOWN_TREE_ROOTS),
            path: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Recomputes the root `proof` implies for the leaf digest `leaf`,
    /// exactly as [`MerkleProof::compute_root_from_hash`] does, but taking
    /// the parent of every known sibling pair from the known nodes of
    /// `proof.root` instead of hashing it. Leaves the path in `self.path`
    /// for [`SignatureCache::learn`]. Touches no statistics.
    fn compute_root(&mut self, proof: &BatchProof, leaf: Digest) -> Digest {
        let inclusion = &proof.inclusion;
        self.path.clear();
        if !fits(inclusion) {
            return inclusion.compute_root_from_hash(leaf);
        }
        let known = self
            .trees
            .get(&proof.root)
            .filter(|tree| tree.leaf_count == inclusion.leaf_count);
        let mut current = leaf;
        let mut idx = inclusion.leaf_index;
        let mut level = Level::leaves(inclusion.leaf_count);
        for sibling in &inclusion.siblings {
            self.path.push(current);
            let parent = match (known, sibling) {
                (Some(tree), Some(s)) => tree.known_parent(level, idx, &current, s),
                _ => None,
            };
            current = parent.unwrap_or_else(|| climb(current, sibling.as_ref(), idx));
            idx /= 2;
            level = level.up();
        }
        current
    }

    /// Records the path [`SignatureCache::compute_root`] just walked for
    /// `proof`, whose root has been authenticated.
    fn learn(&mut self, proof: &BatchProof) {
        let inclusion = &proof.inclusion;
        if !fits(inclusion) {
            return;
        }
        if self.trees.get(&proof.root).is_none() {
            self.trees
                .insert(proof.root, KnownTree::new(inclusion.leaf_count));
        }
        let tree = self.trees.get_mut(&proof.root).expect("inserted above");
        if tree.leaf_count == inclusion.leaf_count {
            tree.learn(inclusion, &self.path, proof.root);
        }
    }

    /// Returns true if `(root, sig)` was verified before. Updates hit/miss
    /// statistics.
    pub fn contains(&mut self, root: &Digest, sig: &Signature) -> bool {
        match self.verified.get(root) {
            Some(cached) if cached == sig => {
                self.hits += 1;
                true
            }
            _ => {
                self.misses += 1;
                false
            }
        }
    }

    /// Records a successfully verified root signature, evicting the oldest
    /// entry if the cache is full.
    pub fn insert(&mut self, root: Digest, sig: Signature) {
        self.verified.insert(root, sig);
    }

    /// Fused [`SignatureCache::contains`] + [`SignatureCache::insert`]:
    /// returns whether `(root, sig)` was already verified, recording it if
    /// not — identical statistics and eviction behaviour to the two-call
    /// sequence, at one hash lookup instead of two. This is the
    /// simulated-crypto hot path (one call per verification).
    pub fn check_insert(&mut self, root: Digest, sig: Signature) -> bool {
        let hit = self
            .verified
            .check_insert(root, sig, |cached| *cached == sig);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Number of cache hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of entries evicted to keep the cache within its capacity.
    pub fn evictions(&self) -> u64 {
        self.verified.evictions()
    }

    /// The configured bound on cached roots.
    pub fn capacity(&self) -> usize {
        self.verified.capacity()
    }

    /// Number of distinct roots cached.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::leaf_hash;
    use basil_common::{ClientId, ReplicaId, ShardId};

    fn replica_node() -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(0), 0))
    }

    fn client(n: u64) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    fn setup(batch: usize) -> (BatchSigner, KeyRegistry) {
        let reg = KeyRegistry::from_seed(99);
        let signer = BatchSigner::new(reg.keypair(replica_node()), batch);
        (signer, reg)
    }

    #[test]
    fn batch_of_one_signs_immediately() {
        let (mut signer, reg) = setup(1);
        let out = signer.push(client(1), b"reply");
        let out = out.expect("batch of one flushes immediately");
        assert_eq!(out.len(), 1);
        let mut cache = SignatureCache::new();
        let outcome = out[0].1.verify(b"reply", &reg, &mut cache);
        assert!(outcome.valid);
        assert!(outcome.signature_checked);
        assert_eq!(signer.signatures_produced(), 1);
        assert_eq!(signer.replies_signed(), 1);
    }

    #[test]
    fn batch_flushes_when_full_and_all_replies_verify() {
        let (mut signer, reg) = setup(4);
        assert!(signer.push(client(1), b"r1").is_none());
        assert!(signer.push(client(2), b"r2").is_none());
        assert!(signer.push(client(3), b"r3").is_none());
        let out = signer.push(client(4), b"r4").expect("4th fills batch");
        assert_eq!(out.len(), 4);
        assert_eq!(signer.signatures_produced(), 1);
        assert_eq!(signer.replies_signed(), 4);

        let mut cache = SignatureCache::new();
        for (i, (recipient, proof)) in out.iter().enumerate() {
            assert_eq!(*recipient, client(i as u64 + 1));
            let payload = format!("r{}", i + 1);
            let outcome = proof.verify(payload.as_bytes(), &reg, &mut cache);
            assert!(outcome.valid, "reply {i} failed");
        }
    }

    #[test]
    fn signature_cache_skips_repeat_verification() {
        let (mut signer, reg) = setup(3);
        signer.push(client(1), b"a");
        signer.push(client(2), b"b");
        let out = signer.push(client(3), b"c").expect("flush");
        let mut cache = SignatureCache::new();
        let first = out[0].1.verify(b"a", &reg, &mut cache);
        assert!(first.valid && first.signature_checked);
        let second = out[1].1.verify(b"b", &reg, &mut cache);
        assert!(
            second.valid && !second.signature_checked,
            "should hit cache"
        );
        let third = out[2].1.verify(b"c", &reg, &mut cache);
        assert!(third.valid && !third.signature_checked);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tampered_reply_is_rejected_before_signature_check() {
        let (mut signer, reg) = setup(2);
        signer.push(client(1), b"honest");
        let out = signer.push(client(2), b"other").expect("flush");
        let mut cache = SignatureCache::new();
        let outcome = out[0].1.verify(b"forged", &reg, &mut cache);
        assert!(!outcome.valid);
        assert!(!outcome.signature_checked, "root mismatch short-circuits");
    }

    #[test]
    fn signature_from_wrong_replica_is_rejected() {
        let reg = KeyRegistry::from_seed(99);
        let other_key = reg.keypair(NodeId::Replica(ReplicaId::new(ShardId(0), 5)));
        let mut signer = BatchSigner::new(other_key, 1);
        let out = signer.push(client(1), b"reply").expect("flush");
        // Forge the claimed signer: verification must fail because the tag
        // was produced under replica 5's key.
        let mut proof = out[0].1.clone();
        proof.root_signature.signer = replica_node();
        let mut cache = SignatureCache::new();
        assert!(!proof.verify(b"reply", &reg, &mut cache).valid);
    }

    #[test]
    fn manual_flush_on_timeout_signs_partial_batch() {
        let (mut signer, reg) = setup(16);
        signer.push(client(1), b"x");
        signer.push(client(2), b"y");
        assert_eq!(signer.pending_len(), 2);
        let out = signer.flush();
        assert_eq!(out.len(), 2);
        assert_eq!(signer.pending_len(), 0);
        let mut cache = SignatureCache::new();
        assert!(out[0].1.verify(b"x", &reg, &mut cache).valid);
        assert!(out[1].1.verify(b"y", &reg, &mut cache).valid);
        assert!(signer.flush().is_empty(), "nothing left to flush");
    }

    #[test]
    fn cache_is_bounded_with_fifo_eviction() {
        let reg = KeyRegistry::from_seed(3);
        let kp = reg.keypair(replica_node());
        let mut cache = SignatureCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let proofs: Vec<BatchProof> = (0..3u8)
            .map(|i| BatchProof::sign_single(&kp, &[i]))
            .collect();
        for p in &proofs {
            cache.insert(p.root, p.root_signature);
        }
        // Capacity 2: the oldest root (proofs[0]) was evicted.
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(!cache.contains(&proofs[0].root, &proofs[0].root_signature));
        assert!(cache.contains(&proofs[1].root, &proofs[1].root_signature));
        assert!(cache.contains(&proofs[2].root, &proofs[2].root_signature));
        // Stats survived the eviction: 1 miss (evicted probe) + 2 hits.
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        // An evicted root re-verifies and re-enters the cache.
        assert!(proofs[0].verify(&[0u8], &reg, &mut cache).signature_checked);
        assert!(cache.contains(&proofs[0].root, &proofs[0].root_signature));
    }

    #[test]
    fn reinserting_a_cached_root_does_not_evict() {
        let reg = KeyRegistry::from_seed(4);
        let kp = reg.keypair(replica_node());
        let mut cache = SignatureCache::with_capacity(2);
        let a = BatchProof::sign_single(&kp, b"a");
        let b = BatchProof::sign_single(&kp, b"b");
        cache.insert(a.root, a.root_signature);
        cache.insert(b.root, b.root_signature);
        cache.insert(a.root, a.root_signature); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.contains(&b.root, &b.root_signature));
    }

    #[test]
    fn default_capacity_absorbs_a_full_run_without_evictions() {
        let mut cache = SignatureCache::new();
        assert_eq!(cache.capacity(), SignatureCache::DEFAULT_CAPACITY);
        assert!(cache.is_empty());
        // The 96-client bench run produces ~1k-2k distinct batch roots per
        // replica per window; insert double that and require zero evictions,
        // and require that an early root still hits afterwards.
        let reg = KeyRegistry::from_seed(6);
        let kp = reg.keypair(replica_node());
        let first = BatchProof::sign_single(&kp, &0u32.to_be_bytes());
        for i in 0u32..4096 {
            let p = BatchProof::sign_single(&kp, &i.to_be_bytes());
            cache.insert(p.root, p.root_signature);
        }
        assert_eq!(cache.evictions(), 0);
        assert!(cache.contains(&first.root, &first.root_signature));
    }

    fn signed_batch(reg: &KeyRegistry, n: usize, tag: &str) -> Vec<(Vec<u8>, BatchProof)> {
        let mut signer = BatchSigner::new(reg.keypair(replica_node()), n);
        let payloads: Vec<Vec<u8>> = (0..n).map(|i| format!("{tag}-{i}").into_bytes()).collect();
        let mut proofs = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            proofs.extend(signer.push(client(i as u64), p));
        }
        let proofs = proofs.into_iter().flatten().map(|(_, proof)| proof);
        payloads.into_iter().zip(proofs).collect()
    }

    #[test]
    fn known_nodes_stay_bounded_past_capacity() {
        let reg = KeyRegistry::from_seed(8);
        let mut cache = SignatureCache::new();
        let batches = KNOWN_TREE_ROOTS + 8;
        for b in 0..batches {
            for (payload, proof) in signed_batch(&reg, 4, &format!("batch{b}")) {
                assert!(proof.verify(&payload, &reg, &mut cache).valid);
            }
            assert!(cache.trees.len() <= KNOWN_TREE_ROOTS);
        }
        assert_eq!(cache.trees.len(), KNOWN_TREE_ROOTS);
        // The signature map keeps its own, larger bound.
        assert_eq!(cache.len(), batches);
        assert_eq!(cache.misses(), batches as u64);
        assert_eq!(cache.hits(), 3 * batches as u64);
    }

    #[test]
    fn verifying_every_leaf_learns_the_whole_tree() {
        let reg = KeyRegistry::from_seed(10);
        // Batch size and node count: 5 leaves make levels of 5, 3, 2, 1.
        for (n, nodes) in [(2usize, 3usize), (5, 11), (16, 31)] {
            let mut cache = SignatureCache::new();
            let batch = signed_batch(&reg, n, "leaf");
            for (payload, proof) in &batch {
                assert!(proof.verify(payload, &reg, &mut cache).valid);
            }
            let tree = cache.trees.get(&batch[0].1.root).expect("root learned");
            assert_eq!(tree.nodes.len(), nodes);
            assert!(tree.nodes.iter().all(Option::is_some), "n={n}");
            // Every leaf now verifies with no node hash at all, and a
            // sibling changed above the first level is still caught.
            for (payload, proof) in &batch {
                assert!(proof.verify(payload, &reg, &mut cache).valid);
                let mut forged = proof.clone();
                if let Some(Some(top)) = forged.inclusion.siblings.last_mut() {
                    top.0[0] ^= 1;
                    assert!(!forged.verify(payload, &reg, &mut cache).valid);
                }
            }
        }
    }

    /// A path that disagrees with a known node (possible only through a
    /// hash collision) is dropped whole, so no pair of known siblings can
    /// end up beside a parent that is not their hash.
    #[test]
    fn a_path_contradicting_a_known_node_is_not_recorded() {
        let proof = MerkleTree::build(&[b"a", b"b"]).prove(0);
        let (a, b) = (leaf_hash(b"a"), leaf_hash(b"b"));
        let root = crate::merkle::node_hash(&a, &b);
        let mut tree = KnownTree::new(2);
        tree.learn(&proof, &[a], root);
        assert_eq!(tree.nodes, vec![Some(a), Some(b), Some(root)]);
        let mut other = proof.clone();
        other.siblings[0] = Some(a);
        tree.learn(&other, &[b], root);
        assert_eq!(tree.nodes, vec![Some(a), Some(b), Some(root)]);
    }

    /// A proof whose `leaf_count` is a lie can still reach the root (the
    /// count is not hashed), so two such proofs could record one digest at
    /// both nodes of a sibling pair with a parent that is not their hash.
    /// Such proofs do not fit their claimed shape and are never recorded, so
    /// a forged sibling that would exploit the pair is still rejected.
    #[test]
    fn proofs_that_lie_about_their_shape_are_not_learned() {
        let reg = KeyRegistry::from_seed(12);
        let batch = signed_batch(&reg, 5, "lie");
        let (payload, genuine) = &batch[4];
        let mut cache = SignatureCache::new();
        for leaf_index in [4, 5] {
            let mut lie = genuine.clone();
            lie.inclusion.leaf_count = 7;
            lie.inclusion.leaf_index = leaf_index;
            assert!(lie.verify(payload, &reg, &mut cache).valid);
        }
        assert_eq!(cache.trees.len(), 0);
        let mut forged = genuine.clone();
        forged.inclusion.leaf_count = 7;
        forged.inclusion.siblings[0] = Some(leaf_hash(payload));
        assert!(!forged.verify(payload, &reg, &mut cache).valid);
        assert!(
            !forged
                .verify(payload, &reg, &mut SignatureCache::new())
                .valid
        );
    }

    #[test]
    fn sign_single_round_trip() {
        let reg = KeyRegistry::from_seed(5);
        let kp = reg.keypair(replica_node());
        let proof = BatchProof::sign_single(&kp, b"vote: commit tx 9");
        assert_eq!(proof.batch_size, 1);
        assert_eq!(proof.signer(), replica_node());
        let mut cache = SignatureCache::new();
        assert!(proof.verify(b"vote: commit tx 9", &reg, &mut cache).valid);
        assert!(!proof.verify(b"vote: abort tx 9", &reg, &mut cache).valid);
    }

    #[test]
    fn amortization_ratio_matches_batch_size() {
        let (mut signer, _reg) = setup(8);
        for round in 0..4 {
            for i in 0..8 {
                signer.push(client(i), format!("p{round}-{i}").as_bytes());
            }
        }
        assert_eq!(signer.replies_signed(), 32);
        assert_eq!(signer.signatures_produced(), 4);
    }
}
