//! # basil-crypto
//!
//! From-scratch cryptographic substrate for the Basil reproduction.
//!
//! The paper's prototype uses ed25519 signatures (ed25519-donna) and SHA-256
//! hashing, and amortizes signature costs with Merkle-tree reply batching and
//! a signature cache (Section 4.4). This crate provides:
//!
//! * [`sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4), tested
//!   against the NIST vectors. Used for transaction identifiers, Merkle trees,
//!   and message digests.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), the MAC underlying the signature
//!   scheme below; [`hmac::HmacKey`] keeps a key as its two pad midstates.
//! * [`sig`] — a keyed signature scheme with a key registry. Inside a
//!   single-process simulation, asymmetric cryptography provides no additional
//!   trust (all participants share an address space), so signatures are
//!   HMAC tags under per-node keys, verified through a registry that only the
//!   verification routine consults. Unforgeability within the model holds
//!   because Byzantine actors in the simulation can only produce signatures
//!   through their own [`sig::KeyPair`]. The *CPU cost* of real ed25519
//!   signing/verification is modelled separately by [`cost::CostModel`].
//! * [`merkle`] — Merkle trees and inclusion proofs used for reply batching.
//! * [`batch`] — the reply-batching construction of Figure 2: a replica signs
//!   only the root of a batch of replies and ships each client its reply, the
//!   root signature, and the sibling path; verifiers cache root signatures
//!   and the Merkle nodes authenticated beneath them.
//! * [`cost`] — the crypto cost model (sign / verify / hash latencies) charged
//!   by the cluster simulator so that throughput reflects cryptographic load,
//!   reproducing Figures 5a, 5c and 6b.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cost;
pub mod digest;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use batch::{BatchProof, BatchSigner, SignatureCache};
pub use cost::CostModel;
pub use digest::Digest;
pub use merkle::{MerkleFrontier, MerkleProof, MerkleTree, SealedFrontier};
pub use sha256::Sha256;
pub use sig::{KeyPair, KeyRegistry, Signature};
