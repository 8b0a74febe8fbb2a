//! # mpq-dist
//!
//! The distributed-execution runtime: the runnable counterpart of the
//! paper's §6 dispatch story — "each subject executes its assigned
//! sub-query and forwards encrypted results".
//!
//! Two deployments run one protocol implementation, the
//! [`coordinator`] core:
//!
//! * [`Session`] — every subject in this process. `open` sets up one
//!   *party* per subject (RSA envelope keypair, cluster-key ring, a
//!   local store holding exactly the base relations the subject is the
//!   data authority of) and spawns one long-lived party loop per
//!   subject; `execute` then runs any number of queries over those
//!   parties, provisioning Def. 6.1 cluster keys *incrementally*
//!   through the core's cache (only clusters never seen before are
//!   generated and shipped — see [`session`]).
//!   [`Session::reset_provisioning`] turns the next query into a
//!   standalone one that provisions every key afresh.
//! * [`Coordinator`] — every subject but the user in its own
//!   [`Server`] process, reached over TCP (see [`remote`]). The same
//!   core prepares each query; only key delivery travels as control
//!   frames instead of ring inserts.
//!
//! Every query, through either deployment, follows the §6 protocol:
//!
//! 1. **re-verify the assignment at runtime** — every subject must be
//!    authorized (Def. 4.1) for the profile of every relation it
//!    touches, independently of what the static analysis promised
//!    (Theorems 5.1–5.3 get a second, behavioral check here);
//! 2. **provision key rings** — [`ClusterKey`](mpq_crypto::keyring::ClusterKey)
//!    material per Def. 6.1 cluster, handed to exactly the holders;
//!    every computing subject additionally receives the *public*
//!    Paillier halves, enabling homomorphic aggregation without
//!    decryption capability;
//! 3. **dispatch signed requests** — the sub-queries of
//!    `mpq_core::dispatch` travel as `[[q_S, keys]_priU]_pubS`
//!    envelopes ([`SignedEnvelope`](mpq_crypto::rsa::SignedEnvelope)),
//!    batched per subject-pair edge, opened and verified by each
//!    recipient;
//! 4. **execute concurrently** — the participating subjects' [party
//!    loops](runtime) wake; each runs its share as segments, maximal
//!    same-subject chains of the plan executed as one streaming
//!    pipeline as soon as the tables at their cuts have arrived, so
//!    independent subtrees of the extended plan run in parallel at
//!    different providers, over real XTEA/OPE/Paillier ciphertexts;
//!    every table crossing a
//!    subject boundary is byte-accounted and [cell-audited](audit) by
//!    the *receiving* party;
//! 5. return a [`Report`] with the final (plaintext, for the user)
//!    result and the bytes-on-the-wire per subject-pair edge.
//!
//! [`Session::execute_sequential`] runs the same segments bottom-up on
//! the calling thread. The two paths share all of the
//! preparation (phases 1–3) and produce bit-identical results and
//! per-edge byte counts — a property the differential tests lean on.
//!
//! A subject receiving data its view does not permit — or attempting
//! encryption/decryption with a key it does not hold — aborts the
//! query with a [`SimError`] (the session survives; see
//! [`runtime`] for how an aborted query drains).

pub mod audit;
pub(crate) mod codec;
pub mod coordinator;
pub mod error;
pub mod fault;
pub mod remote;
pub mod runtime;
pub mod session;
pub mod transport;

pub use audit::audit_transfer;
pub use error::SimError;
pub use fault::{FaultAction, FaultPlan, RetryPolicy};
pub use remote::{Coordinator, Server, ServerConfig};
pub use session::{Session, SessionConfig, SessionStats};
pub use transport::{EdgeRecovery, TransportError, TransportKind};

use mpq_algebra::SubjectId;
use mpq_core::subjects::Subjects;
use mpq_crypto::keyring::KeyRing;
use mpq_crypto::rsa::RsaKeypair;
use mpq_exec::{Database, Table};
use std::collections::HashMap;

/// Paillier modulus size for generated cluster keys. Small
/// enough to keep runs fast, large enough for the fixed-point encodings
/// the execution layer produces.
pub(crate) const PAILLIER_BITS: usize = 256;

/// RSA modulus size for request envelopes (demo-grade, like the rest of
/// `mpq-crypto`).
pub(crate) const RSA_BITS: usize = 512;

/// The outcome of a distributed run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The final result, as delivered to the querying user.
    pub result: Table,
    /// Bytes on the wire per directed subject-pair edge: request
    /// envelopes (user → executor) and result tables (producer →
    /// consumer, plus root → user).
    pub transfers: HashMap<(SubjectId, SubjectId), usize>,
    /// The request-envelope share of [`Report::transfers`] (user →
    /// executor dispatch bytes), kept separate so data-flow transfers
    /// can be compared against the §7 cost model, which prices plan
    /// edges, not protocol dispatch.
    pub request_bytes: HashMap<(SubjectId, SubjectId), usize>,
    /// Number of signed sub-query requests dispatched.
    pub requests: usize,
}

impl Report {
    /// Total bytes moved across all edges.
    pub fn total_bytes(&self) -> usize {
        self.transfers.values().sum()
    }

    /// Bytes of result tables per directed edge — [`Report::transfers`]
    /// with the request-envelope share subtracted. Unlike envelope
    /// bytes (whose hybrid-encryption session keys are drawn fresh per
    /// query), data-flow bytes are a deterministic function of the key
    /// material and the execution seed, which makes them the
    /// ciphertext-sensitive quantity the differential tests compare.
    pub fn data_bytes(&self) -> HashMap<(SubjectId, SubjectId), usize> {
        let mut out = self.transfers.clone();
        for (edge, bytes) in &self.request_bytes {
            match out.get_mut(edge) {
                Some(total) if *total > *bytes => *total -= bytes,
                _ => {
                    out.remove(edge);
                }
            }
        }
        out
    }

    /// Render the transfer map as sorted `from → to: bytes` lines.
    pub fn render_transfers(&self, subjects: &Subjects) -> String {
        let mut edges: Vec<_> = self.transfers.iter().collect();
        edges.sort_by_key(|((f, t), _)| (f.index(), t.index()));
        let mut out = String::new();
        for ((from, to), bytes) in edges {
            out.push_str(&format!(
                "  {} → {}: {bytes} bytes\n",
                subjects.name(*from),
                subjects.name(*to)
            ));
        }
        out
    }
}

/// One subject's party: envelope keypair, cluster-key ring, and the
/// base relations it is the authority of.
pub(crate) struct Party {
    pub(crate) rsa: RsaKeypair,
    pub(crate) ring: KeyRing,
    pub(crate) store: Database,
}
