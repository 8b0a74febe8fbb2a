//! Persistent multi-query sessions: amortize trust establishment
//! across queries.
//!
//! Per-query fixed costs — fresh Def. 6.1 cluster keys, re-shipped
//! Paillier public halves, party threads — dominate short queries. A
//! production multi-provider deployment — like SMCQL's federated
//! honest-broker sessions — holds long-lived connections to each
//! provider and runs many queries per trust establishment; a
//! [`Session`] is that model, with one thread per subject in this
//! process:
//!
//! * **party threads spawn once**, at [`Session::open`], and idle on
//!   long-lived mailboxes between queries ([`runtime`](crate::runtime));
//! * **key provisioning is incremental** — the
//!   [coordinator core](crate::coordinator) caches generated cluster
//!   keys per cluster signature (attribute set + holder set), so a
//!   repeated query re-uses already-provisioned keys and
//!   already-delivered Paillier public halves, and only *new* clusters
//!   are generated and shipped;
//!   [`Session::reset_provisioning`] forgets them all, for callers
//!   that want every query to provision fresh material;
//! * **authorization stays per-query** — every [`Session::execute`]
//!   re-checks Def. 4.1 for every node and re-seals the signed request
//!   envelopes (`[[q_S, keys]_priU]_pubS`); only trust, transport and
//!   key material amortize;
//! * **errors abort the query, not the session** — a failed query
//!   drains cleanly (see the epoch protocol in
//!   [`runtime`](crate::runtime)) and the session keeps serving;
//! * [`Session::revoke_key`] models policy change: it drops the key
//!   from every ring *and* invalidates the cache entry, so the next
//!   query that needs the cluster provisions fresh material.

use crate::coordinator::{Core, Fleet, Prepared, Seal};
use crate::error::SimError;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::runtime::PartyThreads;
use crate::transport::{EdgeRecovery, FaultState, TransportKind, WireStats};
use crate::{audit, Party, Report, RSA_BITS};
use mpq_algebra::{Catalog, NodeId, RelId, SubjectId};
use mpq_core::authz::Policy;
use mpq_core::extend::ExtendedPlan;
use mpq_core::keys::KeyPlan;
use mpq_core::subjects::Subjects;
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::paillier::PaillierPublic;
use mpq_crypto::rsa::{RsaKeypair, RsaPublic};
use mpq_exec::{execute_step, Database, ExecCtx, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Every runtime knob of a [`Session`] (and of a
/// [`Coordinator`](crate::Coordinator)) in one builder: seed, worker
/// pool, static pre-flight, transport, receive timeout, faults and
/// retry.
///
/// # Example
///
/// ```
/// use mpq_dist::{SessionConfig, TransportKind};
///
/// let config = SessionConfig::new(7)
///     .with_workers(2)
///     .transport(TransportKind::Tcp)
///     .timeout(std::time::Duration::from_secs(3));
/// assert_eq!(config.seed, 7);
/// ```
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Master seed: RSA keypairs, cluster-key material, envelope
    /// session keys, and the derived execution seed all flow from it.
    pub seed: u64,
    /// `Some(n)`: a private worker pool of `n` threads; `None`: the
    /// process-global pool.
    pub workers: Option<usize>,
    /// Run the static verifier (`mpq_core::verify`) before spending
    /// crypto work on a query (on by default).
    pub preflight: bool,
    /// How data-plane messages travel between parties.
    pub transport: TransportKind,
    /// How long a party waits for an expected data message before
    /// aborting with a typed [`TransportError`](crate::TransportError).
    /// `None` defers to the transport default: wait forever in-proc
    /// (peers share our fate), 10 s over TCP (a dead peer must abort
    /// the query, not hang it).
    pub timeout: Option<Duration>,
    /// Deterministic transport-fault schedule (chaos testing). `None`
    /// injects nothing.
    pub faults: Option<FaultPlan>,
    /// Bounded per-message retry with seeded backoff, applied to every
    /// data-plane send (real failures and injected ones alike).
    pub retry: RetryPolicy,
}

impl SessionConfig {
    /// Defaults: in-proc transport, shared global pool, pre-flight on,
    /// transport-default timeout.
    pub fn new(seed: u64) -> SessionConfig {
        SessionConfig {
            seed,
            workers: None,
            preflight: true,
            transport: TransportKind::InProc,
            timeout: None,
            faults: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Use a private worker pool of `workers` threads.
    pub fn with_workers(mut self, workers: usize) -> SessionConfig {
        self.workers = Some(workers);
        self
    }

    /// Disable the static pre-flight verifier, leaving only the dynamic
    /// defenses.
    pub fn without_preflight(mut self) -> SessionConfig {
        self.preflight = false;
        self
    }

    /// Select the data-plane transport.
    pub fn transport(mut self, transport: TransportKind) -> SessionConfig {
        self.transport = transport;
        self
    }

    /// Bound the wait for any expected data message.
    pub fn timeout(mut self, timeout: Duration) -> SessionConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Inject transport faults per the given deterministic schedule.
    pub fn faults(mut self, plan: FaultPlan) -> SessionConfig {
        self.faults = Some(plan);
        self
    }

    /// Override the per-message retry budget and backoff.
    pub fn retry(mut self, retry: RetryPolicy) -> SessionConfig {
        self.retry = retry;
        self
    }

    /// The effective receive timeout: the explicit setting, or the
    /// transport default (`None` in-proc, 10 s over TCP).
    pub fn effective_timeout(&self) -> Option<Duration> {
        self.timeout.or(match self.transport {
            TransportKind::InProc => None,
            TransportKind::Tcp => Some(Duration::from_secs(10)),
        })
    }
}

/// Amortization counters of one [`Session`] — how much Def. 6.1 work
/// the cluster-key cache saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries executed (either path), failures included.
    pub queries: usize,
    /// Clusters generated, sealed, and shipped to their holders.
    pub clusters_provisioned: usize,
    /// Cluster cache hits: queries needed the key, the session already
    /// held it.
    pub clusters_reused: usize,
    /// Paillier public halves delivered to computing non-holders
    /// (deliveries, not re-sends: a subject that already has the half
    /// is never re-shipped it).
    pub publics_delivered: usize,
}

/// A persistent multi-query execution context over one set of parties.
///
/// See the [module docs](self) for what amortizes across queries and
/// what is re-checked per query.
///
/// # Example
///
/// ```
/// use mpq_core::fixtures::RunningExample;
/// use mpq_core::keys::plan_keys;
/// use mpq_dist::Session;
/// use mpq_exec::Database;
///
/// let ex = RunningExample::new();
/// let mut db = Database::new();
/// db.load(&ex.catalog, "Hosp", RunningExample::sample_hosp_rows());
/// db.load(&ex.catalog, "Ins", RunningExample::sample_ins_rows());
/// let ext = ex.fig7a_extended();
/// let keys = plan_keys(&ext);
///
/// let mut session = Session::open(&ex.catalog, &ex.subjects, &ex.policy, &db, 7);
/// let first = session.execute(&ext, &keys, ex.subject("U")).unwrap();
/// let second = session.execute(&ext, &keys, ex.subject("U")).unwrap();
/// assert_eq!(first.result.to_rows(), second.result.to_rows());
/// // The second query re-used every cluster the first one provisioned.
/// assert_eq!(session.stats().clusters_provisioned, keys.keys.len());
/// assert_eq!(session.stats().clusters_reused, keys.keys.len());
/// ```
pub struct Session {
    /// The §6 preparation: views, RNG, cluster-key cache, counters.
    core: Core,
    parties: Vec<Arc<Party>>,
    /// The long-lived party threads.
    threads: PartyThreads,
    /// Fault-injection state shared by every party's wire; swapping
    /// the plan (see [`Session::set_faults`]) reaches all of them.
    faults: Arc<Mutex<FaultState>>,
    /// Per-edge recovery counters shared by every party's wire.
    wire_stats: Arc<WireStats>,
}

/// The in-proc fleet: every party's ring is in reach, so keys go
/// straight in and nothing is sealed.
struct InProc<'a>(&'a [Arc<Party>]);

impl Fleet for InProc<'_> {
    fn public_of(&self, s: SubjectId) -> Result<&RsaPublic, SimError> {
        Ok(&self.0[s.index()].rsa.public)
    }

    fn deliver_key(
        &mut self,
        s: SubjectId,
        key: &ClusterKey,
        _: &mut Seal,
    ) -> Result<(), SimError> {
        self.0[s.index()].ring.insert(key.clone());
        Ok(())
    }

    fn deliver_public(
        &mut self,
        s: SubjectId,
        id: u32,
        public: PaillierPublic,
    ) -> Result<(), SimError> {
        self.0[s.index()].ring.insert_public(id, public);
        Ok(())
    }
}

impl Session {
    /// Open a session: set up one party per registered subject (RSA
    /// envelope keypair, empty key ring, the base relations it is the
    /// data authority of) and spawn the long-lived party loops.
    ///
    /// A relation without a declared authority is held by nobody —
    /// executing a plan over it fails at that leaf.
    ///
    /// Convenience shim over [`Session::open_with`] with the default
    /// [`SessionConfig`] (in-proc transport, shared pool, pre-flight
    /// on).
    pub fn open(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        db: &Database,
        seed: u64,
    ) -> Session {
        Session::open_with(catalog, subjects, policy, db, SessionConfig::new(seed))
    }

    /// Open a session with an explicit [`SessionConfig`] — the one
    /// place all runtime knobs live. With
    /// [`TransportKind::Tcp`] the parties exchange data-plane messages
    /// as length-prefixed frames over loopback sockets instead of
    /// in-process channels (identical results and byte accounting; the
    /// differential tests compare the two).
    pub fn open_with(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        db: &Database,
        config: SessionConfig,
    ) -> Session {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut parties: Vec<Party> = subjects
            .iter()
            .map(|_| Party {
                rsa: RsaKeypair::generate(&mut rng, RSA_BITS),
                ring: KeyRing::new(),
                store: Database::new(),
            })
            .collect();
        for rel in catalog.relations() {
            if let (Some(owner), Some(table)) = (subjects.authority(rel.rel), db.table(rel.rel)) {
                parties[owner.index()].store.insert(rel.rel, table.clone());
            }
        }
        let core = Core::new(catalog, subjects, policy, rng, &config);
        let parties: Vec<Arc<Party>> = parties.into_iter().map(Arc::new).collect();
        let faults = Arc::new(Mutex::new(FaultState::new(config.faults.clone())));
        let wire_stats = Arc::new(WireStats::default());
        let threads = PartyThreads::spawn(
            &core.catalog,
            &core.views,
            &parties,
            config.transport,
            config.seed,
            Arc::clone(&faults),
            config.retry,
            Arc::clone(&wire_stats),
        );
        Session {
            core,
            parties,
            threads,
            faults,
            wire_stats,
        }
    }

    /// The §6 preparation of one query, through the in-proc fleet.
    fn prepare(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Prepared, SimError> {
        let signer = &self.parties[user.index()].rsa;
        self.core
            .prepare(ext, keys, user, signer, &mut InProc(&self.parties))
    }

    /// Run one query over the session's persistent parties, on behalf
    /// of `user`, with the Def. 6.1 key establishment `keys`.
    ///
    /// This is the **concurrent** runtime: the long-lived party threads
    /// wake, exchange result tables over their mailboxes, and every
    /// segment (a same-subject chain of the plan) runs as one pipeline
    /// as soon as the tables at its cuts arrive at its assignee
    /// (see [`runtime`](crate::runtime)). Results and per-edge byte
    /// counts are bit-identical to [`Session::execute_sequential`].
    ///
    /// An `Err` aborts this query only; the session remains usable.
    pub fn execute(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Report, SimError> {
        let prepared = self.prepare(ext, keys, user)?;
        self.threads.run(prepared)
    }

    /// Run one query bottom-up on the calling thread — the reference
    /// interpreter the concurrent runtime is differentially tested
    /// against. Same preparation (and the same key cache), same
    /// results, same byte accounting; no pipeline parallelism.
    pub fn execute_sequential(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Report, SimError> {
        let Prepared {
            job,
            request_bytes,
            requests,
        } = self.prepare(ext, keys, user)?;
        let spec = &job.spec;
        let views = &self.core.views;

        // Envelopes open and verify at their recipients (here: inline,
        // since everything runs on one thread).
        for (to, envelope, expected) in &job.envelopes {
            let opened = envelope
                .open(&self.parties[to.index()].rsa, &job.user_public)
                .ok_or(SimError::Envelope { to: *to })?;
            if &opened != expected {
                return Err(SimError::Envelope { to: *to });
            }
        }

        // ---- bottom-up execution, one segment at a time -------------
        let mut transfers = request_bytes.clone();
        let mut results: HashMap<NodeId, Table> = HashMap::new();
        for seg in &job.segments {
            let executor = seg.subject;
            // Tables produced by another subject cross the wire here:
            // account the bytes and audit every cell against the
            // receiving subject's view.
            for input in &seg.inputs {
                let producer = spec.assignment[input];
                let table = results.get(input).expect("segments run in postorder");
                if producer != executor {
                    audit::audit_transfer_with(table, &views[executor.index()], &job.pool)?;
                    *transfers.entry((producer, executor)).or_default() += table.byte_size();
                }
            }
            let party = &self.parties[executor.index()];
            let ctx = ExecCtx::builder(
                &self.core.catalog,
                &party.store,
                &party.ring,
                &spec.schemes,
                &spec.key_of_attr,
            )
            .pool(job.pool.clone())
            .seed(spec.exec_seed)
            .build();
            let table = execute_step(&spec.plan, seg.root, &mut results, &ctx)?;
            results.insert(seg.root, table);
        }

        // ---- deliver the result to the user --------------------------
        let root = spec.plan.root();
        let root_subject = spec.assignment[&root];
        let result = results.remove(&root).expect("root executed");
        audit::audit_transfer_with(&result, &views[user.index()], &job.pool)?;
        if root_subject != user {
            *transfers.entry((root_subject, user)).or_default() += result.byte_size();
        }

        Ok(Report {
            result,
            transfers,
            request_bytes,
            requests,
        })
    }

    /// Amortization counters: clusters provisioned vs re-used, public
    /// halves delivered, queries served.
    pub fn stats(&self) -> SessionStats {
        self.core.stats
    }

    /// Swap the transport fault schedule for the session's *next*
    /// queries (chaos tests sweep many schedules over one long-lived
    /// session, amortizing party setup). Resets the per-edge fault
    /// counters — each schedule starts from `frame_index = 0` — and
    /// the recovery counters, so [`Session::recovery_stats`] reads as
    /// "since the last schedule swap". Safe between queries only;
    /// [`Session::execute`] drains every participant before returning,
    /// so there is no in-flight send to race with.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults
            .lock()
            .expect("fault lock poisoned")
            .set_plan(plan);
        self.wire_stats.reset();
    }

    /// Per-edge delivery/retry/injection counters accumulated since
    /// the session opened or the last [`Session::set_faults`]. A
    /// successful query with a nonzero retry count is a *recovered*
    /// run — the chaos soak counts these; the retry-determinism
    /// proptest asserts they are identical across transport backends.
    pub fn recovery_stats(&self) -> HashMap<(SubjectId, SubjectId), EdgeRecovery> {
        self.wire_stats.snapshot()
    }

    /// Number of cluster keys currently cached (provisioned and not
    /// revoked).
    pub fn cached_clusters(&self) -> usize {
        self.core.cached()
    }

    /// Forget every provisioned cluster (the material is also dropped
    /// from the holders' rings) without touching the party threads.
    /// The next query provisions from scratch, with session-wide key
    /// ids restarting at 0, exactly like the first query of a fresh
    /// session: callers that need fresh Def. 6.1 material per query
    /// call this before each one.
    pub fn reset_provisioning(&mut self) {
        for id in self.core.forget_all() {
            for party in self.parties.iter() {
                party.ring.revoke(id);
            }
        }
    }

    /// Revoke the full cluster key `id` from every party, keeping only
    /// the public aggregation halves, and invalidate the session's
    /// cache entry for its cluster: the next query needing that cluster
    /// re-provisions *fresh* material under a new id (a revoked key
    /// must never come back from a cache).
    pub fn revoke_key(&mut self, id: u32) {
        for party in self.parties.iter() {
            party.ring.revoke(id);
        }
        self.core.forget(id);
    }

    /// `true` if `s` currently holds the full cluster key `id`.
    pub fn holds_key(&self, s: SubjectId, id: u32) -> bool {
        self.parties[s.index()].ring.holds(id)
    }

    /// Which base relations a subject stores (the authority
    /// partitioning computed by [`Session::open`]).
    pub fn stored_relations(&self, s: SubjectId) -> Vec<RelId> {
        self.core
            .catalog
            .relations()
            .iter()
            .map(|r| r.rel)
            .filter(|&r| self.parties[s.index()].store.table(r).is_some())
            .collect()
    }

    /// Tear the session down: the party threads receive a shutdown
    /// message and are joined. Dropping the session does the same;
    /// `close` exists to make the teardown point explicit.
    pub fn close(self) {}
}
