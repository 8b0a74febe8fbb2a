//! The federated client/server deployment: one OS **process** per
//! subject.
//!
//! [`Session`](crate::Session) realizes the paper's §6 protocol with
//! one *thread* per subject inside a single process. This module
//! promotes that topology to the architecture Fig. 8 actually draws:
//! every subject is its own [`Server`] process holding **only its own
//! material** — its partition of the base relations, its RSA keypair,
//! and the cluster keys Def. 6.1 provisions to it — while a
//! [`Coordinator`] embedded in the querying user's process drives the
//! protocol over real TCP:
//!
//! 1. **hello** — the coordinator connects to every server's control
//!    port, announces the querying user and its RSA public key, and
//!    learns each server's subject id and public key
//!    (`Frame::Hello`/`Frame::HelloAck`);
//! 2. **provision** — the [coordinator core](crate::coordinator), the
//!    same one every in-proc [`Session`](crate::Session) runs, generates
//!    Def. 6.1 cluster keys client-side and this module's fleet ships
//!    them to their holders as sealed `[[key]_priU]_pubS` envelopes
//!    (`Frame::Provision`); computing non-holders receive only the
//!    public Paillier modulus (`Frame::ProvisionPublic`) — enough to
//!    aggregate, never to decrypt. Provisioning is incremental: a
//!    cluster reaches each server once per coordinator, not once per
//!    query. Private RSA keys never cross the wire in any direction;
//! 3. **execute** — each participant receives the wire projection of
//!    the query job plus its signed sub-query request
//!    (`Frame::Execute`); the signed request *is* the authorization
//!    to compute, and a server that cannot open and verify its
//!    envelope refuses the epoch;
//! 4. **data plane** — result tables flow *directly* between the
//!    subject processes (true peer-to-peer, not through the
//!    coordinator) as framed `Msg` records; the
//!    receiving party audits every cell against its own view and
//!    accounts the bytes, exactly as in-process;
//! 5. **done** — every participant reports
//!    `Frame::Done`/`Frame::Failed` on its control connection and
//!    the coordinator assembles the [`Report`].
//!
//! The whole exchange is built to survive flaky links: control sends
//! run under the same bounded-retry/backoff discipline as the data
//! plane, a dead control connection is re-dialed and the pending
//! `Execute` re-delivered, and servers cache per-epoch outcomes so
//! re-delivery replays the recorded answer instead of executing twice
//! (after re-verifying the signed envelope — recovery never relaxes
//! authorization). A fault that outlives the budget aborts *the epoch*
//! with a typed error; the fleet keeps serving the next query.
//!
//! Cached provisioning stays sound across reconnects by one rule: after
//! every successful (re-)hello with a server, the coordinator re-sends
//! every key delivery it has recorded for that server before any other
//! frame. Key-ring inserts are idempotent, so a server that reconnected
//! — or restarted — holds whatever the cache says it holds; a replay
//! that fails fails the redial.
//!
//! The executing machinery is byte-for-byte the session runtime:
//! `run_query` — the same function the in-process party threads run
//! — executes each server's share, so every guarantee (receive audit,
//! epoch isolation, typed transport aborts) carries over. What a
//! server *cannot* check is the batch-payload equality in-proc parties
//! verify (they share the coordinator's memory); opening the sealed
//! envelope and verifying the user's signature is the honest remote
//! counterpart.

use crate::codec::Frame;
use crate::coordinator::{Core, Fleet, Prepared, Seal};
use crate::error::SimError;
use crate::fault::{splitmix64, FaultAction, FaultPlan, RetryPolicy};
use crate::runtime::{
    broadcast_abort, panic_text, run_query, JobSpec, Msg, Outcome, PartyMsg, PartyStatic, QueryJob,
};
use crate::session::{SessionConfig, SessionStats};
use crate::transport::{
    Control, EdgeRecovery, FaultState, TcpHub, TcpTransport, Transport, TransportError, Wire,
    WireStats,
};
use crate::{Party, Report, TransportKind, RSA_BITS};
use mpq_algebra::{Catalog, SubjectId};
use mpq_core::authz::{Policy, SubjectView};
use mpq_core::extend::ExtendedPlan;
use mpq_core::keys::KeyPlan;
use mpq_core::subjects::Subjects;
use mpq_crypto::bignum::BigUint;
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::paillier::PaillierPublic;
use mpq_crypto::rsa::{RsaKeypair, RsaPublic, SignedEnvelope};
use mpq_exec::{Database, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long control-plane connects wait before failing typed.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Extra slack the coordinator grants servers past the data-plane
/// receive timeout before declaring their control connection dead: a
/// server that hits its own timeout still needs a moment to report
/// `Failed`.
const DONE_SLACK: Duration = Duration::from_secs(5);

/// How many completed epochs a server keeps outcome frames for, so a
/// coordinator re-sending `Execute` after an ambiguous failure gets the
/// recorded `Done`/`Failed` replayed instead of a second execution.
const OUTCOME_CACHE: u64 = 8;

/// Salt separating control-plane backoff jitter from the data plane's
/// (both derive from the session seed).
const CTL_SALT: u64 = 0x6374_6c5f_7365_6564; // "ctl_seed"

/// Everything one `mpq-server` process needs to host a subject.
///
/// The deliberate *absence* here is the point: no other subject's
/// store, no other subject's keys, no policy-wide state beyond this
/// subject's own view (needed for the receive audit). Catalog, view,
/// and the store partition are derived from a shared fixture on both
/// sides of the wire (see the `mpq-server` binary).
pub struct ServerConfig {
    /// The subject this process hosts.
    pub me: SubjectId,
    /// Listen address (`host:port`; port 0 for OS-assigned).
    pub listen: String,
    /// Data-plane addresses of the *other* parties, including the
    /// coordinator's user.
    pub peers: HashMap<SubjectId, String>,
    /// Seed for this server's RSA keypair.
    pub seed: u64,
    /// The shared schema.
    pub catalog: Catalog,
    /// This subject's overall view (receive audits).
    pub view: SubjectView,
    /// This subject's partition of the base relations.
    pub store: Database,
    /// Fault schedule for this server's *sending* data plane (`None`
    /// injects nothing).
    pub faults: Option<FaultPlan>,
    /// Retry budget and backoff shape for data-plane sends.
    pub retry: RetryPolicy,
}

/// A bound subject process: one listener serving both the data plane
/// (peer connections) and the control plane (the coordinator).
pub struct Server {
    st: PartyStatic,
    peers: HashMap<SubjectId, String>,
    rx: Receiver<PartyMsg>,
    ctl_rx: Receiver<Control>,
    hub: TcpHub,
    seed: u64,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    /// Outcome frames of recent epochs, replayed when a recovering
    /// coordinator re-delivers an `Execute` this server already ran.
    outcomes: HashMap<u64, Frame>,
}

impl Server {
    /// Bind the listener and generate this subject's keypair. The
    /// process serves coordinators until one sends
    /// `Frame::Shutdown`.
    pub fn bind(config: ServerConfig) -> Result<Server, TransportError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let party = Arc::new(Party {
            rsa: RsaKeypair::generate(&mut rng, RSA_BITS),
            ring: KeyRing::new(),
            store: config.store,
        });
        let (tx, rx) = channel();
        let (ctl_tx, ctl_rx) = channel();
        let hub = TcpHub::bind(&config.listen, tx, Some(ctl_tx))?;
        Ok(Server {
            st: PartyStatic {
                me: config.me,
                catalog: Arc::new(config.catalog),
                view: config.view,
                party,
            },
            peers: config.peers,
            rx,
            ctl_rx,
            hub,
            seed: config.seed,
            faults: config.faults,
            retry: config.retry,
            outcomes: HashMap::new(),
        })
    }

    /// The actually-bound `host:port` (resolves port 0).
    pub fn addr(&self) -> &str {
        self.hub.addr()
    }

    /// Serve coordinators until one sends `Frame::Shutdown`. A
    /// coordinator dropping its connection — or damaging it mid-epoch —
    /// returns the server to accepting the next one; provisioned keys
    /// and cached epoch outcomes persist across coordinator
    /// connections (they are this subject's material).
    pub fn run(mut self) -> Result<(), TransportError> {
        let backend: Arc<dyn Transport> = Arc::new(TcpTransport::new(
            self.st.me,
            self.peers.clone(),
            CONNECT_TIMEOUT,
        ));
        let wire = Wire::new(
            self.st.me,
            self.seed,
            backend,
            Arc::new(Mutex::new(FaultState::new(self.faults.clone()))),
            self.retry,
            Arc::new(WireStats::default()),
        );
        let mut stash: Vec<(u64, Msg)> = Vec::new();
        loop {
            let Ok(mut ctl) = self.ctl_rx.recv() else {
                return Ok(());
            };
            match self.serve_conn(&mut ctl, &wire, &mut stash) {
                Ok(true) => return Ok(()),
                // The coordinator went away or its connection died
                // mid-conversation: either way this server keeps its
                // material and serves the next connection. A fleet
                // survives any one flaky link.
                Ok(false) | Err(_) => continue,
            }
        }
    }

    /// Serve one coordinator connection. `Ok(true)` means shutdown was
    /// requested; `Ok(false)` means the coordinator went away.
    fn serve_conn(
        &mut self,
        ctl: &mut Control,
        wire: &Wire,
        stash: &mut Vec<(u64, Msg)>,
    ) -> Result<bool, TransportError> {
        // The handshake fixes who we are talking *for*: every envelope
        // of this connection must verify against this user key.
        let mut user_public: Option<RsaPublic> = None;
        loop {
            let frame = match ctl.recv(None) {
                Ok(f) => f,
                Err(TransportError::Closed) => return Ok(false),
                Err(e) => return Err(e),
            };
            match frame {
                Frame::Hello { user: _, public } => {
                    user_public = Some(public);
                    ctl.send(&Frame::HelloAck {
                        me: self.st.me,
                        public: self.st.party.rsa.public.clone(),
                    })?;
                }
                Frame::Provision { envelope } => {
                    // Def. 6.1 delivery: sealed to us, signed by the
                    // user. A key that fails to open is simply not
                    // granted — the query that needed it will fail with
                    // a typed MissingKey at execution.
                    if let Some(pk) = &user_public {
                        if let Some(key) = envelope
                            .open(&self.st.party.rsa, pk)
                            .and_then(|bytes| ClusterKey::from_bytes(&bytes))
                        {
                            self.st.party.ring.insert(key);
                        }
                    }
                }
                Frame::ProvisionPublic { id, n } => {
                    self.st.party.ring.insert_public(
                        id,
                        PaillierPublic::from_modulus(BigUint::from_bytes_be(&n)),
                    );
                }
                Frame::Execute {
                    epoch,
                    job,
                    envelope,
                } => {
                    let Some(pk) = user_public.clone() else {
                        ctl.send(&Frame::Failed {
                            epoch,
                            message: "Execute before Hello".to_string(),
                        })?;
                        continue;
                    };
                    // A re-delivered Execute (the coordinator re-sent
                    // after an ambiguous failure) replays the recorded
                    // outcome instead of executing twice — but the
                    // authorization is never relaxed: the envelope must
                    // still open and verify against the session's user
                    // key before anything is replayed.
                    if self.outcomes.contains_key(&epoch) {
                        let authorized = envelope.open(&self.st.party.rsa, &pk).is_some();
                        let reply = if authorized {
                            self.outcomes[&epoch].clone()
                        } else {
                            Frame::Failed {
                                epoch,
                                message: SimError::Envelope { to: self.st.me }.to_string(),
                            }
                        };
                        ctl.send(&reply)?;
                        continue;
                    }
                    let outcome = self.execute(epoch, job, envelope, &pk, wire, stash);
                    let reply = match outcome {
                        Outcome::Done(out) => {
                            let mut transfers: Vec<(SubjectId, SubjectId, u64)> = out
                                .transfers
                                .into_iter()
                                .map(|((f, t), b)| (f, t, b as u64))
                                .collect();
                            transfers.sort_by_key(|(f, t, _)| (f.index(), t.index()));
                            Frame::Done { epoch, transfers }
                        }
                        Outcome::Failed(e) => Frame::Failed {
                            epoch,
                            message: e.to_string(),
                        },
                        Outcome::Aborted => Frame::Failed {
                            epoch,
                            message: ABORTED_MARK.to_string(),
                        },
                        Outcome::Panicked(m) => Frame::Failed {
                            epoch,
                            message: format!("party panicked: {m}"),
                        },
                    };
                    // Record the outcome *before* reporting it: if the
                    // send fails because the coordinator's connection
                    // died, the recovery path re-delivers Execute and
                    // finds the answer here.
                    self.outcomes.insert(epoch, reply.clone());
                    self.outcomes.retain(|&e, _| e + OUTCOME_CACHE > epoch);
                    ctl.send(&reply)?;
                }
                Frame::Shutdown => return Ok(true),
                // Data-plane or coordinator-bound frames on a control
                // connection: a confused peer. Drop the connection.
                _ => return Ok(false),
            }
        }
    }

    /// Execute this server's share of one epoch with the session
    /// runtime's own `run_query`.
    fn execute(
        &self,
        epoch: u64,
        spec: JobSpec,
        envelope: SignedEnvelope,
        user_public: &RsaPublic,
        wire: &Wire,
        stash: &mut Vec<(u64, Msg)>,
    ) -> Outcome {
        // Verified here rather than by run_query: a server cannot know
        // the expected payload, which in-proc parties compare against
        // (a shared-memory artifact), so the job carries no envelopes.
        let qj = QueryJob::new(spec, user_public.clone(), Vec::new(), WorkerPool::global());
        // The signed request is the authorization to compute: it must
        // open (sealed to us) and verify (signed by the user).
        if envelope.open(&self.st.party.rsa, user_public).is_none() {
            broadcast_abort(wire, epoch, &qj.participants, self.st.me);
            return Outcome::Failed(SimError::Envelope { to: self.st.me });
        }
        catch_unwind(AssertUnwindSafe(|| {
            run_query(&self.st, &qj, epoch, &self.rx, wire, stash)
        }))
        .unwrap_or_else(|payload| {
            broadcast_abort(wire, epoch, &qj.participants, self.st.me);
            Outcome::Panicked(panic_text(payload))
        })
    }
}

/// Marker a server reports when it stopped because a *peer* failed —
/// the coordinator prefers the actual failure over this echo.
const ABORTED_MARK: &str = "aborted: a peer failed first";

/// The querying user's end of the federated deployment: holds the
/// user's own party (keys, store partition, data-plane hub), a control
/// connection to every server, and drives the full §6 protocol per
/// query through the same [coordinator core](crate::coordinator) an
/// in-proc [`Session`](crate::Session) uses.
pub struct Coordinator {
    /// The §6 preparation: views, RNG, cluster-key cache, counters.
    core: Core,
    /// The user's own party.
    st: PartyStatic,
    /// The control plane: the remote fleet.
    link: Link,
    wire: Wire,
    wire_stats: Arc<WireStats>,
    rx: Receiver<PartyMsg>,
    stash: Vec<(u64, Msg)>,
    _hub: TcpHub,
    epoch: u64,
}

/// The coordinator's control connections — the remote [`Fleet`]: keys
/// for the user go straight into the user's own ring, keys for a server
/// travel as control frames.
struct Link {
    user: SubjectId,
    /// The user's own party (its ring receives the user's deliveries).
    own: Arc<Party>,
    controls: HashMap<SubjectId, Control>,
    server_publics: HashMap<SubjectId, RsaPublic>,
    /// Control addresses, kept for re-dialing a lost connection.
    server_addrs: HashMap<SubjectId, String>,
    /// Every provisioning frame the core's cache records per server,
    /// re-sent after each (re-)hello so a reconnected or restarted
    /// server holds what the cache says it holds.
    provisioned: HashMap<SubjectId, Vec<Frame>>,
    /// Control-plane fault schedule, with its *own* per-edge counters:
    /// the data-plane trace stays a function of data-plane attempts
    /// alone, comparable across transport backends.
    ctl_faults: FaultState,
    retry: RetryPolicy,
    seed: u64,
    /// The Execute frame sent to each participant this epoch, kept so a
    /// reconnected control channel can re-deliver it.
    pending_execute: HashMap<SubjectId, Frame>,
    /// Control-plane re-sends and reconnects performed so far.
    ctl_recovered: u64,
    /// Data-plane receive timeout; control waits add `DONE_SLACK`.
    timeout: Duration,
}

impl Fleet for Link {
    fn public_of(&self, s: SubjectId) -> Result<&RsaPublic, SimError> {
        if s == self.user {
            return Ok(&self.own.rsa.public);
        }
        self.server_publics
            .get(&s)
            .ok_or(SimError::Envelope { to: s })
    }

    fn deliver_key(
        &mut self,
        s: SubjectId,
        key: &ClusterKey,
        seal: &mut Seal,
    ) -> Result<(), SimError> {
        if s == self.user {
            self.own.ring.insert(key.clone());
            return Ok(());
        }
        let envelope = seal(self.public_of(s)?);
        self.provision(s, Frame::Provision { envelope })
    }

    fn deliver_public(
        &mut self,
        s: SubjectId,
        id: u32,
        public: PaillierPublic,
    ) -> Result<(), SimError> {
        if s == self.user {
            self.own.ring.insert_public(id, public);
            return Ok(());
        }
        let n = public.n.to_bytes_be();
        self.provision(s, Frame::ProvisionPublic { id, n })
    }
}

impl Coordinator {
    /// Connect to every server, run the hello handshake, and set up
    /// the user's own party (data-plane hub on `listen`, store holding
    /// the relations the user is the authority of).
    ///
    /// `servers` maps each remote subject to its `host:port`; the
    /// servers' own `peers` maps must point back at `listen` for the
    /// user's subject, since result tables flow peer-to-peer. `db` is
    /// the full fixture database — only the user-authority partition
    /// stays in this process. The [`SessionConfig`] contributes every
    /// knob but the transport, which is moot: a coordinator is TCP by
    /// definition.
    #[allow(clippy::too_many_arguments)]
    pub fn connect(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        db: &Database,
        user: SubjectId,
        listen: &str,
        servers: &HashMap<SubjectId, String>,
        config: SessionConfig,
    ) -> Result<Coordinator, SimError> {
        let config = config.transport(TransportKind::Tcp);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rsa = RsaKeypair::generate(&mut rng, RSA_BITS);
        let mut store = Database::new();
        for rel in catalog.relations() {
            if subjects.authority(rel.rel) == Some(user) {
                if let Some(table) = db.table(rel.rel) {
                    store.insert(rel.rel, table.clone());
                }
            }
        }
        let core = Core::new(catalog, subjects, policy, rng, &config);
        let (tx, rx) = channel();
        let hub = TcpHub::bind(listen, tx, None).map_err(SimError::Transport)?;
        let own = Arc::new(Party {
            rsa,
            ring: KeyRing::new(),
            store,
        });
        let st = PartyStatic {
            me: user,
            catalog: Arc::clone(&core.catalog),
            view: core.views[user.index()].clone(),
            party: Arc::clone(&own),
        };
        let faults = Arc::new(Mutex::new(FaultState::new(config.faults.clone())));
        let wire_stats = Arc::new(WireStats::default());
        let backend: Arc<dyn Transport> =
            Arc::new(TcpTransport::new(user, servers.clone(), CONNECT_TIMEOUT));
        let mut link = Link {
            user,
            own,
            controls: HashMap::new(),
            server_publics: HashMap::new(),
            server_addrs: servers.clone(),
            provisioned: HashMap::new(),
            ctl_faults: FaultState::new(config.faults.clone()),
            retry: config.retry,
            seed: config.seed,
            pending_execute: HashMap::new(),
            ctl_recovered: 0,
            timeout: core.timeout.unwrap_or(Duration::from_secs(10)),
        };
        let mut order: Vec<SubjectId> = servers.keys().copied().collect();
        order.sort_by_key(|s| s.index());
        for s in order {
            link.redial_control(s)?;
        }
        Ok(Coordinator {
            core,
            st,
            link,
            wire: Wire::new(
                user,
                config.seed,
                backend,
                faults,
                config.retry,
                Arc::clone(&wire_stats),
            ),
            wire_stats,
            rx,
            stash: Vec::new(),
            _hub: hub,
            epoch: 0,
        })
    }

    /// Run one query across the server processes: the coordinator
    /// core's §6 preparation (Def. 4.1 re-check, pre-flight,
    /// incremental Def. 6.1 provisioning over the wire, signed
    /// requests), then peer-to-peer execution and report assembly.
    /// Clusters this coordinator already provisioned are re-used, as
    /// in a [`Session`](crate::Session).
    pub fn execute(&mut self, ext: &ExtendedPlan, keys: &KeyPlan) -> Result<Report, SimError> {
        let user = self.st.me;
        let Prepared {
            job,
            request_bytes,
            requests,
        } = self
            .core
            .prepare(ext, keys, user, &self.st.party.rsa, &mut self.link)?;

        // ---- Execute frames + the user's own share -----------------
        self.epoch += 1;
        let epoch = self.epoch;
        self.link.pending_execute.clear();
        for &s in job.participants.iter().filter(|&&s| s != user) {
            let envelope = job
                .envelopes
                .iter()
                .find(|(to, ..)| *to == s)
                .map(|(_, envelope, _)| envelope.clone())
                .ok_or(SimError::Envelope { to: s })?;
            let frame = Frame::Execute {
                epoch,
                job: job.spec.clone(),
                envelope,
            };
            // Keep the frame: a reconnected control channel re-delivers
            // it, and the server-side outcome cache makes re-delivery
            // idempotent.
            self.link.pending_execute.insert(s, frame.clone());
            if let Err(e) = self.link.ctl_send(s, &frame) {
                // Graceful degradation: a server whose control channel
                // is beyond the retry budget fails *this epoch*, not
                // the session. Abort the epoch on the data plane so the
                // participants that did receive Execute stop waiting
                // and report, leaving every channel clean for the next
                // query.
                broadcast_abort(&self.wire, epoch, &job.participants, user);
                return Err(e);
            }
        }

        // The user's own share runs inline: the coordinator process
        // *is* the user's party (Fig. 8 — the user participates in the
        // data plane like any provider).
        let own = run_query(&self.st, &job, epoch, &self.rx, &self.wire, &mut self.stash);

        // ---- collect outcomes, assemble the report ------------------
        let mut transfers = request_bytes.clone();
        let mut failures: Vec<(SubjectId, String)> = Vec::new();
        let mut result = None;
        match own {
            Outcome::Done(out) => {
                for (edge, bytes) in out.transfers {
                    *transfers.entry(edge).or_default() += bytes;
                }
                result = out.result;
            }
            Outcome::Failed(e) => return Err(e),
            Outcome::Aborted => failures.push((user, ABORTED_MARK.to_string())),
            Outcome::Panicked(m) => panic!("coordinator party panicked: {m}"),
        }
        let wait = self.link.timeout + DONE_SLACK;
        for &s in job.participants.iter().filter(|&&s| s != user) {
            match self.link.recv_outcome(s, epoch, wait) {
                Ok(t) => {
                    for (f, to, bytes) in t {
                        *transfers.entry((f, to)).or_default() += bytes as usize;
                    }
                }
                // A failed share, or a control channel dead beyond the
                // retry budget, fails this epoch for this participant;
                // the remaining participants are still drained so the
                // next query starts on clean channels.
                Err(message) => failures.push((s, message)),
            }
        }
        self.link.pending_execute.clear();
        if !failures.is_empty() {
            // Prefer the actual failure over "a peer failed" echoes,
            // then lowest subject id, mirroring the session's
            // deterministic error precedence.
            failures.sort_by_key(|(s, m)| (m == ABORTED_MARK, s.index()));
            let (from, message) = failures.remove(0);
            return Err(SimError::Transport(TransportError::Peer { from, message }));
        }
        Ok(Report {
            result: result.ok_or(SimError::Transport(TransportError::Frame {
                detail: "no result delivered to the user".to_string(),
            }))?,
            transfers,
            request_bytes,
            requests,
        })
    }

    /// Amortization counters, as [`Session::stats`](crate::Session::stats)
    /// reports them: clusters provisioned vs re-used, public halves
    /// delivered, queries served.
    pub fn stats(&self) -> SessionStats {
        self.core.stats
    }

    /// Per-edge recovery counters of this coordinator's *data-plane*
    /// sends — the user's share of the peer-to-peer traffic. The
    /// counters are a pure function of the fault schedule, so the same
    /// schedule yields the same map a [`crate::Session`] reports.
    pub fn recovery_stats(&self) -> HashMap<(SubjectId, SubjectId), EdgeRecovery> {
        self.wire_stats.snapshot()
    }

    /// Total recovered deliveries so far: data-plane re-sends plus
    /// control-plane re-sends and reconnects. Non-zero means the
    /// session survived at least one injected or real fault.
    pub fn recovered_sends(&self) -> u64 {
        self.wire_stats.total_retries() + self.link.ctl_recovered
    }

    /// Ask every server to exit, then drop the connections.
    pub fn shutdown(mut self) {
        for (_, ctl) in self.link.controls.iter_mut() {
            let _ = ctl.send(&Frame::Shutdown);
        }
    }
}

impl Link {
    /// Send one provisioning frame, recorded first so any redial
    /// replays it.
    fn provision(&mut self, s: SubjectId, frame: Frame) -> Result<(), SimError> {
        self.provisioned.entry(s).or_default().push(frame.clone());
        self.ctl_send(s, &frame).inspect_err(|_| {
            // A delivery that may not have landed: drop the connection
            // so the next contact with `s` redials and replays.
            self.controls.remove(&s);
        })
    }

    /// Send one control frame under the same bounded-retry discipline
    /// as the data plane: every failed attempt burns one unit of the
    /// `max_attempts` budget and backs off with seeded jitter.
    fn ctl_send(&mut self, s: SubjectId, frame: &Frame) -> Result<(), SimError> {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut prev_ms = self.retry.base_ms;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let Err(err) = self.ctl_attempt(s, frame) else {
                return Ok(());
            };
            if attempt >= max_attempts {
                return Err(err);
            }
            self.backoff(s, attempt, &mut prev_ms);
        }
    }

    /// One delivery attempt: (re-)dial if the connection is gone, then
    /// send under the control-plane fault schedule. A connection damaged
    /// by the attempt is dropped, so the next attempt re-dials.
    fn ctl_attempt(&mut self, s: SubjectId, frame: &Frame) -> Result<(), SimError> {
        // A write into a connection the peer already closed can succeed
        // locally and vanish — a restarted server's old connection must
        // be re-dialed, not written to.
        if self.controls.get(&s).is_some_and(Control::peer_closed) {
            self.controls.remove(&s);
        }
        if !self.controls.contains_key(&s) {
            self.redial_control(s)?;
        }
        let action = self.ctl_faults.next_action(self.user, s);
        if let FaultAction::Delay(d) | FaultAction::Stall(d) = action {
            std::thread::sleep(d);
        }
        let ctl = self.controls.get_mut(&s).expect("dialed above");
        let failed = match action {
            FaultAction::Deliver | FaultAction::Delay(_) | FaultAction::Stall(_) => {
                match ctl.send(frame) {
                    Ok(()) => return Ok(()),
                    Err(e) => SimError::Transport(e),
                }
            }
            // The frame vanishes in flight; the connection is fine and
            // the retry re-sends on it.
            FaultAction::Drop => return Err(injected(s, "frame dropped")),
            // The frame is damaged mid-record and the connection
            // poisoned; nothing usable arrives.
            FaultAction::Truncate => {
                ctl.shutdown();
                injected(s, "frame truncated")
            }
            // The frame arrives, then the connection dies — the
            // ambiguous case. The retry re-delivers, and the receiver's
            // idempotency (key-ring inserts, the epoch outcome cache)
            // absorbs the duplicate.
            FaultAction::Reset => {
                let _ = ctl.send(frame);
                ctl.shutdown();
                injected(s, "connection reset")
            }
        };
        self.controls.remove(&s);
        Err(failed)
    }

    /// Wait for `s`'s outcome of `epoch`: its per-edge transfers on
    /// `Done`, else the failure message (`Failed`, or a control error
    /// beyond the retry budget). A dead control connection is re-dialed
    /// and the pending `Execute` re-delivered — the server either
    /// replays its cached outcome or runs the epoch it never received.
    /// A *quiet* but healthy connection (timeout) is not recoverable by
    /// reconnecting and fails immediately.
    fn recv_outcome(
        &mut self,
        s: SubjectId,
        epoch: u64,
        wait: Duration,
    ) -> Result<Vec<(SubjectId, SubjectId, u64)>, String> {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut prev_ms = self.retry.base_ms;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let r = match self.controls.get_mut(&s) {
                Some(ctl) => ctl.recv(Some(wait)),
                None => Err(TransportError::Closed),
            };
            let err = match r {
                // Residue of an earlier epoch: drain it without
                // consuming recovery budget.
                Ok(Frame::Done { epoch: e, .. } | Frame::Failed { epoch: e, .. }) if e != epoch => {
                    attempt -= 1;
                    continue;
                }
                Ok(Frame::Done { transfers, .. }) => return Ok(transfers),
                Ok(Frame::Failed { message, .. }) => return Err(message),
                Ok(_) => TransportError::Frame {
                    detail: "expected Done/Failed".to_string(),
                },
                Err(e @ TransportError::Timeout { .. }) => e,
                Err(e) => {
                    self.controls.remove(&s);
                    if attempt < max_attempts {
                        self.backoff(s, attempt, &mut prev_ms);
                        self.redeliver(s);
                        continue;
                    }
                    e
                }
            };
            return Err(SimError::Transport(err).to_string());
        }
    }

    /// Re-dial `s` and re-deliver this epoch's `Execute`; a failure here
    /// shows up as a dead connection on the next receive.
    fn redeliver(&mut self, s: SubjectId) {
        if self.redial_control(s).is_ok() {
            let frame = self.pending_execute.get(&s).cloned();
            let ctl = self.controls.get_mut(&s).expect("just dialed");
            if frame.is_some_and(|f| ctl.send(&f).is_err()) {
                self.controls.remove(&s);
            }
        }
    }

    /// Back off before retry `attempt` of a control send to `s`, with
    /// jitter seeded per edge, counting the recovery.
    fn backoff(&mut self, s: SubjectId, attempt: u32, prev_ms: &mut u64) {
        let edge_seed = splitmix64(
            self.seed ^ CTL_SALT ^ ((self.user.index() as u64) << 32) ^ s.index() as u64,
        );
        self.ctl_recovered += 1;
        *prev_ms = self.retry.backoff_ms(edge_seed, attempt, *prev_ms);
        std::thread::sleep(Duration::from_millis(*prev_ms));
    }

    /// Dial (or re-dial) one server's control port, redo the hello
    /// handshake, and replay every provisioning frame recorded for it —
    /// before any other frame, so the server holds what the cache says
    /// it holds. One attempt, never a loop of its own — every caller
    /// sits inside a bounded retry budget. The `HelloAck` wait grants
    /// `DONE_SLACK` past the query timeout because a mid-epoch server
    /// only answers once its current serve loop observes the dead
    /// predecessor connection.
    fn redial_control(&mut self, s: SubjectId) -> Result<(), SimError> {
        let addr = self
            .server_addrs
            .get(&s)
            .cloned()
            .ok_or(SimError::Transport(TransportError::Closed))?;
        let mut ctl = Control::connect(&addr, CONNECT_TIMEOUT).map_err(SimError::Transport)?;
        ctl.send(&Frame::Hello {
            user: self.user,
            public: self.own.rsa.public.clone(),
        })
        .map_err(SimError::Transport)?;
        let wait = self.timeout + DONE_SLACK;
        match ctl.recv(Some(wait)).map_err(SimError::Transport)? {
            Frame::HelloAck { me, public } if me == s => {
                self.server_publics.insert(s, public);
            }
            Frame::HelloAck { me, .. } => {
                return Err(SimError::Transport(TransportError::Frame {
                    detail: format!("server at {addr} hosts {me}, expected {s}"),
                }))
            }
            _ => {
                return Err(SimError::Transport(TransportError::Frame {
                    detail: "expected HelloAck".to_string(),
                }))
            }
        }
        for frame in self.provisioned.get(&s).into_iter().flatten() {
            ctl.send(frame).map_err(SimError::Transport)?;
        }
        self.controls.insert(s, ctl);
        Ok(())
    }
}

/// The uniform sender-visible error for an injected control-plane
/// fault — the same wording the data-plane [`Wire`] synthesizes, so a
/// recovery trace reads identically whichever plane the schedule hit.
fn injected(to: SubjectId, what: &str) -> SimError {
    SimError::Transport(TransportError::Send {
        to,
        detail: format!("injected fault: {what}"),
    })
}
