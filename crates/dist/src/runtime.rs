//! The concurrent multi-party runtime: one long-lived OS thread per
//! subject, `mpsc` channels for the wire.
//!
//! This is the behavioral counterpart of the paper's §6 execution
//! story: "each subject executes its assigned sub-query and forwards
//! encrypted results". Every subject runs a *party loop* on its own
//! thread, spawned **once** when a [`Session`](crate::Session) opens
//! and reused for every query the session executes (re-spawning per
//! query was one of the fixed per-run costs the session layer exists
//! to amortize). Between queries a party sits idle on its mailbox;
//! each query (a `QueryJob`, the output of the
//! [coordinator core](crate::coordinator)) wakes the participating
//! parties, and each runs its share of the extended plan as
//! *segments* — maximal same-subject chains, cut where the parent
//! runs at another subject or is a join/product. A segment starts as
//! soon as the tables at its cuts are materialized locally and runs as
//! one streaming pipeline, so independent subtrees assigned to
//! different subjects execute concurrently (pipeline parallelism
//! across providers) and every join starts once both operands exist.
//! A same-subject Select-over-Encrypt is never cut, so the engine's
//! pipeline fuses it (footnote 2) without any help from here; that
//! executor already sees the Encrypt's plaintext input, so filtering
//! first reveals nothing.
//!
//! Guarantees relative to the sequential interpreter
//! ([`Session::execute_sequential`](crate::Session::execute_sequential)):
//!
//! * **result equivalence** — every segment executes under a fresh
//!   [`ExecCtx`] exactly as in the sequential path, and ciphertexts
//!   are a function of `(seed, node, column, row)`, so the produced
//!   tables (ciphertexts included) are bit-identical regardless of
//!   interleaving;
//! * **identical byte accounting** — tables are accounted on the same
//!   producer → consumer edges, by the receiving party; request
//!   envelopes are sealed (batched per subject-pair edge) before any
//!   party wakes, by the coordinator core;
//! * **audit on receive** — the cell-level
//!   [`audit_transfer_with`] check runs at
//!   the receiving party, on its own thread, before the table is used.
//!
//! Failure handling: a party that fails (audit violation, missing key,
//! envelope tampering) broadcasts an abort message to the query's
//! other participants and reports its error; peers receiving `Abort`
//! stop without an error of their own. The coordinator returns the
//! failing party's error, picking the lowest subject id when several
//! fail independently — and the session remains usable: the party
//! threads return to their mailboxes and the next query runs normally.
//!
//! Because mailboxes outlive queries, every data message carries the
//! query *epoch* it belongs to. A message that arrives after its query
//! already ended (e.g. a table sent concurrently with an abort) is
//! dropped when a later epoch begins; a message that arrives *before*
//! its recipient has been woken for that epoch is stashed and replayed
//! once the matching wake-up arrives. Epochs are what make an aborted
//! query leave no residue for the next one.
//!
//! Messages additionally carry a per-edge *sequence number* assigned
//! by the sending `Wire` (crate-private, see `transport`). The sender
//! may re-send a message whose
//! delivery failed ambiguously (a connection reset cannot tell the
//! sender whether the frame landed first); the receiver drops
//! duplicates by `(from, seq)` before accounting, so recovery never
//! double-counts bytes, double-applies a table, or double-decrements
//! the pending-input counter.

use crate::audit::audit_transfer_with;
use crate::coordinator::Prepared;
use crate::error::SimError;
use crate::fault::RetryPolicy;
use crate::transport::{
    FaultState, InProcTransport, TcpHub, TcpTransport, Transport, TransportError, Wire, WireStats,
};
use crate::{Party, Report, TransportKind};
use mpq_algebra::{AttrId, Catalog, NodeId, Operator, QueryPlan, SubjectId};
use mpq_core::authz::SubjectView;
use mpq_crypto::rsa::{RsaPublic, SignedEnvelope};
use mpq_exec::{execute_step, ExecCtx, SchemePlan, Table, WorkerPool};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One data message exchanged between parties while a query runs.
/// `Clone` because a delivery *attempt* may damage or duplicate the
/// message without consuming the sender's copy (see
/// [`crate::transport`]).
#[derive(Clone, Debug)]
pub(crate) enum Msg {
    /// The materialized table of `node`, produced by `from` and
    /// consumed by a node assigned to the receiving subject.
    Table {
        /// Node whose result this is.
        node: NodeId,
        /// Producing subject.
        from: SubjectId,
        /// Per-edge sequence number (receiver-side dedup).
        seq: u64,
        /// The result rows.
        table: Table,
    },
    /// The root result, delivered to the querying user.
    Result {
        /// Producing subject (the root's assignee).
        from: SubjectId,
        /// Per-edge sequence number (receiver-side dedup).
        seq: u64,
        /// The final table.
        table: Table,
    },
    /// A peer failed; stop without producing more traffic. Carries no
    /// sequence number: aborting twice is already idempotent.
    Abort,
}

impl Msg {
    /// Stamp the wire-assigned sequence number (no-op for `Abort`).
    pub(crate) fn set_seq(&mut self, n: u64) {
        match self {
            Msg::Table { seq, .. } | Msg::Result { seq, .. } => *seq = n,
            Msg::Abort => {}
        }
    }
}

/// Everything on a party's persistent mailbox.
pub(crate) enum PartyMsg {
    /// Wake up and execute your share of a query.
    Run {
        /// Query epoch (strictly increasing per session).
        epoch: u64,
        /// The shared, immutable description of the query.
        job: Arc<QueryJob>,
    },
    /// A data message belonging to query `epoch`.
    Data {
        /// Query epoch the message belongs to.
        epoch: u64,
        /// The payload.
        msg: Msg,
    },
    /// The session is closing; exit the thread.
    Shutdown,
}

/// What the coordinator core decides about one query, and all of it
/// that travels to a remote party in `Frame::Execute`: no request
/// envelope but the recipient's own, no private key.
#[derive(Clone, Debug)]
pub(crate) struct JobSpec {
    /// The extended plan with encrypted literals spliced in.
    pub(crate) plan: QueryPlan,
    /// Per-attribute encryption schemes.
    pub(crate) schemes: SchemePlan,
    /// Attribute → Def. 6.1 cluster-key id.
    pub(crate) key_of_attr: HashMap<AttrId, u32>,
    /// Node → executing subject.
    pub(crate) assignment: HashMap<NodeId, SubjectId>,
    /// The querying user.
    pub(crate) user: SubjectId,
    /// Base seed for per-(node, column, row) encryption randomness.
    pub(crate) exec_seed: u64,
    /// How long a party waits for an expected data message before
    /// aborting the epoch with a typed [`TransportError::Timeout`] —
    /// `None` waits forever (the in-proc default, where a peer cannot
    /// die without the whole process dying).
    pub(crate) timeout: Option<Duration>,
}

/// One piece of a party's share: a maximal chain of plan nodes
/// assigned to one subject, run as a single streaming pipeline. Chains
/// are cut only where the parent runs at another subject and where the
/// parent is a `Join`/`Product`, so a segment reads nothing but the
/// tables materialized at its cuts, and every join starts as soon as
/// both of its operands exist.
pub(crate) struct Segment {
    /// The chain's topmost node; its table is the segment's output.
    pub(crate) root: NodeId,
    /// The subject executing every node of the chain.
    pub(crate) subject: SubjectId,
    /// Materialized operands: the roots of the segments feeding this one.
    pub(crate) inputs: Vec<NodeId>,
    /// Who receives the output: the parent's assignee, or the querying
    /// user for the plan root.
    pub(crate) consumer: SubjectId,
}

/// Cut an assigned plan into its segments, ordered by the postorder of
/// their roots: every segment comes after the segments feeding it.
/// Every reachable node must be assigned.
pub(crate) fn segments(
    plan: &QueryPlan,
    assignment: &HashMap<NodeId, SubjectId>,
    user: SubjectId,
) -> Vec<Segment> {
    let parents = plan.parents();
    let cut = |id: NodeId| match parents[id.index()] {
        None => true,
        Some(p) => {
            assignment[&p] != assignment[&id]
                || matches!(plan.node(p).op, Operator::Join { .. } | Operator::Product)
        }
    };
    let segment = |root: NodeId| {
        let mut inputs = Vec::new();
        let mut chain = vec![root];
        while let Some(id) = chain.pop() {
            for &c in &plan.node(id).children {
                if cut(c) {
                    inputs.push(c);
                } else {
                    chain.push(c);
                }
            }
        }
        Segment {
            root,
            subject: assignment[&root],
            inputs,
            consumer: parents[root.index()].map_or(user, |p| assignment[&p]),
        }
    };
    plan.postorder()
        .into_iter()
        .filter(|&id| cut(id))
        .map(segment)
        .collect()
}

/// Everything the parties need to execute one query, shared immutably
/// by all participants.
pub(crate) struct QueryJob {
    pub(crate) spec: JobSpec,
    /// The plan cut into per-subject segments (see [`segments`]).
    pub(crate) segments: Vec<Segment>,
    /// Participating subjects (every assignee plus the querying user),
    /// ascending by subject id.
    pub(crate) participants: Vec<SubjectId>,
    /// The user's RSA public key (envelope verification).
    pub(crate) user_public: RsaPublic,
    /// Signed requests this process can check: recipient, sealed
    /// envelope, and the payload the recipient must recover. A remote
    /// server verifies its own envelope before building the job.
    pub(crate) envelopes: Vec<(SubjectId, SignedEnvelope, Vec<u8>)>,
    /// Worker pool for intra-operator data parallelism; all parties
    /// draw from this one budget, so concurrently executing parties do
    /// not oversubscribe the machine.
    pub(crate) pool: WorkerPool,
}

impl QueryJob {
    /// The one way to build a job, for in-proc sessions, the
    /// coordinator's own share and remote servers alike: segments and
    /// participants both follow from the spec.
    pub(crate) fn new(
        spec: JobSpec,
        user_public: RsaPublic,
        envelopes: Vec<(SubjectId, SignedEnvelope, Vec<u8>)>,
        pool: WorkerPool,
    ) -> QueryJob {
        let segments = segments(&spec.plan, &spec.assignment, spec.user);
        let mut participants: Vec<SubjectId> = segments
            .iter()
            .map(|seg| seg.subject)
            .chain([spec.user])
            .collect();
        participants.sort_by_key(|s| s.index());
        participants.dedup();
        QueryJob {
            spec,
            segments,
            participants,
            user_public,
            envelopes,
            pool,
        }
    }
}

/// What a party reports back to the coordinator for one epoch.
pub(crate) enum Outcome {
    /// Finished cleanly.
    Done(PartyOut),
    /// Failed with a real error (already broadcast `Abort`).
    Failed(SimError),
    /// Stopped because a peer aborted (or the session is closing).
    Aborted,
    /// The party loop panicked (a bug, not a protocol failure); the
    /// panic was caught so the session's other threads could finish,
    /// and is re-raised by the coordinator.
    Panicked(String),
}

/// A clean party's contribution to the run report.
pub(crate) struct PartyOut {
    /// Bytes received per (producer, me) edge.
    pub(crate) transfers: HashMap<(SubjectId, SubjectId), usize>,
    /// The final result (only ever `Some` at the user's party).
    pub(crate) result: Option<Table>,
}

/// Session-static context one party loop owns for its whole life.
/// Deliberately holds only *this* subject's material — an
/// [`mpq-server`](crate::remote) process builds one of these for the
/// single subject it hosts, with no other party's keys or store in
/// its address space.
pub(crate) struct PartyStatic {
    pub(crate) me: SubjectId,
    pub(crate) catalog: Arc<Catalog>,
    /// This subject's overall view (receive audits).
    pub(crate) view: SubjectView,
    /// This subject's keys and store.
    pub(crate) party: Arc<Party>,
}

/// The long-lived party threads of one session: a mailbox sender per
/// subject, a shared completion channel, and the join handles used for
/// clean teardown on drop. With [`TransportKind::Tcp`] every party
/// additionally owns a [`TcpHub`] (loopback listener) and data-plane
/// messages travel as framed records through real sockets; the control
/// plane (run/shutdown/outcomes) stays on in-process channels either
/// way.
pub(crate) struct PartyThreads {
    txs: Vec<Sender<PartyMsg>>,
    done_rx: Receiver<(SubjectId, u64, Outcome)>,
    handles: Vec<JoinHandle<()>>,
    epoch: u64,
    /// Keeps the TCP listeners alive for the threads' lifetime; dropped
    /// (and joined) after the party threads exit, so every in-flight
    /// frame either lands or sees a clean EOF.
    _hubs: Vec<TcpHub>,
}

impl PartyThreads {
    /// Spawn one party loop per subject. Threads idle on their
    /// mailboxes until [`PartyThreads::run`] wakes them with a query.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spawn(
        catalog: &Arc<Catalog>,
        views: &Arc<Vec<SubjectView>>,
        parties: &[Arc<Party>],
        transport: TransportKind,
        seed: u64,
        faults: Arc<Mutex<FaultState>>,
        retry: RetryPolicy,
        stats: Arc<WireStats>,
    ) -> PartyThreads {
        let n = parties.len();
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            txs.push(tx);
            rxs.push(rx);
        }
        // One wire per party. In-proc: clones of everyone's mailbox
        // sender. TCP: every party binds a loopback hub feeding its own
        // mailbox, and sends connect to the peers' hubs. All wires
        // share one fault-injection state and one recovery-stats sink,
        // so a session-level schedule swap reaches every party.
        let mut hubs = Vec::new();
        let backends: Vec<Arc<dyn Transport>> = match transport {
            TransportKind::InProc => (0..n)
                .map(|_| Arc::new(InProcTransport::new(txs.clone())) as Arc<dyn Transport>)
                .collect(),
            TransportKind::Tcp => {
                for tx in &txs {
                    hubs.push(
                        TcpHub::bind("127.0.0.1:0", tx.clone(), None)
                            .expect("bind a loopback listener for the TCP transport"),
                    );
                }
                let peers: HashMap<SubjectId, String> = hubs
                    .iter()
                    .enumerate()
                    .map(|(j, hub)| (SubjectId::from_index(j), hub.addr().to_string()))
                    .collect();
                (0..n)
                    .map(|i| {
                        let mut peers = peers.clone();
                        peers.remove(&SubjectId::from_index(i));
                        Arc::new(TcpTransport::new(
                            SubjectId::from_index(i),
                            peers,
                            Duration::from_secs(5),
                        )) as Arc<dyn Transport>
                    })
                    .collect()
            }
        };
        let (done_tx, done_rx) = channel();
        let mut handles = Vec::with_capacity(n);
        for ((i, rx), backend) in rxs.into_iter().enumerate().zip(backends) {
            let me = SubjectId::from_index(i);
            let st = PartyStatic {
                me,
                catalog: Arc::clone(catalog),
                view: views[i].clone(),
                party: Arc::clone(&parties[i]),
            };
            let wire = Wire::new(
                me,
                seed,
                backend,
                Arc::clone(&faults),
                retry,
                Arc::clone(&stats),
            );
            let done = done_tx.clone();
            handles.push(std::thread::spawn(move || party_main(st, rx, wire, done)));
        }
        PartyThreads {
            txs,
            done_rx,
            handles,
            epoch: 0,
            _hubs: hubs,
        }
    }

    /// Run one prepared query across the persistent party threads and
    /// assemble the [`Report`]. Blocks until every participant reported
    /// an outcome for this epoch, so a failed query is fully drained
    /// before the next one starts.
    pub(crate) fn run(&mut self, prepared: Prepared) -> Result<Report, SimError> {
        self.epoch += 1;
        let epoch = self.epoch;
        let Prepared {
            job,
            request_bytes,
            requests,
        } = prepared;
        let participants = job.participants.clone();
        let job = Arc::new(job);
        for &s in &participants {
            self.txs[s.index()]
                .send(PartyMsg::Run {
                    epoch,
                    job: Arc::clone(&job),
                })
                .expect("party thread alive for the session's lifetime");
        }

        let mut outcomes: HashMap<SubjectId, Outcome> = HashMap::new();
        while outcomes.len() < participants.len() {
            let (s, e, outcome) = self
                .done_rx
                .recv()
                .expect("party threads alive for the session's lifetime");
            if e == epoch {
                outcomes.insert(s, outcome);
            }
        }

        let mut transfers = request_bytes.clone();
        let mut result: Option<Table> = None;
        let mut first_error: Option<SimError> = None;
        let mut panic_msg: Option<String> = None;
        // Participant order (ascending subject id) keeps the reported
        // error deterministic when several parties fail independently.
        for s in &participants {
            match outcomes.remove(s).expect("one outcome per participant") {
                Outcome::Done(out) => {
                    for (edge, bytes) in out.transfers {
                        *transfers.entry(edge).or_default() += bytes;
                    }
                    if let Some(t) = out.result {
                        result = Some(t);
                    }
                }
                Outcome::Failed(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Outcome::Aborted => {}
                Outcome::Panicked(m) => {
                    if panic_msg.is_none() {
                        panic_msg = Some(m);
                    }
                }
            }
        }
        if let Some(m) = panic_msg {
            panic!("party thread panicked: {m}");
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(Report {
            result: result.expect("user party delivered the result"),
            transfers,
            request_bytes,
            requests,
        })
    }
}

impl Drop for PartyThreads {
    fn drop(&mut self) {
        for tx in &self.txs {
            let _ = tx.send(PartyMsg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Broadcast `Abort` for `epoch` to every other participant of the
/// query (ignoring peers that already exited or are unreachable — the
/// abort is best-effort and fault-exempt; unreachable peers time out
/// on their own).
pub(crate) fn broadcast_abort(wire: &Wire, epoch: u64, participants: &[SubjectId], me: SubjectId) {
    for &p in participants {
        if p != me {
            wire.send_abort(p, epoch);
        }
    }
}

/// Render a caught panic payload for re-raising at the coordinator.
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The persistent per-subject loop: idle on the mailbox, run a query
/// when woken, stash early data messages for epochs not yet begun.
fn party_main(
    st: PartyStatic,
    rx: Receiver<PartyMsg>,
    wire: Wire,
    done: Sender<(SubjectId, u64, Outcome)>,
) {
    // Data that arrived while idle: either residue of an aborted query
    // (dropped when a later epoch begins) or messages racing ahead of
    // our own wake-up for their epoch (replayed when it begins).
    let mut stash: Vec<(u64, Msg)> = Vec::new();
    loop {
        match rx.recv() {
            Ok(PartyMsg::Run { epoch, job }) => {
                stash.retain(|(e, _)| *e >= epoch);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_query(&st, &job, epoch, &rx, &wire, &mut stash)
                }))
                .unwrap_or_else(|payload| {
                    broadcast_abort(&wire, epoch, &job.participants, st.me);
                    Outcome::Panicked(panic_text(payload))
                });
                if done.send((st.me, epoch, outcome)).is_err() {
                    return;
                }
            }
            Ok(PartyMsg::Data { epoch, msg }) => stash.push((epoch, msg)),
            Ok(PartyMsg::Shutdown) | Err(_) => return,
        }
    }
}

/// Execute this party's share of one query epoch: verify the signed
/// request envelopes addressed to us, then run every segment of ours
/// as its operands materialize, routing outputs to their consumers.
///
/// Transport-agnostic: outputs leave through `wire` (in-proc mailbox
/// senders or framed TCP), inputs arrive on the party's own mailbox
/// `rx` whichever way they traveled. A send failure or a receive
/// timeout aborts the epoch with a typed
/// [`SimError::Transport`] instead of hanging.
pub(crate) fn run_query(
    st: &PartyStatic,
    job: &QueryJob,
    epoch: u64,
    rx: &Receiver<PartyMsg>,
    wire: &Wire,
    stash: &mut Vec<(u64, Msg)>,
) -> Outcome {
    let me = st.me;
    let spec = &job.spec;
    let plan = &spec.plan;
    let party = st.party.as_ref();
    let my_view = &st.view;
    let root = plan.root();

    // Nothing executes until every request envelope addressed to this
    // party has opened and verified: the signed request *is* the
    // authorization to compute (`[[q_S, keys]_priU]_pubS`), exactly as
    // the sequential path verifies all envelopes before running any
    // segment.
    for (to, envelope, expected) in &job.envelopes {
        if *to != me {
            continue;
        }
        let opened = envelope.open(&party.rsa, &job.user_public);
        if opened.as_deref() != Some(expected.as_slice()) {
            broadcast_abort(wire, epoch, &job.participants, me);
            return Outcome::Failed(SimError::Envelope { to: me });
        }
    }

    // My segments, in global postorder of their roots. External tables
    // this party waits for: operands of its segments produced
    // elsewhere, plus the root delivery when it is the user and
    // somebody else computes the root.
    let mine: Vec<&Segment> = job.segments.iter().filter(|s| s.subject == me).collect();
    let mut pending = mine
        .iter()
        .flat_map(|seg| &seg.inputs)
        .filter(|c| spec.assignment[c] != me)
        .count();
    if me == spec.user && spec.assignment[&root] != me {
        pending += 1;
    }

    let mut transfers: HashMap<(SubjectId, SubjectId), usize> = HashMap::new();
    let mut results: HashMap<NodeId, Table> = HashMap::new();
    let mut executed: Vec<bool> = vec![false; mine.len()];
    let mut result_table: Option<Table> = None;
    // Sequence numbers already consumed, per producing subject: a
    // sender recovering from an ambiguous delivery failure re-sends
    // the same `(from, seq)`, and the duplicate must not re-account
    // bytes or re-decrement `pending`.
    let mut seen: HashSet<(SubjectId, u64)> = HashSet::new();

    // Data messages for this epoch that arrived before our wake-up.
    let mut inbox: Vec<Msg> = Vec::new();
    for (e, m) in std::mem::take(stash) {
        match e.cmp(&epoch) {
            std::cmp::Ordering::Equal => inbox.push(m),
            std::cmp::Ordering::Greater => stash.push((e, m)),
            std::cmp::Ordering::Less => {}
        }
    }
    let mut inbox = inbox.into_iter();

    loop {
        // Run every segment whose operands have materialized. Segments
        // are in postorder, so one pass also runs every local segment
        // a finished one unblocks; only an arriving table can unblock
        // more.
        for (done, seg) in executed.iter_mut().zip(&mine) {
            if *done || !seg.inputs.iter().all(|c| results.contains_key(c)) {
                continue;
            }
            // A fresh context per segment; ciphertexts are a function
            // of (seed, node, column, row), so they come out
            // bit-identical no matter the interleaving.
            let exec_ctx = ExecCtx::builder(
                &st.catalog,
                &party.store,
                &party.ring,
                &spec.schemes,
                &spec.key_of_attr,
            )
            .pool(job.pool.clone())
            .seed(spec.exec_seed)
            .build();
            let table = match execute_step(plan, seg.root, &mut results, &exec_ctx) {
                Ok(t) => t,
                Err(e) => {
                    broadcast_abort(wire, epoch, &job.participants, me);
                    return Outcome::Failed(e.into());
                }
            };
            *done = true;
            let sent = if seg.consumer != me {
                let msg = if seg.root == root {
                    Msg::Result {
                        from: me,
                        seq: 0,
                        table,
                    }
                } else {
                    Msg::Table {
                        node: seg.root,
                        from: me,
                        seq: 0,
                        table,
                    }
                };
                wire.send(seg.consumer, epoch, msg)
                    .map_err(SimError::Transport)
            } else if seg.root == root {
                // Even a user-computed result is audited, as in the
                // sequential path.
                audit_transfer_with(&table, my_view, &job.pool).map(|()| result_table = Some(table))
            } else {
                results.insert(seg.root, table);
                Ok(())
            };
            if let Err(e) = sent {
                broadcast_abort(wire, epoch, &job.participants, me);
                return Outcome::Failed(e);
            }
        }

        let all_executed = executed.iter().all(|&d| d);
        let have_result = me != spec.user || result_table.is_some();
        if all_executed && have_result && pending == 0 {
            return Outcome::Done(PartyOut {
                transfers,
                result: result_table,
            });
        }

        // Next data message: replayed from the stash first, then live.
        // A configured timeout bounds the wait, so a dead peer aborts
        // the epoch with a typed error instead of hanging the session.
        let msg = if let Some(m) = inbox.next() {
            m
        } else {
            let received = match spec.timeout {
                Some(d) => match rx.recv_timeout(d) {
                    Ok(m) => Ok(m),
                    Err(RecvTimeoutError::Timeout) => {
                        broadcast_abort(wire, epoch, &job.participants, me);
                        return Outcome::Failed(SimError::Transport(TransportError::Timeout {
                            millis: d.as_millis() as u64,
                        }));
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(()),
                },
                None => rx.recv().map_err(|_| ()),
            };
            match received {
                Ok(PartyMsg::Data { epoch: e, msg }) => match e.cmp(&epoch) {
                    std::cmp::Ordering::Equal => msg,
                    // Residue of an earlier (aborted) query: drop.
                    std::cmp::Ordering::Less => continue,
                    // Racing ahead of the next epoch — impossible while
                    // we still owe an outcome for this one, but stashing
                    // is the safe response.
                    std::cmp::Ordering::Greater => {
                        stash.push((e, msg));
                        continue;
                    }
                },
                // The coordinator never overlaps queries; a Run here
                // would be a session-layer bug.
                Ok(PartyMsg::Run { .. }) => {
                    unreachable!("Run received while an epoch is still in flight")
                }
                Ok(PartyMsg::Shutdown) | Err(()) => return Outcome::Aborted,
            }
        };
        match msg {
            Msg::Table {
                node,
                from,
                seq,
                table,
            } => {
                // A re-sent duplicate (recovery after an ambiguous
                // delivery failure): the identical bytes were already
                // audited and accounted — drop it.
                if !seen.insert((from, seq)) {
                    continue;
                }
                // Audit on receive: the cell-level check runs at the
                // receiving party, before the table is usable.
                if let Err(e) = audit_transfer_with(&table, my_view, &job.pool) {
                    broadcast_abort(wire, epoch, &job.participants, me);
                    return Outcome::Failed(e);
                }
                *transfers.entry((from, me)).or_default() += table.byte_size();
                results.insert(node, table);
                pending -= 1;
            }
            Msg::Result { from, seq, table } => {
                if !seen.insert((from, seq)) {
                    continue;
                }
                if let Err(e) = audit_transfer_with(&table, my_view, &job.pool) {
                    broadcast_abort(wire, epoch, &job.participants, me);
                    return Outcome::Failed(e);
                }
                *transfers.entry((from, me)).or_default() += table.byte_size();
                result_table = Some(table);
                pending -= 1;
            }
            Msg::Abort => return Outcome::Aborted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::candidates::candidates;
    use mpq_core::capability::CapabilityPolicy;
    use mpq_core::extend::{minimally_extend, Assignment, ExtendedPlan};
    use mpq_core::fixtures::RunningExample;
    use mpq_core::subjects::Subjects;
    use mpq_planner::{build_scenario, optimize, Scenario, Strategy};

    /// Each segment as `root@assignee->consumer(inputs)`, by operator
    /// and subject name, checking that the chains partition the plan.
    fn describe(ext: &ExtendedPlan, subjects: &Subjects, user: SubjectId) -> Vec<String> {
        let plan = &ext.plan;
        let segs = segments(plan, &ext.assignment, user);
        let chained: usize = segs
            .iter()
            .map(|seg| {
                let mut nodes = 0;
                let mut chain = vec![seg.root];
                while let Some(id) = chain.pop() {
                    nodes += 1;
                    let inner = plan.node(id).children.iter();
                    chain.extend(inner.filter(|c| !seg.inputs.contains(c)));
                }
                nodes
            })
            .sum();
        assert_eq!(
            chained,
            plan.postorder().len(),
            "segments partition the plan"
        );
        segs.iter()
            .map(|seg| {
                let inputs: Vec<_> = seg.inputs.iter().map(|&c| plan.node(c).op.name()).collect();
                format!(
                    "{}@{}->{}({})",
                    plan.node(seg.root).op.name(),
                    subjects.name(seg.subject),
                    subjects.name(seg.consumer),
                    inputs.join(",")
                )
            })
            .collect()
    }

    #[test]
    fn fig7_segments_cut_at_subjects_and_join_operands() {
        let ex = RunningExample::new();
        let user = ex.subject("U");
        // Fig. 7(a): H (scan → σ → encrypt) and I (scan → encrypt)
        // each run one chain, X joins and groups, Y filters the groups.
        assert_eq!(
            describe(&ex.fig7a_extended(), &ex.subjects, user),
            [
                "encrypt@H->X()",
                "encrypt@I->X()",
                "γ@X->Y(encrypt,encrypt)",
                "σᵧ@Y->U(γ)"
            ]
        );
        // Fig. 7(b): H's selection ships in plaintext to Z.
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            true,
        );
        let mut a = Assignment::new();
        for (node, s) in [
            ("select_d", "H"),
            ("join", "Z"),
            ("group", "Z"),
            ("having", "Y"),
        ] {
            a.set(ex.node(node), ex.subject(s));
        }
        let fig7b = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(user),
        )
        .expect("fig7b assignment is drawn from Λ");
        assert_eq!(
            describe(&fig7b, &ex.subjects, user),
            [
                "σ@H->Z()",
                "encrypt@I->Z()",
                "γ@Z->Y(σ,encrypt)",
                "σᵧ@Y->U(γ)"
            ]
        );
    }

    #[test]
    fn tpch_segments_follow_the_optimized_assignment() {
        let cat = mpq_tpch::tpch_catalog();
        let stats = mpq_tpch::tpch_stats(&cat, 1.0);
        let env = build_scenario(&cat, Scenario::UAPenc);
        let cap = CapabilityPolicy::tpch_evaluation();
        let describe_q = |q| {
            let plan = mpq_tpch::query_plan(&cat, q);
            let opt = optimize(&plan, &cat, &stats, &env, &cap, Strategy::CostDp).expect("plans");
            describe(&opt.extended, &env.subjects, env.user)
        };
        // Q1's five nodes run at A1 as one pipeline.
        assert_eq!(describe_q(1), ["sort@A1->U()"]);
        // Q5's 31 nodes: every join starts as soon as both operands
        // exist, so each join operand is its own segment.
        assert_eq!(
            describe_q(5),
            [
                "encrypt@A2->X()",
                "π@A2->A2()",
                "Base@A2->A2()",
                "encrypt@A2->X(π,Base)",
                "encrypt@A1->X()",
                "π@X->X(encrypt,encrypt)",
                "encrypt@A1->X()",
                "π@X->X(π,encrypt)",
                "encrypt@A1->X()",
                "π@X->X(π,encrypt)",
                "π@X->U(encrypt,π)",
                "decrypt@U->U(π)"
            ]
        );
    }
}
