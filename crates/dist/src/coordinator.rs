//! The §6 coordinator core: the one implementation of everything the
//! querying user's side does before any party executes. The in-proc
//! [`Session`](crate::Session) and the federated
//! [`Coordinator`](crate::Coordinator) both prepare every query here,
//! in this order:
//!
//! 1. **Def. 4.1 re-check** — every assignee must be authorized for the
//!    profiles of every node it executes and every operand it reads;
//!    leaves must run at their storing authority. Authorization never
//!    amortizes: the signed request is a per-query grant.
//! 2. **static pre-flight** — `mpq_core::verify` over the whole plan,
//!    before a single modexp is spent (unless disabled).
//! 3. **Def. 6.1 provisioning** — incremental, through a cache keyed by
//!    [`ClusterSig`] (cluster attribute set + holder set): only clusters
//!    never seen before are generated and shipped to their holders, and
//!    each computing non-holder receives the Paillier public half once.
//! 4. **scheme assignment and literal rewriting** — predicates over
//!    encrypted attributes get encrypted literals.
//! 5. **request batching and sealing** — the `mpq_core::dispatch`
//!    sub-queries, batched per recipient into one
//!    `[[q_S, keys]_priU]_pubS` envelope each (the user's own batch
//!    included: its share opens it like every other party's).
//! 6. **the job** — the rewritten plan, schemes, key ids and
//!    assignment, shipped to every party; each party cuts it into the
//!    same segments (see `QueryJob::new`).
//!
//! Only two things differ between deployments: how a key reaches its
//! holder and where a party's RSA public key comes from. Both sit behind
//! the `Fleet` seam. The in-proc fleet inserts keys straight into the
//! parties' rings; the remote fleet sends `Provision`/`ProvisionPublic`
//! control frames, sealing full keys for their holder.

use crate::error::SimError;
use crate::runtime::{JobSpec, QueryJob};
use crate::session::{SessionConfig, SessionStats};
use crate::PAILLIER_BITS;
use mpq_algebra::{AttrId, Catalog, NodeId, Operator, SubjectId};
use mpq_core::authz::{Policy, SubjectView};
use mpq_core::dispatch::dispatch;
use mpq_core::extend::ExtendedPlan;
use mpq_core::keys::{ClusterSig, KeyPlan};
use mpq_core::subjects::Subjects;
use mpq_crypto::keyring::{ClusterKey, KeyRing};
use mpq_crypto::paillier::PaillierPublic;
use mpq_crypto::rsa::{RsaKeypair, RsaPublic, SignedEnvelope};
use mpq_exec::{assign_schemes, rewrite_literals, WorkerPool};
use rand::rngs::StdRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Seals a full cluster key as `[[key]_priU]_pubS` for the holder
/// whose RSA public key it is given.
pub(crate) type Seal<'a> = dyn FnMut(&RsaPublic) -> SignedEnvelope + 'a;

/// How the core reaches the parties: the deployment-specific half of
/// the protocol. The core records a delivery in its cache only after
/// the fleet returned `Ok` for it.
pub(crate) trait Fleet {
    /// The RSA public key envelopes for `s` are sealed to.
    fn public_of(&self, s: SubjectId) -> Result<&RsaPublic, SimError>;
    /// Hand holder `s` the full key; a ring in another process gets
    /// `seal`'s envelope instead.
    fn deliver_key(
        &mut self,
        s: SubjectId,
        key: &ClusterKey,
        seal: &mut Seal,
    ) -> Result<(), SimError>;
    /// Hand computing non-holder `s` the Paillier public half of
    /// cluster `id`: enough to aggregate, never to decrypt.
    fn deliver_public(
        &mut self,
        s: SubjectId,
        id: u32,
        public: PaillierPublic,
    ) -> Result<(), SimError>;
}

/// Output of the core: the job every party executes, plus the
/// request-envelope accounting for the [`Report`](crate::Report).
pub(crate) struct Prepared {
    pub(crate) job: QueryJob,
    /// Envelope bytes per user → executor edge (self-addressed
    /// envelopes never cross a wire and are not counted).
    pub(crate) request_bytes: HashMap<(SubjectId, SubjectId), usize>,
    /// Number of dispatched sub-query requests (before batching).
    pub(crate) requests: usize,
}

/// One cached Def. 6.1 cluster: the generated material (already in the
/// holders' rings) and the subjects that hold its public half.
struct CachedCluster {
    material: ClusterKey,
    /// Subject indices holding at least the public (aggregation) half —
    /// holders included, since a full key implies the public half.
    publics: HashSet<usize>,
}

/// The user-side protocol state shared by every query of one session or
/// coordinator: the policy views, the RNG every key and envelope is
/// drawn from, and the cluster-key cache.
pub(crate) struct Core {
    pub(crate) catalog: Arc<Catalog>,
    subjects: Arc<Subjects>,
    /// Per-subject overall views, fixed for the core's lifetime.
    pub(crate) views: Arc<Vec<SubjectView>>,
    rng: StdRng,
    /// Base seed for per-(node, column, row) encryption randomness,
    /// identical for both execution paths and every query.
    exec_seed: u64,
    /// Worker pool every job draws intra-operator parallelism from.
    pool: WorkerPool,
    /// Receive timeout every job carries (`None` waits forever).
    pub(crate) timeout: Option<Duration>,
    preflight: bool,
    cache: HashMap<ClusterSig, CachedCluster>,
    /// Next cluster-key id. Plan-local key ids (positions in a
    /// `KeyPlan`) are remapped onto these so material cached from one
    /// query is addressable from every later one.
    next_key_id: u32,
    pub(crate) stats: SessionStats,
}

impl Core {
    /// A core over one policy, drawing from `rng` (already advanced
    /// past the parties' identity keys).
    pub(crate) fn new(
        catalog: &Catalog,
        subjects: &Subjects,
        policy: &Policy,
        rng: StdRng,
        config: &SessionConfig,
    ) -> Core {
        Core {
            views: Arc::new(policy.all_views(catalog, subjects)),
            catalog: Arc::new(catalog.clone()),
            subjects: Arc::new(subjects.clone()),
            rng,
            exec_seed: config.seed ^ 0x6d70_715f_6578_6563, // "mpq_exec"
            pool: match config.workers {
                Some(n) => WorkerPool::new(n),
                None => WorkerPool::global(),
            },
            timeout: config.effective_timeout(),
            preflight: config.preflight,
            cache: HashMap::new(),
            next_key_id: 0,
            stats: SessionStats::default(),
        }
    }

    /// Prepare one query of `user`, signed with `signer` (the user's
    /// keypair), delivering keys through `fleet`. Draws from the RNG in
    /// a fixed order — cluster keys, sealed key deliveries, literal
    /// rewriting, request envelopes — so a fresh core's first query is
    /// a pure function of the seed.
    pub(crate) fn prepare(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
        signer: &RsaKeypair,
        fleet: &mut dyn Fleet,
    ) -> Result<Prepared, SimError> {
        self.stats.queries += 1;
        let order = ext.plan.postorder();
        self.authorize(ext, &order)?;

        // ---- 2. static pre-flight ----------------------------------
        // After the per-node checks (preserving their error precedence)
        // and before any key material is generated.
        if self.preflight {
            let report = mpq_core::verify::verify_extended(
                ext,
                keys,
                &self.catalog,
                &self.subjects,
                &self.views,
                Some(user),
            );
            if !report.is_clean() {
                return Err(SimError::Verify(report));
            }
        }

        // ---- 3. incremental Def. 6.1 provisioning ------------------
        let mut computing = vec![false; self.views.len()];
        for id in &order {
            computing[ext.assignment[id].index()] = true;
        }
        computing[user.index()] = true;
        let mut key_of_attr: HashMap<AttrId, u32> = HashMap::new();
        // Predicates over encrypted attributes need encrypted literals.
        // Conceptually the key-holding authorities rewrite their
        // conditions while preparing the sub-queries (§6); this ring
        // stands in for them at dispatch time.
        let dispatcher_ring = KeyRing::new();
        for plan_key in &keys.keys {
            let cached = match self.cache.entry(plan_key.cluster_sig()) {
                Entry::Occupied(hit) => {
                    self.stats.clusters_reused += 1;
                    hit.into_mut()
                }
                Entry::Vacant(slot) => {
                    // Never provisioned: fresh material under a fresh id,
                    // the full key to every Def. 6.1 holder. A failed
                    // delivery leaves the cluster uncached; the next
                    // query provisions it anew under another id.
                    let id = self.next_key_id;
                    self.next_key_id += 1;
                    let material = ClusterKey::generate(&mut self.rng, id, PAILLIER_BITS);
                    let mut seal = |to: &RsaPublic| {
                        SignedEnvelope::seal(&mut self.rng, &material.to_bytes(), signer, to)
                    };
                    for &holder in &plan_key.holders {
                        fleet.deliver_key(holder, &material, &mut seal)?;
                    }
                    self.stats.clusters_provisioned += 1;
                    let publics = plan_key.holders.iter().map(|s| s.index()).collect();
                    slot.insert(CachedCluster { material, publics })
                }
            };
            for a in plan_key.attrs.iter() {
                key_of_attr.insert(a, cached.material.id);
            }
            // Public halves for every computing subject not yet served.
            for (i, &computes) in computing.iter().enumerate() {
                if computes && !cached.publics.contains(&i) {
                    let (id, public) = (cached.material.id, cached.material.paillier_public());
                    fleet.deliver_public(SubjectId::from_index(i), id, public)?;
                    cached.publics.insert(i);
                    self.stats.publics_delivered += 1;
                }
            }
            if !plan_key.holders.is_empty() {
                dispatcher_ring.insert(cached.material.clone());
            }
        }

        // ---- 4. schemes and encrypted literals ---------------------
        let schemes = assign_schemes(&ext.plan).map_err(|e| SimError::Scheme(e.to_string()))?;
        let exec_plan = rewrite_literals(
            &ext.plan,
            &self.catalog,
            &schemes,
            &key_of_attr,
            &dispatcher_ring,
            &mut self.rng,
        )
        .map_err(SimError::Rewrite)?;

        // ---- 5. batched, signed, sealed requests -------------------
        // One envelope (one signature, one session key) per recipient,
        // regardless of how many sub-query regions it executes.
        let d = dispatch(ext, keys, &self.catalog, &self.subjects);
        let mut batches: Vec<Vec<u8>> = vec![Vec::new(); self.views.len()];
        for req in &d.requests {
            let batch = &mut batches[req.subject.index()];
            if !batch.is_empty() {
                batch.extend_from_slice(b"\n===\n");
            }
            batch.extend_from_slice(req.sql.as_bytes());
            for key_id in &req.keys {
                batch.extend_from_slice(format!("\nkey:{key_id}").as_bytes());
            }
        }
        let mut request_bytes: HashMap<(SubjectId, SubjectId), usize> = HashMap::new();
        let mut envelopes = Vec::new();
        for (i, payload) in batches.into_iter().enumerate() {
            if payload.is_empty() {
                continue;
            }
            let to = SubjectId::from_index(i);
            let envelope =
                SignedEnvelope::seal(&mut self.rng, &payload, signer, fleet.public_of(to)?);
            if to != user {
                *request_bytes.entry((user, to)).or_default() +=
                    envelope.wrapped_key.len() + envelope.body.len() + envelope.signature.len();
            }
            envelopes.push((to, envelope, payload));
        }

        // ---- 6. the job --------------------------------------------
        let spec = JobSpec {
            plan: exec_plan,
            schemes,
            key_of_attr,
            assignment: ext.assignment.clone(),
            user,
            exec_seed: self.exec_seed,
            timeout: self.timeout,
        };
        Ok(Prepared {
            job: QueryJob::new(spec, signer.public.clone(), envelopes, self.pool.clone()),
            request_bytes,
            requests: d.requests.len(),
        })
    }

    /// Step 1, the runtime Def. 4.1 check of every node.
    fn authorize(&self, ext: &ExtendedPlan, order: &[NodeId]) -> Result<(), SimError> {
        for &id in order {
            let node = ext.plan.node(id);
            let subject = *ext.assignment.get(&id).ok_or(SimError::Unassigned(id))?;
            if let Operator::Base { rel, .. } = &node.op {
                // Base relations never leave their authority: the leaf's
                // executor must be the storing authority, which sees its
                // own relation by construction.
                let authority = self
                    .subjects
                    .authority(*rel)
                    .ok_or(SimError::NoAuthority(*rel))?;
                if subject != authority {
                    return Err(SimError::NotTheAuthority {
                        node: id,
                        subject,
                        authority,
                    });
                }
                continue;
            }
            let view = &self.views[subject.index()];
            for &profile in node.children.iter().chain([&id]) {
                if let Err(violation) = view.check(&ext.profiles[profile.index()]) {
                    return Err(SimError::Unauthorized {
                        node: id,
                        subject,
                        violation,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of cluster keys currently cached.
    pub(crate) fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Forget every cluster, restarting key ids at 0. Returns the
    /// forgotten ids so the caller can drop the material from the rings.
    pub(crate) fn forget_all(&mut self) -> Vec<u32> {
        self.next_key_id = 0;
        self.cache.drain().map(|(_, c)| c.material.id).collect()
    }

    /// Forget the cluster provisioned under key `id`: the next query
    /// needing it provisions fresh material (a revoked key must never
    /// come back from the cache).
    pub(crate) fn forget(&mut self, id: u32) {
        self.cache.retain(|_, c| c.material.id != id);
    }
}
