//! Replays: the per-layer calls a query makes, repeated on the
//! workload's own inputs outside the measured queries, each one a span
//! under a `replay` root. Also the TPC-H executability census.

use crate::check;
use crate::fed::Federation;
use crate::trace::Tracer;
use crate::workload::{client_seed, Backend, Setup, Shared};
use mpq_algebra::builder::plan_sql;
use mpq_algebra::value::EncScheme;
use mpq_algebra::{Operator, SubjectId, Value};
use mpq_core::authz::SubjectView;
use mpq_core::dispatch::dispatch;
use mpq_core::extend::ExtendedPlan;
use mpq_crypto::keyring::ClusterKey;
use mpq_crypto::rsa::{RsaKeypair, SignedEnvelope};
use mpq_crypto::schemes::encrypt_batch;
use mpq_dist::{Session, SessionConfig};
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{build_scenario, optimize, Scenario, Strategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Paillier modulus bits of the runtime's cluster keys.
pub const PAILLIER_BITS: usize = 256;
/// RSA modulus bits of the runtime's envelope keys.
pub const RSA_BITS: usize = 512;
/// Cells per `encrypt_batch` replay.
pub const ENCRYPT_CELLS: usize = 2048;
/// Scale factor of the TPC-H executability census.
pub const CENSUS_SF: f64 = 0.01;

/// Repeat `f` at least `min` and at most `max` times, stopping once
/// `budget` has passed.
fn repeat(min: usize, max: usize, budget: Duration, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    for round in 0..max {
        if round >= min && start.elapsed() >= budget {
            break;
        }
        f(round);
    }
}

/// The Def. 4.1 runtime re-check the §6 preparation makes: every
/// non-leaf node's assignee must see its operands' and its own profile.
fn authz_check(ext: &ExtendedPlan, views: &[SubjectView]) -> bool {
    ext.plan.postorder().into_iter().all(|id| {
        let node = ext.plan.node(id);
        if matches!(node.op, Operator::Base { .. }) {
            return true;
        }
        let view = &views[ext.assignment[&id].index()];
        node.children
            .iter()
            .chain(std::iter::once(&id))
            .all(|n| view.check(&ext.profiles[n.index()]).is_ok())
    })
}

/// Request payloads per recipient, batched as the runtime batches them.
fn payloads(
    shared: &Shared,
    ext: &ExtendedPlan,
    keys: &mpq_core::keys::KeyPlan,
) -> Vec<(SubjectId, Vec<u8>)> {
    let w = &shared.world;
    let d = dispatch(ext, keys, &w.catalog, &w.env.subjects);
    let mut out: Vec<(SubjectId, Vec<u8>)> = Vec::new();
    for req in &d.requests {
        let at = match out.iter().position(|(s, _)| *s == req.subject) {
            Some(i) => i,
            None => {
                out.push((req.subject, Vec::new()));
                out.len() - 1
            }
        };
        let batch = &mut out[at].1;
        if !batch.is_empty() {
            batch.extend_from_slice(b"\n===\n");
        }
        batch.extend_from_slice(req.sql.as_bytes());
        for key_id in &req.keys {
            batch.extend_from_slice(format!("\nkey:{key_id}").as_bytes());
        }
    }
    out
}

/// Up to [`ENCRYPT_CELLS`] values of `rel.attr`, cycled when shorter.
fn column(shared: &Shared, rel: &str, attr: &str) -> Result<Vec<Value>, String> {
    let w = &shared.world;
    let r = w.catalog.relation(rel).map_err(|e| e.to_string())?.rel;
    let a = w.catalog.attr(attr).map_err(|e| e.to_string())?;
    let t = w.db.table(r).ok_or(format!("no table {rel}"))?;
    let c = t.col_index(a).ok_or(format!("no column {attr}"))?;
    if t.is_empty() {
        return Err(format!("{rel} is empty"));
    }
    Ok((0..ENCRYPT_CELLS)
        .map(|i| t.value(c, i % t.len()))
        .collect())
}

/// Replay every per-layer call on the workload's inputs. Fails on the
/// first replayed call that errs or answers wrongly.
pub fn replay(setup: &mut Setup, seed: u64, tr: &Tracer) -> Result<(), String> {
    let root = tr.start("replay", None, None);
    let p = root.id();
    let out = replay_under(setup, seed, tr, p);
    tr.finish(root);
    out
}

fn replay_under(setup: &mut Setup, seed: u64, tr: &Tracer, p: Option<u64>) -> Result<(), String> {
    let shared = &setup.shared;
    let w = &shared.world;
    let user = w.env.user;
    let views = w.env.policy.all_views(&w.catalog, &w.env.subjects);
    let fast = Duration::from_millis(300);
    let slow = Duration::from_millis(1500);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7265_706c_6179);

    // mpq-algebra and mpq-planner, for workloads that plan once at set-up.
    if !shared.items.iter().any(|i| i.plan_per_query) {
        for item in &shared.items {
            let mut err = None;
            repeat(3, 200, fast, |_| {
                if let Err(e) = tr.time("algebra.plan_sql", p, None, || {
                    plan_sql(&w.catalog, item.sql)
                }) {
                    err = Some(format!("{}: plan_sql: {e}", item.name));
                }
            });
            repeat(3, 50, fast, |_| {
                let opt = tr.time("planner.optimize", p, None, || {
                    optimize(
                        &item.plan,
                        &w.catalog,
                        &shared.stats,
                        &w.env,
                        &w.cap,
                        Strategy::CostDp,
                    )
                });
                if let Err(e) = opt {
                    err = Some(format!("{}: optimize: {e}", item.name));
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
        }
    }

    // mpq-core: one span per pass over the whole mix.
    let mut denied = false;
    repeat(5, 500, fast, |_| {
        tr.time("core.authz_check", p, None, || {
            for item in &shared.items {
                denied |= !authz_check(&item.ext, &views);
            }
        })
    });
    if denied {
        return Err("Def. 4.1 re-check denied a planned query".to_string());
    }
    let mut dirty = false;
    repeat(5, 500, fast, |_| {
        tr.time("core.verify", p, None, || {
            for item in &shared.items {
                let r = mpq_core::verify::verify_extended(
                    &item.ext,
                    &item.keys,
                    &w.catalog,
                    &w.env.subjects,
                    &views,
                    Some(user),
                );
                dirty |= !r.is_clean();
            }
        })
    });
    if dirty {
        return Err("pre-flight verifier flagged a planned query".to_string());
    }
    repeat(5, 500, fast, |_| {
        tr.time("core.dispatch", p, None, || {
            for item in &shared.items {
                std::hint::black_box(dispatch(&item.ext, &item.keys, &w.catalog, &w.env.subjects));
            }
        })
    });

    // mpq-crypto: identities, envelopes at the mix's payload sizes,
    // cluster keys and per-cell encryption.
    let rsa: Vec<RsaKeypair> = w
        .env
        .subjects
        .iter()
        .map(|_| {
            tr.time("crypto.rsa_keygen", p, None, || {
                RsaKeypair::generate(&mut rng, RSA_BITS)
            })
        })
        .collect();
    let sends: Vec<(SubjectId, Vec<u8>)> = shared
        .items
        .iter()
        .flat_map(|i| payloads(shared, &i.ext, &i.keys))
        .collect();
    let mut opened_all = true;
    repeat(3, 100, fast, |_| {
        for (to, payload) in &sends {
            let env = tr.time("crypto.envelope_seal", p, None, || {
                SignedEnvelope::seal(
                    &mut rng,
                    payload,
                    &rsa[user.index()],
                    &rsa[to.index()].public,
                )
            });
            let opened = tr.time("crypto.envelope_open", p, None, || {
                env.open(&rsa[to.index()], &rsa[user.index()].public)
            });
            opened_all &= opened.as_deref() == Some(payload.as_slice());
        }
    });
    if !opened_all {
        return Err("an envelope did not open to its payload".to_string());
    }
    let mut key = None;
    repeat(5, 50, fast, |i| {
        key = Some(tr.time("crypto.cluster_keygen", p, None, || {
            ClusterKey::generate(&mut rng, i as u32, PAILLIER_BITS)
        }));
    });
    let key = key.expect("at least one key generated");
    let cols = match shared.kind {
        crate::workload::Kind::Fig7Serving => [("Hosp", "S"), ("Hosp", "B"), ("Ins", "P")],
        _ => [
            ("orders", "o_custkey"),
            ("orders", "o_orderdate"),
            ("lineitem", "l_extendedprice"),
        ],
    };
    let schemes = [
        ("crypto.det_encrypt", EncScheme::Deterministic),
        ("crypto.ope_encrypt", EncScheme::Ope),
        ("crypto.rnd_encrypt", EncScheme::Random),
    ];
    for ((name, scheme), (rel, attr)) in schemes.into_iter().zip(cols) {
        let values = column(shared, rel, attr)?;
        let mut err = None;
        repeat(3, 30, fast, |_| {
            let r = tr.time(name, p, None, || {
                encrypt_batch(&mut rng, &values, scheme, &key)
            });
            if let Err(e) = r {
                err = Some(format!("{name} over {rel}.{attr}: {e:?}"));
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }

    // mpq-exec: the engine-only floor, one span per pass over the mix.
    let mut err = None;
    repeat(3, 200, slow, |_| {
        tr.time("exec.plaintext", p, None, || {
            for item in &shared.items {
                match check::plaintext(&w.catalog, &w.db, &item.plan) {
                    Ok(t) => {
                        if let Err(e) = check::matches(&item.reference, &t) {
                            err = Some(format!("{}: plaintext replay: {e}", item.name));
                        }
                    }
                    Err(e) => err = Some(format!("{}: plaintext replay: {e}", item.name)),
                }
            }
        })
    });
    if let Some(e) = err {
        return Err(e);
    }

    // mpq-dist and mpq-server: sequential interpreter, in-proc execute
    // and the same mix through loopback servers.
    let federated = matches!(setup.clients[0], Backend::Federated(_));
    let mut inproc = None;
    let session: &mut Session = match &mut setup.clients[0] {
        Backend::Session(s) => s,
        Backend::Federated(_) => inproc.insert(tr.time("dist.session_open", p, None, || {
            Session::open_with(
                &w.catalog,
                &w.env.subjects,
                &w.env.policy,
                &w.db,
                SessionConfig::new(client_seed(seed, 0)),
            )
        })),
    };
    let mut failure = None;
    let mut pass = |name: &'static str, session: &mut Session, sequential: bool| {
        tr.time(name, p, None, || {
            for item in &shared.items {
                let r = if sequential {
                    session.execute_sequential(&item.ext, &item.keys, user)
                } else {
                    session.execute(&item.ext, &item.keys, user)
                };
                let r = r
                    .map_err(|e| e.to_string())
                    .and_then(|r| check::matches(&item.reference, &r.result));
                if let Err(e) = r {
                    failure = Some(format!("{}: {name}: {e}", item.name));
                }
            }
        })
    };
    // One untimed pass provisions the fresh session's clusters.
    if federated {
        pass("warmup", session, false);
    }
    repeat(3, 100, slow, |_| pass("dist.sequential", session, true));
    repeat(3, 100, slow, |_| {
        pass("dist.inproc_execute", session, false)
    });
    if let Some(e) = failure.take() {
        return Err(e);
    }
    if !federated {
        let mut fed = Federation::start(w, seed, tr, p)?;
        let coordinator = fed.coordinator();
        repeat(3, 100, slow, |_| {
            tr.time("server.coordinator_execute", p, None, || {
                for item in &shared.items {
                    let r = coordinator
                        .execute(&item.ext, &item.keys)
                        .map_err(|e| e.to_string())
                        .and_then(|r| check::matches(&item.reference, &r.result));
                    if let Err(e) = r {
                        failure = Some(format!("{}: coordinator: {e}", item.name));
                    }
                }
            })
        });
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Count the TPC-H queries that plan, run through a `Session` and match
/// their plaintext reference at [`CENSUS_SF`]; the others are listed
/// with the first error met.
pub fn census(seed: u64, tr: &Tracer) -> (usize, Vec<String>) {
    let root = tr.start("census", None, None);
    let p = root.id();
    let (catalog, db) = tr.time("tpch.generate", p, None, || {
        mpq_tpch::generate(CENSUS_SF, seed)
    });
    let stats = tr.time("planner.collect_stats", p, None, || {
        collect_stats(&catalog, &db, &SampleConfig::default())
    });
    let env = build_scenario(&catalog, Scenario::UAPenc);
    let cap = mpq_core::capability::CapabilityPolicy::tpch_evaluation();
    let mut session = tr.time("dist.session_open", p, None, || {
        Session::open_with(
            &catalog,
            &env.subjects,
            &env.policy,
            &db,
            SessionConfig::new(seed),
        )
    });
    let mut ok = 0;
    let mut failing = Vec::new();
    for q in 1..=22 {
        let verdict = tr.time(
            "census.query",
            p,
            Some(q as u64),
            || -> Result<(), String> {
                let plan = mpq_tpch::query_plan(&catalog, q);
                let reference = check::plaintext(&catalog, &db, &plan)
                    .map_err(|e| format!("plaintext: {e}"))?;
                let opt = optimize(&plan, &catalog, &stats, &env, &cap, Strategy::CostDp)
                    .map_err(|e| format!("planning: {e}"))?;
                let report = session
                    .execute(&opt.extended, &opt.keys, env.user)
                    .map_err(|e| format!("session: {e}"))?;
                check::matches(&reference, &report.result).map_err(|e| format!("wrong answer: {e}"))
            },
        );
        match verdict {
            Ok(()) => ok += 1,
            Err(e) => failing.push(format!("Q{q}: {e}")),
        }
    }
    tr.finish(root);
    (ok, failing)
}
