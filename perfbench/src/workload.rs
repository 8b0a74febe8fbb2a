//! The three workloads: how each is set up from its seed, and the
//! closed loop that measures it.

use crate::check;
use crate::fed::Federation;
use crate::stats::{Accounting, Outcome};
use crate::trace::Tracer;
use mpq_algebra::builder::plan_sql;
use mpq_algebra::stats::StatsCatalog;
use mpq_algebra::{Date, QueryPlan, SubjectId, Value};
use mpq_core::candidates::candidates;
use mpq_core::capability::CapabilityPolicy;
use mpq_core::dispatch::dispatch;
use mpq_core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq_core::fixtures::RunningExample;
use mpq_core::keys::{plan_keys, KeyPlan};
use mpq_dist::{Report, Session, SessionConfig, SimError};
use mpq_exec::{Database, Table};
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{build_scenario, optimize, PriceBook, Scenario, ScenarioEnv, Strategy};
use mpq_server::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The workloads, by the names `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's running example served to two clients.
    Fig7Serving,
    /// TPC-H Q1 over `lineitem`, in-proc session.
    TpchQ1Scan,
    /// TPC-H Q5 through loopback servers and a coordinator.
    TpchQ5Federated,
}

/// TPC-H scale factor of `tpch_q1_scan`.
pub const Q1_SF: f64 = 0.02;
/// TPC-H scale factor of `tpch_q5_federated`.
pub const Q5_SF: f64 = 0.01;
/// Patients in the seeded `Hosp`/`Ins` data of `fig7_serving`.
pub const FIG7_PATIENTS: usize = 16;

/// The Fig. 7 query (paper §1).
const FIG7_SQL: &str = "select T, avg(P) from Hosp join Ins on S=C \
     where D='stroke' group by T having avg(P)>100";

/// TPC-H Q1 in the SQL front end's dialect.
const Q1_SQL: &str = "select l_returnflag, l_linestatus, sum(l_quantity), \
     sum(l_extendedprice), sum(l_extendedprice * (1 - l_discount)), \
     sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), avg(l_quantity), \
     avg(l_extendedprice), avg(l_discount), count(*) from lineitem \
     where l_shipdate <= date '1998-12-01' - interval '90' day \
     group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus";

/// TPC-H Q5 in the SQL front end's dialect.
const Q5_SQL: &str = "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue \
     from customer join orders on c_custkey = o_custkey \
     join lineitem on l_orderkey = o_orderkey \
     join supplier on l_suppkey = s_suppkey and c_nationkey = s_nationkey \
     join nation on s_nationkey = n_nationkey \
     join region on n_regionkey = r_regionkey \
     where r_name = 'ASIA' and o_orderdate >= date '1994-01-01' \
     and o_orderdate < date '1994-01-01' + interval '1' year \
     group by n_name order by revenue desc";

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Result<Kind, String> {
        match name {
            "fig7_serving" => Ok(Kind::Fig7Serving),
            "tpch_q1_scan" => Ok(Kind::TpchQ1Scan),
            "tpch_q5_federated" => Ok(Kind::TpchQ5Federated),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig7Serving => "fig7_serving",
            Kind::TpchQ1Scan => "tpch_q1_scan",
            Kind::TpchQ5Federated => "tpch_q5_federated",
        }
    }

    /// Closed-loop clients.
    pub fn clients(self) -> usize {
        match self {
            Kind::Fig7Serving => 2,
            _ => 1,
        }
    }

    /// TPC-H scale factor (0 when the workload has no TPC-H data).
    pub fn sf(self) -> f64 {
        match self {
            Kind::Fig7Serving => 0.0,
            Kind::TpchQ1Scan => Q1_SF,
            Kind::TpchQ5Federated => Q5_SF,
        }
    }
}

/// One query of a workload's mix, with its plaintext reference.
pub struct Item {
    /// Label for logs.
    pub name: &'static str,
    /// The query as SQL text.
    pub sql: &'static str,
    /// Run `plan_sql` and CostDp `optimize` inside every query.
    pub plan_per_query: bool,
    /// The unextended plan.
    pub plan: QueryPlan,
    /// The extended plan executed (planned at set-up).
    pub ext: ExtendedPlan,
    /// Its Def. 6.1 key plan.
    pub keys: KeyPlan,
    /// Plaintext reference result.
    pub reference: Table,
    /// Signed envelopes the protocol seals per execution.
    pub envelopes: usize,
}

/// How a client reaches the parties.
#[allow(clippy::large_enum_variant)] // one per client, never moved in a hot loop
pub enum Backend {
    /// A persistent in-proc session.
    Session(Session),
    /// Loopback servers and a coordinator.
    Federated(Federation),
}

impl Backend {
    /// Run one query.
    pub fn execute(
        &mut self,
        ext: &ExtendedPlan,
        keys: &KeyPlan,
        user: SubjectId,
    ) -> Result<Report, SimError> {
        match self {
            Backend::Session(s) => s.execute(ext, keys, user),
            Backend::Federated(f) => f.coordinator().execute(ext, keys),
        }
    }

    /// Clusters (provisioned, reused) so far.
    pub fn provisioning(&self) -> (usize, usize) {
        match self {
            Backend::Session(s) => {
                let st = s.stats();
                (st.clusters_provisioned, st.clusters_reused)
            }
            Backend::Federated(_) => (0, 0),
        }
    }

    /// Recovered deliveries (re-sends) so far.
    pub fn retries(&mut self) -> u64 {
        match self {
            Backend::Session(s) => s.recovery_stats().values().map(|r| r.retries).sum(),
            Backend::Federated(f) => f.coordinator().recovered_sends(),
        }
    }
}

/// What every client of a workload shares.
pub struct Shared {
    /// Which workload.
    pub kind: Kind,
    /// Schema, subjects, policy, prices and data.
    pub world: World,
    /// Statistics collected at set-up.
    pub stats: StatsCatalog,
    /// The query mix, visited round-robin.
    pub items: Vec<Item>,
}

/// A workload ready to measure.
pub struct Setup {
    /// Shared state.
    pub shared: Shared,
    /// One backend per client.
    pub clients: Vec<Backend>,
    /// Seconds from start to the first measured query.
    pub setup_s: f64,
}

/// What one measured query did.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Index into the mix.
    pub item: usize,
    /// `Report::total_bytes()`.
    pub total_bytes: usize,
    /// Request-envelope bytes.
    pub request_bytes: usize,
    /// Bytes on the busiest directed edge.
    pub max_edge_bytes: usize,
    /// Signed sub-query requests.
    pub requests: usize,
    /// Rows returned.
    pub rows: usize,
    /// Def. 6.1 clusters in the key plan.
    pub clusters: usize,
    /// Envelopes sealed.
    pub envelopes: usize,
}

impl Record {
    /// The work a query did, compared between traced and untraced runs.
    pub fn work(&self) -> (usize, usize, usize, usize) {
        (self.item, self.total_bytes, self.requests, self.rows)
    }
}

/// The measured phase of a run.
pub struct Phase {
    /// Attempts, failures and verified latencies of all clients.
    pub acct: Accounting,
    /// Per client, the records of its verified queries in order.
    pub records: Vec<Vec<Record>>,
    /// Wall seconds from the first query to the last answer.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Host steal seconds (all CPUs) over the same interval.
    pub steal_s: f64,
    /// Recovery re-sends during the phase.
    pub retries: u64,
    /// Clusters provisioned during the phase.
    pub provisioned: usize,
    /// Cluster cache hits during the phase.
    pub reused: usize,
}

/// Seeded `Hosp`/`Ins` rows for the running example. The shape is
/// fixed, so every seed does the same work: half the patients had a
/// stroke, the (disease, treatment) pairs come from a fixed list dealt
/// to patients in seeded order, and premiums all exceed the `HAVING`
/// threshold. Birth dates and premiums are drawn from the seed.
fn fig7_db(ex: &RunningExample, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6669_6737);
    let mut pairs: Vec<(&str, &str)> = (0..FIG7_PATIENTS)
        .map(|i| {
            (
                ["stroke", "stroke", "flu", "asthma"][i % 4],
                ["tPA", "rest", "surgery"][(i / 4) % 3],
            )
        })
        .collect();
    for i in (1..pairs.len()).rev() {
        pairs.swap(i, rng.gen_range(0..=i));
    }
    let mut hosp = Vec::new();
    let mut ins = Vec::new();
    for (i, (disease, treatment)) in pairs.into_iter().enumerate() {
        let name = Value::str(&format!("p{i:02}"));
        hosp.push(vec![
            name.clone(),
            Value::Date(Date(rng.gen_range(-11_000..11_000i32))),
            Value::str(disease),
            Value::str(treatment),
        ]);
        ins.push(vec![name, Value::Num(rng.gen_range(101..250i64) as f64)]);
    }
    let mut db = Database::new();
    db.load(&ex.catalog, "Hosp", hosp);
    db.load(&ex.catalog, "Ins", ins);
    db
}

/// Envelopes one execution seals: one request envelope per recipient
/// batch (the in-proc session seals the user's own batch too); the
/// coordinator also seals each full cluster key for every holder but
/// the user.
fn envelopes(shared_world: &World, ext: &ExtendedPlan, keys: &KeyPlan, federated: bool) -> usize {
    let user = shared_world.env.user;
    let d = dispatch(ext, keys, &shared_world.catalog, &shared_world.env.subjects);
    let mut recipients: Vec<SubjectId> = d.requests.iter().map(|r| r.subject).collect();
    recipients.sort_by_key(|s| s.index());
    recipients.dedup();
    if !federated {
        return recipients.len();
    }
    let provision: usize = keys
        .keys
        .iter()
        .map(|k| k.holders.iter().filter(|&&h| h != user).count())
        .sum();
    recipients.iter().filter(|&&s| s != user).count() + provision
}

/// Build the world, statistics and mix of a workload (no parties yet).
fn build_shared(kind: Kind, seed: u64, tr: &Tracer, root: Option<u64>) -> Result<Shared, String> {
    let federated = kind == Kind::TpchQ5Federated;
    let (world, specs): (World, Vec<(&'static str, &'static str, bool)>) = match kind {
        Kind::Fig7Serving => {
            let ex = RunningExample::new();
            let db = tr.time("fig7.generate", root, None, || fig7_db(&ex, seed));
            let user = ex.subject("U");
            let prices = PriceBook::paper_defaults(&ex.subjects, &[1.0, 1.25, 1.6]);
            let world = World {
                env: ScenarioEnv {
                    subjects: ex.subjects,
                    policy: ex.policy,
                    prices,
                    user,
                },
                catalog: ex.catalog,
                db,
                cap: CapabilityPolicy::default(),
            };
            // An odd number of items, so the median lands inside one.
            let specs = vec![
                ("fig7_sql", FIG7_SQL, true),
                ("hosp_sql", "select D, count(*) from Hosp group by D", true),
                ("ins_sql", "select C, avg(P) from Ins group by C", true),
                ("fig7a", FIG7_SQL, false),
                ("fig7b", FIG7_SQL, false),
            ];
            (world, specs)
        }
        Kind::TpchQ1Scan | Kind::TpchQ5Federated => {
            let (catalog, db) = tr.time("tpch.generate", root, None, || {
                mpq_tpch::generate(kind.sf(), seed)
            });
            let env = build_scenario(&catalog, Scenario::UAPenc);
            let world = World {
                catalog,
                env,
                db,
                cap: CapabilityPolicy::tpch_evaluation(),
            };
            let spec = if kind == Kind::TpchQ1Scan {
                ("tpch_q1", Q1_SQL, false)
            } else {
                ("tpch_q5", Q5_SQL, false)
            };
            (world, vec![spec])
        }
    };
    let stats = tr.time("planner.collect_stats", root, None, || {
        collect_stats(&world.catalog, &world.db, &SampleConfig::default())
    });

    let mut items = Vec::new();
    for (name, sql, plan_per_query) in specs {
        let plan = match kind {
            Kind::Fig7Serving if !plan_per_query => RunningExample::new().plan,
            Kind::Fig7Serving => {
                plan_sql(&world.catalog, sql).map_err(|e| format!("{name}: {e}"))?
            }
            Kind::TpchQ1Scan => mpq_tpch::query_plan(&world.catalog, 1),
            Kind::TpchQ5Federated => mpq_tpch::query_plan(&world.catalog, 5),
        };
        let (ext, keys) = match name {
            "fig7a" | "fig7b" => fig7_fixed(&world, name)?,
            _ => {
                let opt = tr.time("planner.optimize", root, None, || {
                    optimize(
                        &plan,
                        &world.catalog,
                        &stats,
                        &world.env,
                        &world.cap,
                        Strategy::CostDp,
                    )
                });
                let opt = opt.map_err(|e| format!("{name}: planning failed: {e}"))?;
                (opt.extended, opt.keys)
            }
        };
        let reference = tr.time("exec.plaintext", root, None, || {
            check::plaintext(&world.catalog, &world.db, &plan)
        });
        let reference = reference.map_err(|e| format!("{name}: plaintext reference: {e}"))?;
        let envelopes = envelopes(&world, &ext, &keys, federated);
        items.push(Item {
            name,
            sql,
            plan_per_query,
            plan,
            ext,
            keys,
            reference,
            envelopes,
        });
    }
    Ok(Shared {
        kind,
        world,
        stats,
        items,
    })
}

/// The fixed Fig. 7(a)/(b) assignments, minimally extended.
fn fig7_fixed(world: &World, which: &str) -> Result<(ExtendedPlan, KeyPlan), String> {
    let ex = RunningExample::new();
    let assign = if which == "fig7a" {
        ["H", "X", "X", "Y"]
    } else {
        ["H", "Z", "Z", "Y"]
    };
    let cands = candidates(
        &ex.plan,
        &world.catalog,
        &world.env.policy,
        &world.env.subjects,
        &world.cap,
        true,
    );
    let mut a = Assignment::new();
    for (node, s) in ["select_d", "join", "group", "having"].iter().zip(assign) {
        a.set(ex.node(node), ex.subject(s));
    }
    let ext = minimally_extend(
        &ex.plan,
        &world.catalog,
        &world.env.policy,
        &world.env.subjects,
        &cands,
        &a,
        Some(world.env.user),
    )
    .map_err(|e| format!("{which}: {e:?}"))?;
    let keys = plan_keys(&ext);
    Ok((ext, keys))
}

/// Session seed of client `c`.
pub fn client_seed(seed: u64, c: usize) -> u64 {
    seed ^ ((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Set a workload up from its seed: data, statistics, planning,
/// references, parties, and one warm-up pass over the mix per client.
pub fn setup(kind: Kind, seed: u64, tr: &Tracer) -> Result<Setup, String> {
    let start = Instant::now();
    let root = tr.start("setup", None, None);
    let parent = root.id();
    let shared = build_shared(kind, seed, tr, parent)?;
    let w = &shared.world;
    let mut clients = Vec::new();
    for c in 0..kind.clients() {
        clients.push(match kind {
            Kind::TpchQ5Federated => Backend::Federated(Federation::start(w, seed, tr, parent)?),
            _ => Backend::Session(tr.time("dist.session_open", parent, None, || {
                Session::open_with(
                    &w.catalog,
                    &w.env.subjects,
                    &w.env.policy,
                    &w.db,
                    SessionConfig::new(client_seed(seed, c)),
                )
            })),
        });
    }
    for backend in &mut clients {
        for item in &shared.items {
            let report = tr.time("warmup", parent, None, || {
                backend.execute(&item.ext, &item.keys, w.env.user)
            });
            let report = report.map_err(|e| format!("warm-up {}: {e}", item.name))?;
            check::matches(&item.reference, &report.result)
                .map_err(|e| format!("warm-up {}: {e}", item.name))?;
        }
    }
    tr.finish(root);
    Ok(Setup {
        shared,
        clients,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Run one query of the mix, timed from planning (when the item plans
/// per query) to the returned report. Checking is outside the timing.
fn one_query(
    shared: &Shared,
    backend: &mut Backend,
    ix: usize,
    qid: u64,
    tr: &Tracer,
) -> (Outcome, Option<Record>) {
    let item = &shared.items[ix];
    let w = &shared.world;
    let root = tr.start("query", None, Some(qid));
    let (p, q) = (root.id(), Some(qid));
    let t0 = Instant::now();
    let planned = if item.plan_per_query {
        let planned = tr
            .time("algebra.plan_sql", p, q, || plan_sql(&w.catalog, item.sql))
            .map_err(|e| e.to_string())
            .and_then(|plan| {
                tr.time("planner.optimize", p, q, || {
                    optimize(
                        &plan,
                        &w.catalog,
                        &shared.stats,
                        &w.env,
                        &w.cap,
                        Strategy::CostDp,
                    )
                })
                .map_err(|e| e.to_string())
            });
        match planned {
            Ok(opt) => Some((opt.extended, opt.keys)),
            Err(e) => {
                tr.finish(root);
                return (Outcome::Error(format!("{}: {e}", item.name)), None);
            }
        }
    } else {
        None
    };
    let (ext, keys) = planned
        .as_ref()
        .map_or((&item.ext, &item.keys), |(e, k)| (e, k));
    let report = tr.time("dist.execute", p, q, || {
        backend.execute(ext, keys, w.env.user)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.finish(root);
    let report = match report {
        Ok(r) => r,
        Err(e) => return (Outcome::Error(format!("{}: {e}", item.name)), None),
    };
    if let Err(e) = check::matches(&item.reference, &report.result) {
        return (Outcome::Wrong(format!("{}: {e}", item.name)), None);
    }
    let request_bytes = report.request_bytes.values().sum();
    let record = Record {
        item: ix,
        total_bytes: report.total_bytes(),
        request_bytes,
        max_edge_bytes: report.transfers.values().copied().max().unwrap_or(0),
        requests: report.requests,
        rows: report.result.len(),
        clusters: keys.keys.len(),
        envelopes: item.envelopes,
    };
    (Outcome::Correct(ms), Some(record))
}

/// Process user+system CPU seconds (all threads).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Seconds the host took the machine's CPUs away (`steal` in
/// `/proc/stat`, summed over CPUs): a run that loses much of its wall
/// time this way measured a disturbed host, not the program.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu user nice system idle iowait irq softirq steal ...", in USER_HZ.
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |t| t as f64 / 100.0)
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Closed loop: every client sends its next query when the last one
/// returns, visiting the mix round-robin from its own offset, until
/// `seconds` have passed and at least `min_samples` queries were
/// attempted (never past four times `seconds`).
pub fn run_phase(setup: &mut Setup, tr: &Tracer, seconds: f64, min_samples: u64) -> Phase {
    let shared = &setup.shared;
    let n_items = shared.items.len();
    let before: Vec<(usize, usize)> = setup.clients.iter().map(Backend::provisioning).collect();
    let retries_before: u64 = setup.clients.iter_mut().map(Backend::retries).sum();
    let attempted = AtomicU64::new(0);
    let next_qid = AtomicU64::new(1);
    let barrier = std::sync::Barrier::new(setup.clients.len() + 1);
    let soft = Duration::from_secs_f64(seconds);
    let hard = soft * 4;
    let (outs, wall_s, cpu_s, steal_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, backend)| {
                let (attempted, next_qid, barrier) = (&attempted, &next_qid, &barrier);
                scope.spawn(move || {
                    let mut acct = Accounting::default();
                    let mut records = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let mut ix = c % n_items;
                    loop {
                        let elapsed = start.elapsed();
                        let enough = attempted.load(Ordering::Relaxed) >= min_samples;
                        if elapsed >= hard || (elapsed >= soft && enough) {
                            break;
                        }
                        let qid = next_qid.fetch_add(1, Ordering::Relaxed);
                        let (outcome, record) = one_query(shared, backend, ix, qid, tr);
                        attempted.fetch_add(1, Ordering::Relaxed);
                        acct.record(outcome);
                        records.extend(record);
                        ix = (ix + 1) % n_items;
                    }
                    (acct, records)
                })
            })
            .collect();
        let (cpu0, steal0) = (process_cpu_s(), host_steal_s());
        barrier.wait();
        let t0 = Instant::now();
        let outs: Vec<(Accounting, Vec<Record>)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (
            outs,
            t0.elapsed().as_secs_f64(),
            process_cpu_s() - cpu0,
            host_steal_s() - steal0,
        )
    });
    let after: Vec<(usize, usize)> = setup.clients.iter().map(Backend::provisioning).collect();
    let retries_after: u64 = setup.clients.iter_mut().map(Backend::retries).sum();
    let mut acct = Accounting::default();
    let mut records = Vec::new();
    for (a, r) in outs {
        acct.merge(a);
        records.push(r);
    }
    let delta = |f: fn(&(usize, usize)) -> usize| -> usize {
        after.iter().map(f).sum::<usize>() - before.iter().map(f).sum::<usize>()
    };
    Phase {
        acct,
        records,
        wall_s,
        cpu_s,
        steal_s,
        retries: retries_after - retries_before,
        provisioned: delta(|p| p.0),
        reused: delta(|p| p.1),
    }
}
