//! Federated differential: the TCP coordinator path must agree with the
//! in-proc [`Session`] and with a plaintext reference.
//!
//! Both deployments prepare every query through the same coordinator
//! core, so rows, the wire graph and the request count must agree. The
//! suite also pins the federation-specific behavior of that core:
//!
//! * a repeated plan provisions no new cluster (the coordinator keeps
//!   the session's key cache);
//! * under control-plane resets and truncations, recovery redials and
//!   the repeat run still returns the same rows;
//! * a server that restarts between two queries gets every cached key
//!   replayed on reconnect, so the repeat run needs no re-provisioning.
//!
//! Servers run in this process on loopback TCP (one thread each), except
//! in the restart test, which needs a server it can kill.

use mpq_algebra::{QueryPlan, SubjectId, Value};
use mpq_core::candidates::candidates;
use mpq_core::capability::CapabilityPolicy;
use mpq_core::extend::{minimally_extend, Assignment, ExtendedPlan};
use mpq_core::fixtures::RunningExample;
use mpq_core::keys::{plan_keys, KeyPlan};
use mpq_crypto::keyring::KeyRing;
use mpq_dist::{
    Coordinator, FaultPlan, Report, RetryPolicy, Server, ServerConfig, Session, SessionConfig,
};
use mpq_exec::{execute, ExecCtx, SchemePlan};
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{optimize, Strategy};
use mpq_server::{Fixture, World};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

const SEED: u64 = 42;

/// Reserve `n` loopback ports by binding and releasing listeners. Racy
/// in principle, fine for a test.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

/// One loopback address per subject of `world`.
fn addresses(world: &World) -> HashMap<SubjectId, String> {
    let subjects: Vec<SubjectId> = world.env.subjects.iter().collect();
    subjects
        .into_iter()
        .zip(free_ports(world.env.subjects.len()))
        .map(|(s, p)| (s, format!("127.0.0.1:{p}")))
        .collect()
}

/// Connect a coordinator for `world`'s user to the servers at `addr`.
fn connect(world: &World, addr: &HashMap<SubjectId, String>, config: SessionConfig) -> Coordinator {
    let user = world.env.user;
    let servers: HashMap<SubjectId, String> = addr
        .iter()
        .filter(|(&s, _)| s != user)
        .map(|(&s, a)| (s, a.clone()))
        .collect();
    Coordinator::connect(
        &world.catalog,
        &world.env.subjects,
        &world.env.policy,
        &world.db,
        user,
        &addr[&user],
        &servers,
        config,
    )
    .expect("coordinator connects to every server")
}

/// In-process servers for every subject but the user, each holding only
/// its own partition, plus the coordinator connected to all of them.
struct Federation {
    coordinator: Option<Coordinator>,
    servers: Vec<JoinHandle<()>>,
}

impl Federation {
    fn start(world: &World, config: SessionConfig) -> Federation {
        let addr = addresses(world);
        let views = world
            .env
            .policy
            .all_views(&world.catalog, &world.env.subjects);
        let mut servers = Vec::new();
        for (&me, listen) in addr.iter().filter(|(&s, _)| s != world.env.user) {
            let mut peers = addr.clone();
            peers.remove(&me);
            let server = Server::bind(ServerConfig {
                me,
                listen: listen.clone(),
                peers,
                seed: mpq_server::subject_seed(SEED, me),
                catalog: world.catalog.clone(),
                view: views[me.index()].clone(),
                store: world.partition(me),
                faults: None,
                retry: RetryPolicy::default(),
            })
            .expect("server binds");
            servers.push(std::thread::spawn(move || {
                server.run().expect("server exits cleanly");
            }));
        }
        Federation {
            coordinator: Some(connect(world, &addr, config)),
            servers,
        }
    }

    fn coordinator(&mut self) -> &mut Coordinator {
        self.coordinator.as_mut().expect("running federation")
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            coordinator.shutdown();
        }
        for handle in self.servers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Sorted-row canonical form: deployments and the reference may emit
/// rows in different orders.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// Plaintext reference execution of a logical plan.
fn reference(world: &World, plan: &QueryPlan) -> Vec<Vec<Value>> {
    let ring = KeyRing::new();
    let schemes = SchemePlan::default();
    let koa = HashMap::new();
    let ctx = ExecCtx::new(&world.catalog, &world.db, &ring, &schemes, &koa);
    sorted(execute(plan, &ctx).expect("plaintext reference").to_rows())
}

fn edges(report: &Report) -> Vec<(SubjectId, SubjectId)> {
    let mut e: Vec<_> = report.transfers.keys().copied().collect();
    e.sort_by_key(|(f, t)| (f.index(), t.index()));
    e
}

/// One named plan with its logical original.
struct Case {
    name: &'static str,
    world: World,
    logical: QueryPlan,
    ext: ExtendedPlan,
    keys: KeyPlan,
}

/// Fig. 7(a), Fig. 7(b) and TPC-H Q12 (orders ⋈ lineitem) at SF 0.005.
fn cases() -> Vec<Case> {
    let ex = RunningExample::new();
    let cands = candidates(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &CapabilityPolicy::default(),
        true,
    );
    let mut b = Assignment::new();
    for (node, s) in [
        ("select_d", "H"),
        ("join", "Z"),
        ("group", "Z"),
        ("having", "Y"),
    ] {
        b.set(ex.node(node), ex.subject(s));
    }
    let fig7b = minimally_extend(
        &ex.plan,
        &ex.catalog,
        &ex.policy,
        &ex.subjects,
        &cands,
        &b,
        Some(ex.subject("U")),
    )
    .expect("fig7b assignment is drawn from Λ");
    let fig7a = ex.fig7a_extended();

    let tpch = Fixture::Tpch { scale: 0.005 }.build(SEED);
    let q12 = mpq_tpch::query_plan(&tpch.catalog, 12);
    let stats = collect_stats(&tpch.catalog, &tpch.db, &SampleConfig::default());
    let opt = optimize(
        &q12,
        &tpch.catalog,
        &stats,
        &tpch.env,
        &tpch.cap,
        Strategy::CostDp,
    )
    .expect("Q12 optimizes");

    vec![
        Case {
            name: "fig7a",
            world: Fixture::RunningExample.build(SEED),
            logical: ex.plan.clone(),
            keys: plan_keys(&fig7a),
            ext: fig7a,
        },
        Case {
            name: "fig7b",
            world: Fixture::RunningExample.build(SEED),
            logical: ex.plan.clone(),
            keys: plan_keys(&fig7b),
            ext: fig7b,
        },
        Case {
            name: "tpch-q12",
            world: tpch,
            logical: q12,
            ext: opt.extended,
            keys: opt.keys,
        },
    ]
}

#[test]
fn coordinator_matches_session_and_reference() {
    for case in cases() {
        let name = case.name;
        let world = &case.world;
        let expected = reference(world, &case.logical);
        let user = world.env.user;
        let local = Session::open(
            &world.catalog,
            &world.env.subjects,
            &world.env.policy,
            &world.db,
            SEED,
        )
        .execute(&case.ext, &case.keys, user)
        .expect("in-proc run");
        assert_eq!(sorted(local.result.to_rows()), expected, "{name}: session");

        let mut fed = Federation::start(world, SessionConfig::new(SEED));
        let coordinator = fed.coordinator();
        for run in 0..2 {
            let remote = coordinator
                .execute(&case.ext, &case.keys)
                .expect("federated run");
            assert_eq!(
                sorted(remote.result.to_rows()),
                expected,
                "{name} run {run}: rows"
            );
            assert_eq!(edges(&remote), edges(&local), "{name} run {run}: edges");
            assert_eq!(remote.requests, local.requests, "{name} run {run}");
        }
        // The repeat provisioned nothing: every cluster came from the
        // coordinator's cache.
        let stats = coordinator.stats();
        assert_eq!(stats.queries, 2, "{name}");
        assert_eq!(stats.clusters_provisioned, case.keys.keys.len(), "{name}");
        assert_eq!(stats.clusters_reused, case.keys.keys.len(), "{name}");
    }
}

#[test]
fn repeat_run_survives_control_plane_resets_and_truncations() {
    let retry = RetryPolicy {
        max_attempts: 6,
        ..RetryPolicy::default()
    };
    let mut faults = FaultPlan::new(7);
    faults.reset_pm = 250;
    faults.truncate_pm = 150;
    // Below the retry budget on every edge: each send eventually lands.
    faults.max_per_edge = Some(retry.max_attempts - 1);
    for case in cases().into_iter().take(2) {
        let name = case.name;
        let expected = reference(&case.world, &case.logical);
        let config = SessionConfig::new(SEED)
            .faults(faults.clone())
            .retry(retry)
            .timeout(Duration::from_secs(5));
        let mut fed = Federation::start(&case.world, config);
        let coordinator = fed.coordinator();
        let mut recovered = Vec::new();
        for run in 0..2 {
            let report = coordinator
                .execute(&case.ext, &case.keys)
                .expect("a capped fault schedule recovers");
            assert_eq!(
                sorted(report.result.to_rows()),
                expected,
                "{name} run {run}"
            );
            recovered.push(coordinator.recovered_sends());
        }
        assert!(
            recovered[1] > recovered[0],
            "{name}: the schedule must hit the repeat run too, got {recovered:?}"
        );
        assert_eq!(
            coordinator.stats().clusters_provisioned,
            case.keys.keys.len()
        );
    }
}

/// `mpq-server` processes that are killed even if the test panics.
struct Processes(HashMap<String, Child>);

impl Processes {
    fn spawn(&mut self, name: &str, addr: &str, peers: &str) {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mpq-server"))
            .args([
                "--subject",
                name,
                "--listen",
                addr,
                "--peers",
                peers,
                "--seed",
                &SEED.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn mpq-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let ready = BufReader::new(stdout)
            .lines()
            .next()
            .expect("readiness line")
            .expect("read readiness line");
        assert!(ready.contains("listening on"), "{name}: {ready}");
        self.0.insert(name.to_string(), child);
    }

    fn kill(&mut self, name: &str) {
        let mut child = self.0.remove(name).expect("known subject");
        child.kill().expect("kill server process");
        child.wait().expect("reap server process");
    }
}

impl Drop for Processes {
    fn drop(&mut self) {
        for child in self.0.values_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn restarted_server_gets_cached_keys_replayed() {
    let world = Fixture::RunningExample.build(SEED);
    let ex = RunningExample::new();
    let ext = ex.fig7a_extended();
    let keys = plan_keys(&ext);
    // H holds k_SC in Fig. 7(a): after a restart its ring is empty.
    let h = ex.subject("H");
    assert!(keys.keys.iter().any(|k| k.holders.contains(&h)));

    let addr = addresses(&world);
    let peers = addr
        .iter()
        .map(|(s, a)| format!("{}={a}", world.env.subjects.name(*s)))
        .collect::<Vec<_>>()
        .join(",");
    let mut procs = Processes(HashMap::new());
    for (&s, a) in addr.iter().filter(|(&s, _)| s != world.env.user) {
        procs.spawn(world.env.subjects.name(s), a, &peers);
    }
    let mut coordinator = connect(
        &world,
        &addr,
        SessionConfig::new(SEED).timeout(Duration::from_secs(5)),
    );
    let first = coordinator.execute(&ext, &keys).expect("first run");

    procs.kill("H");
    procs.spawn("H", &addr[&h], &peers);
    let second = coordinator
        .execute(&ext, &keys)
        .expect("the restarted server received its cached keys on reconnect");
    assert_eq!(second.result.to_rows(), first.result.to_rows());
    assert_eq!(coordinator.stats().clusters_provisioned, keys.keys.len());
    coordinator.shutdown();
}
