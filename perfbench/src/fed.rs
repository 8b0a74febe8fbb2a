//! The federated deployment hosted inside the benchmark process: one
//! `mpq_dist::Server` per non-user subject on loopback TCP, driven by
//! one `Coordinator`.

use crate::trace::Tracer;
use mpq_algebra::SubjectId;
use mpq_dist::{Coordinator, Server, ServerConfig, SessionConfig};
use mpq_server::World;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::mpsc::channel;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long dropping a federation waits for its servers to exit.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(10);

/// Running servers plus the coordinator connected to all of them.
pub struct Federation {
    coordinator: Option<Coordinator>,
    servers: Vec<JoinHandle<Result<(), String>>>,
}

/// Reserve `n` loopback ports by binding and releasing listeners.
fn free_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reserve port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve port: {e}"))
}

impl Federation {
    /// Bind a server for every subject but the user, each holding only
    /// its own partition of `world.db`, then connect the coordinator.
    /// Spans: one `server.bind` per server (parent `parent`) and
    /// `server.connect` for `Coordinator::connect`.
    pub fn start(
        world: &World,
        seed: u64,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> Result<Federation, String> {
        let user = world.env.user;
        let subjects: Vec<SubjectId> = world.env.subjects.iter().collect();
        let ports = free_ports(subjects.len())?;
        let addr: HashMap<SubjectId, String> = subjects
            .iter()
            .zip(&ports)
            .map(|(&s, p)| (s, format!("127.0.0.1:{p}")))
            .collect();
        let views = world
            .env
            .policy
            .all_views(&world.catalog, &world.env.subjects);
        let mut fed = Federation {
            coordinator: None,
            servers: Vec::new(),
        };
        for &me in subjects.iter().filter(|&&s| s != user) {
            let mut peers = addr.clone();
            peers.remove(&me);
            let config = ServerConfig {
                me,
                listen: addr[&me].clone(),
                peers,
                seed: mpq_server::subject_seed(seed, me),
                catalog: world.catalog.clone(),
                view: views[me.index()].clone(),
                store: world.partition(me),
                faults: None,
                retry: mpq_dist::RetryPolicy::default(),
            };
            let (ready_tx, ready_rx) = channel();
            let open = tracer.start("server.bind", parent, None);
            fed.servers.push(std::thread::spawn(move || {
                let server = match Server::bind(config) {
                    Ok(s) => s,
                    Err(e) => {
                        let _ = ready_tx.send(Err(e.to_string()));
                        return Err("bind failed".to_string());
                    }
                };
                let _ = ready_tx.send(Ok(()));
                server.run().map_err(|e| e.to_string())
            }));
            let ready = ready_rx
                .recv()
                .map_err(|_| "server thread died before binding".to_string())
                .and_then(|r| r);
            tracer.finish(open);
            ready?;
        }
        let servers: HashMap<SubjectId, String> = addr
            .iter()
            .filter(|(&s, _)| s != user)
            .map(|(&s, a)| (s, a.clone()))
            .collect();
        let coordinator = tracer.time("server.connect", parent, None, || {
            Coordinator::connect(
                &world.catalog,
                &world.env.subjects,
                &world.env.policy,
                &world.db,
                user,
                &addr[&user],
                &servers,
                SessionConfig::new(seed),
            )
        });
        fed.coordinator = Some(coordinator.map_err(|e| format!("coordinator connect: {e}"))?);
        Ok(fed)
    }

    /// The connected coordinator.
    pub fn coordinator(&mut self) -> &mut Coordinator {
        self.coordinator
            .as_mut()
            .expect("a started federation has a coordinator")
    }
}

impl Drop for Federation {
    /// Ask every server to exit and wait for each one, for at most
    /// [`SHUTDOWN_WAIT`]: a server that missed the shutdown frame would
    /// otherwise block the benchmark forever, so it is left detached.
    fn drop(&mut self) {
        let Some(coordinator) = self.coordinator.take() else {
            return;
        };
        coordinator.shutdown();
        let deadline = Instant::now() + SHUTDOWN_WAIT;
        for handle in self.servers.drain(..) {
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}
