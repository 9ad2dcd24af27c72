//! The one storm driver under `soak`, `chaos`, `cluster_chaos`,
//! `recovery_chaos`, `mutation_chaos` and `memory_chaos`.
//!
//! A storm is data ([`Storm`]): oracle rows, `clients ×
//! queries_per_client`, a per-query [`Kind`] mix, the transient
//! [`Outcome`]s the scenario absorbs by retrying, an ordered list of
//! milestones keyed on the completed fraction (kill C at ¼, drain A at
//! ½), and optional side threads (a mutator, a checkpoint loop).
//! [`Storm::run`] drives it with one retry-until-terminal client loop
//! under one attempts bound, over a [`Front`] whose only job is to send
//! one query and map its own error type onto [`Outcome`]. Every OK
//! reply is compared with the oracle; every outcome is counted in one
//! [`Tally`].
//!
//! Beside the driver: the set-up the scenarios share — the oracle, the
//! replica builder, the storm's cluster client.

use crate::workloads::{emp_dept, paper_query, EmpDeptConfig};
use fj_cluster::{CancelToken, ClusterClient, ClusterConfig, ClusterError, HedgeConfig};
use fj_core::{Catalog, Database, JoinQuery, OptimizerConfig, Tuple};
use fj_net::{Client, ErrorCode, NetError, QueryOptions, Server, ServerConfig};
use fj_runtime::{
    FaultPlan, InterruptReason, QueryService, RuntimeError, ServiceConfig, StorageMode,
};
use std::fmt::Display;
use std::net::SocketAddr;
use std::ops::Index;
use std::panic::resume_unwind;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

pub(crate) fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// The serial reference: `query`'s rows over `cat`, sorted.
pub(crate) fn oracle(cat: &Catalog, query: &JoinQuery) -> Vec<Tuple> {
    sorted(
        Database::with_catalog(cat.clone())
            .execute(query)
            .expect("serial reference execution")
            .rows,
    )
}

/// The Figure-1 instance the Emp/Dept storms run, and the paper
/// query's oracle rows over it.
pub(crate) fn paper_oracle(n_emps: usize, n_depts: usize) -> (Catalog, Vec<Tuple>) {
    let cat = emp_dept(EmpDeptConfig {
        n_emps,
        n_depts,
        frac_big: 0.1,
        ..Default::default()
    });
    let expected = oracle(&cat, &paper_query());
    (cat, expected)
}

/// One replica server over `cat` on a loopback port, with room for
/// `clients` storm clients plus probers, hedges and direct readers.
pub(crate) fn replica(cat: Catalog, service: ServiceConfig, clients: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            max_connections: clients.max(1) * 4 + 8,
            service,
        },
    )
    .expect("replica binds")
}

/// A default service carrying `plan`, on disk under `dir` if given (a
/// pool big enough to hold the working set: pool pressure is not the
/// storms' point).
pub(crate) fn faulty(plan: impl Into<Arc<FaultPlan>>, dir: Option<&Path>) -> ServiceConfig {
    ServiceConfig {
        storage: dir.map_or(StorageMode::InMemory, |dir| StorageMode::Disk {
            dir: dir.to_path_buf(),
            pool_pages: 4096,
        }),
        fault_plan: Some(plan.into()),
        ..ServiceConfig::default()
    }
}

/// The storms' cluster client: fast probes, a shared retry budget, and
/// hedges in verify mode — the losing replica's reply must be
/// byte-identical.
pub(crate) fn cluster(addrs: &[SocketAddr]) -> ClusterClient {
    ClusterClient::connect(
        addrs,
        ClusterConfig {
            probe_interval: Duration::from_millis(10),
            probe_timeout: Duration::from_millis(500),
            retry_budget_capacity: 64,
            retry_deposit_per_success: 0.5,
            hedge: HedgeConfig {
                enabled: true,
                quantile: 0.5,
                min_delay: Duration::from_millis(2),
                min_samples: 16,
                verify: true,
            },
            ..ClusterConfig::default()
        },
    )
    .expect("cluster client")
}

/// How one attempt at one query ended — the one classification every
/// front maps its errors onto, and the index of [`Tally`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Rows came back and equalled the oracle.
    Ok,
    /// The query's own deadline expired.
    Deadline,
    /// The query's own canceller won the race.
    Cancelled,
    /// The worker running the query panicked (and was respawned).
    WorkerPanic,
    /// An injected storage fault, typed. Retried by the scenarios that
    /// absorb it; ends the query in the one that counts them.
    Fault,
    /// Load shed or drain refusal: back off and resend.
    Shed,
    /// The connection died: reconnect and resend.
    Transport,
    /// The cluster had no routable replica for a moment: back off.
    NoCandidate,
    /// The cluster's retry budget ran dry: back off until successes
    /// refill it.
    BudgetStall,
}

/// The number of [`Outcome`]s.
const OUTCOMES: usize = 9;

/// Attempts per [`Outcome`], summed over every client of a storm.
#[derive(Debug)]
pub(crate) struct Tally([u64; OUTCOMES]);

impl Index<Outcome> for Tally {
    type Output = u64;
    fn index(&self, outcome: Outcome) -> &u64 {
        &self.0[outcome as usize]
    }
}

impl Tally {
    /// The cluster storms' contract: nothing but verified rows and the
    /// endings a query asked for reaches a client.
    pub(crate) fn assert_only_requested_endings(&self, total: u64) {
        assert_eq!(
            self[Outcome::Ok] + self[Outcome::Deadline] + self[Outcome::Cancelled],
            total,
            "every query must terminate as a verified result, a requested \
             cancellation, or a requested deadline expiry"
        );
        assert!(
            self[Outcome::Ok] >= 1,
            "the storm must complete some queries"
        );
    }
}

/// What one storm query asks for; the default is a plain query.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Kind {
    /// The server gets this long; expiry ends the query.
    pub(crate) deadline: Option<Duration>,
    /// A second thread cancels the query 300 µs in.
    pub(crate) cancel: bool,
    /// Run the naive no-filter-join plan: same rows, but it
    /// materialises the whole view, so the governor has a window.
    pub(crate) naive: bool,
}

impl Kind {
    fn config(self) -> Option<OptimizerConfig> {
        self.naive.then(OptimizerConfig::without_filter_join)
    }

    fn options(self) -> QueryOptions {
        QueryOptions {
            deadline: self.deadline,
            config: self.config(),
            want_trace: false,
        }
    }
}

/// The governed mix of the fault storms: of every four queries one
/// carries a 1 ms deadline and one is cancelled mid-flight, both on
/// the naive plan.
pub(crate) fn governed_mix(i: usize) -> Kind {
    let (deadlined, cancel) = (i % 4 == 1, i % 4 == 3);
    Kind {
        deadline: deadlined.then_some(Duration::from_millis(1)),
        cancel,
        naive: deadlined || cancel,
    }
}

/// Where a storm client sends its queries.
pub(crate) trait Front {
    type Error: Display;

    /// One attempt at `query`.
    fn ask(&mut self, query: &JoinQuery, kind: Kind) -> Result<Vec<Tuple>, Self::Error>;

    /// The class of `err`; `None` fails the run.
    fn classify(err: &Self::Error) -> Option<Outcome>;

    /// Runs after a [`Outcome::Transport`] attempt.
    fn reconnect(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Runs `ask` beside, when `cancel` is given, a second thread that
/// fires it 300 µs in.
fn race<R>(cancel: Option<impl FnOnce() + Send + 'static>, ask: impl FnOnce() -> R) -> R {
    let killer = cancel.map(|fire| {
        thread::spawn(move || {
            thread::sleep(Duration::from_micros(300));
            fire();
        })
    });
    let out = ask();
    if let Some(k) = killer {
        k.join().expect("canceller thread");
    }
    out
}

/// How long a client keeps trying to reach a server that may be
/// restarting before the run fails.
const RECONNECT_PATIENCE: Duration = Duration::from_secs(5);

/// One `fj-net` connection to one server.
pub(crate) struct NetFront {
    addr: SocketAddr,
    pub(crate) client: Client,
}

impl NetFront {
    /// Connects to `addr`, retrying while a restarting server is away.
    pub(crate) fn connect(addr: SocketAddr) -> Result<NetFront, String> {
        let t0 = Instant::now();
        loop {
            match Client::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(client) => return Ok(NetFront { addr, client }),
                Err(e) if t0.elapsed() >= RECONNECT_PATIENCE => {
                    return Err(format!(
                        "cannot connect to {addr} within {RECONNECT_PATIENCE:?}: {e}"
                    ))
                }
                Err(_) => thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Front for NetFront {
    type Error = NetError;

    fn ask(&mut self, query: &JoinQuery, kind: Kind) -> Result<Vec<Tuple>, NetError> {
        let cancel = kind.cancel.then(|| {
            let mut canceller = self.client.canceller().expect("socket clones");
            move || {
                let _ = canceller.cancel();
            }
        });
        race(cancel, || self.client.query_with(query, &kind.options())).map(|reply| reply.rows)
    }

    fn classify(err: &NetError) -> Option<Outcome> {
        let NetError::Remote { code, message } = err else {
            return err.is_transport().then_some(Outcome::Transport);
        };
        match code {
            ErrorCode::DeadlineExceeded => Some(Outcome::Deadline),
            ErrorCode::Cancelled => Some(Outcome::Cancelled),
            ErrorCode::Shed | ErrorCode::ShuttingDown => Some(Outcome::Shed),
            ErrorCode::QueryFailed if message.contains("injected") => Some(Outcome::Fault),
            ErrorCode::Internal if message.contains("panicked") => Some(Outcome::WorkerPanic),
            _ => None,
        }
    }

    fn reconnect(&mut self) -> Result<(), String> {
        *self = NetFront::connect(self.addr)?;
        Ok(())
    }
}

/// The replica-aware client, shared by every storm client. It absorbs
/// sheds, transport failures and worker panics itself (failover), so
/// only what it passes through typed is mapped.
pub(crate) struct ClusterFront<'a>(pub(crate) &'a ClusterClient);

impl Front for ClusterFront<'_> {
    type Error = ClusterError;

    fn ask(&mut self, query: &JoinQuery, kind: Kind) -> Result<Vec<Tuple>, ClusterError> {
        let token = Arc::new(CancelToken::new());
        let cancel = kind.cancel.then(|| {
            let token = Arc::clone(&token);
            move || token.cancel()
        });
        race(cancel, || {
            self.0.query_with_token(query, &kind.options(), &token)
        })
        .map(|reply| reply.rows)
    }

    fn classify(err: &ClusterError) -> Option<Outcome> {
        match err {
            ClusterError::Cancelled => Some(Outcome::Cancelled),
            ClusterError::NoHealthyReplica { .. } => Some(Outcome::NoCandidate),
            ClusterError::RetryBudgetExhausted { .. } => Some(Outcome::BudgetStall),
            ClusterError::Net(e) => NetFront::classify(e)
                .filter(|class| matches!(class, Outcome::Deadline | Outcome::Fault)),
            _ => None,
        }
    }
}

/// The in-process query service, shared by every storm client.
pub(crate) struct ServiceFront<'a>(pub(crate) &'a QueryService);

impl Front for ServiceFront<'_> {
    type Error = RuntimeError;

    fn ask(&mut self, query: &JoinQuery, kind: Kind) -> Result<Vec<Tuple>, RuntimeError> {
        let ticket = match kind.config() {
            Some(config) => self.0.submit_with_options(query.clone(), config, false),
            None => self.0.submit(query.clone()),
        }?;
        let cancel = kind.cancel.then(|| {
            let interrupt = ticket.interrupt_handle();
            move || {
                interrupt.trip(InterruptReason::Cancelled);
            }
        });
        race(cancel, || match kind.deadline {
            Some(budget) => ticket.wait_timeout(budget),
            None => ticket.wait(),
        })
        .map(|reply| reply.rows)
    }

    /// The server's `RuntimeError` → `ErrorCode` table, read through
    /// [`NetFront::classify`].
    fn classify(err: &RuntimeError) -> Option<Outcome> {
        match err {
            RuntimeError::Interrupted(InterruptReason::Cancelled) => Some(Outcome::Cancelled),
            RuntimeError::Interrupted(InterruptReason::Deadline)
            | RuntimeError::DeadlineExceeded => Some(Outcome::Deadline),
            RuntimeError::QueueFull | RuntimeError::ShuttingDown => Some(Outcome::Shed),
            RuntimeError::Query(e) if e.to_string().contains("injected") => Some(Outcome::Fault),
            RuntimeError::WorkerPanicked(_) => Some(Outcome::WorkerPanic),
            _ => None,
        }
    }
}

/// Attempts one query gets to reach a terminal outcome.
pub(crate) const MAX_ATTEMPTS: u32 = 10_000;

type Act<'a> = Box<dyn FnOnce() + Send + 'a>;

/// One storm scenario; see the module docs.
pub(crate) struct Storm<'a> {
    query: JoinQuery,
    expected: &'a [Tuple],
    mix: fn(usize) -> Kind,
    absorbs: &'a [Outcome],
    milestones: Vec<(u64, Act<'a>)>,
    tasks: Vec<Act<'a>>,
    loops: Vec<(Duration, Box<dyn FnMut() + Send + 'a>)>,
}

impl<'a> Storm<'a> {
    /// Every client sends copies of `query`, its `i`-th as `mix(i)`,
    /// and holds every OK reply to `expected` (sorted). A transient
    /// outcome in `absorbs` is retried with its back-off; one outside
    /// it fails the run — except [`Outcome::Fault`], which then ends
    /// its query.
    pub(crate) fn new(
        query: JoinQuery,
        expected: &'a [Tuple],
        mix: fn(usize) -> Kind,
        absorbs: &'a [Outcome],
    ) -> Storm<'a> {
        Storm {
            query,
            expected,
            mix,
            absorbs,
            milestones: Vec::new(),
            tasks: Vec::new(),
            loops: Vec::new(),
        }
    }

    /// Runs `act` once `1/k` of all queries have completed. Milestones
    /// fire on one thread, in the order given.
    pub(crate) fn milestone(mut self, k: u64, act: impl FnOnce() + Send + 'a) -> Self {
        self.milestones.push((k, Box::new(act)));
        self
    }

    /// Runs `task` beside the clients; the storm lasts until it returns.
    pub(crate) fn task(mut self, task: impl FnOnce() + Send + 'a) -> Self {
        self.tasks.push(Box::new(task));
        self
    }

    /// Calls `tick` every `period` for as long as the storm lasts.
    pub(crate) fn every(mut self, period: Duration, tick: impl FnMut() + Send + 'a) -> Self {
        self.loops.push((period, Box::new(tick)));
        self
    }

    /// Drives the storm with `clients` clients of `per_client` queries
    /// each, client `c` over `connect(c)`. Returns the tally and the
    /// seconds the clients took. A panic on any storm thread is
    /// re-raised here with its message.
    pub(crate) fn run<F: Front>(
        self,
        clients: usize,
        per_client: usize,
        connect: impl Fn(usize) -> Result<F, String> + Sync,
    ) -> (Tally, f64) {
        let total = (clients * per_client) as u64;
        let counts: [AtomicU64; OUTCOMES] = Default::default();
        let (done, over) = (AtomicU64::new(0), AtomicBool::new(false));
        let (query, expected, mix, absorbs) = (&self.query, self.expected, self.mix, self.absorbs);
        let (counts, done, over, connect) = (&counts, &done, &over, &connect);
        let t0 = Instant::now();
        let (secs, panicked) = thread::scope(|scope| {
            scope.spawn(move || {
                for (k, act) in self.milestones {
                    while done.load(Ordering::Relaxed) < total / k {
                        if over.load(Ordering::SeqCst) {
                            return;
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    act();
                }
            });
            for (period, mut tick) in self.loops {
                scope.spawn(move || {
                    while !over.load(Ordering::SeqCst) {
                        tick();
                        thread::sleep(period);
                    }
                });
            }
            let tasks: Vec<_> = self.tasks.into_iter().map(|t| scope.spawn(t)).collect();
            let clients: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut front = connect(c).unwrap_or_else(|e| panic!("client {c}: {e}"));
                        for i in 0..per_client {
                            let who = format!("client {c} query {i}");
                            settle(&mut front, query, mix(i), expected, absorbs, &who, counts);
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            let mut panicked: Vec<_> = clients.into_iter().filter_map(|h| h.join().err()).collect();
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            // A client that died leaves `done` short of the next
            // milestone: release the coordinator rather than hang.
            over.store(!panicked.is_empty(), Ordering::SeqCst);
            panicked.extend(tasks.into_iter().filter_map(|h| h.join().err()));
            over.store(true, Ordering::SeqCst);
            (secs, panicked)
        });
        if let Some(panic) = panicked.into_iter().next() {
            resume_unwind(panic);
        }
        let tally = Tally(std::array::from_fn(|o| counts[o].load(Ordering::Relaxed)));
        (tally, secs)
    }
}

/// The one client loop: re-drives one query until it lands in a
/// terminal class, counting every attempt.
fn settle<F: Front>(
    front: &mut F,
    query: &JoinQuery,
    kind: Kind,
    expected: &[Tuple],
    absorbs: &[Outcome],
    who: &str,
    counts: &[AtomicU64; OUTCOMES],
) {
    for attempt in 1..MAX_ATTEMPTS {
        let (outcome, why) = match front.ask(query, kind) {
            Ok(rows) => {
                assert!(sorted(rows) == expected, "{who}: rows diverged from serial");
                (Outcome::Ok, String::new())
            }
            Err(e) => match F::classify(&e) {
                Some(class) => (class, e.to_string()),
                None => panic!("{who}: unexpected {e}"),
            },
        };
        counts[outcome as usize].fetch_add(1, Ordering::Relaxed);
        match outcome {
            Outcome::Ok | Outcome::WorkerPanic => return,
            Outcome::Deadline => {
                assert!(
                    kind.deadline.is_some(),
                    "{who}: deadline expiry without a deadline"
                );
                return;
            }
            Outcome::Cancelled => {
                assert!(kind.cancel, "{who}: cancelled without a canceller");
                return;
            }
            Outcome::Fault if !absorbs.contains(&Outcome::Fault) => return,
            transient => assert!(
                absorbs.contains(&transient),
                "{who}: unexpected {transient:?}: {why}"
            ),
        }
        match outcome {
            Outcome::Shed => thread::sleep(Duration::from_millis(1 + u64::from(attempt % 5))),
            Outcome::Transport => front.reconnect().unwrap_or_else(|e| panic!("{who}: {e}")),
            Outcome::NoCandidate => thread::sleep(Duration::from_millis(2)),
            Outcome::BudgetStall => thread::sleep(Duration::from_millis(5)),
            _ => {}
        }
    }
    panic!(
        "{who} cannot reach a terminal outcome: retry budget of {MAX_ATTEMPTS} attempts exhausted"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::fixtures;
    use fj_net::WireError;
    use std::io;
    use std::sync::Mutex;

    const ALL: [Outcome; OUTCOMES] = [
        Outcome::Ok,
        Outcome::Deadline,
        Outcome::Cancelled,
        Outcome::WorkerPanic,
        Outcome::Fault,
        Outcome::Shed,
        Outcome::Transport,
        Outcome::NoCandidate,
        Outcome::BudgetStall,
    ];

    #[test]
    fn the_tally_has_a_slot_per_outcome() {
        assert_eq!(ALL.map(|o| o as usize), std::array::from_fn(|i| i));
    }

    fn remote(code: ErrorCode, message: &str) -> NetError {
        NetError::Remote {
            code,
            message: message.into(),
        }
    }

    #[test]
    fn milestones_fire_once_in_order_and_the_tally_sums_to_the_total() {
        let cat = fixtures::paper_catalog();
        let expected = oracle(&cat, &paper_query());
        let server = replica(cat, ServiceConfig::default(), 2);
        let addr = server.local_addr();
        let fired = Mutex::new(Vec::new());
        let (tally, secs) = Storm::new(paper_query(), &expected, governed_mix, &[])
            .milestone(4, || fired.lock().unwrap().push("quarter"))
            .milestone(2, || fired.lock().unwrap().push("half"))
            .run(2, 4, |_| NetFront::connect(addr));
        server.shutdown();
        assert_eq!(*fired.lock().unwrap(), ["quarter", "half"]);
        assert_eq!(tally.0.iter().sum::<u64>(), 8);
        assert!(tally[Outcome::Ok] >= 4, "the plain queries complete");
        assert!(secs > 0.0);
    }

    /// One row per match arm of the six parent harnesses' client loops:
    /// the error lands in the class that arm counted it under. `None`
    /// rows are the arms that panicked.
    #[test]
    fn every_front_maps_its_errors_onto_the_class_the_harnesses_counted() {
        let net: [(NetError, Option<Outcome>); 12] = [
            (remote(ErrorCode::Shed, "queue full"), Some(Outcome::Shed)),
            (
                remote(ErrorCode::ShuttingDown, "draining"),
                Some(Outcome::Shed),
            ),
            (
                remote(ErrorCode::DeadlineExceeded, "late"),
                Some(Outcome::Deadline),
            ),
            (
                remote(ErrorCode::Cancelled, "cancelled"),
                Some(Outcome::Cancelled),
            ),
            (
                remote(ErrorCode::QueryFailed, "injected read fault on page 3"),
                Some(Outcome::Fault),
            ),
            (
                remote(ErrorCode::Internal, "worker panicked: induced"),
                Some(Outcome::WorkerPanic),
            ),
            (
                NetError::Io(io::ErrorKind::ConnectionReset.into()),
                Some(Outcome::Transport),
            ),
            (
                NetError::Wire(WireError::TruncatedFrame),
                Some(Outcome::Transport),
            ),
            (NetError::ConnectionClosed, Some(Outcome::Transport)),
            (remote(ErrorCode::QueryFailed, "no such table"), None),
            (remote(ErrorCode::Internal, "worker lost"), None),
            (NetError::Protocol("unexpected frame"), None),
        ];
        for (err, class) in &net {
            assert_eq!(NetFront::classify(err), *class, "NetFront: {err}");
        }

        let lost = || NetError::ConnectionClosed;
        let cluster: [(ClusterError, Option<Outcome>); 9] = [
            (ClusterError::Cancelled, Some(Outcome::Cancelled)),
            (
                ClusterError::Net(remote(ErrorCode::DeadlineExceeded, "late")),
                Some(Outcome::Deadline),
            ),
            (
                ClusterError::Net(remote(ErrorCode::QueryFailed, "injected read fault")),
                Some(Outcome::Fault),
            ),
            (
                ClusterError::NoHealthyReplica {
                    attempted: 2,
                    last: Some(lost()),
                },
                Some(Outcome::NoCandidate),
            ),
            (
                ClusterError::RetryBudgetExhausted { last: lost() },
                Some(Outcome::BudgetStall),
            ),
            // What the cluster client absorbs by failover must not
            // reach a storm client.
            (
                ClusterError::Net(remote(ErrorCode::Shed, "queue full")),
                None,
            ),
            (
                ClusterError::Net(remote(ErrorCode::Internal, "worker panicked")),
                None,
            ),
            (ClusterError::Net(lost()), None),
            (ClusterError::NoReplicas, None),
        ];
        for (err, class) in &cluster {
            assert_eq!(ClusterFront::classify(err), *class, "ClusterFront: {err}");
        }

        let service: [(RuntimeError, Option<Outcome>); 8] = [
            (
                RuntimeError::Interrupted(InterruptReason::Cancelled),
                Some(Outcome::Cancelled),
            ),
            (
                RuntimeError::Interrupted(InterruptReason::Deadline),
                Some(Outcome::Deadline),
            ),
            (RuntimeError::DeadlineExceeded, Some(Outcome::Deadline)),
            (RuntimeError::QueueFull, Some(Outcome::Shed)),
            (RuntimeError::ShuttingDown, Some(Outcome::Shed)),
            (
                RuntimeError::WorkerPanicked("induced".into()),
                Some(Outcome::WorkerPanic),
            ),
            (
                RuntimeError::Interrupted(InterruptReason::MemoryBudget),
                None,
            ),
            (RuntimeError::WorkerLost, None),
        ];
        for (err, class) in &service {
            assert_eq!(ServiceFront::classify(err), *class, "ServiceFront: {err}");
        }
    }

    #[test]
    fn an_injected_fault_reads_as_a_fault_in_process_and_over_the_wire() {
        let every_read_fails = || ServiceConfig {
            fault_plan: Some(Arc::new(FaultPlan::new(1).with_read_errors(1))),
            ..ServiceConfig::default()
        };
        let service = QueryService::start(fixtures::paper_catalog(), every_read_fails());
        let err = ServiceFront(&service)
            .ask(&paper_query(), Kind::default())
            .expect_err("every page read fails");
        assert_eq!(ServiceFront::classify(&err), Some(Outcome::Fault), "{err}");
        service.shutdown();

        let server = replica(fixtures::paper_catalog(), every_read_fails(), 1);
        let err = NetFront::connect(server.local_addr())
            .expect("connects")
            .ask(&paper_query(), Kind::default())
            .expect_err("every page read fails");
        assert_eq!(NetFront::classify(&err), Some(Outcome::Fault), "{err}");
        server.shutdown();
    }

    /// A front that answers every attempt with the same refusal.
    struct Refusing(Option<Outcome>);
    struct Refusal(Option<Outcome>);

    impl Display for Refusal {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{:?}", self.0)
        }
    }

    impl Front for Refusing {
        type Error = Refusal;

        fn ask(&mut self, _: &JoinQuery, _: Kind) -> Result<Vec<Tuple>, Refusal> {
            Err(Refusal(self.0))
        }

        fn classify(err: &Refusal) -> Option<Outcome> {
            err.0
        }
    }

    fn refused(with: Option<Outcome>, absorbs: &[Outcome]) {
        let mix = |_| Kind::default();
        Storm::new(paper_query(), &[], mix, absorbs).run(1, 1, |_| Ok(Refusing(with)));
    }

    #[test]
    #[should_panic(expected = "client 0 query 0: unexpected None")]
    fn an_unmapped_error_fails_the_run_naming_client_and_query() {
        refused(None, &ALL);
    }

    #[test]
    #[should_panic(expected = "client 0 query 0: unexpected Shed")]
    fn a_transient_outcome_the_scenario_does_not_absorb_fails_the_run() {
        refused(Some(Outcome::Shed), &[Outcome::Fault]);
    }

    #[test]
    #[should_panic(expected = "client 0 query 0: cancelled without a canceller")]
    fn a_cancellation_nobody_asked_for_fails_the_run() {
        refused(Some(Outcome::Cancelled), &[]);
    }

    #[test]
    #[should_panic(expected = "client 0 query 0 cannot reach a terminal outcome")]
    fn the_attempts_bound_trips_instead_of_spinning() {
        refused(Some(Outcome::Fault), &[Outcome::Fault]);
    }

    #[test]
    #[should_panic(expected = "cannot connect to 127.0.0.1:")]
    fn a_server_that_never_comes_back_fails_the_run_naming_the_address() {
        // A port that accepts and then says nothing: no handshake ever
        // completes, and no other test can be handed the same port.
        let mute = std::net::TcpListener::bind("127.0.0.1:0").expect("a free port");
        let addr = mute.local_addr().expect("its address");
        Storm::new(paper_query(), &[], |_| Kind::default(), &[])
            .run(1, 1, |_| NetFront::connect(addr));
    }
}
