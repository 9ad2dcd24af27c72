//! Mutation chaos: the write path's recovery contract under fire.
//!
//! Two phases. **Phase 1** is a deterministic store-level crash-point
//! sweep: a seeded mutation sequence (inserts, updates, deletes) runs
//! against a disk store with torn-delta-write and slow-fsync faults
//! armed, and the store is hard-killed after every mutation prefix and
//! after every fuzzy-checkpoint phase (`Flush`, `Scrub`, `Sync`,
//! `Manifest`, `Done`). At every crash point, restart must recover
//! **exactly the committed mutation prefix** — uncommitted work
//! invisible, committed rows byte-identical to an in-memory oracle
//! built from [`Mutation::apply`], and a second re-open byte-identical
//! to the first (idempotence). A cancelled mutation must leave no
//! state behind.
//!
//! **Phase 2** is a server-level storm: a disk-backed server behind a
//! stable forwarder endpoint serves concurrent clients mixing plain and
//! deadlined queries while a mutator thread streams mutations into a
//! side table and a checkpoint thread runs fuzzy checkpoints the whole
//! time. The server is hard-killed mid-storm and restarted from its
//! data directory. Contract: zero client-visible failures (every query
//! verifies byte-identical against serial execution — mutations target
//! a table the query never reads, so results stay stable), deadlined
//! queries all complete within their deadlines even while checkpoints
//! run (fuzzy = non-blocking), and a mutation whose reply was lost to
//! the crash is resolved by *reading* — never by blind replay, which
//! would double-apply inserts.

use super::forwarder::Forwarder;
use crate::report::Report;
use crate::workloads::{emp_dept, paper_query, EmpDeptConfig};
use fj_core::{DataType, Database, FromItem, JoinQuery, Schema, Table, TableBuilder, Tuple, Value};
use fj_net::{Client, ErrorCode, Mutation, QueryOptions, Server, ServerConfig};
use fj_runtime::{FaultPlan, RecoveryReport, ServiceConfig, StorageMode};
use fj_store::{CheckpointPhase, Store, TempDir};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

fn pages_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("pages.fj")).unwrap_or_default()
}

// ---------------------------------------------------------------------
// Phase 1: deterministic store-level crash-point sweep.
// ---------------------------------------------------------------------

const P1_ROWS: i64 = 48;

fn phase1_table() -> Table {
    TableBuilder::new("T")
        .column("k", DataType::Int)
        .column("w", DataType::Double)
        .column("tag", DataType::Str)
        .rows((0..P1_ROWS).map(|i| {
            vec![
                Value::Int(i),
                Value::Double(i as f64 * 0.5),
                Value::Str(format!("r{i}")),
            ]
        }))
        .build()
        .expect("phase-1 template conforms")
}

/// The `i`-th mutation of the seeded sequence: a pure function of `i`,
/// cycling insert → update → delete. Insert keys are fresh by
/// construction, so the sequence is valid from any committed prefix.
fn phase1_mutation(i: u64) -> Mutation {
    match i % 3 {
        0 => Mutation::Insert {
            table: "T".into(),
            rows: (0..=(i % 2))
                .map(|j| {
                    let k = 1_000 + (i * 4 + j) as i64;
                    vec![
                        Value::Int(k),
                        Value::Double(k as f64),
                        Value::Str(format!("ins{i}-{j}")),
                    ]
                })
                .collect(),
        },
        1 => Mutation::Update {
            table: "T".into(),
            set: vec![
                ("w".into(), Value::Double(i as f64 * 10.0)),
                ("tag".into(), Value::Str(format!("upd{i}"))),
            ],
            where_col: "k".into(),
            where_value: Value::Int(((i * 13) % P1_ROWS as u64) as i64),
        },
        _ => Mutation::Delete {
            table: "T".into(),
            where_col: "k".into(),
            where_value: Value::Int(((i * 29) % P1_ROWS as u64) as i64),
        },
    }
}

fn sweep_faults(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(seed)
            .with_torn_delta_writes(2)
            .with_torn_scrub_writes(3)
            .with_slow_fsync(8, Duration::from_micros(200)),
    )
}

/// What the phase-1 sweep verified.
struct SweepOut {
    crash_points: usize,
    checkpoint_points: usize,
    replayed_mutations: u64,
    replayed_pages: u64,
}

#[allow(clippy::too_many_lines)]
fn crash_point_sweep(seed: u64, n_mutations: u64) -> SweepOut {
    let tmpl = phase1_table();
    let schema: Schema = tmpl.schema().as_ref().clone();
    let muts: Vec<Mutation> = (0..n_mutations).map(phase1_mutation).collect();

    // Oracle prefixes: oracles[k] = rows after the first k mutations.
    let mut oracles: Vec<Vec<Tuple>> = vec![tmpl.rows().to_vec()];
    for m in &muts {
        let (next, _) = m
            .apply(&schema, oracles.last().expect("nonempty"))
            .expect("seeded mutation applies to its oracle");
        oracles.push(next);
    }

    let mut replayed_mutations = 0u64;
    let mut replayed_pages = 0u64;

    // Crash after every committed prefix, torn delta writes armed.
    for k in 0..=muts.len() {
        let dir = TempDir::new(&format!("mutation-chaos-p1-{k}"));
        {
            let (store, _) =
                Store::open(dir.path(), 16, Some(sweep_faults(seed ^ k as u64))).unwrap();
            store.load_table(&tmpl).unwrap();
            for (i, m) in muts[..k].iter().enumerate() {
                let res = store.mutate(m, &|| false).expect("seeded mutation commits");
                assert_eq!(
                    res.row_count as usize,
                    oracles[i + 1].len(),
                    "crash point {k}: committed row count must track the oracle"
                );
                assert_eq!(res.version as usize, i + 2, "one version bump per mutation");
            }
            // Hard kill: drop without checkpoint.
        }
        let first = {
            let (store, report) = Store::open(dir.path(), 16, None).unwrap();
            assert_eq!(
                report.replayed_mutations, k,
                "crash point {k}: replay exactly the committed mutation prefix"
            );
            replayed_mutations += report.replayed_mutations as u64;
            replayed_pages += report.replayed_pages as u64;
            let (_, rows) = store.recovered_rows("T").unwrap();
            assert_eq!(
                rows, oracles[k],
                "crash point {k}: recovered rows must equal the oracle prefix"
            );
            pages_bytes(dir.path())
        };
        // Double re-open: byte-identical page file, same rows.
        let (store, _) = Store::open(dir.path(), 16, None).unwrap();
        assert_eq!(
            pages_bytes(dir.path()),
            first,
            "crash point {k}: second recovery must be byte-identical"
        );
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, oracles[k]);
        drop(store);
    }

    // Crash *inside* the fuzzy checkpoint, at every phase boundary,
    // with mutations both before and after the partial checkpoint.
    let half = muts.len() / 2;
    let phases = [
        CheckpointPhase::Flush,
        CheckpointPhase::Scrub,
        CheckpointPhase::Sync,
        CheckpointPhase::Manifest,
        CheckpointPhase::Done,
    ];
    for (p, phase) in phases.iter().enumerate() {
        let dir = TempDir::new(&format!("mutation-chaos-p1-ckpt-{p}"));
        {
            let (store, _) =
                Store::open(dir.path(), 16, Some(sweep_faults(seed ^ (0xC0 + p as u64)))).unwrap();
            store.load_table(&tmpl).unwrap();
            for m in &muts[..half] {
                store.mutate(m, &|| false).unwrap();
            }
            store.checkpoint_until(*phase).unwrap();
            for m in &muts[half..] {
                store.mutate(m, &|| false).unwrap();
            }
            // Hard kill mid-/post-checkpoint.
        }
        let first = {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            let (_, rows) = store.recovered_rows("T").unwrap();
            assert_eq!(
                rows,
                *oracles.last().expect("nonempty"),
                "checkpoint phase {phase:?}: every mutation was committed, all must survive"
            );
            pages_bytes(dir.path())
        };
        let (store, _) = Store::open(dir.path(), 16, None).unwrap();
        assert_eq!(
            pages_bytes(dir.path()),
            first,
            "checkpoint phase {phase:?}: second recovery must be byte-identical"
        );
        drop(store);
    }

    // A cancelled mutation leaves no partial state: not in the rows,
    // not in the WAL, invisible to recovery.
    {
        let dir = TempDir::new("mutation-chaos-p1-cancel");
        {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            store.load_table(&tmpl).unwrap();
            let err = store.mutate(&muts[0], &|| true).unwrap_err();
            assert!(
                matches!(err, fj_store::StoreError::Cancelled),
                "cancelled mutation must fail typed, got {err:?}"
            );
            // The next mutation sees the *unmutated* table.
            let res = store.mutate(&muts[0], &|| false).unwrap();
            assert_eq!(res.version, 2, "cancelled attempt must not burn a version");
        }
        let (store, report) = Store::open(dir.path(), 16, None).unwrap();
        assert_eq!(report.replayed_mutations, 1);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, oracles[1]);
        drop(store);
    }

    SweepOut {
        crash_points: muts.len() + 1,
        checkpoint_points: phases.len(),
        replayed_mutations,
        replayed_pages,
    }
}

// ---------------------------------------------------------------------
// Phase 2: server-level storm with a crash-restart mid-stream.
// ---------------------------------------------------------------------

const AUDIT_ROWS: i64 = 64;

fn audit_table() -> Table {
    TableBuilder::new("Audit")
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .rows((0..AUDIT_ROWS).map(|i| vec![Value::Int(i), Value::Int(i * 10)]))
        .build()
        .expect("audit template conforms")
}

/// Scan of the mutated side table — how the mutator *reads* to resolve
/// a mutation whose reply was lost to a crash.
fn audit_query() -> JoinQuery {
    JoinQuery::new(vec![FromItem::new("Audit", "a")])
}

/// The `i`-th storm mutation. Insert keys are disjoint from phase-1's
/// and unique per `i`, so a lost-reply mutation can always be resolved
/// by content: applied and not-applied states never collide.
fn storm_mutation(i: u64) -> Mutation {
    match i % 3 {
        0 => Mutation::Insert {
            table: "Audit".into(),
            rows: vec![vec![
                Value::Int(10_000 + i as i64),
                Value::Int(i as i64 * 7),
            ]],
        },
        1 => Mutation::Update {
            table: "Audit".into(),
            set: vec![("v".into(), Value::Int(i as i64 * 100 + 1))],
            where_col: "k".into(),
            where_value: Value::Int(((i * 13) % AUDIT_ROWS as u64) as i64),
        },
        _ => Mutation::Delete {
            table: "Audit".into(),
            where_col: "k".into(),
            where_value: Value::Int(((i * 29) % AUDIT_ROWS as u64) as i64),
        },
    }
}

fn storm_faults() -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(0x0A57)
            .with_torn_delta_writes(2)
            .with_torn_scrub_writes(3)
            .with_slow_fsync(4, Duration::from_millis(1)),
    )
}

fn disk_server(cat: fj_core::Catalog, dir: &Path, clients: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            max_connections: clients.max(1) * 4 + 8,
            service: ServiceConfig {
                workers: 4,
                queue_capacity: 64,
                storage: StorageMode::Disk {
                    dir: dir.to_path_buf(),
                    pool_pages: 4096,
                },
                fault_plan: Some(storm_faults()),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("disk server binds")
}

fn connect_retry(addr: SocketAddr) -> Client {
    loop {
        match Client::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(c) => return c,
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

#[derive(Debug, Default)]
struct Tally {
    ok: AtomicU64,
    deadlined_ok: AtomicU64,
    transport_retries: AtomicU64,
    shed_retries: AtomicU64,
    mutations_ok: AtomicU64,
    lost_replies_resolved: AtomicU64,
    checkpoints: AtomicU64,
}

/// Runs the server-level storm. Returns the tally, the restart's
/// recovery report, the oracle's final Audit rows, and the final
/// server's (cache hits, store stats, health mutations counter).
#[allow(clippy::too_many_lines)]
fn storm(
    n_emps: usize,
    n_depts: usize,
    clients: usize,
    queries_per_client: usize,
    n_mutations: u64,
    dir: &Path,
) -> (
    Tally,
    RecoveryReport,
    Vec<Tuple>,
    (u64, fj_runtime::StoreStats, u64),
) {
    let mut cat = emp_dept(EmpDeptConfig {
        n_emps,
        n_depts,
        frac_big: 0.1,
        ..Default::default()
    });
    let audit = audit_table();
    let audit_schema: Schema = audit.schema().as_ref().clone();
    let audit_rows0 = audit.rows().to_vec();
    cat.add_table(audit.into_ref());

    let expected = Arc::new(sorted(
        Database::with_catalog(cat.clone())
            .execute(&paper_query())
            .expect("serial reference execution")
            .rows,
    ));

    let forwarder = Forwarder::start();
    let server = disk_server(cat.clone(), dir, clients);
    forwarder.set_backend(Some(server.local_addr()));
    let cell: Arc<Mutex<Option<Server>>> = Arc::new(Mutex::new(Some(server)));

    let tally = Arc::new(Tally::default());
    let done = Arc::new(AtomicU64::new(0));
    let total = (clients * queries_per_client) as u64;
    let mutator_done = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let recovery_out: Arc<Mutex<Option<RecoveryReport>>> = Arc::new(Mutex::new(None));
    let oracle_out: Arc<Mutex<Vec<Tuple>>> = Arc::new(Mutex::new(Vec::new()));
    let addr = forwarder.addr;

    thread::scope(|scope| {
        // Coordinator: hard-kill the server a third of the way through
        // the query storm — mid-mutation-stream, with the checkpoint
        // loop running — then restart it from the data directory.
        {
            let done = Arc::clone(&done);
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let mutator_done = Arc::clone(&mutator_done);
            let recovery_out = Arc::clone(&recovery_out);
            let forwarder = &forwarder;
            let cat = cat.clone();
            scope.spawn(move || {
                while done.load(Ordering::Relaxed) < total / 3 {
                    thread::sleep(Duration::from_millis(1));
                }
                let server = cell.lock().unwrap().take().expect("server present");
                forwarder.set_backend(None);
                server.abort();
                // Crash window: clients and the mutator see transport
                // errors and must resolve them without data loss.
                thread::sleep(Duration::from_millis(100));
                let server = disk_server(cat, dir, clients);
                *recovery_out.lock().unwrap() = Some(
                    server
                        .recovery_report()
                        .expect("disk server has a recovery report"),
                );
                forwarder.set_backend(Some(server.local_addr()));
                *cell.lock().unwrap() = Some(server);
                while !(done.load(Ordering::Relaxed) >= total
                    && mutator_done.load(Ordering::Relaxed))
                {
                    thread::sleep(Duration::from_millis(1));
                }
                stop.store(true, Ordering::SeqCst);
            });
        }

        // Checkpoint loop: fuzzy checkpoints run concurrently with the
        // whole storm. Holding the cell lock only pins the server
        // handle; the checkpoint itself never blocks queries.
        {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let tally = Arc::clone(&tally);
            scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(server) = cell.lock().unwrap().as_ref() {
                        if server.checkpoint().is_ok() {
                            tally.checkpoints.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    thread::sleep(Duration::from_millis(10));
                }
            });
        }

        // Mutator: a serial mutation stream into Audit. A lost reply
        // (crash window) is resolved by reading the table back and
        // comparing against the oracle with and without the mutation —
        // blind resend would double-apply inserts.
        {
            let tally = Arc::clone(&tally);
            let mutator_done = Arc::clone(&mutator_done);
            let oracle_out = Arc::clone(&oracle_out);
            let audit_schema = audit_schema.clone();
            scope.spawn(move || {
                let mut client = connect_retry(addr);
                let mut oracle = audit_rows0;
                for i in 0..n_mutations {
                    let m = storm_mutation(i);
                    let (applied, _) = m
                        .apply(&audit_schema, &oracle)
                        .expect("storm mutation applies to its oracle");
                    loop {
                        match client.mutate(&m) {
                            Ok(reply) => {
                                assert_eq!(
                                    reply.row_count as usize,
                                    applied.len(),
                                    "mutation {i}: committed row count must track the oracle"
                                );
                                oracle = applied;
                                tally.mutations_ok.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e)
                                if e.error_code() == Some(ErrorCode::Shed)
                                    || e.error_code() == Some(ErrorCode::ShuttingDown) =>
                            {
                                // Typed refusal at the edge: nothing
                                // was submitted, safe to resend.
                                tally.shed_retries.fetch_add(1, Ordering::Relaxed);
                                thread::sleep(Duration::from_millis(2));
                            }
                            Err(e) if e.error_code().is_none() => {
                                // Transport error: the reply is lost and
                                // commit status unknown. Read to resolve.
                                client = connect_retry(addr);
                                let got = loop {
                                    match client.query(&audit_query()) {
                                        Ok(reply) => break sorted(reply.rows),
                                        Err(_) => {
                                            client = connect_retry(addr);
                                            thread::sleep(Duration::from_millis(2));
                                        }
                                    }
                                };
                                if got == sorted(applied.clone()) {
                                    oracle = applied;
                                    tally.mutations_ok.fetch_add(1, Ordering::Relaxed);
                                    tally.lost_replies_resolved.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                assert_eq!(
                                    got,
                                    sorted(oracle.clone()),
                                    "mutation {i}: recovered rows match neither the \
                                     pre- nor post-mutation oracle — partial commit"
                                );
                                tally.lost_replies_resolved.fetch_add(1, Ordering::Relaxed);
                                // Not committed: resend.
                            }
                            Err(other) => {
                                panic!("mutation {i}: unexpected typed error {other:?}")
                            }
                        }
                    }
                }
                *oracle_out.lock().unwrap() = oracle;
                mutator_done.store(true, Ordering::SeqCst);
            });
        }

        // Query clients: plain and deadlined paper queries, verified
        // byte-identical against serial execution on every success.
        // Mutations never touch Emp/Dept, so the answer is stable.
        for c in 0..clients {
            let tally = Arc::clone(&tally);
            let done = Arc::clone(&done);
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                let mut client = connect_retry(addr);
                for i in 0..queries_per_client {
                    // Every third query carries a deadline generous for
                    // execution but fatal if a checkpoint were to block
                    // the read path.
                    let deadlined = i % 3 == 1;
                    let opts = QueryOptions {
                        deadline: deadlined.then(|| Duration::from_secs(10)),
                        config: None,
                        want_trace: false,
                    };
                    loop {
                        match client.query_with(&paper_query(), &opts) {
                            Ok(reply) => {
                                assert_eq!(
                                    sorted(reply.rows),
                                    *expected,
                                    "client {c} query {i}: rows diverged from serial"
                                );
                                tally.ok.fetch_add(1, Ordering::Relaxed);
                                if deadlined {
                                    tally.deadlined_ok.fetch_add(1, Ordering::Relaxed);
                                }
                                break;
                            }
                            Err(e)
                                if e.error_code() == Some(ErrorCode::Shed)
                                    || e.error_code() == Some(ErrorCode::ShuttingDown) =>
                            {
                                tally.shed_retries.fetch_add(1, Ordering::Relaxed);
                                thread::sleep(Duration::from_millis(2));
                            }
                            Err(e) if e.error_code().is_none() => {
                                tally.transport_retries.fetch_add(1, Ordering::Relaxed);
                                client = connect_retry(addr);
                            }
                            Err(e) if e.error_code() == Some(ErrorCode::DeadlineExceeded) => {
                                panic!(
                                    "client {c} query {i}: a 10s deadline expired — \
                                     the checkpoint blocked the read path"
                                )
                            }
                            Err(other) => {
                                panic!("client {c} query {i}: unexpected {other:?}")
                            }
                        }
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let server = cell
        .lock()
        .unwrap()
        .take()
        .expect("coordinator restarted the server");
    let oracle = std::mem::take(&mut *oracle_out.lock().unwrap());

    // Final reads, straight at the recovered server: the paper query
    // still matches serial, and the mutated table matches the oracle.
    let mut direct = connect_retry(forwarder.addr);
    let paper_rows = direct.query(&paper_query()).expect("direct paper query");
    assert_eq!(sorted(paper_rows.rows), *expected);
    let audit_rows = direct.query(&audit_query()).expect("direct audit query");
    assert_eq!(
        sorted(audit_rows.rows),
        sorted(oracle.clone()),
        "recovered Audit rows must equal the committed-mutation oracle"
    );
    let health_mutations = direct
        .health(Duration::from_secs(5))
        .expect("health after storm")
        .get("mutations_applied")
        .expect("HEALTH carries mutations_applied");

    let cache_hits = server.metrics().cache_hits;
    let store_stats = server.store_stats();
    let recovery = recovery_out
        .lock()
        .unwrap()
        .take()
        .expect("restart produced a recovery report");
    drop(direct);
    server.shutdown();
    forwarder.stop();
    let tally = Arc::try_unwrap(tally).expect("all storm threads joined");
    (
        tally,
        recovery,
        oracle,
        (cache_hits, store_stats, health_mutations),
    )
}

/// Drives the full mutation-chaos reproduction. Panics (failing the
/// reproduction) if any crash point recovers anything other than the
/// committed mutation prefix, any recovery is non-idempotent, a
/// cancelled mutation leaves state, any query resolves outside the
/// expected classes or diverges from serial, a deadlined query expires
/// during checkpoints, or the post-storm data directory disagrees with
/// the mutation oracle.
pub fn run(n_emps: usize, n_depts: usize, clients: usize, queries_per_client: usize) -> Report {
    let sweep = crash_point_sweep(0xF1A6, 12);

    let dir = TempDir::new("mutation-chaos");
    let n_mutations = 24u64;
    let (tally, recovery, oracle, (cache_hits, store_stats, health_mutations)) = storm(
        n_emps,
        n_depts,
        clients,
        queries_per_client,
        n_mutations,
        dir.path(),
    );

    let ok = tally.ok.load(Ordering::Relaxed);
    let deadlined_ok = tally.deadlined_ok.load(Ordering::Relaxed);
    let transport_retries = tally.transport_retries.load(Ordering::Relaxed);
    let shed_retries = tally.shed_retries.load(Ordering::Relaxed);
    let mutations_ok = tally.mutations_ok.load(Ordering::Relaxed);
    let lost_replies = tally.lost_replies_resolved.load(Ordering::Relaxed);
    let checkpoints = tally.checkpoints.load(Ordering::Relaxed);
    let total = (clients * queries_per_client) as u64;

    assert_eq!(
        ok, total,
        "every query must eventually complete with serial-verified rows"
    );
    assert!(
        deadlined_ok > 0,
        "the storm must complete deadlined queries during checkpoints"
    );
    assert_eq!(
        mutations_ok, n_mutations,
        "every mutation must eventually commit exactly once"
    );
    assert!(
        checkpoints >= 1,
        "the storm must complete at least one fuzzy checkpoint"
    );
    assert!(
        cache_hits > 0,
        "plans must stay warm across mutations of an unrelated table"
    );
    assert!(
        store_stats.mutations_applied > 0 || health_mutations > 0,
        "the restarted server must have applied mutations"
    );

    // Post-shutdown, the data directory alone reproduces the oracle —
    // twice, byte-identically.
    let first = {
        let (store, _) = Store::open(dir.path(), 64, None).expect("re-open data directory");
        let (_, rows) = store.recovered_rows("Audit").expect("recovered Audit");
        assert_eq!(
            sorted(rows),
            sorted(oracle.clone()),
            "post-shutdown Audit rows diverged from the mutation oracle"
        );
        pages_bytes(dir.path())
    };
    let (store, _) = Store::open(dir.path(), 64, None).expect("second re-open");
    assert_eq!(
        pages_bytes(dir.path()),
        first,
        "second post-shutdown recovery must be byte-identical"
    );
    drop(store);

    let mut report = Report::new(
        format!(
            "fj-store mutation chaos — {} store-level crash points + {} mid-checkpoint \
             kills (torn delta/scrub writes armed), then {clients} clients × \
             {queries_per_client} queries vs {n_mutations} mutations with a crash-restart \
             and concurrent fuzzy checkpoints ({n_emps} emps / {n_depts} depts)",
            sweep.crash_points, sweep.checkpoint_points,
        ),
        &[
            "crash points",
            "ckpt kills",
            "replayed muts",
            "replayed pages",
            "queries ok",
            "deadlined ok",
            "mutations",
            "lost replies",
            "checkpoints",
            "wal deltas",
        ],
    );
    report.row(vec![
        Report::cell(sweep.crash_points),
        Report::cell(sweep.checkpoint_points),
        Report::cell(sweep.replayed_mutations),
        Report::cell(sweep.replayed_pages),
        Report::cell(ok),
        Report::cell(deadlined_ok),
        Report::cell(mutations_ok),
        Report::cell(lost_replies),
        Report::cell(checkpoints),
        Report::cell(store_stats.wal_deltas),
    ]);
    report.note(format!(
        "phase 1: every committed mutation prefix recovered exactly at {} crash \
         points and {} mid-checkpoint kills; double re-open byte-identical at every \
         point; a cancelled mutation left no state and burned no version",
        sweep.crash_points, sweep.checkpoint_points
    ));
    report.note(format!(
        "phase 2: zero client-visible failures — {ok} queries byte-identical to \
         serial ({deadlined_ok} under 10s deadlines with checkpoints running), \
         {mutations_ok} mutations committed exactly once ({lost_replies} lost replies \
         resolved by reading, {transport_retries} transport retries, {shed_retries} \
         typed refusals retried); restart replayed {} mutations / {} pages",
        recovery.replayed_mutations, recovery.replayed_pages
    ));
    report.note(format!(
        "post-shutdown the data directory re-opened twice to byte-identical pages \
         and oracle-equal rows; plans stayed warm across mutations (cache hits {cache_hits})"
    ));
    report
}
