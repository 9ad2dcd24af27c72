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

use super::forwarder::Restartable;
use super::storm::{self, sorted, Front, Kind, NetFront, Outcome, Storm};
use crate::report::Report;
use crate::workloads::paper_query;
use fj_core::{DataType, FromItem, JoinQuery, Schema, Table, TableBuilder, Tuple, Value};
use fj_net::Mutation;
use fj_runtime::FaultPlan;
use fj_store::{CheckpointPhase, Store, TempDir};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

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

fn storm_faults() -> FaultPlan {
    FaultPlan::new(0x0A57)
        .with_torn_delta_writes(2)
        .with_torn_scrub_writes(3)
        .with_slow_fsync(4, Duration::from_millis(1))
}

/// Every third query carries a deadline generous for execution but
/// fatal if a checkpoint were to block the read path.
fn mix(i: usize) -> Kind {
    Kind {
        deadline: (i % 3 == 1).then_some(Duration::from_secs(10)),
        ..Kind::default()
    }
}

/// What the mutator thread did.
struct Mutated {
    /// Audit's rows after every committed mutation.
    oracle: Vec<Tuple>,
    committed: u64,
    lost_replies: u64,
    sheds: u64,
}

/// A serial mutation stream into Audit. A lost reply (crash window) is
/// resolved by reading the table back and comparing against the oracle
/// with and without the mutation — blind resend would double-apply
/// inserts.
fn mutator(addr: SocketAddr, schema: &Schema, rows0: Vec<Tuple>, n_mutations: u64) -> Mutated {
    let reconnect = || match NetFront::connect(addr) {
        Ok(front) => front.client,
        Err(e) => panic!("mutator: {e}"),
    };
    let mut client = reconnect();
    let mut out = Mutated {
        oracle: rows0,
        committed: 0,
        lost_replies: 0,
        sheds: 0,
    };
    for i in 0..n_mutations {
        let m = storm_mutation(i);
        let (applied, _) = m
            .apply(schema, &out.oracle)
            .expect("storm mutation applies to its oracle");
        // Set by a transport error: the reply is lost and commit
        // status unknown until the table has been read.
        let mut in_doubt = false;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            assert!(
                attempts < storm::MAX_ATTEMPTS,
                "mutation {i} cannot reach a terminal outcome"
            );
            if in_doubt {
                let Ok(reply) = client.query(&audit_query()) else {
                    client = reconnect();
                    thread::sleep(Duration::from_millis(2));
                    continue;
                };
                let got = sorted(reply.rows);
                out.lost_replies += 1;
                if got == sorted(applied.clone()) {
                    break;
                }
                assert_eq!(
                    got,
                    sorted(out.oracle.clone()),
                    "mutation {i}: recovered rows match neither the \
                     pre- nor post-mutation oracle — partial commit"
                );
                // Not committed: resend.
                in_doubt = false;
            }
            match client.mutate(&m) {
                Ok(reply) => {
                    assert_eq!(
                        reply.row_count as usize,
                        applied.len(),
                        "mutation {i}: committed row count must track the oracle"
                    );
                    break;
                }
                Err(e) => match NetFront::classify(&e) {
                    // Typed refusal at the edge: nothing was
                    // submitted, safe to resend.
                    Some(Outcome::Shed) => {
                        out.sheds += 1;
                        thread::sleep(Duration::from_millis(2));
                    }
                    Some(Outcome::Transport) => {
                        client = reconnect();
                        in_doubt = true;
                    }
                    _ => panic!("mutation {i}: unexpected typed error {e:?}"),
                },
            }
        }
        out.oracle = applied;
        out.committed += 1;
    }
    out
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

    // Mutations never touch Emp/Dept, so the paper query's answer is
    // stable through the storm.
    let (mut cat, expected) = storm::paper_oracle(n_emps, n_depts);
    let audit = audit_table();
    let audit_schema: Schema = audit.schema().as_ref().clone();
    let audit_rows0 = audit.rows().to_vec();
    cat.add_table(audit.into_ref());

    let service = || storm::faulty(storm_faults(), Some(dir.path()));
    let replica = Restartable::start(|| storm::replica(cat.clone(), service(), clients));
    let addr = replica.addr();

    let (mut recovery, mut mutated, mut checkpoints, mut cache_hits) = (None, None, 0u64, 0u64);
    let absorbs = [Outcome::Shed, Outcome::Transport];
    let (tally, _) = Storm::new(paper_query(), &expected, mix, &absorbs)
        // Hard-kill the server a third of the way through the query storm
        // — mid-mutation-stream, with the checkpoint loop running — then
        // restart it from the data directory. In the crash window clients
        // and the mutator see transport errors and must resolve them
        // without data loss. The plan cache dies with the server, so
        // its hits are read on both sides of the crash: a fast storm
        // can outrun the kill and leave the restarted server nothing
        // to serve.
        .milestone(3, || {
            cache_hits += replica.with(|s| s.metrics().cache_hits).unwrap_or(0);
            replica.crash();
            thread::sleep(Duration::from_millis(100));
            recovery = Some(replica.restart());
        })
        // Fuzzy checkpoints run concurrently with the whole storm. Holding
        // the server lock only pins the handle; the checkpoint itself
        // never blocks queries.
        .every(Duration::from_millis(10), || {
            if replica.with(|server| server.checkpoint().is_ok()) == Some(true) {
                checkpoints += 1;
            }
        })
        .task(|| mutated = Some(mutator(addr, &audit_schema, audit_rows0, n_mutations)))
        .run(clients, queries_per_client, |_| NetFront::connect(addr));
    let recovery = recovery.expect("restart produced a recovery report");
    let mutated = mutated.expect("the mutator ran");

    // Final reads, straight at the recovered server: the paper query
    // still matches serial, and the mutated table matches the oracle.
    let mut direct = NetFront::connect(addr).expect("direct client").client;
    let paper_rows = direct.query(&paper_query()).expect("direct paper query");
    assert_eq!(sorted(paper_rows.rows), expected);
    let audit_rows = direct.query(&audit_query()).expect("direct audit query");
    assert_eq!(
        sorted(audit_rows.rows),
        sorted(mutated.oracle.clone()),
        "recovered Audit rows must equal the committed-mutation oracle"
    );
    let health_mutations = direct
        .health(Duration::from_secs(5))
        .expect("health after storm")
        .get("mutations_applied")
        .expect("HEALTH carries mutations_applied");
    drop(direct);

    let (hits_since_restart, store_stats) = replica
        .with(|server| (server.metrics().cache_hits, server.store_stats()))
        .expect("coordinator restarted the server");
    cache_hits += hits_since_restart;
    replica.stop();

    let ok = tally[Outcome::Ok];
    let transport_retries = tally[Outcome::Transport];
    let Mutated {
        oracle,
        committed: mutations_ok,
        lost_replies,
        sheds,
    } = mutated;
    let shed_retries = tally[Outcome::Shed] + sheds;
    let total = (clients * queries_per_client) as u64;

    assert_eq!(
        tally[Outcome::Deadline],
        0,
        "a 10s deadline expired — the checkpoint blocked the read path"
    );
    assert_eq!(
        ok, total,
        "every query must eventually complete with serial-verified rows"
    );
    // Every query completed, none on an expired deadline: the
    // deadlined ones all made it.
    let deadlined_per_client = (0..queries_per_client).filter(|&i| mix(i).deadline.is_some());
    let deadlined_ok = (clients * deadlined_per_client.count()) as u64;
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
