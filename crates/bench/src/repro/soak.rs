//! Network loopback soak: the Figure-1 workload driven through a real
//! `fj-net` TCP server by concurrent clients, with row-sets verified
//! against the serial `Database` facade on every reply.
//!
//! The point is operational, not analytical: under a deliberately tiny
//! submission queue the burst *must* shed (typed, retryable SHED
//! replies — never a hang), shed clients back off and retry to
//! completion, and every row that does come back over the wire is
//! byte-identical to serial execution.

use super::storm::{self, Kind, NetFront, Outcome, Storm};
use crate::report::Report;
use crate::workloads::paper_query;
use fj_runtime::ServiceConfig;
use std::time::Duration;

/// Every third request carries a generous deadline so the deadline
/// plumbing runs hot even when it rarely expires on an idle machine. A
/// 30 s budget expiring means a badly overloaded machine, not a bug; it
/// is noted and the soak moves on.
fn mix(i: usize) -> Kind {
    Kind {
        deadline: i.is_multiple_of(3).then_some(Duration::from_secs(30)),
        ..Kind::default()
    }
}

/// Runs `clients` concurrent TCP clients, each issuing
/// `queries_per_client` Figure-1 queries against a server whose
/// submission queue is kept small enough to shed under the burst.
/// Panics (failing the reproduction) if any reply's row-set diverges
/// from serial execution or a client exhausts its retry budget.
pub fn run(n_emps: usize, n_depts: usize, clients: usize, queries_per_client: usize) -> Report {
    let (cat, expected) = storm::paper_oracle(n_emps, n_depts);
    let server = storm::replica(
        cat,
        ServiceConfig {
            // Small on purpose: the burst must overrun it so the
            // shed/retry path is exercised on every soak run.
            queue_capacity: 4,
            ..ServiceConfig::default()
        },
        clients,
    );
    let addr = server.local_addr();

    let (tally, secs) = Storm::new(paper_query(), &expected, mix, &[Outcome::Shed]).run(
        clients,
        queries_per_client,
        |_| NetFront::connect(addr),
    );
    let stats = server.stats();
    let stats_json = server.stats_json();
    server.shutdown();

    let ok = tally[Outcome::Ok];
    let deadline_hits = tally[Outcome::Deadline];
    let total = (clients * queries_per_client) as u64;
    assert_eq!(
        ok + deadline_hits,
        total,
        "every issued query must resolve to verified rows (or a logged deadline)"
    );

    let mut report = Report::new(
        format!(
            "fj-net loopback soak — {clients} clients × {queries_per_client} queries \
             ({n_emps} emps / {n_depts} depts, queue_capacity=4)"
        ),
        &[
            "clients",
            "queries ok",
            "shed retries",
            "deadline",
            "queries/s",
            "KiB in",
            "KiB out",
        ],
    );
    report.row(vec![
        Report::cell(clients),
        Report::cell(ok),
        Report::cell(tally[Outcome::Shed]),
        Report::cell(deadline_hits),
        Report::num(ok as f64 / secs),
        Report::num(stats.bytes_in as f64 / 1024.0),
        Report::num(stats.bytes_out as f64 / 1024.0),
    ]);
    report.note(
        "every reply's row-set verified byte-identical to the serial Database facade; \
         sheds are typed retryable replies, never hangs",
    );
    report.note(format!("server stats: {stats_json}"));
    report
}
