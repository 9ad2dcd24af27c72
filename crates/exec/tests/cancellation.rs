//! Cancellation races against the hash-join kernel: a trip landing
//! mid-build or mid-probe surfaces as the typed `Interrupted` error,
//! the partially built state is dropped, and the shared cost ledger
//! still reconciles — an interrupted run never over-charges, and a
//! clean run afterwards on the same ledger charges exactly what an
//! undisturbed run charges.

use fj_algebra::{Catalog, JoinKind};
use fj_exec::{ops, ExecCtx, ExecError, Interrupt, InterruptReason, Rel};
use fj_storage::{Column, DataType, LedgerSnapshot, Schema, Tuple, Value};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn rel(prefix: &str, n: usize) -> Rel {
    let schema = Schema::new(vec![
        Column::new(format!("{prefix}.k"), DataType::Int),
        Column::new(format!("{prefix}.v"), DataType::Int),
    ])
    .expect("distinct names")
    .into_ref();
    Rel::new(
        schema,
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int((i % 8) as i64), Value::Int(i as i64)]))
            .collect(),
    )
}

fn keys() -> Vec<(String, String)> {
    vec![("L.k".to_string(), "R.k".to_string())]
}

/// Runs the join cleanly once and returns (rows, ledger delta).
fn clean_run(outer_n: usize, inner_n: usize) -> (usize, LedgerSnapshot) {
    let ctx = ExecCtx::new(Arc::new(Catalog::new()));
    let before = ctx.ledger.snapshot();
    let out = ops::joins::hash_join(
        &ctx,
        rel("L", outer_n),
        rel("R", inner_n),
        &keys(),
        None,
        JoinKind::Inner,
    )
    .expect("clean join");
    (out.rows.len(), ctx.ledger.snapshot().delta(&before))
}

/// Retries until a concurrently-tripped cancel actually lands inside
/// the join (sized so the trip falls in the phase under test), then
/// checks the interrupted run's ledger delta against a clean run's.
fn cancel_race(outer_n: usize, inner_n: usize, phase: &str) {
    let (clean_rows, clean_delta) = clean_run(outer_n, inner_n);
    // The clean charge schedule is deterministic: same join, same delta.
    let (again_rows, again_delta) = clean_run(outer_n, inner_n);
    assert_eq!(clean_rows, again_rows);
    assert_eq!(clean_delta, again_delta);

    for attempt in 0..64 {
        let interrupt = Interrupt::new();
        let ctx = ExecCtx::new(Arc::new(Catalog::new())).with_interrupt(interrupt.clone());
        let before = ctx.ledger.snapshot();
        let tripper = {
            let interrupt = interrupt.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_micros(500));
                interrupt.trip(InterruptReason::Cancelled);
            })
        };
        let outcome = ops::joins::hash_join(
            &ctx,
            rel("L", outer_n),
            rel("R", inner_n),
            &keys(),
            None,
            JoinKind::Inner,
        );
        tripper.join().expect("tripper thread");
        match outcome {
            Err(ExecError::Interrupted(InterruptReason::Cancelled)) => {
                // Partial state dropped; the interrupted run never
                // charges more than the full run would have.
                let interrupted = ctx.ledger.snapshot().delta(&before);
                assert!(
                    interrupted.tuple_ops <= clean_delta.tuple_ops,
                    "{phase}: interrupted run over-charged ({} > {})",
                    interrupted.tuple_ops,
                    clean_delta.tuple_ops
                );
                // The ledger still reconciles: a clean re-run on the
                // SAME ledger adds exactly the clean delta — the
                // aborted join left nothing behind that skews charges.
                let mid = ctx.ledger.snapshot();
                let mut redo_ctx = ExecCtx::new(Arc::new(Catalog::new()));
                redo_ctx.ledger = Arc::clone(&ctx.ledger);
                let redo = ops::joins::hash_join(
                    &redo_ctx,
                    rel("L", outer_n),
                    rel("R", inner_n),
                    &keys(),
                    None,
                    JoinKind::Inner,
                )
                .expect("clean run after cancellation");
                assert_eq!(redo.rows.len(), clean_rows, "{phase}: rows after cancel");
                assert_eq!(
                    ctx.ledger.snapshot().delta(&mid),
                    clean_delta,
                    "{phase}: post-cancel charges diverged from a clean run"
                );
                return;
            }
            Ok(out) => {
                // The join won the race; correct answer, full charges.
                assert_eq!(out.rows.len(), clean_rows, "{phase}: racing winner rows");
                assert_eq!(
                    ctx.ledger.snapshot().delta(&before),
                    clean_delta,
                    "{phase}: racing winner charges (attempt {attempt})"
                );
            }
            Err(other) => panic!("{phase}: unexpected error class: {other}"),
        }
    }
    panic!("{phase}: cancel never landed mid-join in 64 attempts");
}

/// Build side is enormous, probe side trivial: a trip landing inside
/// the join lands in the build loop.
#[test]
fn cancel_mid_build_drops_partial_state_and_ledger_reconciles() {
    cancel_race(16, 400_000, "mid-build");
}

/// Build side is tiny (hashed long before the trip fires), probe side
/// enormous: a trip landing inside the join lands in the probe loop.
#[test]
fn cancel_mid_probe_drops_partial_state_and_ledger_reconciles() {
    cancel_race(400_000, 16, "mid-probe");
}

/// A pre-tripped interrupt aborts at the first check — before the
/// kernel builds anything — and the reason is preserved verbatim.
#[test]
fn pre_tripped_interrupt_aborts_the_join_at_the_first_check() {
    let interrupt = Interrupt::new();
    interrupt.trip(InterruptReason::Deadline);
    let ctx = ExecCtx::new(Arc::new(Catalog::new())).with_interrupt(interrupt);
    let out = ops::joins::hash_join(
        &ctx,
        rel("L", 2_000),
        rel("R", 2_000),
        &keys(),
        None,
        JoinKind::Inner,
    );
    assert!(matches!(
        out,
        Err(ExecError::Interrupted(InterruptReason::Deadline))
    ));
}
