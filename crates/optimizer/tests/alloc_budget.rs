//! Heap traffic of one `optimize`, counted exactly.
//!
//! The enumerator costs thousands of candidates and builds one plan;
//! what it allocates per call says whether a candidate is still a
//! *built* thing or only a costed one. Wall time cannot be held in CI;
//! these counts can. The budget is a tenth of what the owning-`Entry`
//! enumerator (every candidate a `PhysPlan` tree, a column map and four
//! vectors) spent on the same calls:
//!
//! | case (candidates) | allocations before → after | bytes before → after |
//! |---|---|---|
//! | paper query, 3 000/300 (81) | 8 862 → 846 | 1 372 378 → 91 083 |
//! | star, 6 relations, left-deep (1 730) | 196 114 → 3 892 | 35 297 964 → 1 486 485 |
//! | star, 6 relations, bushy (4 838) | 439 297 → 6 978 | 94 432 667 → 2 910 039 |
//!
//! The paper query is the tight one: validating the query, the view's
//! parametric fit and building the winner's two Filter Joins are ~700
//! of its 846 and do not depend on how many candidates were costed.
//!
//! The same binary also counts the bytes *executing* the paper query's
//! chosen plan allocates on its 3 000/300 catalog. Scans hand out their
//! table's row vector, so the budget is what the executor allocated when
//! each scan copied its table, less the two 3 000-row Emp vectors that
//! copy cost (EXEC_BYTES_BEFORE, below).
//!
//! This file is its own test binary with a single `#[test]`, so nothing
//! else allocates while a call is being counted.

use fj_algebra::{Catalog, JoinQuery};
use fj_bench::workloads::{emp_dept, paper_query, star_selective, EmpDeptConfig};
use fj_exec::ExecCtx;
use fj_optimizer::{Optimizer, OptimizerConfig};
use fj_storage::Tuple;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` of one `optimize`, the plan dropped outside
/// the counted region.
fn measure(cat: &Arc<Catalog>, q: &JoinQuery, cfg: OptimizerConfig) -> (u64, u64) {
    let opt = Optimizer::new(Arc::clone(cat), cfg);
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let plan = opt.optimize(q).expect("optimizes");
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    drop(plan);
    (after.0 - before.0, after.1 - before.1)
}

/// Bytes one execution of the paper query's chosen plan on the
/// 3 000/300 catalog allocated when every scan copied its table's rows.
const EXEC_BYTES_BEFORE: u64 = 320_019;

/// `(allocations, bytes)` of one execution of `q`'s chosen plan, the
/// context built and the result dropped outside the counted region.
fn measure_execute(cat: &Arc<Catalog>, q: &JoinQuery) -> (u64, u64) {
    let plan = Optimizer::new(Arc::clone(cat), OptimizerConfig::default())
        .optimize(q)
        .expect("optimizes");
    let ctx = ExecCtx::new(Arc::clone(cat));
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let rel = plan.phys.execute(&ctx).expect("executes");
    let after = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    drop(rel);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn optimize_stays_within_a_tenth_of_the_owning_enumerator() {
    let paper = Arc::new(emp_dept(EmpDeptConfig {
        n_emps: 3_000,
        n_depts: 300,
        ..Default::default()
    }));
    let (star, star_q) = star_selective(6, 2_000, 100, 25, 1);
    let star = Arc::new(star);
    // (case, allocations and bytes of the owning-`Entry` enumerator).
    let cases = [
        (
            "paper",
            measure(&paper, &paper_query(), OptimizerConfig::default()),
            (8_862u64, 1_372_378u64),
        ),
        (
            "star6/left-deep",
            measure(&star, &star_q, OptimizerConfig::default()),
            (196_114, 35_297_964),
        ),
        (
            "star6/bushy",
            measure(&star, &star_q, OptimizerConfig::bushy()),
            (439_297, 94_432_667),
        ),
    ];
    for (case, (allocs, bytes), _) in cases {
        println!("{case}: {allocs} allocations, {bytes} bytes");
    }
    let (exec_allocs, exec_bytes) = measure_execute(&paper, &paper_query());
    println!("paper execute: {exec_allocs} allocations, {exec_bytes} bytes");
    let exec_budget = EXEC_BYTES_BEFORE - 2 * 3_000 * std::mem::size_of::<Tuple>() as u64;
    assert!(
        exec_bytes <= exec_budget,
        "paper execute: {exec_bytes} bytes, budget {exec_budget}"
    );
    for (case, (allocs, bytes), (parent_allocs, parent_bytes)) in cases {
        assert!(
            allocs * 10 <= parent_allocs,
            "{case}: {allocs} allocations, budget {}",
            parent_allocs / 10
        );
        assert!(
            bytes * 10 <= parent_bytes,
            "{case}: {bytes} bytes, budget {}",
            parent_bytes / 10
        );
    }
}
