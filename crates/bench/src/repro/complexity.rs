//! C1 — §3.3's central claim: adding the Filter Join to the System-R
//! enumerator does not change the asymptotic complexity of
//! optimization.
//!
//! We optimize chain queries of N = 2..max relations with the Filter
//! Join disabled and enabled, recording the number of join alternatives
//! costed and the wall time. The claim holds if the ratio between the
//! two stays bounded by a constant as N grows (each join considers a
//! constant number of extra methods; parametric fits are memoized).
//! The candidate counts are exact and print as one table; the times
//! print as a second, marked as wall-clock, whose `time on / time off`
//! column should track the first table's candidate ratio — costing a
//! candidate is arithmetic, so a Filter Join candidate costs about
//! what any other does.
//!
//! The Limitation-2 ablation column re-enables prefix production sets.
//! Its blow-up depends on how many prefixes can reach the inner: on
//! chains only the adjacent relation links (mild growth), on *star*
//! queries every prefix containing the fact links — there the measured
//! ratio grows with N, the O(N) factor §3.3 warns about (see
//! [`star_prefix_sweep`]).

use crate::report::Report;
use crate::workloads::{chain, star};
use fj_core::{Optimizer, OptimizerConfig};
use std::sync::Arc;
use std::time::Instant;

/// One N's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ComplexityPoint {
    /// Relations in the chain.
    pub n: usize,
    /// Join alternatives costed, Filter Join off.
    pub plans_off: u64,
    /// Join alternatives costed, Filter Join on.
    pub plans_on: u64,
    /// Join alternatives costed with the Limitation-2 ablation (prefix
    /// production sets).
    pub plans_prefix: u64,
    /// Optimization wall time (µs, best of [`TIMED_RUNS`]), off.
    pub micros_off: u128,
    /// Optimization wall time (µs, best of [`TIMED_RUNS`]), on.
    pub micros_on: u128,
}

/// Optimizations timed per configuration; the fastest is reported.
pub const TIMED_RUNS: usize = 3;

/// Optimizes `q` [`TIMED_RUNS`] times: candidates costed and the best
/// wall time in µs.
fn timed(opt: &Optimizer, q: &fj_core::JoinQuery, what: &str) -> (u64, u128) {
    let runs = (0..TIMED_RUNS).map(|_| {
        let t = Instant::now();
        let plan = opt.optimize(q).expect(what);
        (plan.plans_considered, t.elapsed().as_micros())
    });
    runs.min_by_key(|&(_, micros)| micros)
        .expect("TIMED_RUNS > 0")
}

/// Optimizes chains of 2..=`max_n` relations both ways.
pub fn sweep(max_n: usize, rows: usize) -> Vec<ComplexityPoint> {
    (2..=max_n)
        .map(|n| {
            let (cat, q) = chain(n, rows, 5);
            let cat = Arc::new(cat);

            let off = Optimizer::new(Arc::clone(&cat), OptimizerConfig::without_filter_join());
            let (plans_off, micros_off) = timed(&off, &q, "chain optimizes (FJ off)");
            let on = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default());
            let (plans_on, micros_on) = timed(&on, &q, "chain optimizes (FJ on)");

            let cfg = OptimizerConfig {
                allow_prefix_production: true,
                ..OptimizerConfig::default()
            };
            let prefix = Optimizer::new(Arc::clone(&cat), cfg);
            let p_prefix = prefix
                .optimize(&q)
                .expect("chain optimizes (prefix ablation)");

            ComplexityPoint {
                n,
                plans_off,
                plans_on,
                plans_prefix: p_prefix.plans_considered,
                micros_off,
                micros_on,
            }
        })
        .collect()
}

/// Prefix-ablation ratios on star queries of 3..=`max_n` relations,
/// where every outer prefix containing the fact can filter the next
/// dimension: `(n, plans_limited, plans_prefix)`.
pub fn star_prefix_sweep(max_n: usize, fact_rows: usize) -> Vec<(usize, u64, u64)> {
    (3..=max_n)
        .map(|n| {
            let (cat, q) = star(n, fact_rows, 50, 5);
            let cat = Arc::new(cat);
            let limited = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default())
                .optimize(&q)
                .expect("star optimizes");
            let cfg = OptimizerConfig {
                allow_prefix_production: true,
                ..OptimizerConfig::default()
            };
            let prefix = Optimizer::new(Arc::clone(&cat), cfg)
                .optimize(&q)
                .expect("star optimizes (prefix)");
            (n, limited.plans_considered, prefix.plans_considered)
        })
        .collect()
}

/// The printable reports: the candidate counts (exact, pinned in
/// `reproduce_output.txt`) and the wall-clock times.
pub fn run(max_n: usize) -> (Report, Report) {
    let pts = sweep(max_n, 200);
    let mut counts = Report::new(
        "C1 (§3.3): optimizer complexity with/without the Filter Join (chain queries)",
        &[
            "N",
            "plans (FJ off)",
            "plans (FJ on)",
            "ratio",
            "plans (prefix abl.)",
            "prefix ratio",
        ],
    );
    let mut times = Report::new(
        format!("C1 wall clock: one optimize, best of {TIMED_RUNS} (not reproducible run to run)"),
        &[
            "N",
            "time off (us)",
            "time on (us)",
            "us/candidate off",
            "us/candidate on",
            "time on / time off",
            "plans on / plans off",
        ],
    )
    .wall_clock();
    for p in &pts {
        let ratio = p.plans_on as f64 / p.plans_off as f64;
        counts.row(vec![
            // Two wide at every N, so a row reads the same whether
            // the sweep stops at 7 (`--small`) or at 10.
            format!("{:>2}", p.n),
            p.plans_off.to_string(),
            p.plans_on.to_string(),
            format!("{ratio:.2}"),
            p.plans_prefix.to_string(),
            format!("{:.2}", p.plans_prefix as f64 / p.plans_off as f64),
        ]);
        times.row(vec![
            p.n.to_string(),
            p.micros_off.to_string(),
            p.micros_on.to_string(),
            format!("{:.2}", p.micros_off as f64 / p.plans_off as f64),
            format!("{:.2}", p.micros_on as f64 / p.plans_on as f64),
            format!("{:.2}", p.micros_on as f64 / p.micros_off as f64),
            format!("{ratio:.2}"),
        ]);
    }
    counts.note("bounded FJ-on ratio = same asymptotic complexity (the paper's claim)");
    for (n, limited, prefix) in star_prefix_sweep(max_n.min(8), 200) {
        counts.note(format!(
            "star N={n}: prefix ablation costs {prefix} vs {limited} candidates (x{:.2}) — the O(N) growth Limitation 2 prevents",
            prefix as f64 / limited as f64
        ));
    }
    times.note("time on / time off tracks plans on / plans off: a constant factor in time as in candidates");
    (counts, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_stays_bounded() {
        let pts = sweep(7, 100);
        for p in &pts {
            let ratio = p.plans_on as f64 / p.plans_off as f64;
            assert!(
                ratio <= 4.0,
                "N={}: ratio {ratio} exceeds the constant bound",
                p.n
            );
        }
        // And the ratio does not grow with N (compare first vs last).
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        let r0 = first.plans_on as f64 / first.plans_off as f64;
        let r1 = last.plans_on as f64 / last.plans_off as f64;
        assert!(
            r1 <= r0 * 1.5 + 0.5,
            "ratio grew from {r0} (N={}) to {r1} (N={})",
            first.n,
            last.n
        );
    }

    #[test]
    fn prefix_ablation_ratio_grows_with_n_on_stars() {
        let pts = star_prefix_sweep(7, 60);
        let (n0, l0, p0) = pts[0];
        let (n1, l1, p1) = *pts.last().unwrap();
        let r0 = p0 as f64 / l0 as f64;
        let r1 = p1 as f64 / l1 as f64;
        assert!(
            r1 > r0 * 1.25,
            "prefix ratio should grow with N on stars: {r0:.2} (N={n0}) -> {r1:.2} (N={n1})"
        );
    }

    #[test]
    fn prefix_ablation_mild_on_chains() {
        // On chains only adjacent relations link, so Limitation 1 alone
        // already keeps the blow-up small — the worst case needs stars.
        let pts = sweep(6, 50);
        for p in &pts {
            assert!(p.plans_prefix >= p.plans_on);
        }
    }

    #[test]
    fn plan_counts_grow_exponentially_in_n() {
        let pts = sweep(6, 50);
        // The System-R DP costs more alternatives each step.
        for w in pts.windows(2) {
            assert!(w[1].plans_off > w[0].plans_off);
        }
    }
}
