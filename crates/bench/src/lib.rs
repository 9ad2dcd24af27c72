//! # fj-bench
//!
//! The reproduction harness: for **every figure and table** of the
//! paper (and its two analytic claims), a module that regenerates the
//! artifact as a measured experiment. See `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured notes.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`repro::fig1_magic`] | Figures 1–2: the motivating query, naive vs magic vs cost-based |
//! | [`repro::fig3_orders`] | Figure 3: the six join orders and the SIPS each induces |
//! | [`repro::table1_components`] | Table 1: predicted vs measured cost components |
//! | [`repro::fig4_cardinality`] | Figure 4: straight-line fit of restricted-view cardinality |
//! | [`repro::fig5_classes`] | Figure 5: equivalence-class count knob (accuracy vs effort) |
//! | [`repro::fig6_taxonomy`] | Figure 6: join-technique × relation-kind cost matrix |
//! | [`repro::complexity`] | §3.3 claim: optimizer complexity unchanged by the Filter Join |
//! | [`repro::crossover`] | §2.1 claim: cost-based beats always/never-magic heuristics |
//! | [`repro::dist`] | §5.1: SDD-1 semi-join vs System R* fetch strategies |
//! | [`repro::udf`] | §5.2: UDF invocation strategies, no duplicate invocations |
//! | [`repro::local_semijoin`] | §5.3: the local semi-join's two-scans-plus-one claim |
//! | [`repro::bloom`] | §3.2/App. A: lossy (Bloom) filter sets |
//! | [`repro::soak`] | fj-net: TCP loopback soak with shedding and verified row-sets |
//! | [`repro::chaos`] | governor: the soak under seeded faults, cancellations, and one induced worker panic |
//! | [`repro::cluster_chaos`] | fj-cluster: three faulty replicas, one killed and one drained mid-run; hedged p99 |
//! | [`repro::recovery_chaos`] | fj-store: a disk replica crashed mid-storm, recovered from its WAL and re-admitted |
//! | [`repro::mutation_chaos`] | write path: crash-point sweep, then a storm with a mutator, checkpoints and a crash-restart |
//! | [`repro::memory_chaos`] | spilling: over-budget joins under temp-file faults and mid-spill cancels |
//!
//! F6, D1, U1, L1 and B1 build their join plans from one table,
//! [`repro::technique`]: relation kind × technique → plan.
//!
//! The last six are scenarios over one driver: `repro::storm` (the
//! client loop, the `Outcome` table, the shared set-up) and
//! `repro::forwarder` (the restartable replica) — see DESIGN.md,
//! "Chaos harnesses".
//!
//! The `reproduce` binary prints each experiment as a paper-style
//! table. Wall-clock measurement lives in the standalone `benchmark/`
//! package (`BENCHMARK.json`), not here.

pub mod report;
pub mod repro;
pub mod workloads;
