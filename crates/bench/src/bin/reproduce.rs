//! Prints every reproduced figure/table as a paper-style text table.
//!
//! ```text
//! reproduce [all|fig1|fig3|table1|fig4|fig5|fig6|complexity|crossover|bushy|dist|dist-wire|udf|local|bloom|soak|chaos|cluster-chaos|recovery-chaos|mutation-chaos|memory-chaos]
//!           [--small]
//! ```
//!
//! `--small` runs reduced instance sizes (used in CI); the default
//! sizes match `EXPERIMENTS.md`. Wall-clock questions (throughput,
//! scaling, tracing overhead) belong to the `benchmark/` package, not
//! to this binary; the tables of timings it does print (C1's and D1b's)
//! mark their lines with [`fj_bench::report::WALL_CLOCK_MARK`].
//!
//! An experiment that panics is reported where its table would have
//! been and the rest still run; the exit status is then 1.

use fj_bench::report::Report;
use fj_bench::repro;
use std::panic::{catch_unwind, AssertUnwindSafe};

const EXPERIMENTS: [&str; 20] = [
    "fig1",
    "fig3",
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "complexity",
    "crossover",
    "bushy",
    "dist",
    "dist-wire",
    "udf",
    "local",
    "bloom",
    "soak",
    "chaos",
    "cluster-chaos",
    "recovery-chaos",
    "mutation-chaos",
    "memory-chaos",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let which = if which.is_empty() || which.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        which
    };
    if let Some(other) = which.iter().find(|w| !EXPERIMENTS.contains(w)) {
        eprintln!("unknown experiment '{other}'");
        std::process::exit(2);
    }

    let mut failed = Vec::new();
    for w in which {
        match catch_unwind(AssertUnwindSafe(|| experiment(w, small))) {
            Ok(reports) => reports.iter().for_each(|report| println!("{report}")),
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panicked");
                println!("== {w}: FAILED ==\n  {why}\n");
                failed.push(w);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("failed: {}", failed.join(" "));
        std::process::exit(1);
    }
}

/// Runs experiment `w` and returns its tables.
fn experiment(w: &str, small: bool) -> Vec<Report> {
    // (emps, depts) for the Emp/Dept experiments.
    let (e, d) = if small { (3_000, 300) } else { (20_000, 1_000) };

    vec![match w {
        "fig1" => repro::fig1_magic::run(e, d),
        "fig3" => repro::fig3_orders::run(e, d),
        "table1" => repro::table1_components::run(e, d),
        "fig4" => repro::fig4_cardinality::run(e, d),
        "fig5" => repro::fig5_classes::run(e, d),
        "fig6" => repro::fig6_taxonomy::run(),
        "complexity" => {
            let (counts, times) = repro::complexity::run(if small { 7 } else { 10 });
            return vec![counts, times];
        }
        "crossover" => repro::crossover::run(e, d),
        "bushy" => {
            if small {
                repro::bushy::run(20_000, 400, 60)
            } else {
                repro::bushy::run(120_000, 1_000, 150)
            }
        }
        "dist" => {
            if small {
                repro::dist::run(500, 5_000, 25)
            } else {
                repro::dist::run(2_000, 50_000, 100)
            }
        }
        "dist-wire" => {
            let (wire, times) = if small {
                repro::dist::run_wire(500, 5_000, 25, 3)
            } else {
                repro::dist::run_wire(2_000, 20_000, 100, 3)
            };
            return vec![wire, times];
        }
        "udf" => {
            if small {
                repro::udf::run(2_000, 50)
            } else {
                repro::udf::run(20_000, 200)
            }
        }
        "local" => {
            if small {
                repro::local_semijoin::run(2_000, 10_000, 20)
            } else {
                repro::local_semijoin::run(10_000, 100_000, 50)
            }
        }
        "bloom" => {
            if small {
                repro::bloom::run(500, 5_000, 20)
            } else {
                repro::bloom::run(5_000, 50_000, 100)
            }
        }
        "soak" => {
            if small {
                repro::soak::run(1_000, 100, 8, 25)
            } else {
                repro::soak::run(5_000, 500, 16, 50)
            }
        }
        "chaos" => {
            if small {
                repro::chaos::run(1_000, 100, 8, 12)
            } else {
                repro::chaos::run(5_000, 500, 32, 25)
            }
        }
        "cluster-chaos" => {
            if small {
                repro::cluster_chaos::run(1_000, 100, 6, 12)
            } else {
                repro::cluster_chaos::run(5_000, 500, 16, 25)
            }
        }
        "recovery-chaos" => {
            if small {
                repro::recovery_chaos::run(1_000, 100, 4, 12)
            } else {
                repro::recovery_chaos::run(5_000, 500, 12, 25)
            }
        }
        "mutation-chaos" => {
            if small {
                repro::mutation_chaos::run(1_000, 100, 4, 12)
            } else {
                repro::mutation_chaos::run(5_000, 500, 12, 25)
            }
        }
        "memory-chaos" => {
            if small {
                repro::memory_chaos::run(2_000, 4, 12)
            } else {
                repro::memory_chaos::run(8_000, 8, 25)
            }
        }
        other => unreachable!("'{other}' was checked against EXPERIMENTS"),
    }]
}
