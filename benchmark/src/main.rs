//! The repository's benchmark: six closed-loop workloads driven
//! through the real stack, every reply checked against an oracle, the
//! end-to-end metrics of `BENCHMARK.json` from an untraced pass and the
//! per-layer split from a separate traced pass.
//!
//! ```text
//! fj-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! fj-benchmark all    --seed <n> [--seconds <s>] [--smoke]
//! fj-benchmark repeat --seed <n> [--seconds <s>] [--smoke]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object with the keys `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod gen;
mod layers;
mod load;
mod report;
mod spans;
mod stats;
mod workloads;

use load::Stop;
use load::Tally;
use report::{Better, MetricDef, ParsedResult, Values, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::{Spec, TraceOut, Workload, SPECS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Timed repetitions per end-to-end run, each on its own set-up; a
/// metric (`setup_s` too) is the median of them.
const REPETITIONS: usize = 3;
/// The measuring time `all` and `repeat` pass on by default; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 9.0;

#[derive(Debug, Clone)]
struct Args {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

/// Where outputs go: `benchmark/out/`, beside this package's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A directory of this run's own under `out/tmp/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Result<Scratch, String> {
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sets the workload up and warms it: everything `setup_s` covers.
fn set_up(
    spec: &Spec,
    args: &Args,
    traced: bool,
    dir: &Path,
    tally: &mut Tally,
) -> Result<Box<dyn Workload>, String> {
    let workload = workloads::setup(spec, args.seed, args.smoke, traced, dir)?;
    if workload.clients() != spec.clients {
        return Err(format!(
            "{}: runs {} clients, its table entry says {}",
            spec.name,
            workload.clients(),
            spec.clients
        ));
    }
    let warmup = if args.smoke {
        workloads::SMOKE_WARMUP_REQUESTS
    } else {
        spec.warmup_requests
    };
    let warm = load::run(&*workload, Stop::Ops(warmup / workload.clients() as u64))?;
    tally.add(warm.tally);
    Ok(workload)
}

/// The untraced pass: every end-to-end metric, `want_trace` off and no
/// span recorded.
fn run_end_to_end(spec: &Spec, args: &Args) -> Result<(Values, Tally), String> {
    let scratch = Scratch::new(spec.name)?;
    let mut tally = Tally::default();
    let slice = Duration::from_secs_f64(args.seconds / REPETITIONS as f64);
    let (mut setup_s, mut p50, mut qps, mut read_p50) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tail = (0.0, 0);
    // Every repetition measures a system set up afresh, so the median
    // over repetitions also covers what varies from one set-up to the
    // next (thread placement, poll phases, file layout).
    for k in 0..REPETITIONS {
        let t0 = Instant::now();
        let dir = scratch.0.join(k.to_string());
        let workload = set_up(spec, args, false, &dir, &mut tally)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let mut window = load::run(&*workload, Stop::After(slice))?;
        tally.add(window.tally);
        p50.push(window.p50_us());
        qps.push(window.qps);
        read_p50.push(window.read_p50_us());
        tail = (
            stats::percentile(&mut window.primary_us, spec.tail_p),
            window.primary_us.len(),
        );
        tally.add(workload.finish()?);
    }

    let mut values = Values::new();
    println!(
        "{} seed {} — closed loop, clients: {}, {REPETITIONS} x {:.2} s, primary op: {}",
        spec.name,
        args.seed,
        spec.clients,
        slice.as_secs_f64(),
        spec.primary
    );
    for (name, reps) in [
        ("p50_us", &mut p50),
        ("qps", &mut qps),
        ("read_p50_us", &mut read_p50),
        ("setup_s", &mut setup_s),
    ] {
        let value = stats::median(reps);
        values.insert(name, value);
        println!(
            "  {name:<14} {value:>14.4}   spread (max-min)/median {:.3}   reps {reps:.4?}",
            stats::spread(reps)
        );
    }
    println!(
        "  peak_rss_mb    {:>14.4}   VmHWM of this process; gated nowhere (see the traced pass)",
        peak_rss_mb()?
    );
    println!(
        "  client.tail_us {:>14.1}   p{} of the last repetition's {} samples ({} beyond it); watched, not gated",
        tail.0,
        spec.tail_p * 100.0,
        tail.1,
        stats::samples_beyond(tail.1, spec.tail_p)
    );
    println!(
        "  fail_ratio     {:>14.6}   ({} of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    Ok((values, tally))
}

/// The traced pass: fixed-count single-client passes with spans from
/// this package's own code, then one load window for the counters
/// that only accumulate under load.
fn run_traced(spec: &Spec, args: &Args) -> Result<(Values, Tally), String> {
    let scratch = Scratch::new(&format!("{}-traced", spec.name))?;
    let mut tally = Tally::default();
    let mut workload = set_up(spec, args, true, &scratch.0, &mut tally)?;
    let mut out = TraceOut::new();
    let slice = Duration::from_secs_f64(args.seconds / REPETITIONS as f64);
    tally.add(workload.trace(&mut out, slice)?);
    let TraceOut {
        recorder,
        mut values,
        lines,
    } = out;
    let mut window = load::run(&*workload, Stop::After(slice))?;
    tally.add(window.tally);
    values.insert(
        "client.tail_us",
        stats::percentile(&mut window.primary_us, spec.tail_p),
    );
    values.insert("client.samples", window.primary_us.len() as f64);
    workload.window_counters(&mut values, window.tally.attempted);
    tally.add(workload.finish()?);
    values.insert(
        "fail_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    values.insert("peak_rss_mb", peak_rss_mb()?);

    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let trace_path = out_dir().join(format!("trace_{}.jsonl", spec.name));
    recorder
        .write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    println!(
        "{} seed {} — traced pass, {} spans in {}",
        spec.name,
        args.seed,
        recorder.spans().len(),
        trace_path.display()
    );
    for def in PER_LAYER {
        if let Some(v) = values.get(def.name) {
            let tail = if def.name == "client.tail_us" {
                format!("   p{}", spec.tail_p * 100.0)
            } else {
                String::new()
            };
            println!("  {:<34} {v:>14.4} {}{tail}", def.name, def.unit);
        }
    }
    for line in lines {
        println!("{line}");
    }
    Ok((values, tally))
}

/// One `--workload` run, ending in the driver's result line.
fn run_workload(name: &str, args: &Args, traced: bool) -> Result<(), String> {
    let spec = workloads::spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload '{name}' (one of {})", names.join(", "))
    })?;
    let (defs, (values, tally)) = if traced {
        (PER_LAYER, run_traced(spec, args)?)
    } else {
        (END_TO_END, run_end_to_end(spec, args)?)
    };
    println!(
        "{}",
        report::result_line(defs, &values, tally.attempted, tally.failed)
    );
    Ok(())
}

/// Both passes of one workload as child processes, so allocator counts
/// and peak RSS are per workload and per pass.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {}) exited with {}: {}",
            u8::from(traced),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    report::parse_result_line(last).ok_or_else(|| format!("{name}: unreadable result line: {last}"))
}

/// `(end-to-end, per-layer)` results of every workload.
type AllResults = BTreeMap<&'static str, (ParsedResult, ParsedResult)>;

fn run_all(args: &Args) -> Result<AllResults, String> {
    let mut results = AllResults::new();
    for spec in SPECS {
        let end_to_end = run_child(spec.name, args, false)?;
        let per_layer = run_child(spec.name, args, true)?;
        results.insert(spec.name, (end_to_end, per_layer));
    }
    Ok(results)
}

fn metrics_json(defs: &[MetricDef], result: &ParsedResult) -> String {
    let fields: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let v = result.metrics.get(d.name)?;
            Some(format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                report::json_string(d.name),
                report::json_string(d.unit)
            ))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Prints the cross-workload table and writes `out/summary.json`.
fn summarize(args: &Args, results: &AllResults) -> Result<bool, String> {
    println!(
        "\nend-to-end, seed {} ({} s per run):",
        args.seed, args.seconds
    );
    print!("  {:<12}", "workload");
    for def in END_TO_END {
        print!(" {:>16}", format!("{} [{}]", def.name, def.unit));
    }
    println!(" {:>8}", "correct");
    let mut all_correct = true;
    let mut entries = Vec::new();
    for spec in SPECS {
        let (e2e, layers) = &results[spec.name];
        let correct = e2e.correct && layers.correct;
        all_correct &= correct;
        print!("  {:<12}", spec.name);
        for def in END_TO_END {
            print!(
                " {:>16.3}",
                e2e.metrics.get(def.name).copied().unwrap_or(0.0)
            );
        }
        println!(" {correct:>8}");
        entries.push(format!(
            "{}: {{\"why\": {}, \"clients\": {}, \"primary\": {}, \"sizes\": {}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            report::json_string(spec.name),
            report::json_string(spec.why),
            spec.clients,
            report::json_string(spec.primary),
            report::json_string(spec.sizes),
            e2e.attempted + layers.attempted,
            e2e.failed + layers.failed,
            metrics_json(END_TO_END, e2e),
            metrics_json(PER_LAYER, layers),
        ));
    }
    let summary = format!(
        "{{\"seed\": {}, \"seconds\": {:?}, \"smoke\": {}, \"cores\": {}, \"workloads\": {{{}}}}}\n",
        args.seed,
        args.seconds,
        args.smoke,
        std::thread::available_parallelism().map_or(0, usize::from),
        entries.join(", ")
    );
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let path = out_dir().join("summary.json");
    std::fs::write(&path, summary).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("summary written to {}", path.display());
    Ok(all_correct)
}

/// Runs `all` twice on this build and holds the two to the benchmark's
/// own bounds: the acceptance check, and the noise floor later claims
/// are read against.
fn repeat(args: &Args) -> Result<bool, String> {
    let first = run_all(args)?;
    let second = run_all(args)?;
    let mut ok = summarize(args, &second)?;
    println!("\nrepeat: two runs of one build, seed {}:", args.seed);
    println!(
        "  {:<12} {:<32} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for spec in SPECS {
        let (a, b) = (&first[spec.name], &second[spec.name]);
        ok &= a.0.correct && a.1.correct;
        for (defs, x, y) in [(END_TO_END, &a.0, &b.0), (PER_LAYER, &a.1, &b.1)] {
            for def in defs {
                let (Some(&x), Some(&y)) = (x.metrics.get(def.name), y.metrics.get(def.name))
                else {
                    continue;
                };
                if x == 0.0 && y == 0.0 {
                    continue; // a layer this workload never touches
                }
                let verdict = match def.bound {
                    // Smoke repetitions are too short to hold a timing
                    // to a bound; only its counts are checked.
                    Some(_) if args.smoke => "",
                    Some(bound) => {
                        // Worse in the direction that counts, as a
                        // share of the first run.
                        let worse = match def.better {
                            Better::Lower => (y - x) / x,
                            Better::Higher => (x - y) / x,
                        };
                        if worse > bound {
                            ok = false;
                            "  EXCEEDS BOUND"
                        } else {
                            ""
                        }
                    }
                    None if def.exact && x != y => {
                        ok = false;
                        "  EXACT COUNT DIFFERS"
                    }
                    None => "",
                };
                if def.bound.is_some() || def.exact {
                    let bound = def.bound.map_or("exact".to_string(), |b| format!("{b:.2}"));
                    let diff = if x == 0.0 { 0.0 } else { (y - x) / x };
                    println!(
                        "  {:<12} {:<32} {x:>14.4} {y:>14.4} {diff:>+9.4} {bound:>7}{verdict}",
                        spec.name, def.name
                    );
                }
            }
        }
    }
    Ok(ok)
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: fj-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       fj-benchmark <all|repeat> --seed <n> [--seconds <s>] [--smoke]",
        names.join("|")
    )
}

fn parse_and_run(argv: &[String]) -> Result<bool, String> {
    let mut args = Args {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        smoke: false,
    };
    let (mut command, mut workload, mut traced, mut seeded) = (None, None, false, false);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "all" | "repeat" if command.is_none() => command = Some(arg.as_str()),
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
                seeded = true;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?;
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if !seeded {
        return Err(format!("--seed is required\n{}", usage()));
    }
    if args.smoke {
        // Smoke mode exists so the harness cannot rot unnoticed, not to
        // measure: 0.2 s repetitions over tiny inputs.
        args.seconds = 0.2 * REPETITIONS as f64;
    }
    match (command, workload) {
        (Some("all"), None) => summarize(&args, &run_all(&args)?),
        (Some("repeat"), None) => repeat(&args),
        (None, Some(name)) => run_workload(&name, &args, traced).map(|()| true),
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_and_run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fj-benchmark: a check failed (see the report above)");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("fj-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "…"` values (with what follows each, up to the
    /// closing brace) of one array of `BENCHMARK.json`.
    fn entries<'a>(doc: &'a str, key: &str) -> Vec<(&'a str, &'a str)> {
        let start = doc.find(&format!("\"{key}\": [")).expect(key);
        let body = &doc[start..start + doc[start..].find(']').expect("array closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                (name, rest.split('}').next().expect("object closes"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_same_workloads_and_metrics_as_the_code() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (spec, (name, rest)) in SPECS.iter().zip(&workloads) {
            assert_eq!(spec.name, *name);
            assert!(
                rest.contains(&report::json_string(spec.why)),
                "{name}: why differs"
            );
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&doc, key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (def, (name, rest)) in defs.iter().zip(&listed) {
                assert_eq!(def.name, *name, "{key} order");
                assert!(
                    rest.contains(&format!("\"unit\": \"{}\"", def.unit)),
                    "{name}: unit"
                );
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert!(
                    rest.contains(&format!("\"better\": \"{better}\"")),
                    "{name}: better"
                );
                match def.bound {
                    Some(bound) => assert!(
                        rest.contains(&format!("\"bound\": {bound}")),
                        "{name}: bound"
                    ),
                    None => assert!(
                        !rest.contains("bound"),
                        "{name}: layer metrics have no bound"
                    ),
                }
            }
        }
        assert!(doc.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    /// `--smoke`: all six workloads, both passes, end to end over tiny
    /// inputs — so the harness cannot rot unnoticed.
    #[test]
    fn smoke_mode_drives_every_workload_through_both_passes() {
        let args = Args {
            seed: 7,
            seconds: 0.2 * REPETITIONS as f64,
            smoke: true,
        };
        for spec in SPECS {
            let (values, tally) = run_end_to_end(spec, &args).expect(spec.name);
            assert_eq!(tally.failed, 0, "{}: failed operations", spec.name);
            assert!(tally.attempted > 0);
            for def in END_TO_END {
                assert!(
                    values[def.name] > 0.0,
                    "{}: {} is never 0",
                    spec.name,
                    def.name
                );
            }
            let (values, tally) = run_traced(spec, &args).expect(spec.name);
            assert_eq!(tally.failed, 0, "{}: failed operations (traced)", spec.name);
            for name in values.keys() {
                assert!(
                    PER_LAYER.iter().any(|d| d.name == *name),
                    "{name} is not declared"
                );
            }
            assert_eq!(values["fail_ratio"], 0.0);
            assert!(values["trace.overhead_ratio"] > 0.0 && values["client.samples"] > 0.0);
            let line = report::result_line(PER_LAYER, &values, tally.attempted, tally.failed);
            let parsed = report::parse_result_line(&line).expect("own result line parses");
            assert!(parsed.correct && parsed.metrics.len() == PER_LAYER.len());
            let trace = out_dir().join(format!("trace_{}.jsonl", spec.name));
            let spans = std::fs::read_to_string(trace).expect("trace file written");
            assert!(
                spans.lines().count() >= 2 * 10,
                "{}: spans recorded",
                spec.name
            );
            assert!(spans
                .lines()
                .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        }
    }
}
