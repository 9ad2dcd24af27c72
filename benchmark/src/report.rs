//! Metric names, units and bounds — the one table `BENCHMARK.json`
//! mirrors — and the JSON the benchmark prints and reads back.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric. `bound` is the share of the baseline's median by
/// which an end-to-end metric may worsen before it counts as a
/// regression (`None` for layer metrics, which are not gated). `exact`
/// marks counts that must repeat bit-for-bit between two runs of one
/// build on one seed.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the query service sees; printed by the untraced pass.
pub const END_TO_END: &[MetricDef] = &[
    gated("p50_us", "us", Lower, 0.20),
    gated("qps", "ops/s", Higher, 0.20),
    gated("read_p50_us", "us", Lower, 0.20),
    gated("setup_s", "s", Lower, 0.25),
];

/// Single layers, measured from outside; printed by the traced pass. A
/// layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    count("cost_pages", "pages", Lower),
    count("fail_ratio", "ratio", Lower),
    layer("peak_rss_mb", "MiB", Lower),
    layer("client.tail_us", "us", Lower),
    layer("client.samples", "count", Higher),
    layer("net.req_codec_us", "us", Lower),
    layer("net.reply_codec_us", "us", Lower),
    layer("net.frame_io_us", "us", Lower),
    layer("net.residual_us", "us", Lower),
    count("net.bytes_per_op", "bytes", Lower),
    count("net.sheds", "count", Lower),
    count("net.errors_sent", "count", Lower),
    layer("runtime.cache_hit_rate", "ratio", Higher),
    layer("runtime.svc_overhead_us", "us", Lower),
    layer("runtime.scaling_2x", "ratio", Higher),
    layer("runtime.mutation_install_us", "us", Lower),
    layer("optimizer.fingerprint_us", "us", Lower),
    layer("optimizer.optimize_us", "us", Lower),
    count("optimizer.est_over_measured", "ratio", Lower),
    layer("exec.execute_us", "us", Lower),
    count("exec.rows_in_per_row_out", "ratio", Lower),
    count("exec.allocs_per_op", "count", Lower),
    count("exec.alloc_bytes_per_op", "bytes", Lower),
    layer("store.commit_us", "us", Lower),
    count("store.wal_fsyncs_per_commit", "count", Lower),
    count("store.wal_bytes_per_user_byte", "ratio", Lower),
    layer("store.checkpoint_us", "us", Lower),
    layer("store.pool_hit_rate", "ratio", Higher),
    layer("store.pool_evictions_per_op", "count", Lower),
    count("dist.wire_bytes_per_op", "bytes", Lower),
    count("dist.messages_per_op", "count", Lower),
    count("dist.failovers", "count", Lower),
    count("dist.predicted_over_actual_bytes", "ratio", Higher),
    layer("dist.deploy_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits of `v` (`{:?}` round-trips).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, with every metric of `defs` in
/// their declared order (0 for a layer the workload never touched).
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(d.name),
                json_number(values.get(d.name).copied().unwrap_or(0.0)),
                json_string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

/// What `all` and `repeat` read back from a child's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a line written by [`result_line`] (not general JSON: it
/// relies on that function's layout).
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = BTreeMap::new();
    for part in body.split("\"unit\"") {
        let Some(v_at) = part.find("{\"value\": ") else {
            continue;
        };
        let name_end = part[..v_at].rfind("\": ")?;
        let name_start = part[..name_end].rfind('"')? + 1;
        let value = part[v_at + 10..].split(',').next()?.trim();
        metrics.insert(part[name_start..name_end].to_string(), value.parse().ok()?);
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn result_line_round_trips_with_stable_keys() {
        let mut values = Values::new();
        values.insert("p50_us", 371.25);
        values.insert("qps", 4512.125);
        let line = result_line(END_TO_END, &values, 1000, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 371.25, \"unit\": \"us\"}, \"qps\""));
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        let names: Vec<&str> = parsed.metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        assert_eq!(parsed.metrics["qps"], 4512.125);
        assert_eq!(parsed.metrics["setup_s"], 0.0);
        let failed = parse_result_line(&result_line(PER_LAYER, &values, 0, 3)).unwrap();
        assert!(!failed.correct);
        assert_eq!((failed.attempted, failed.failed), (1, 3));
        assert_eq!(failed.metrics.len(), PER_LAYER.len());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
