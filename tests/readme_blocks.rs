//! The README's EXPLAIN ANALYZE walkthroughs are what the code prints.
//! Each fenced `text` block that starts with `estimated cost:` must
//! equal a fresh render of its query byte for byte, once every
//! wall-clock cell (`<digits> us`) is masked on both sides. A stale
//! block fails with the render to paste in its place.

use filterjoin::{fixtures, Database, PlanShape};
use fj_bench::workloads::snowflake;

const README: &str = include_str!("../README.md");

/// `text` with the digits of every `<digits> us` cell replaced by `_`.
fn mask_micros(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut digits = String::new();
    for (i, c) in text.char_indices() {
        if c.is_ascii_digit() {
            digits.push(c);
            continue;
        }
        if !digits.is_empty() {
            let cell = text[i..].starts_with(" us");
            out.push_str(if cell { "_" } else { &digits });
            digits.clear();
        }
        out.push(c);
    }
    out + &digits
}

/// The README's fenced `text` blocks that are EXPLAIN ANALYZE renders,
/// in order, each line ending in a newline.
fn readme_renders() -> Vec<String> {
    let mut blocks = Vec::new();
    let mut lines = README.lines();
    while let Some(line) = lines.next() {
        if line != "```text" {
            continue;
        }
        let body: Vec<&str> = lines.by_ref().take_while(|l| *l != "```").collect();
        if body
            .first()
            .is_some_and(|l| l.starts_with("estimated cost:"))
        {
            blocks.push(body.iter().map(|l| format!("{l}\n")).collect());
        }
    }
    blocks
}

#[test]
fn readme_explain_analyze_blocks_are_current() {
    // The Figure 1 walkthrough.
    let db = Database::with_catalog(fixtures::paper_catalog());
    let paper = db.explain_analyze(&fixtures::paper_query()).unwrap();
    // The bushy-plans walkthrough.
    let (cat, q) = snowflake(2, 500, 50, 25, 15, 13);
    let mut db = Database::with_catalog(cat);
    db.config_mut().plan_shape = PlanShape::Bushy;
    let bushy = db.explain_analyze(&q).unwrap();

    let readme = readme_renders();
    assert_eq!(readme.len(), 2, "expected two EXPLAIN ANALYZE blocks");
    for (block, render) in readme.iter().zip([paper, bushy]) {
        assert!(
            mask_micros(block) == mask_micros(&render),
            "README block is stale; the code prints:\n{render}"
        );
    }
}

#[test]
fn masking_touches_only_microsecond_cells() {
    assert_eq!(
        mask_micros("est 3.0 rows | actual 3 rows / 1 pages, 12 us]\nwall time:      7 us"),
        "est 3.0 rows | actual 3 rows / 1 pages, _ us]\nwall time:      _ us"
    );
    assert_eq!(
        mask_micros("SeqScan Sub0 AS s0 12"),
        "SeqScan Sub0 AS s0 12"
    );
}
