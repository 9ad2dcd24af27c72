//! Predicate analysis for the optimizer.
//!
//! The System-R enumerator and the Filter Join need to know, for a WHERE
//! clause: which conjuncts exist, which columns each touches, and which
//! conjuncts are *equi-join* predicates linking two relations — those
//! column pairs become the candidate **filter-set attributes** of a
//! Filter Join (§2.2, §3.3 Limitation 3).

use crate::expr::{BinOp, Expr};
use std::collections::BTreeSet;

/// An equi-join predicate `left_col = right_col` between two column
/// references.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EquiJoinKey {
    /// Column name on one side.
    pub left: String,
    /// Column name on the other side.
    pub right: String,
}

/// Splits a predicate into its top-level AND conjuncts.
pub fn split_conjuncts(pred: &Expr) -> Vec<Expr> {
    conjunct_refs(pred).into_iter().cloned().collect()
}

/// The top-level AND conjuncts of `pred`, left to right, borrowed.
pub fn conjunct_refs(pred: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    collect_conjuncts(pred, &mut out);
    out
}

fn collect_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// Conjoins a list of predicates back into one expression (`None` for an
/// empty list).
pub fn conjoin(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
    preds.into_iter().reduce(|a, b| a.and(b))
}

/// All column names referenced by an expression, sorted and de-duplicated.
pub fn columns_of(e: &Expr) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for_each_column(e, &mut |name| {
        set.insert(name.to_string());
    });
    set
}

/// Calls `visit` with every column reference in `e`, left to right
/// (a column referenced twice is visited twice).
pub fn for_each_column(e: &Expr, visit: &mut dyn FnMut(&str)) {
    match e {
        Expr::Column(name) => visit(name),
        Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            for_each_column(left, visit);
            for_each_column(right, visit);
        }
        Expr::Not(inner) | Expr::IsNull(inner) => for_each_column(inner, visit),
    }
}

/// The equi-join key a single conjunct writes: `Some((left column,
/// right column))` when it has the exact shape `col = col` and the two
/// columns satisfy `is_left` and `is_right` respectively (in either
/// textual order).
pub fn equi_join_key<'e>(
    conjunct: &'e Expr,
    is_left: &dyn Fn(&str) -> bool,
    is_right: &dyn Fn(&str) -> bool,
) -> Option<(&'e str, &'e str)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = conjunct
    else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    if is_left(a) && is_right(b) {
        Some((a, b))
    } else if is_left(b) && is_right(a) {
        Some((b, a))
    } else {
        None
    }
}

/// Extracts the equi-join keys from a predicate: conjuncts of the exact
/// shape `col = col` where the two columns satisfy `is_left` and
/// `is_right` respectively (in either textual order).
///
/// `is_left`/`is_right` are membership tests against the two sides'
/// schemas; a conjunct linking the same side twice is not a join key.
pub fn equi_join_keys(
    pred: &Expr,
    is_left: &dyn Fn(&str) -> bool,
    is_right: &dyn Fn(&str) -> bool,
) -> Vec<EquiJoinKey> {
    conjunct_refs(pred)
        .into_iter()
        .filter_map(|c| equi_join_key(c, is_left, is_right))
        .map(|(left, right)| EquiJoinKey {
            left: left.to_string(),
            right: right.to_string(),
        })
        .collect()
}

/// Partitions conjuncts into (those referencing only columns accepted by
/// `available`, the rest). Used to push selections down and to decide
/// which predicates apply at each DP level.
pub fn separable_conjuncts(
    pred: &Expr,
    available: &dyn Fn(&str) -> bool,
) -> (Vec<Expr>, Vec<Expr>) {
    let mut applicable = Vec::new();
    let mut deferred = Vec::new();
    for c in split_conjuncts(pred) {
        if columns_of(&c).iter().all(|col| available(col)) {
            applicable.push(c);
        } else {
            deferred.push(c);
        }
    }
    (applicable, deferred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn paper_predicate() -> Expr {
        // E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
        //   AND E.age < 30 AND D.budget > 100000
        col("E.did")
            .eq(col("D.did"))
            .and(col("E.did").eq(col("V.did")))
            .and(col("E.sal").gt(col("V.avgsal")))
            .and(col("E.age").lt(lit(30)))
            .and(col("D.budget").gt(lit(100_000)))
    }

    #[test]
    fn split_flattens_nested_ands() {
        let cs = split_conjuncts(&paper_predicate());
        assert_eq!(cs.len(), 5);
    }

    #[test]
    fn split_leaves_or_alone() {
        let e = col("a").eq(lit(1)).or(col("b").eq(lit(2)));
        assert_eq!(split_conjuncts(&e).len(), 1);
    }

    #[test]
    fn conjoin_round_trips() {
        let p = paper_predicate();
        let again = conjoin(split_conjuncts(&p)).unwrap();
        assert_eq!(split_conjuncts(&again).len(), 5);
        assert!(conjoin(Vec::new()).is_none());
    }

    #[test]
    fn columns_found() {
        let cols = columns_of(&paper_predicate());
        assert!(cols.contains("E.did"));
        assert!(cols.contains("V.avgsal"));
        assert!(cols.contains("D.budget"));
        assert_eq!(cols.len(), 7);
    }

    #[test]
    fn equi_join_extraction_matches_paper_example() {
        let is_e = |c: &str| c.starts_with("E.");
        let is_v = |c: &str| c.starts_with("V.");
        let keys = equi_join_keys(&paper_predicate(), &is_e, &is_v);
        assert_eq!(
            keys,
            vec![EquiJoinKey {
                left: "E.did".into(),
                right: "V.did".into()
            }]
        );
    }

    #[test]
    fn equi_join_respects_side_order() {
        let pred = col("V.did").eq(col("E.did"));
        let is_e = |c: &str| c.starts_with("E.");
        let is_v = |c: &str| c.starts_with("V.");
        let keys = equi_join_keys(&pred, &is_e, &is_v);
        assert_eq!(keys[0].left, "E.did");
        assert_eq!(keys[0].right, "V.did");
    }

    #[test]
    fn equi_join_ignores_same_side_and_non_eq() {
        let pred = col("E.a")
            .eq(col("E.b"))
            .and(col("E.a").lt(col("V.b")))
            .and(col("E.a").eq(lit(3)));
        let is_e = |c: &str| c.starts_with("E.");
        let is_v = |c: &str| c.starts_with("V.");
        assert!(equi_join_keys(&pred, &is_e, &is_v).is_empty());
    }

    #[test]
    fn separable_partition() {
        let avail = |c: &str| c.starts_with("E.") || c.starts_with("D.");
        let (now, later) = separable_conjuncts(&paper_predicate(), &avail);
        assert_eq!(now.len(), 3); // E.did=D.did, E.age<30, D.budget>100000
        assert_eq!(later.len(), 2); // the two conjuncts touching V
    }
}
