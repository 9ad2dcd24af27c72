//! Distributed query analysis: which base tables a query touches, which
//! predicate conjuncts stay local to one alias (pushed into fragments),
//! and which are pure equi-join edges the shipping strategies can
//! reduce along.

use crate::error::DistError;
use fj_algebra::{Catalog, JoinQuery, PartitionMap, RelationKind};
use fj_expr::{columns_of, split_conjuncts, BinOp, Expr};
use fj_storage::SchemaRef;
use std::collections::BTreeSet;

/// The hidden coordinator column appended to every scattered partition:
/// the row's ordinal in the original base table. Gathered partitions
/// merge back in ordinal order, so a rebuilt (reduced) table preserves
/// the serial table's row order exactly — the keystone of byte-identity
/// with the serial oracle.
pub const ORD_COLUMN: &str = "__ord";

/// The shard-local name of one hash partition of `table`.
pub fn partition_table_name(table: &str, p: u32) -> String {
    format!("{table}__p{p}")
}

/// One FROM alias resolved against the coordinator catalog.
#[derive(Debug, Clone)]
pub struct AliasInfo {
    /// The alias as written in the query.
    pub alias: String,
    /// The base table it names.
    pub table: String,
    /// The base table's schema (without [`ORD_COLUMN`]).
    pub schema: SchemaRef,
    /// How the table is hash-partitioned across shards.
    pub map: PartitionMap,
    /// The AND of predicate conjuncts that reference only this alias;
    /// pushed into fragments so shards pre-filter before shipping.
    pub local_pred: Option<Expr>,
}

impl AliasInfo {
    /// The base (unqualified) column name for a qualified name like
    /// `"E.did"`.
    pub fn base_col(qualified: &str) -> &str {
        match qualified.split_once('.') {
            Some((_, rest)) => rest,
            None => qualified,
        }
    }

    /// Index of the qualified column in the base schema.
    pub fn col_index(&self, qualified: &str) -> Result<usize, DistError> {
        self.schema
            .resolve(Self::base_col(qualified))
            .map_err(DistError::Storage)
    }
}

/// A pure equi-join edge between two aliases: the conjuncts
/// `a.col = b.col` joining them, with qualified column names.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Index of one alias in [`DistPlan::aliases`].
    pub a: usize,
    /// Index of the other.
    pub b: usize,
    /// Qualified `(a_col, b_col)` pairs, one per equality conjunct.
    pub keys: Vec<(String, String)>,
}

impl Edge {
    /// The key pairs oriented so the first element belongs to `from`.
    pub fn keys_from(&self, from: usize) -> Vec<(&str, &str)> {
        if from == self.a {
            self.keys
                .iter()
                .map(|(x, y)| (x.as_str(), y.as_str()))
                .collect()
        } else {
            self.keys
                .iter()
                .map(|(x, y)| (y.as_str(), x.as_str()))
                .collect()
        }
    }

    /// The alias on the other end from `from`.
    pub fn other(&self, from: usize) -> usize {
        if from == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// The analyzed shape of a query for distributed execution.
#[derive(Debug, Clone)]
pub struct DistPlan {
    /// One entry per FROM item, in query order.
    pub(crate) aliases: Vec<AliasInfo>,
    /// Pure equi-join edges between aliases (at most one edge per alias
    /// pair; multi-column joins carry several key pairs on one edge).
    pub(crate) edges: Vec<Edge>,
}

impl DistPlan {
    /// Resolves and classifies `query` against `catalog`. Fails with
    /// [`DistError::Unsupported`] when a FROM item is not a base table.
    pub fn analyze(
        query: &JoinQuery,
        catalog: &Catalog,
        shards: u32,
    ) -> Result<DistPlan, DistError> {
        let mut aliases = Vec::with_capacity(query.from.len());
        for item in &query.from {
            let table = match catalog
                .resolve(&item.relation)
                .map_err(|e| DistError::Unsupported(e.to_string()))?
            {
                RelationKind::Base(t) => t,
                other => {
                    return Err(DistError::Unsupported(format!(
                        "FROM item {} is not a base table ({other:?})",
                        item.relation
                    )))
                }
            };
            let map = catalog
                .partitioning(&item.relation)
                .map(|m| PartitionMap::new(m.column, shards))
                .unwrap_or_else(|| PartitionMap::new(0, shards));
            aliases.push(AliasInfo {
                alias: item.alias.clone(),
                table: item.relation.clone(),
                schema: table.schema().clone(),
                map,
                local_pred: None,
            });
        }

        let mut edges: Vec<Edge> = Vec::new();
        if let Some(pred) = &query.predicate {
            for conjunct in split_conjuncts(pred) {
                let referenced = referenced_aliases(&conjunct, &aliases);
                match referenced.len() {
                    0 | 1 => {
                        // Constant or single-alias conjuncts push down
                        // into that alias's fragments. Constant
                        // conjuncts attach to alias 0 (any would do).
                        let idx = referenced
                            .into_iter()
                            .next()
                            .unwrap_or(0)
                            .min(aliases.len().saturating_sub(1));
                        if let Some(info) = aliases.get_mut(idx) {
                            info.local_pred = Some(match info.local_pred.take() {
                                Some(p) => p.and(conjunct),
                                None => conjunct,
                            });
                        }
                    }
                    2 => {
                        // Only a *pure* column equality becomes a
                        // reduction edge; anything else (inequalities,
                        // ORs, arithmetic) is left for the final local
                        // join — reduction must never over-filter.
                        if let Some((qa, qb)) = pure_equi(&conjunct, &aliases) {
                            let (ia, qa_col) = qa;
                            let (ib, qb_col) = qb;
                            let (a, b, ka, kb) = if ia <= ib {
                                (ia, ib, qa_col, qb_col)
                            } else {
                                (ib, ia, qb_col, qa_col)
                            };
                            match edges.iter_mut().find(|e| e.a == a && e.b == b) {
                                Some(e) => e.keys.push((ka, kb)),
                                None => edges.push(Edge {
                                    a,
                                    b,
                                    keys: vec![(ka, kb)],
                                }),
                            }
                        }
                    }
                    _ => {
                        // 3+ aliases: evaluated by the final local join.
                    }
                }
            }
        }
        Ok(DistPlan { aliases, edges })
    }

    /// Indices of the edges incident to alias `v`.
    pub fn edges_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.edges.len()).filter(move |&e| self.edges[e].a == v || self.edges[e].b == v)
    }

    /// The alias with the fewest base-table rows — the reduction
    /// driver. Ties break on alias order for determinism.
    pub fn driver(&self, catalog: &Catalog) -> usize {
        let mut best = 0;
        let mut best_rows = u64::MAX;
        for (i, info) in self.aliases.iter().enumerate() {
            let rows = catalog
                .table(&info.table)
                .map(|t| t.row_count())
                .unwrap_or(u64::MAX);
            if rows < best_rows {
                best_rows = rows;
                best = i;
            }
        }
        best
    }

    /// Breadth-first visit order from `start` along equi-join edges:
    /// each later entry lists the alias plus the index (into
    /// `DistPlan::edges`) of every edge connecting it to an
    /// already-visited alias. Aliases unreachable from `start` come
    /// last and get no edges.
    pub fn reduction_order(&self, start: usize) -> Vec<(usize, Vec<usize>)> {
        let n = self.aliases.len();
        let mut visited = vec![false; n];
        let mut out: Vec<(usize, Vec<usize>)> = vec![(start, Vec::new())];
        visited[start] = true;
        loop {
            // Deterministic: lowest-index unvisited alias adjacent to
            // the visited set.
            let next = (0..n).find(|&v| {
                !visited[v] && self.edges_of(v).any(|e| visited[self.edges[e].other(v)])
            });
            match next {
                Some(v) => {
                    let incoming: Vec<usize> = self
                        .edges_of(v)
                        .filter(|&e| visited[self.edges[e].other(v)])
                        .collect();
                    visited[v] = true;
                    out.push((v, incoming));
                }
                None => break,
            }
        }
        for (v, seen) in visited.iter().enumerate() {
            if !seen {
                out.push((v, Vec::new()));
            }
        }
        out
    }
}

/// Alias indices whose columns appear in `e`.
fn referenced_aliases(e: &Expr, aliases: &[AliasInfo]) -> BTreeSet<usize> {
    columns_of(e)
        .iter()
        .filter_map(|c| {
            let prefix = c.split_once('.').map(|(a, _)| a).unwrap_or(c);
            aliases.iter().position(|info| info.alias == prefix)
        })
        .collect()
}

/// If `e` is exactly `A.x = B.y` for two distinct aliases, the
/// `(alias index, qualified column)` pair for each side.
#[allow(clippy::type_complexity)]
fn pure_equi(e: &Expr, aliases: &[AliasInfo]) -> Option<((usize, String), (usize, String))> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    let (Expr::Column(l), Expr::Column(r)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let la = l.split_once('.').map(|(a, _)| a)?;
    let ra = r.split_once('.').map(|(a, _)| a)?;
    let li = aliases.iter().position(|i| i.alias == la)?;
    let ri = aliases.iter().position(|i| i.alias == ra)?;
    if li == ri {
        return None;
    }
    Some(((li, l.clone()), (ri, r.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ShipStrategy;
    use fj_expr::col;
    use fj_storage::{DataType, TableBuilder, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [
            ("A", vec!["x", "y"]),
            ("B", vec!["y", "z"]),
            ("C", vec!["z", "w"]),
        ] {
            let mut b = TableBuilder::new(name);
            for c in &cols {
                b = b.column(*c, DataType::Int);
            }
            for i in 0..4i64 {
                b = b.row(cols.iter().map(|_| Value::Int(i)).collect());
            }
            cat.add_table(b.build().unwrap().into_ref());
        }
        cat
    }

    fn chain_query() -> JoinQuery {
        JoinQuery::new(vec![
            fj_algebra::FromItem::new("A", "a"),
            fj_algebra::FromItem::new("B", "b"),
            fj_algebra::FromItem::new("C", "c"),
        ])
        .with_predicate(
            col("a.y")
                .eq(col("b.y"))
                .and(col("b.z").eq(col("c.z")))
                .and(col("a.x").lt(fj_expr::lit(3))),
        )
    }

    #[test]
    fn chain_splits_into_edges_and_local_pred() {
        let plan = DistPlan::analyze(&chain_query(), &catalog(), 3).unwrap();
        assert_eq!(plan.aliases.len(), 3);
        assert_eq!(plan.edges.len(), 2);
        assert!(plan.aliases[0].local_pred.is_some());
        assert!(plan.aliases[1].local_pred.is_none());
        assert!(ShipStrategy::FullReducer
            .program(&plan, &catalog())
            .is_some());
    }

    #[test]
    fn cycle_is_detected() {
        let q = JoinQuery::new(vec![
            fj_algebra::FromItem::new("A", "a"),
            fj_algebra::FromItem::new("B", "b"),
            fj_algebra::FromItem::new("C", "c"),
        ])
        .with_predicate(
            col("a.y")
                .eq(col("b.y"))
                .and(col("b.z").eq(col("c.z")))
                .and(col("c.w").eq(col("a.x"))),
        );
        let plan = DistPlan::analyze(&q, &catalog(), 2).unwrap();
        assert_eq!(plan.edges.len(), 3);
        assert!(ShipStrategy::FullReducer
            .program(&plan, &catalog())
            .is_none());
    }

    #[test]
    fn non_equi_conjuncts_do_not_become_edges() {
        let q = JoinQuery::new(vec![
            fj_algebra::FromItem::new("A", "a"),
            fj_algebra::FromItem::new("B", "b"),
        ])
        .with_predicate(col("a.y").lt(col("b.y")));
        let plan = DistPlan::analyze(&q, &catalog(), 2).unwrap();
        assert!(plan.edges.is_empty());
    }

    #[test]
    fn reduction_order_covers_all_aliases() {
        let plan = DistPlan::analyze(&chain_query(), &catalog(), 3).unwrap();
        let order = plan.reduction_order(2);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0].0, 2);
        assert!(order[1..].iter().all(|(_, edges)| !edges.is_empty()));
    }

    #[test]
    fn views_are_unsupported() {
        let mut cat = catalog();
        cat.add_view(fj_algebra::ViewDef {
            name: "V".into(),
            plan: fj_algebra::LogicalPlan::scan("A", "a").into_ref(),
            schema: fj_storage::Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)])
                .into_ref(),
        });
        let q = JoinQuery::new(vec![fj_algebra::FromItem::new("V", "v")]);
        assert!(matches!(
            DistPlan::analyze(&q, &cat, 2),
            Err(DistError::Unsupported(_))
        ));
    }
}
