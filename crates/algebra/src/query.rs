//! The canonical select-project-join block ([`JoinQuery`]) that the
//! System-R optimizer enumerates and the magic rewriter transforms.
//!
//! A `JoinQuery` is `SELECT <projection> FROM <relations> WHERE
//! <predicate>` where each FROM item may be a base table, a view, a
//! remote table, or a user-defined relation — the paper's uniform
//! treatment of "virtual relations" (§1).

use crate::catalog::Catalog;
use crate::error::AlgebraError;
use crate::plan::LogicalPlan;
use fj_expr::{columns_of, split_conjuncts, Expr};
use fj_storage::Schema;
use std::collections::HashSet;

/// One FROM-clause item: a catalog relation under an alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FromItem {
    /// Catalog relation name, e.g. `"DepAvgSal"`.
    pub relation: String,
    /// Alias, e.g. `"V"`.
    pub alias: String,
}

impl FromItem {
    /// `relation AS alias`.
    pub fn new(relation: impl Into<String>, alias: impl Into<String>) -> FromItem {
        FromItem {
            relation: relation.into(),
            alias: alias.into(),
        }
    }
}

/// A select-project-join query block.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// FROM items, in declaration order.
    pub from: Vec<FromItem>,
    /// WHERE predicate (conjunctive normal form is not required; the
    /// analyzer splits top-level conjuncts).
    pub predicate: Option<Expr>,
    /// SELECT list; `None` selects every column of every FROM item.
    pub projection: Option<Vec<(Expr, String)>>,
}

impl JoinQuery {
    /// Starts a query over `from` items.
    pub fn new(from: Vec<FromItem>) -> JoinQuery {
        JoinQuery {
            from,
            predicate: None,
            projection: None,
        }
    }

    /// Sets the WHERE predicate.
    pub fn with_predicate(mut self, p: Expr) -> JoinQuery {
        self.predicate = Some(p);
        self
    }

    /// Sets the SELECT list.
    pub fn with_projection(mut self, p: Vec<(Expr, String)>) -> JoinQuery {
        self.projection = Some(p);
        self
    }

    /// Validates: aliases unique, relations resolvable, predicate and
    /// projection bind against the combined schema.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), AlgebraError> {
        let mut seen = HashSet::new();
        for item in &self.from {
            if !seen.insert(item.alias.clone()) {
                return Err(AlgebraError::DuplicateAlias(item.alias.clone()));
            }
            catalog.resolve(&item.relation)?;
        }
        if self.from.is_empty() {
            return Err(AlgebraError::InvalidPlan("empty FROM clause".into()));
        }
        // Binding is checked by computing the plan schema.
        self.to_plan().schema(catalog)?;
        Ok(())
    }

    /// The naive logical plan: left-deep cross joins in FROM order, then
    /// the full predicate, then the projection. This is the "original
    /// query" baseline (join orders 5/6 of Figure 3: no filter join).
    pub fn to_plan(&self) -> LogicalPlan {
        let mut iter = self.from.iter();
        let first = iter.next().expect("validated non-empty FROM");
        let mut plan = LogicalPlan::scan(first.relation.clone(), first.alias.clone());
        for item in iter {
            plan = plan.join(
                LogicalPlan::scan(item.relation.clone(), item.alias.clone()),
                None,
            );
        }
        if let Some(p) = &self.predicate {
            plan = plan.select(p.clone());
        }
        if let Some(sel) = &self.projection {
            plan = plan.project(sel.clone());
        }
        plan
    }

    /// The FROM item with alias `alias`.
    pub fn item(&self, alias: &str) -> Option<&FromItem> {
        self.from.iter().find(|i| i.alias == alias)
    }

    /// Qualified schema of the FROM item `alias`.
    pub fn alias_schema(&self, catalog: &Catalog, alias: &str) -> Result<Schema, AlgebraError> {
        let item = self
            .item(alias)
            .ok_or_else(|| AlgebraError::UnknownRelation(alias.to_string()))?;
        Ok(catalog
            .resolve(&item.relation)?
            .schema()
            .with_qualifier(alias))
    }

    /// The predicate conjuncts whose column references all fall inside
    /// the given set of aliases (the conjuncts applicable once exactly
    /// those relations are joined).
    pub fn conjuncts_within(&self, catalog: &Catalog, aliases: &[&str]) -> Vec<Expr> {
        let Some(pred) = &self.predicate else {
            return Vec::new();
        };
        // A column belongs to an alias if the alias's schema resolves it.
        let schemas: Vec<Schema> = aliases
            .iter()
            .filter_map(|a| self.alias_schema(catalog, a).ok())
            .collect();
        split_conjuncts(pred)
            .into_iter()
            .filter(|c| {
                columns_of(c)
                    .iter()
                    .all(|col| schemas.iter().any(|s| s.contains(col)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::{paper_catalog, paper_query};

    #[test]
    fn paper_query_validates() {
        paper_query().validate(&paper_catalog()).unwrap();
    }

    #[test]
    fn duplicate_alias_rejected() {
        let q = JoinQuery::new(vec![FromItem::new("Emp", "E"), FromItem::new("Dept", "E")]);
        assert!(matches!(
            q.validate(&paper_catalog()),
            Err(AlgebraError::DuplicateAlias(_))
        ));
    }

    #[test]
    fn empty_from_rejected() {
        let q = JoinQuery::new(vec![]);
        assert!(q.validate(&paper_catalog()).is_err());
    }

    #[test]
    fn unknown_relation_rejected() {
        let q = JoinQuery::new(vec![FromItem::new("Ghost", "G")]);
        assert!(q.validate(&paper_catalog()).is_err());
    }

    #[test]
    fn to_plan_shape() {
        let plan = paper_query().to_plan();
        let s = plan.display();
        assert!(s.starts_with("Project"));
        assert!(s.contains("Select"));
        assert!(s.contains("Scan DepAvgSal AS V"));
    }

    #[test]
    fn plan_schema_matches_projection() {
        let cat = paper_catalog();
        let s = paper_query().to_plan().schema(&cat).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(2).name, "avgsal");
    }

    #[test]
    fn conjuncts_within_subsets() {
        let cat = paper_catalog();
        let q = paper_query();
        assert_eq!(q.conjuncts_within(&cat, &["E"]).len(), 1); // age<30
        assert_eq!(q.conjuncts_within(&cat, &["E", "D"]).len(), 3);
        assert_eq!(q.conjuncts_within(&cat, &["E", "D", "V"]).len(), 5);
        assert_eq!(q.conjuncts_within(&cat, &["D"]).len(), 1); // budget
    }

    #[test]
    fn alias_schema() {
        let cat = paper_catalog();
        let q = paper_query();
        let s = q.alias_schema(&cat, "V").unwrap();
        assert!(s.contains("V.avgsal"));
        assert!(q.alias_schema(&cat, "Z").is_err());
    }
}
