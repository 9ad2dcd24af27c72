//! Unbound (by-name) expressions and the builder API.

use fj_storage::Value;
use std::fmt;
use std::sync::Arc;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=` (SQL equality; NULL = anything is unknown).
    Eq,
    /// `<>`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// Logical AND (three-valued).
    And,
    /// Logical OR (three-valued).
    Or,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%` (integers only).
    Mod,
}

impl BinOp {
    /// Symbol for display.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }

    /// Is this a comparison producing a boolean?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// An unbound scalar expression over named columns.
///
/// Cheap to clone: internal nodes are `Arc`-shared.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a column by (possibly qualified) name.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Arc<Expr>,
        /// Right operand.
        right: Arc<Expr>,
    },
    /// Logical NOT.
    Not(Arc<Expr>),
    /// `IS NULL`.
    IsNull(Arc<Expr>),
}

/// Column reference: `col("E.did")`.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Literal: `lit(30)`, `lit("hr")`.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

impl Expr {
    fn binary(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Arc::new(self),
            right: Arc::new(rhs),
        }
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Eq, rhs)
    }
    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ne, rhs)
    }
    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Lt, rhs)
    }
    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Le, rhs)
    }
    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Gt, rhs)
    }
    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ge, rhs)
    }
    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinOp::And, rhs)
    }
    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Or, rhs)
    }
    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Add, rhs)
    }
    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Sub, rhs)
    }
    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mul, rhs)
    }
    /// `self / rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Div, rhs)
    }
    /// `self % rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mod, rhs)
    }
    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Arc::new(self))
    }
    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Arc::new(self))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => f.write_str(name),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull(e) => write!(f, "({e}) IS NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_tree() {
        let e = col("E.age")
            .lt(lit(30))
            .and(col("D.budget").gt(lit(100_000)));
        assert_eq!(e.to_string(), "((E.age < 30) AND (D.budget > 100000))");
    }

    #[test]
    fn display_unary() {
        assert_eq!(col("x").is_null().to_string(), "(x) IS NULL");
        assert_eq!(col("x").not().to_string(), "NOT (x)");
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Ge.is_comparison());
        assert!(!BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
