//! Table and column statistics.
//!
//! The optimizer's selectivity and cardinality estimates (§2.3's "usual
//! assumptions") come from here: row counts, per-column distinct counts,
//! min/max, and equi-depth histograms. The module also implements the
//! Yao/Cardenas distinct-after-projection estimate that §4 prescribes for
//! `ProjCost_F` / filter-set cardinality ("the optimizer can make an
//! estimate based on the cardinality of the production set P, and
//! assumptions about the distributions of values \[Yao77\]").

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Number of buckets in equi-depth histograms.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// An equi-depth histogram over one column's non-null values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket upper bounds (inclusive); `bounds.len()` buckets, each
    /// holding ~`depth` values.
    bounds: Vec<Value>,
    /// Values per bucket.
    depth: u64,
    /// Total non-null values summarized.
    total: u64,
}

impl Histogram {
    /// Builds an equi-depth histogram from (a copy of) the column values.
    /// Returns `None` when there are no non-null values to summarize.
    pub fn build(mut values: Vec<Value>) -> Option<Histogram> {
        values.retain(|v| !v.is_null());
        if values.is_empty() {
            return None;
        }
        values.sort();
        let total = values.len() as u64;
        let buckets = HISTOGRAM_BUCKETS.min(values.len());
        let depth = (values.len() as u64).div_ceil(buckets as u64);
        let mut bounds = Vec::with_capacity(buckets);
        let mut i = depth as usize;
        while i <= values.len() {
            bounds.push(values[i - 1].clone());
            i += depth as usize;
        }
        if bounds.last() != values.last() {
            bounds.push(values.last().expect("non-empty").clone());
        }
        Some(Histogram {
            bounds,
            depth,
            total,
        })
    }

    /// Estimated fraction of values `<= v`.
    pub fn fraction_le(&self, v: &Value) -> f64 {
        let full = self
            .bounds
            .iter()
            .take_while(|b| (*b).cmp(v) != std::cmp::Ordering::Greater)
            .count();
        // Count every bucket whose upper bound is <= v as fully selected,
        // plus half of the next bucket (values straddle it).
        let selected = (full as f64 * self.depth as f64
            + if full < self.bounds.len() {
                self.depth as f64 * 0.5
            } else {
                0.0
            })
        .min(self.total as f64);
        selected / self.total as f64
    }

    /// Estimated fraction of values in `[lo, hi]`.
    pub fn fraction_between(&self, lo: &Value, hi: &Value) -> f64 {
        if lo > hi {
            return 0.0;
        }
        (self.fraction_le(hi) - self.fraction_le(lo)).max(0.0)
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.bounds.len()
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Distinct non-null values.
    pub distinct: u64,
    /// Nulls observed.
    pub null_count: u64,
    /// Smallest non-null value.
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Equi-depth histogram, when the column had non-null values.
    /// Shared: every estimate derived from this column points at it.
    pub histogram: Option<Arc<Histogram>>,
}

impl ColumnStats {
    /// Computes stats over one column of `rows`.
    pub fn analyze(rows: &[Tuple], col: usize) -> ColumnStats {
        let mut distinct: HashSet<&Value> = HashSet::new();
        let mut null_count = 0u64;
        let mut min: Option<&Value> = None;
        let mut max: Option<&Value> = None;
        for t in rows {
            let v = t.value(col);
            if v.is_null() {
                null_count += 1;
                continue;
            }
            distinct.insert(v);
            min = Some(match min {
                Some(m) if m <= v => m,
                _ => v,
            });
            max = Some(match max {
                Some(m) if m >= v => m,
                _ => v,
            });
        }
        let histogram =
            Histogram::build(rows.iter().map(|t| t.value(col).clone()).collect()).map(Arc::new);
        ColumnStats {
            distinct: distinct.len() as u64,
            null_count,
            min: min.cloned(),
            max: max.cloned(),
            histogram,
        }
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes full statistics (an `ANALYZE`).
    pub fn analyze(schema: &Schema, rows: &[Tuple]) -> TableStats {
        TableStats {
            rows: rows.len() as u64,
            columns: (0..schema.arity())
                .map(|c| ColumnStats::analyze(rows, c))
                .collect(),
        }
    }

    /// Stats for column `i`, if analyzed.
    pub fn column(&self, i: usize) -> Option<&ColumnStats> {
        self.columns.get(i)
    }
}

/// Yao/Cardenas estimate of the number of *distinct* values seen when `n`
/// tuples are drawn (with replacement) from a domain of `d` distinct
/// values: `d · (1 − (1 − 1/d)^n)`.
///
/// This is the classic approximation the paper cites (\[Yao77\]) for
/// estimating filter-set cardinality from the production-set cardinality.
pub fn yao_distinct(n: u64, d: u64) -> f64 {
    if d == 0 || n == 0 {
        return 0.0;
    }
    let d = d as f64;
    let n = n as f64;
    // Compute (1 - 1/d)^n in log space for numerical stability at large n.
    let est = d * (1.0 - ((n * (1.0 - 1.0 / d).ln()).exp()));
    est.min(d).min(n).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::DataType;

    fn int_rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter().map(|&v| tuple![v]).collect()
    }

    #[test]
    fn column_stats_basic() {
        let rows = int_rows(&[5, 1, 3, 3, 9]);
        let s = ColumnStats::analyze(&rows, 0);
        assert_eq!(s.distinct, 4);
        assert_eq!(s.null_count, 0);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(9)));
    }

    #[test]
    fn column_stats_with_nulls() {
        let rows = vec![
            Tuple::new(vec![Value::Null]),
            tuple![2],
            Tuple::new(vec![Value::Null]),
        ];
        let s = ColumnStats::analyze(&rows, 0);
        assert_eq!(s.null_count, 2);
        assert_eq!(s.distinct, 1);
        assert_eq!(s.min, Some(Value::Int(2)));
    }

    #[test]
    fn all_null_column_has_no_histogram() {
        let rows = vec![Tuple::new(vec![Value::Null])];
        let s = ColumnStats::analyze(&rows, 0);
        assert!(s.histogram.is_none());
        assert_eq!(s.min, None);
    }

    #[test]
    fn histogram_uniform_fractions() {
        let vals: Vec<Value> = (0..1000).map(Value::Int).collect();
        let h = Histogram::build(vals).unwrap();
        let f = h.fraction_le(&Value::Int(499));
        assert!((f - 0.5).abs() < 0.05, "got {f}");
        assert!(h.fraction_le(&Value::Int(5000)) > 0.99);
        let f = h.fraction_between(&Value::Int(250), &Value::Int(750));
        assert!((f - 0.5).abs() < 0.08, "got {f}");
    }

    #[test]
    fn histogram_skewed_data_equi_depth() {
        // 90% of values are 0; equi-depth buckets absorb the skew.
        let mut vals: Vec<Value> = vec![Value::Int(0); 900];
        vals.extend((1..=100).map(Value::Int));
        let h = Histogram::build(vals).unwrap();
        assert!(h.fraction_le(&Value::Int(0)) > 0.8);
    }

    #[test]
    fn histogram_empty_range() {
        let h = Histogram::build((0..100).map(Value::Int).collect()).unwrap();
        assert_eq!(h.fraction_between(&Value::Int(80), &Value::Int(20)), 0.0);
    }

    #[test]
    fn table_stats_covers_all_columns() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![tuple![1, "x"], tuple![2, "x"]];
        let ts = TableStats::analyze(&schema, &rows);
        assert_eq!(ts.rows, 2);
        assert_eq!(ts.columns.len(), 2);
        assert_eq!(ts.column(0).unwrap().distinct, 2);
        assert_eq!(ts.column(1).unwrap().distinct, 1);
        assert!(ts.column(2).is_none());
    }

    #[test]
    fn yao_limits() {
        // Drawing 0 tuples sees 0 distinct values.
        assert_eq!(yao_distinct(0, 100), 0.0);
        // Drawing many tuples from a small domain saturates at d.
        assert!((yao_distinct(1_000_000, 10) - 10.0).abs() < 1e-6);
        // Drawing n << d tuples sees ~n distinct values.
        let est = yao_distinct(10, 1_000_000);
        assert!((est - 10.0).abs() < 0.01, "got {est}");
        // Never exceeds n or d.
        assert!(yao_distinct(50, 100) <= 50.0);
    }

    #[test]
    fn yao_monotone_in_n() {
        let mut prev = 0.0;
        for n in [1u64, 10, 100, 1000, 10_000] {
            let e = yao_distinct(n, 500);
            assert!(e >= prev);
            prev = e;
        }
    }
}
