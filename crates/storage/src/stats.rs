//! Table and column statistics.
//!
//! The optimizer's selectivity and cardinality estimates (§2.3's "usual
//! assumptions") come from here: row counts, per-column distinct counts,
//! min/max, and equi-depth histograms. The module also implements the
//! Yao/Cardenas distinct-after-projection estimate that §4 prescribes for
//! `ProjCost_F` / filter-set cardinality ("the optimizer can make an
//! estimate based on the cardinality of the production set P, and
//! assumptions about the distributions of values \[Yao77\]").
//!
//! A commit keeps these exact without re-reading its table: every
//! column summary is derived from the column's sorted values, which
//! [`TableStats::with_delta`] merges a mutation's removed and added
//! rows into.

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Number of buckets in equi-depth histograms.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The order statistics are derived in: [`Value::cmp`], then the type
/// tag, then a double's bits. Values `cmp` calls equal (`1` and `1.0`,
/// `0.0` and `-0.0`) still sort one way only, so the representatives a
/// summary keeps — min, max, histogram bounds — depend on the rows'
/// multiset, never on their order. And two values this order calls
/// equal are the same value, which is what lets a delta be merged out
/// of a sorted column exactly.
fn stats_order(a: &Value, b: &Value) -> Ordering {
    let tag = |v: &Value| match v {
        Value::Null => 0u8,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Double(_) => 3,
        Value::Str(_) => 4,
    };
    a.cmp(b)
        .then_with(|| tag(a).cmp(&tag(b)))
        .then_with(|| match (a, b) {
            (Value::Double(x), Value::Double(y)) => x.to_bits().cmp(&y.to_bits()),
            _ => Ordering::Equal,
        })
}

/// Column `col` of `rows`: its non-null values in [`stats_order`], and
/// its null count.
fn sorted_column(rows: &[Tuple], col: usize) -> (Vec<Value>, u64) {
    let mut values = Vec::with_capacity(rows.len());
    for t in rows {
        match t.value(col) {
            Value::Null => {}
            v => values.push(v.clone()),
        }
    }
    let nulls = (rows.len() - values.len()) as u64;
    values.sort_by(stats_order);
    (values, nulls)
}

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
    /// The histogram of non-null values already in [`stats_order`].
    fn from_sorted(values: &[Value]) -> Option<Histogram> {
        let last = values.last()?;
        let total = values.len() as u64;
        let buckets = HISTOGRAM_BUCKETS.min(values.len());
        let depth = total.div_ceil(buckets as u64);
        let mut bounds: Vec<Value> = values
            .iter()
            .skip(depth as usize - 1)
            .step_by(depth as usize)
            .cloned()
            .collect();
        if bounds.last() != Some(last) {
            bounds.push(last.clone());
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
}

/// Statistics for one column.
///
/// Every summary is derived from the column's non-null values sorted in
/// one total order, and that sorted column is kept (shared, one copy
/// per table version) so the next version's statistics can merge a
/// delta into it instead of re-reading every row.
#[derive(Clone, PartialEq, Default)]
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
    /// The non-null values in [`stats_order`]; the fields above are
    /// [`ColumnStats::from_sorted`] of it.
    sorted: Arc<[Value]>,
}

impl ColumnStats {
    /// Computes stats over one column of `rows`.
    pub fn analyze(rows: &[Tuple], col: usize) -> ColumnStats {
        let (values, nulls) = sorted_column(rows, col);
        ColumnStats::from_sorted(values.into(), nulls)
    }

    /// The one derivation of a column's summaries: distinct values are
    /// counted between neighbours, min and max are the ends.
    fn from_sorted(sorted: Arc<[Value]>, null_count: u64) -> ColumnStats {
        let distinct = sorted.windows(2).filter(|w| w[0] != w[1]).count() as u64
            + u64::from(!sorted.is_empty());
        ColumnStats {
            distinct,
            null_count,
            min: sorted.first().cloned(),
            max: sorted.last().cloned(),
            histogram: Histogram::from_sorted(&sorted).map(Arc::new),
            sorted,
        }
    }

    /// These stats with column `col` of `removed` merged out and of
    /// `added` merged in, in one pass over the sorted column.
    fn with_delta(&self, col: usize, removed: &[Tuple], added: &[Tuple]) -> ColumnStats {
        let (gone, gone_nulls) = sorted_column(removed, col);
        let (new, new_nulls) = sorted_column(added, col);
        let same = |a: &[Value], b: &[Value]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| stats_order(x, y).is_eq())
        };
        if gone_nulls == new_nulls && same(&gone, &new) {
            // The delta leaves this column as it was (an update that
            // did not assign it).
            return self.clone();
        }
        let mut gone = gone.iter().peekable();
        let mut new = new.into_iter().peekable();
        let mut merged = Vec::with_capacity(self.sorted.len() + new.len());
        for v in self.sorted.iter() {
            if gone.next_if(|g| stats_order(g, v).is_eq()).is_some() {
                continue;
            }
            while let Some(a) = new.next_if(|a| stats_order(a, v).is_lt()) {
                merged.push(a);
            }
            merged.push(v.clone());
        }
        merged.extend(new);
        debug_assert!(
            gone.next().is_none(),
            "a removed value was never in the column"
        );
        ColumnStats::from_sorted(merged.into(), self.null_count + new_nulls - gone_nulls)
    }

    /// The column's non-null values, in the order the summaries were
    /// derived in.
    pub fn values(&self) -> &[Value] {
        &self.sorted
    }

    /// The fraction of the column's rows that are not NULL (exactly 1
    /// when none is).
    pub fn non_null_fraction(&self) -> f64 {
        if self.null_count == 0 {
            return 1.0;
        }
        let keyed = self.sorted.len() as f64;
        keyed / (keyed + self.null_count as f64)
    }
}

/// The summaries only: the sorted column they came from would bury them.
impl fmt::Debug for ColumnStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ColumnStats")
            .field("distinct", &self.distinct)
            .field("null_count", &self.null_count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("histogram", &self.histogram)
            .finish()
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

    /// The statistics of the rows these were analyzed from, minus
    /// `removed` plus `added` — equal, representatives included, to
    /// analyzing the resulting rows, at the cost of sorting the delta
    /// and one merge pass per column. `removed` must be rows these
    /// statistics counted.
    pub fn with_delta(&self, removed: &[Tuple], added: &[Tuple]) -> TableStats {
        TableStats {
            rows: self.rows + added.len() as u64 - removed.len() as u64,
            columns: self
                .columns
                .iter()
                .enumerate()
                .map(|(c, s)| s.with_delta(c, removed, added))
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

    fn hist(vals: Vec<Value>) -> Arc<Histogram> {
        let rows: Vec<Tuple> = vals.into_iter().map(|v| Tuple::new(vec![v])).collect();
        ColumnStats::analyze(&rows, 0).histogram.unwrap()
    }

    #[test]
    fn histogram_uniform_fractions() {
        let vals: Vec<Value> = (0..1000).map(Value::Int).collect();
        let h = hist(vals);
        let f = h.fraction_le(&Value::Int(499));
        assert!((f - 0.5).abs() < 0.05, "got {f}");
        assert!(h.fraction_le(&Value::Int(5000)) > 0.99);
    }

    #[test]
    fn histogram_skewed_data_equi_depth() {
        // 90% of values are 0; equi-depth buckets absorb the skew.
        let mut vals: Vec<Value> = vec![Value::Int(0); 900];
        vals.extend((1..=100).map(Value::Int));
        let h = hist(vals);
        assert!(h.fraction_le(&Value::Int(0)) > 0.8);
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
    fn equal_values_pick_one_representative_whatever_the_row_order() {
        // 1 and 1.0, 0.0 and -0.0 compare equal; the stats order still
        // ranks them, so the kept min/max do not depend on which row
        // came first.
        let col = |vals: &[Value]| -> Vec<Tuple> {
            vals.iter().map(|v| Tuple::new(vec![v.clone()])).collect()
        };
        let a = [
            Value::Double(1.0),
            Value::Int(1),
            Value::Double(-0.0),
            Value::Double(0.0),
        ];
        let mut b = a.clone();
        b.reverse();
        let (sa, sb) = (
            ColumnStats::analyze(&col(&a), 0),
            ColumnStats::analyze(&col(&b), 0),
        );
        assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
        assert_eq!(sa.distinct, 2);
        assert_eq!(
            sa.min.map(|v| v.as_double().unwrap().to_bits()),
            Some(0.0f64.to_bits())
        );
        assert!(matches!(sa.max, Some(Value::Double(_))));
    }

    #[test]
    fn with_delta_equals_reanalysis() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Str)]);
        let rows = vec![tuple![3, "x"], tuple![1, "y"], tuple![3, "z"]];
        let stats = TableStats::analyze(&schema, &rows);
        let next = stats.with_delta(&[tuple![3, "x"]], &[tuple![2, "x"], tuple![9, "w"]]);
        let after = vec![
            tuple![1, "y"],
            tuple![3, "z"],
            tuple![2, "x"],
            tuple![9, "w"],
        ];
        assert_eq!(next, TableStats::analyze(&schema, &after));
        assert_eq!(next.rows, 4);
        assert_eq!(
            next.column(0).unwrap().values(),
            &[1, 2, 3, 9].map(Value::Int)
        );
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
