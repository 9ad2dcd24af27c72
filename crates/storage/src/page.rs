//! The paged storage model.
//!
//! The paper's cost formulas are System-R page-I/O formulas. We keep data
//! in memory but lay it out on logical pages of [`PAGE_SIZE`] bytes so
//! every operator can charge an exact, deterministic number of page reads
//! and writes to the [`crate::CostLedger`].

use crate::schema::Schema;

/// Logical page size in bytes. 4 KiB, the System-R-era default.
pub const PAGE_SIZE: usize = 4096;

/// Rows that fit on one page (at least 1, even for jumbo rows, which
/// simply overflow their page as in real slotted-page engines).
pub fn tuples_per_page(row_width: usize) -> u64 {
    ((PAGE_SIZE / row_width.max(1)) as u64).max(1)
}

/// The page layout of a relation with a given schema: how many tuples per
/// page, and how pages scale with cardinality. This is the single source
/// of truth shared by the physical table (actual charge) and the
/// optimizer (predicted charge), which keeps predicted and measured page
/// counts exactly consistent — a property several integration tests
/// assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    /// Bytes per row.
    pub row_width: usize,
    /// Rows per page.
    pub tuples_per_page: u64,
}

impl PageLayout {
    /// Layout for rows of `schema`.
    pub fn for_schema(schema: &Schema) -> Self {
        let row_width = schema.row_width().max(1);
        PageLayout {
            row_width,
            tuples_per_page: tuples_per_page(row_width),
        }
    }

    /// Layout for an explicit row width (used for filter sets whose width
    /// is the join-attribute width, not a full schema).
    pub fn for_row_width(row_width: usize) -> Self {
        let row_width = row_width.max(1);
        PageLayout {
            row_width,
            tuples_per_page: tuples_per_page(row_width),
        }
    }

    /// Pages occupied by `rows` rows.
    pub fn pages(&self, rows: u64) -> u64 {
        if rows == 0 {
            0
        } else {
            rows.div_ceil(self.tuples_per_page)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    #[test]
    fn zero_rows_zero_pages() {
        let l = PageLayout::for_row_width(100);
        assert_eq!(l.pages(0), 0);
    }

    #[test]
    fn one_row_one_page() {
        assert_eq!(PageLayout::for_row_width(100).pages(1), 1);
    }

    #[test]
    fn pages_round_up() {
        // 40 tuples of 100B fit per 4096B page.
        assert_eq!(tuples_per_page(100), 40);
        let l = PageLayout::for_row_width(100);
        assert_eq!(l.pages(40), 1);
        assert_eq!(l.pages(41), 2);
    }

    #[test]
    fn jumbo_rows_one_per_page() {
        assert_eq!(tuples_per_page(10_000), 1);
        assert_eq!(PageLayout::for_row_width(10_000).pages(7), 7);
    }

    #[test]
    fn layout_matches_schema_width() {
        let s = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]);
        let l = PageLayout::for_schema(&s);
        assert_eq!(l.row_width, s.row_width());
        assert_eq!(l.pages(l.tuples_per_page + 1), 2);
    }

    #[test]
    fn zero_width_clamped() {
        let l = PageLayout::for_row_width(0);
        assert!(l.tuples_per_page >= 1);
    }
}
