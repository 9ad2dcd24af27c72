//! Cost parameters, and the weighing of ledger charges into costs.
//!
//! All costs are in **page-I/O-equivalent units**. The charge formulas
//! themselves live in one place, [`fj_storage::charge`]: the executor,
//! its access paths and its spill paths book them at the shapes they
//! actually ran on, and [`CostParams`] evaluates the same functions at
//! *estimated* shapes and weighs each resulting [`Charge`] as
//! `(read + written) + cpu_weight · tuple_ops` — the weighting
//! `LedgerSnapshot::weighted` applies to a measured ledger. So
//! predicted and measured costs compare one-to-one, the property the
//! Table 1 reproduction checks, and differ only where an estimated shape
//! is wrong or where a formula here deliberately prices something else
//! (DESIGN.md, "One set of charges", lists those gaps).
//!
//! What stays here is estimation: page counts from row widths, the
//! shape of an index probe ([`ProbeShape`]) and the shipping term.
//! (Yao's distinct-value formula, the parametric fit and Bloom sizing
//! live with their users.) Each composite weighs its elementary charges
//! one at a time, in a fixed order: `f64` addition does not associate,
//! and `plan_pins.rs` pins cost bits.

use fj_algebra::NetworkModel;
use fj_storage::charge::{self, Charge};
use fj_storage::{PageLayout, Table, CPU_WEIGHT_DEFAULT};

/// One equality probe of an index, as the cost model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeShape {
    /// Index pages one probe reads ([`fj_storage::Index::probe_pages`]).
    pub pages: f64,
    /// Heap rows one probe matches.
    pub matches: f64,
}

impl ProbeShape {
    /// A probe of the index [`Table::probe_index`] picks on column
    /// `col`, or `None` without one. Neither index stores NULL keys and
    /// a column's `distinct` counts only non-NULL values, so a probe
    /// matches `(rows − nulls) / distinct` heap rows.
    pub fn of(table: &Table, col: usize) -> Option<ProbeShape> {
        let index = table.probe_index(col)?;
        let stats = table.stats().column(col);
        let keyed = table.row_count() - stats.map_or(0, |s| s.null_count);
        let distinct = stats.map(|s| s.distinct as f64);
        Some(ProbeShape {
            pages: index.probe_pages() as f64,
            matches: keyed as f64 / distinct.unwrap_or(1.0).max(1.0),
        })
    }
}

/// Cost-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Page-unit cost of one tuple operation.
    pub cpu_weight: f64,
    /// Buffer memory in pages (`M`).
    pub memory_pages: u64,
    /// Network model (per-message + per-byte page-unit costs).
    pub network: NetworkModel,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            cpu_weight: CPU_WEIGHT_DEFAULT,
            memory_pages: fj_exec::context::DEFAULT_MEMORY_PAGES,
            network: NetworkModel::free(),
        }
    }
}

impl CostParams {
    /// Pages occupied by `rows` rows of `width` bytes.
    pub fn pages(&self, rows: f64, width: usize) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        let per_page = PageLayout::for_row_width(width).tuples_per_page as f64;
        (rows / per_page).ceil().max(1.0)
    }

    /// CPU cost of `n` tuple operations.
    pub fn cpu(&self, n: f64) -> f64 {
        self.cpu_weight * n.max(0.0)
    }

    /// The cost of `c`: its page I/Os plus its weighted tuple ops.
    pub fn weigh(&self, c: Charge<f64>) -> f64 {
        c.read + c.written + self.cpu(c.tuple_ops)
    }

    /// External-sort / hash-partition page I/O for `pages` pages (zero
    /// when the input fits in memory): [`charge::external_sort`].
    pub fn external_sort_io(&self, pages: f64) -> f64 {
        self.weigh(charge::external_sort(pages, self.memory_pages))
    }

    /// Sort cost: [`charge::compares`] plus external I/O.
    pub fn sort_cost(&self, rows: f64, pages: f64) -> f64 {
        self.weigh(charge::compares(rows)) + self.external_sort_io(pages)
    }

    /// Block-nested-loops join cost *beyond* producing the inputs:
    /// [`charge::bnl`].
    pub fn bnl_cost(
        &self,
        outer_rows: f64,
        outer_pages: f64,
        inner_rows: f64,
        inner_pages: f64,
    ) -> f64 {
        let m = self.memory_pages;
        let bnl = charge::bnl(outer_rows, outer_pages, inner_rows, inner_pages, m);
        self.weigh(bnl)
    }

    /// Hash join cost beyond producing the inputs: a Grace partition
    /// pass when the build side spills, then build+probe+output CPU.
    pub fn hash_join_cost(
        &self,
        outer_rows: f64,
        outer_pages: f64,
        inner_rows: f64,
        inner_pages: f64,
        out_rows: f64,
    ) -> f64 {
        let grace = charge::grace_partition(outer_pages, inner_pages, self.memory_pages);
        self.weigh(grace) + self.weigh(charge::join(outer_rows, inner_rows, out_rows))
    }

    /// Sort-merge join cost with *interesting orders* (§3.1): a side
    /// that already arrives sorted by its join keys skips its sort,
    /// paying only the linear sortedness check the executor performs.
    /// The check is priced `rows` ops where the executor charges
    /// `rows − 1` comparisons (a gap, DESIGN.md "One set of charges").
    #[allow(clippy::too_many_arguments)]
    pub fn merge_join_cost_with_orders(
        &self,
        outer_rows: f64,
        outer_pages: f64,
        inner_rows: f64,
        inner_pages: f64,
        out_rows: f64,
        outer_sorted: bool,
        inner_sorted: bool,
    ) -> f64 {
        let side = |rows: f64, pages: f64, sorted: bool| match sorted {
            true => self.cpu(rows),
            false => self.cpu(rows) + self.sort_cost(rows, pages),
        };
        side(outer_rows, outer_pages, outer_sorted)
            + side(inner_rows, inner_pages, inner_sorted)
            + self.weigh(charge::join(outer_rows, inner_rows, out_rows))
    }

    /// Cost of shipping `rows` rows of `wire_width` bytes each in one
    /// message.
    pub fn ship_cost(&self, rows: f64, wire_width: f64) -> f64 {
        if rows <= 0.0 {
            return self.network.per_message;
        }
        self.network.per_message + self.network.per_byte * rows * wire_width
    }

    /// Cost of materializing `pages` pages: [`charge::writes`] (readers
    /// pay [`charge::reads`] separately).
    pub fn materialize_cost(&self, pages: f64) -> f64 {
        self.weigh(charge::writes(pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn pages_round_up_and_clamp() {
        let c = p();
        assert_eq!(c.pages(0.0, 100), 0.0);
        assert_eq!(c.pages(1.0, 100), 1.0);
        // 40 rows of 100B per 4096B page.
        assert_eq!(c.pages(41.0, 100), 2.0);
    }

    #[test]
    fn cpu_weight_applies() {
        assert!((p().cpu(100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn external_sort_zero_in_memory() {
        assert_eq!(p().external_sort_io(10.0), 0.0);
        let mut c = p();
        c.memory_pages = 4;
        assert!(c.external_sort_io(100.0) > 0.0);
    }

    #[test]
    fn bnl_single_block_costs_no_rescan_io() {
        let c = p();
        let cost = c.bnl_cost(100.0, 1.0, 100.0, 1.0);
        assert!((cost - c.cpu(100.0 * 100.0)).abs() < 1e-9);
    }

    #[test]
    fn bnl_rescans_with_tiny_memory() {
        let mut c = p();
        c.memory_pages = 3;
        // 10 outer pages, 1 buffer page for outer → 10 blocks → 9 rescans.
        let cost = c.bnl_cost(0.0, 10.0, 0.0, 5.0);
        assert!((cost - (9.0 * 5.0 + c.cpu(0.0))).abs() < 1e-9);
    }

    #[test]
    fn hash_join_grace_kicks_in() {
        let mut c = p();
        c.memory_pages = 4;
        let no_spill = c.hash_join_cost(10.0, 1.0, 10.0, 2.0, 5.0);
        let spill = c.hash_join_cost(10.0, 1.0, 10.0, 100.0, 5.0);
        assert!(spill > no_spill + 100.0);
    }

    #[test]
    fn ship_cost_has_message_floor() {
        let mut c = p();
        c.network = NetworkModel::lan();
        assert!(c.ship_cost(0.0, 12.0) >= 1.0);
        assert!(c.ship_cost(1000.0, 12.0) > c.ship_cost(10.0, 12.0));
    }
}
