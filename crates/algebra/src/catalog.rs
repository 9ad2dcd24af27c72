//! The catalog: base tables and the paper's three kinds of *virtual
//! relation* — views, remote relations, and user-defined relations.
//!
//! > "Because such relations are not materialized in the (local)
//! > database, we call them 'virtual' relations." (§1)

use crate::error::AlgebraError;
use crate::plan::LogicalPlan;
use fj_storage::{CostLedger, KeyHasher, SchemaRef, TableRef, Tuple, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifies a site in the (simulated) distributed database. Site 0 is
/// the local site where queries are answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The local (query) site.
    pub const LOCAL: SiteId = SiteId(0);
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// Network cost parameters: the distributed cost model charges
/// `per_message + per_byte × bytes` (in page-I/O-equivalent units) for
/// each shipment between distinct sites. §5.1: "both local and
/// communication costs can be important, and their relative importance
/// should be captured by appropriate cost metrics."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Cost per message (latency / setup), in page-I/O equivalents.
    pub per_message: f64,
    /// Cost per byte shipped, in page-I/O equivalents.
    pub per_byte: f64,
}

impl NetworkModel {
    /// A network where shipping is free — the purely-local setting.
    pub fn free() -> NetworkModel {
        NetworkModel {
            per_message: 0.0,
            per_byte: 0.0,
        }
    }

    /// A LAN-like default: one message costs about one I/O and a page's
    /// worth of bytes costs about two I/Os.
    pub fn lan() -> NetworkModel {
        NetworkModel {
            per_message: 1.0,
            per_byte: 2.0 / 4096.0,
        }
    }

    /// A WAN-like network where communication dominates (the SDD-1
    /// assumption): shipping a page costs ~50 I/Os.
    pub fn wan() -> NetworkModel {
        NetworkModel {
            per_message: 10.0,
            per_byte: 50.0 / 4096.0,
        }
    }

    /// Cost of shipping `bytes` bytes in one message.
    pub fn ship_cost(&self, bytes: u64) -> f64 {
        self.per_message + self.per_byte * bytes as f64
    }
}

/// A view definition: a named logical plan whose output schema uses
/// *unqualified* column names (e.g. `did`, `avgsal`); scanning the view
/// under an alias requalifies them (`V.did`).
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name, e.g. `"DepAvgSal"`.
    pub name: String,
    /// The defining plan.
    pub plan: Arc<LogicalPlan>,
    /// Output schema with unqualified names.
    pub schema: SchemaRef,
}

/// A user-defined relation (§5.2): a function from argument values to
/// result tuples, treated as a relation whose leading columns are the
/// arguments.
///
/// > "user-defined relations ... contain a single tuple for each specific
/// > set of argument values. The functions are typically invoked
/// > repeatedly with different argument values."
pub trait UdfRelation: Send + Sync + fmt::Debug {
    /// Full schema: argument columns first, then result columns
    /// (unqualified names).
    fn schema(&self) -> SchemaRef;

    /// How many leading columns are arguments.
    fn arg_count(&self) -> usize;

    /// Invokes the function for one argument combination, returning the
    /// full tuples (args ++ results). Charges one UDF call plus the
    /// invocation cost in tuple-ops to `ledger`.
    fn invoke(&self, args: &[Value], ledger: &CostLedger) -> Vec<Tuple>;

    /// Invocation cost in cost-model units (page-I/O equivalents). The
    /// optimizer uses this; implementations also charge it at runtime.
    fn invocation_cost(&self) -> f64;

    /// Expected result tuples per invocation (for cardinality
    /// estimation).
    fn rows_per_call(&self) -> f64 {
        1.0
    }

    /// The finite argument domain, if the relation supports *full
    /// computation* (enumerating every argument combination). Returns
    /// `None` for functions only usable via probing/filtering.
    fn domain(&self) -> Option<Vec<Vec<Value>>> {
        None
    }
}

/// How a FROM-item resolves in the catalog: the axis of Figure 6.
#[derive(Debug, Clone)]
pub enum RelationKind {
    /// A locally stored base table.
    Base(TableRef),
    /// A stored table at a remote site.
    Remote(TableRef, SiteId),
    /// A view (table expression).
    View(Arc<ViewDef>),
    /// A user-defined relation.
    Udf(Arc<dyn UdfRelation>),
}

impl RelationKind {
    /// Is this one of the paper's virtual relations (anything but a local
    /// base table)?
    pub fn is_virtual(&self) -> bool {
        !matches!(self, RelationKind::Base(_))
    }

    /// Unqualified output schema of the relation.
    pub fn schema(&self) -> SchemaRef {
        match self {
            RelationKind::Base(t) | RelationKind::Remote(t, _) => Arc::clone(t.schema()),
            RelationKind::View(v) => Arc::clone(&v.schema),
            RelationKind::Udf(u) => u.schema(),
        }
    }

    /// Site where the relation lives.
    pub fn site(&self) -> SiteId {
        match self {
            RelationKind::Remote(_, s) => *s,
            _ => SiteId::LOCAL,
        }
    }
}

/// How a base table is hash-partitioned across shards for distributed
/// execution: rows are routed by the hash of one column, modulo the
/// shard count. Kept in the catalog so the coordinator, the shards,
/// and the cost model all agree on where a key lives. Nothing persists
/// an assignment: a deploy scatters every table afresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionMap {
    /// Index of the partitioning column in the table's schema.
    pub column: usize,
    /// Number of hash partitions (= number of shards).
    pub shards: u32,
}

impl PartitionMap {
    /// A map partitioning on `column` across `shards` partitions
    /// (clamped to at least 1).
    pub fn new(column: usize, shards: u32) -> PartitionMap {
        PartitionMap {
            column,
            shards: shards.max(1),
        }
    }

    /// The partition a key routes to: its hash as a one-column key
    /// ([`Tuple::key_hash`]), so keys that compare equal, such as
    /// `Int(42)` and `Double(42.0)`, share a partition.
    pub fn shard_of(&self, key: &Value) -> u32 {
        let mut h = KeyHasher::default();
        h.write_usize(1);
        key.hash(&mut h);
        (h.finish() % u64::from(self.shards)) as u32
    }
}

/// The catalog: name → relation, plus the network model.
///
/// Structural mutations (`add_*`/`set_*`) bump a monotonically
/// increasing [`epoch`](Catalog::epoch); data mutations that swap a
/// single table in place ([`replace_table`](Catalog::replace_table))
/// instead bump that relation's
/// [`relation_version`](Catalog::relation_version). Plan caches fold
/// both into their fingerprints, so a cached plan is invalidated when
/// the schema or network model changes, or when a table *it actually
/// reads* is mutated — while plans over untouched tables stay warm.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, TableRef>,
    table_sites: HashMap<String, SiteId>,
    views: HashMap<String, Arc<ViewDef>>,
    udfs: HashMap<String, Arc<dyn UdfRelation>>,
    partitions: HashMap<String, PartitionMap>,
    relation_versions: HashMap<String, u64>,
    network: Option<NetworkModel>,
    epoch: u64,
}

impl Catalog {
    /// An empty catalog with a free network.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The mutation counter: bumped by every `add_*`/`set_*` call.
    /// Two catalogs with equal epochs that originated from the same
    /// clone chain hold identical metadata.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registers a local base table.
    pub fn add_table(&mut self, table: TableRef) {
        self.tables.insert(table.name().to_string(), table);
        self.epoch += 1;
    }

    /// Swaps a registered table's contents in place after a data
    /// mutation: the relation's version bumps (invalidating cached
    /// plans that read it) but the catalog epoch does *not* — plans
    /// over other tables stay warm. Registers the table if the name is
    /// new.
    pub fn replace_table(&mut self, table: TableRef) {
        let name = table.name().to_string();
        *self.relation_versions.entry(name.clone()).or_insert(0) += 1;
        self.tables.insert(name, table);
    }

    /// The data version of `name`: 0 until its first
    /// [`replace_table`](Catalog::replace_table), bumped by each one.
    pub fn relation_version(&self, name: &str) -> u64 {
        self.relation_versions.get(name).copied().unwrap_or(0)
    }

    /// Registers a base table stored at `site`.
    pub fn add_remote_table(&mut self, table: TableRef, site: SiteId) {
        self.table_sites.insert(table.name().to_string(), site);
        self.tables.insert(table.name().to_string(), table);
        self.epoch += 1;
    }

    /// Registers a view.
    pub fn add_view(&mut self, view: ViewDef) {
        self.views.insert(view.name.clone(), Arc::new(view));
        self.epoch += 1;
    }

    /// Registers a user-defined relation under `name`.
    pub fn add_udf(&mut self, name: impl Into<String>, udf: Arc<dyn UdfRelation>) {
        self.udfs.insert(name.into(), udf);
        self.epoch += 1;
    }

    /// Sets the network model (None = free / purely local).
    pub fn set_network(&mut self, network: NetworkModel) {
        self.network = Some(network);
        self.epoch += 1;
    }

    /// Declares `table` hash-partitioned across shards. The table keeps
    /// its full local rows (the serial oracle still runs against them);
    /// the map tells distributed coordinators how to scatter and route.
    pub fn set_partitioning(&mut self, table: impl Into<String>, map: PartitionMap) {
        self.partitions.insert(table.into(), map);
        self.epoch += 1;
    }

    /// The partition map for `table`, if declared.
    pub fn partitioning(&self, table: &str) -> Option<PartitionMap> {
        self.partitions.get(table).copied()
    }

    /// The network model in force.
    pub fn network(&self) -> NetworkModel {
        self.network.unwrap_or_else(NetworkModel::free)
    }

    /// Looks up a relation by name.
    pub fn resolve(&self, name: &str) -> Result<RelationKind, AlgebraError> {
        if let Some(t) = self.tables.get(name) {
            return Ok(match self.table_sites.get(name) {
                Some(site) if *site != SiteId::LOCAL => RelationKind::Remote(Arc::clone(t), *site),
                _ => RelationKind::Base(Arc::clone(t)),
            });
        }
        if let Some(v) = self.views.get(name) {
            return Ok(RelationKind::View(Arc::clone(v)));
        }
        if let Some(u) = self.udfs.get(name) {
            return Ok(RelationKind::Udf(Arc::clone(u)));
        }
        Err(AlgebraError::UnknownRelation(name.to_string()))
    }

    /// Direct table access (for executors and tests).
    pub fn table(&self, name: &str) -> Result<TableRef, AlgebraError> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| AlgebraError::UnknownRelation(name.to_string()))
    }

    /// Direct view access.
    pub fn view(&self, name: &str) -> Result<Arc<ViewDef>, AlgebraError> {
        self.views
            .get(name)
            .cloned()
            .ok_or_else(|| AlgebraError::UnknownRelation(name.to_string()))
    }

    /// Direct UDF access.
    pub fn udf(&self, name: &str) -> Result<Arc<dyn UdfRelation>, AlgebraError> {
        self.udfs
            .get(name)
            .cloned()
            .ok_or_else(|| AlgebraError::UnknownRelation(name.to_string()))
    }

    /// Names of all registered relations (tables, views, UDFs).
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .keys()
            .chain(self.views.keys())
            .chain(self.udfs.keys())
            .cloned()
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{DataType, TableBuilder};

    /// Routing is the executor's one-column key hash, and keys that
    /// compare equal share a shard.
    #[test]
    fn shard_of_is_pinned() {
        let map = PartitionMap::new(0, 7);
        let pins = [
            (Value::Int(42), 2),
            (Value::Int(-7), 1),
            (Value::Str("filterjoin".into()), 0),
            (Value::Null, 6),
            (Value::Double(2.5), 2),
            (Value::Bool(true), 0),
        ];
        for (value, shard) in &pins {
            let row = Tuple::new(vec![value.clone()]);
            assert_eq!(
                map.shard_of(value),
                (row.key_hash(&[0]) % 7) as u32,
                "{value}"
            );
            assert_eq!(map.shard_of(value), *shard, "{value}");
        }
        for (a, b) in [
            (Value::Int(42), Value::Double(42.0)),
            (Value::Double(0.0), Value::Double(-0.0)),
        ] {
            assert_eq!(a, b);
            assert_eq!(map.shard_of(&a), map.shard_of(&b), "{a} vs {b}");
        }
    }

    fn table(name: &str) -> TableRef {
        TableBuilder::new(name)
            .column("id", DataType::Int)
            .row(vec![Value::Int(1)])
            .build()
            .unwrap()
            .into_ref()
    }

    #[test]
    fn resolve_base_and_remote() {
        let mut cat = Catalog::new();
        cat.add_table(table("local_t"));
        cat.add_remote_table(table("remote_t"), SiteId(2));
        match cat.resolve("local_t").unwrap() {
            RelationKind::Base(t) => assert_eq!(t.name(), "local_t"),
            other => panic!("expected base, got {other:?}"),
        }
        match cat.resolve("remote_t").unwrap() {
            RelationKind::Remote(_, s) => assert_eq!(s, SiteId(2)),
            other => panic!("expected remote, got {other:?}"),
        }
        assert!(cat.resolve("nope").is_err());
    }

    #[test]
    fn remote_at_local_site_is_base() {
        let mut cat = Catalog::new();
        cat.add_remote_table(table("t"), SiteId::LOCAL);
        assert!(matches!(cat.resolve("t").unwrap(), RelationKind::Base(_)));
    }

    #[test]
    fn virtuality_classification() {
        let t = table("t");
        assert!(!RelationKind::Base(Arc::clone(&t)).is_virtual());
        assert!(RelationKind::Remote(t, SiteId(1)).is_virtual());
    }

    #[test]
    fn network_defaults_to_free() {
        let cat = Catalog::new();
        assert_eq!(cat.network().ship_cost(10_000), 0.0);
        let mut cat = cat;
        cat.set_network(NetworkModel::wan());
        assert!(cat.network().ship_cost(4096) > 50.0);
    }

    #[test]
    fn lan_cheaper_than_wan() {
        assert!(NetworkModel::lan().ship_cost(4096) < NetworkModel::wan().ship_cost(4096));
    }

    #[test]
    fn replace_table_bumps_relation_version_not_epoch() {
        let mut cat = Catalog::new();
        cat.add_table(table("t"));
        cat.add_table(table("u"));
        let epoch = cat.epoch();
        assert_eq!(cat.relation_version("t"), 0);
        cat.replace_table(table("t"));
        assert_eq!(cat.epoch(), epoch, "data mutation must not bump the epoch");
        assert_eq!(cat.relation_version("t"), 1);
        assert_eq!(cat.relation_version("u"), 0, "other relations untouched");
        cat.replace_table(table("t"));
        assert_eq!(cat.relation_version("t"), 2);
        // A brand-new name registers and starts at version 1.
        cat.replace_table(table("fresh"));
        assert!(cat.table("fresh").is_ok());
        assert_eq!(cat.relation_version("fresh"), 1);
    }

    #[test]
    fn relation_names_sorted() {
        let mut cat = Catalog::new();
        cat.add_table(table("zeta"));
        cat.add_table(table("alpha"));
        assert_eq!(cat.relation_names(), vec!["alpha", "zeta"]);
    }
}
