//! Databases and the multi-source catalog.
//!
//! An AIG maps *a collection `R` of relational databases* to XML (§3.1). Each
//! database lives at a named data source; queries are annotated `DBi:table`
//! in the paper's SQL. The [`Catalog`] owns all sources and resolves those
//! qualified names. The mediator is itself modeled as a pseudo-source
//! ([`SourceId::MEDIATOR`]) so that the scheduling and cost machinery of §5
//! can treat mediator-side computation uniformly.

use crate::error::StoreError;
use crate::table::Table;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a data source within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceId(pub u32);

impl SourceId {
    /// The mediator pseudo-source. Always present in a catalog, with no
    /// tables; mediator-side operations are "executed" here.
    pub const MEDIATOR: SourceId = SourceId(0);

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub fn is_mediator(self) -> bool {
        self == SourceId::MEDIATOR
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A named database: a set of tables.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Table>,
    name: String,
}

impl Database {
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            tables: HashMap::new(),
            name: name.into(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a table; the table's schema name is its key.
    pub fn add_table(&mut self, table: Table) -> Result<(), StoreError> {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(StoreError::Duplicate(format!("{}.{name}", self.name)));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable {
                database: self.name.clone(),
                table: name.to_string(),
            })
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable {
                database: self.name.clone(),
                table: name.to_string(),
            })
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

/// The collection of data sources an AIG integrates over.
#[derive(Debug, Clone)]
pub struct Catalog {
    sources: Vec<Database>,
    by_name: HashMap<String, SourceId>,
    replicas: HashMap<SourceId, SourceId>,
}

impl Catalog {
    /// Creates a catalog containing only the mediator pseudo-source.
    pub fn new() -> Catalog {
        let mediator = Database::new("Mediator");
        let mut by_name = HashMap::new();
        by_name.insert("Mediator".to_string(), SourceId::MEDIATOR);
        Catalog {
            sources: vec![mediator],
            by_name,
            replicas: HashMap::new(),
        }
    }

    /// Registers a new data source, returning its id.
    pub fn add_source(&mut self, db: Database) -> Result<SourceId, StoreError> {
        if self.by_name.contains_key(db.name()) {
            return Err(StoreError::Duplicate(db.name().to_string()));
        }
        let id = SourceId(self.sources.len() as u32);
        self.by_name.insert(db.name().to_string(), id);
        self.sources.push(db);
        Ok(id)
    }

    /// Resolves a source by name (e.g. `"DB1"`).
    pub fn source_id(&self, name: &str) -> Result<SourceId, StoreError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StoreError::NoSuchSource(name.to_string()))
    }

    pub fn source(&self, id: SourceId) -> &Database {
        &self.sources[id.index()]
    }

    pub fn source_mut(&mut self, id: SourceId) -> &mut Database {
        &mut self.sources[id.index()]
    }

    /// Resolves `DBi:table` to the table.
    pub fn table(&self, source: &str, table: &str) -> Result<&Table, StoreError> {
        let id = self.source_id(source)?;
        self.sources[id.index()].table(table)
    }

    /// Number of sources, including the mediator.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        false // the mediator is always present
    }

    /// Iterates over all source ids (mediator included).
    pub fn source_ids(&self) -> impl Iterator<Item = SourceId> {
        (0..self.sources.len() as u32).map(SourceId)
    }

    /// Declares `replica` as the failover target for `primary`: when
    /// `primary` is unavailable, the mediator may re-issue its queries
    /// against `replica`'s tables. The mediator pseudo-source has no
    /// replica, and a source cannot replicate itself.
    pub fn declare_replica(
        &mut self,
        primary: SourceId,
        replica: SourceId,
    ) -> Result<(), StoreError> {
        if primary.is_mediator() || replica.is_mediator() {
            return Err(StoreError::Duplicate(
                "the mediator pseudo-source cannot take part in replication".to_string(),
            ));
        }
        if primary == replica {
            return Err(StoreError::Duplicate(format!(
                "source {} cannot be its own replica",
                self.source(primary).name()
            )));
        }
        if primary.index() >= self.sources.len() || replica.index() >= self.sources.len() {
            return Err(StoreError::NoSuchSource(format!("{primary} or {replica}")));
        }
        self.replicas.insert(primary, replica);
        Ok(())
    }

    /// The declared failover target of `primary`, if any.
    pub fn replica_of(&self, primary: SourceId) -> Option<SourceId> {
        self.replicas.get(&primary).copied()
    }

    /// A fingerprint of the catalog's *schema*: source names in id order,
    /// each source's tables (sorted by name) with their column names, types
    /// and key positions, and the declared replica pairs. Two catalogs with
    /// the same schema fingerprint produce the same task graphs and
    /// execution plans for any AIG, so prepared plans keyed by it can never
    /// go stale across a `declare_replica` / table redefinition (data
    /// contents deliberately do not participate).
    pub fn schema_fingerprint(&self) -> u64 {
        // FNV-1a, matching the fingerprint style used for plans/options.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            hash ^= 0xff; // field separator
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for db in &self.sources {
            eat(db.name().as_bytes());
            for table_name in db.table_names() {
                let table = db.table(table_name).expect("listed table exists");
                let schema = table.schema();
                eat(schema.name.as_bytes());
                for col in &schema.columns {
                    eat(col.name.as_bytes());
                    eat(col.ty.to_string().as_bytes());
                }
                for &k in &schema.key {
                    eat(&(k as u64).to_le_bytes());
                }
            }
        }
        let mut pairs: Vec<(SourceId, SourceId)> =
            self.replicas.iter().map(|(&p, &r)| (p, r)).collect();
        pairs.sort_unstable();
        for (p, r) in pairs {
            eat(&(p.0 as u64).to_le_bytes());
            eat(&(r.0 as u64).to_le_bytes());
        }
        hash
    }

    /// A catalog in which `primary`'s tables are served by its declared
    /// replica: the replica's database is cloned under the primary's name,
    /// so queries addressed to the primary resolve without rewriting.
    /// Returns `None` when no replica is declared.
    pub fn failover(&self, primary: SourceId) -> Option<Catalog> {
        let replica = self.replica_of(primary)?;
        let mut out = self.clone();
        let mut db = self.sources[replica.index()].clone();
        db.name = self.sources[primary.index()].name().to_string();
        out.sources[primary.index()] = db;
        Some(out)
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::value::Value;

    fn db_with_table(db_name: &str, table_name: &str) -> Database {
        let mut db = Database::new(db_name);
        let mut t = Table::new(TableSchema::strings(table_name, &["a"], &[]));
        t.insert(vec![Value::str("x")]).unwrap();
        db.add_table(t).unwrap();
        db
    }

    #[test]
    fn catalog_always_has_mediator() {
        let c = Catalog::new();
        assert_eq!(c.len(), 1);
        assert_eq!(c.source_id("Mediator").unwrap(), SourceId::MEDIATOR);
        assert!(SourceId::MEDIATOR.is_mediator());
    }

    #[test]
    fn add_and_resolve_sources() {
        let mut c = Catalog::new();
        let db1 = c.add_source(db_with_table("DB1", "patient")).unwrap();
        let db2 = c.add_source(db_with_table("DB2", "cover")).unwrap();
        assert_ne!(db1, db2);
        assert!(!db1.is_mediator());
        assert_eq!(c.source_id("DB2").unwrap(), db2);
        assert_eq!(c.table("DB1", "patient").unwrap().len(), 1);
        assert!(c.table("DB1", "cover").is_err());
        assert!(c.table("DB9", "x").is_err());
    }

    #[test]
    fn duplicate_source_rejected() {
        let mut c = Catalog::new();
        c.add_source(Database::new("DB1")).unwrap();
        assert!(c.add_source(Database::new("DB1")).is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new("DB1");
        db.add_table(Table::new(TableSchema::strings("t", &["a"], &[])))
            .unwrap();
        assert!(db
            .add_table(Table::new(TableSchema::strings("t", &["b"], &[])))
            .is_err());
    }

    #[test]
    fn replica_declaration_and_failover_view() {
        let mut c = Catalog::new();
        let db1 = c.add_source(db_with_table("DB1", "patient")).unwrap();
        let db1r = c.add_source(db_with_table("DB1R", "patient")).unwrap();
        assert!(c.replica_of(db1).is_none());
        assert!(c.failover(db1).is_none());

        c.declare_replica(db1, db1r).unwrap();
        assert_eq!(c.replica_of(db1), Some(db1r));
        let view = c.failover(db1).unwrap();
        // The primary name now resolves to the replica's tables, and ids
        // are untouched so task graphs keep working.
        assert_eq!(view.source(db1).name(), "DB1");
        assert_eq!(view.table("DB1", "patient").unwrap().len(), 1);
        assert_eq!(view.source_id("DB1").unwrap(), db1);

        assert!(c.declare_replica(db1, db1).is_err());
        assert!(c.declare_replica(SourceId::MEDIATOR, db1r).is_err());
        assert!(c.declare_replica(db1, SourceId::MEDIATOR).is_err());
    }

    #[test]
    fn schema_fingerprint_tracks_schema_not_data() {
        let mut c = Catalog::new();
        let db1 = c.add_source(db_with_table("DB1", "patient")).unwrap();
        let fp = c.schema_fingerprint();
        assert_eq!(fp, c.schema_fingerprint(), "fingerprint is deterministic");

        // Inserting data does not change the schema fingerprint.
        c.source_mut(db1)
            .table_mut("patient")
            .unwrap()
            .insert(vec![Value::str("y")])
            .unwrap();
        assert_eq!(fp, c.schema_fingerprint());

        // Adding a source, and declaring a replica, both do.
        let db1r = c.add_source(db_with_table("DB1R", "patient")).unwrap();
        let with_replica_source = c.schema_fingerprint();
        assert_ne!(fp, with_replica_source);
        c.declare_replica(db1, db1r).unwrap();
        assert_ne!(with_replica_source, c.schema_fingerprint());
    }

    #[test]
    fn table_names_sorted() {
        let mut db = Database::new("DB4");
        db.add_table(Table::new(TableSchema::strings("treatment", &["a"], &[])))
            .unwrap();
        db.add_table(Table::new(TableSchema::strings("procedure", &["a"], &[])))
            .unwrap();
        assert_eq!(db.table_names(), vec!["procedure", "treatment"]);
    }
}
