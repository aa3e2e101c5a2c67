//! Database generation: schemas, foreign keys, and row data.
//!
//! Each generated database records, alongside the executable
//! [`nanosql::Database`], the *generation metadata* ([`DbMeta`]) the rest
//! of the pipeline needs: which attribute template every column came
//! from, whether its name was dirtied (abbreviated), whether its
//! description survived, and per-column value pools for predicate
//! construction.

use crate::attrs::{abbreviate, describe, singular, AttrSpec, ATTR_POOL};
use crate::domains::DomainSpec;
use crate::profile::BenchmarkProfile;
use nanosql::schema::{ColumnDef, ForeignKey, TableSchema};
use nanosql::{DataType, Database, Value};
use tinynn::rng::SplitMix64;

/// Role of a column within its table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnRole {
    PrimaryKey,
    /// References the named parent table's primary key.
    ForeignKey(String),
    Attribute,
}

/// Generation metadata for one column.
#[derive(Debug, Clone)]
pub struct ColumnMeta {
    /// Actual name in the schema (possibly abbreviated).
    pub name: String,
    /// Source template for attribute columns; `None` for key columns.
    pub spec: Option<&'static AttrSpec>,
    pub ty: DataType,
    pub role: ColumnRole,
    /// Name was abbreviated (dirty).
    pub dirty: bool,
    /// A natural-language description is present in the schema.
    pub described: bool,
    /// Sample of distinct values present in the data (text columns keep
    /// their full pool; numeric columns keep observed min/max via pool).
    pub value_pool: Vec<Value>,
}

impl ColumnMeta {
    /// Is this column opaque to lexical matching? (dirty + no description)
    pub fn underspecified(&self) -> bool {
        self.dirty && !self.described
    }
}

/// Generation metadata for one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    pub name: String,
    /// The domain entity noun this table was named after.
    pub entity: &'static str,
    pub columns: Vec<ColumnMeta>,
    /// Parent table joined via this table's FK column, if any.
    pub parent: Option<String>,
}

impl TableMeta {
    pub fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// The primary-key column name.
    pub fn pk(&self) -> &str {
        self.columns
            .iter()
            .find(|c| c.role == ColumnRole::PrimaryKey)
            .map(|c| c.name.as_str())
            .expect("every generated table has a primary key")
    }

    /// The FK column referencing `parent`, if present.
    pub fn fk_to(&self, parent: &str) -> Option<&ColumnMeta> {
        self.columns
            .iter()
            .find(|c| matches!(&c.role, ColumnRole::ForeignKey(p) if p == parent))
    }

    /// Attribute columns (non-key).
    pub fn attributes(&self) -> impl Iterator<Item = &ColumnMeta> {
        self.columns
            .iter()
            .filter(|c| c.role == ColumnRole::Attribute)
    }

    /// Numeric measure attributes (aggregate targets).
    pub fn measures(&self) -> impl Iterator<Item = &ColumnMeta> {
        self.attributes()
            .filter(|c| c.spec.is_some_and(|s| s.measure))
    }

    /// Text attributes (filter/group targets).
    pub fn text_attrs(&self) -> impl Iterator<Item = &ColumnMeta> {
        self.attributes().filter(|c| c.ty == DataType::Text)
    }
}

/// Metadata for a whole generated database.
#[derive(Debug, Clone)]
pub struct DbMeta {
    pub name: String,
    pub domain: &'static str,
    pub tables: Vec<TableMeta>,
    /// Schema-drift epoch. Generated corpora are static (always 0);
    /// a serving deployment bumps it when the schema semantically
    /// changes, so context caches can tell a stale entry from a
    /// current one (`rts_core::context::ContextCache` rebuilds on a
    /// revision mismatch).
    pub revision: u64,
}

impl DbMeta {
    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Pairs `(child, parent)` for every FK edge.
    pub fn join_edges(&self) -> Vec<(&TableMeta, &TableMeta)> {
        self.tables
            .iter()
            .filter_map(|t| {
                t.parent
                    .as_deref()
                    .and_then(|p| self.table(p))
                    .map(|parent| (t, parent))
            })
            .collect()
    }

    /// Total number of columns across tables.
    pub fn total_columns(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }
}

/// A generated database: executable data + generation metadata.
#[derive(Debug, Clone)]
pub struct GeneratedDb {
    pub db: Database,
    pub meta: DbMeta,
}

fn pk_name(entity: &str) -> String {
    // "races" → "raceId" (camelCase, BIRD style).
    format!("{}Id", singular(entity))
}

/// Text value pool for an attribute column, e.g. `status` →
/// `status_alpha … status_theta`. Values appear verbatim in the data, so
/// generated predicates always hit real rows.
fn text_pool(base: &str) -> Vec<Value> {
    const SUFFIXES: [&str; 8] = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    SUFFIXES
        .iter()
        .map(|s| Value::text(format!("{base}_{s}")))
        .collect()
}

fn numeric_value(spec: &AttrSpec, rng: &mut SplitMix64) -> Value {
    match spec.base {
        "year" => Value::Int(1990 + rng.next_below(34) as i64),
        "month" => Value::Int(1 + rng.next_below(12) as i64),
        "age" => Value::Int(18 + rng.next_below(63) as i64),
        _ => match spec.ty {
            DataType::Int => Value::Int(rng.next_below(1000) as i64),
            DataType::Float => Value::Float((rng.next_f64() * 1000.0 * 100.0).round() / 100.0),
            _ => unreachable!("numeric_value on non-numeric spec"),
        },
    }
}

/// Generate one database for `domain` under `profile` knobs.
pub fn generate_db(
    domain: &'static DomainSpec,
    db_index: usize,
    profile: &BenchmarkProfile,
    rng: &mut SplitMix64,
) -> GeneratedDb {
    let db_name = if db_index == 0 {
        domain.name.to_string()
    } else {
        format!("{}_{db_index}", domain.name)
    };
    let mut db = Database::new(db_name.clone());
    db.domain = domain.name.to_string();

    let (t_lo, t_hi) = profile.tables_per_db;
    let n_tables = (t_lo + rng.next_below(t_hi - t_lo + 1)).min(domain.entities.len());

    // Choose entities for tables (shuffled prefix of the domain list).
    let mut entity_order: Vec<usize> = (0..domain.entities.len()).collect();
    tinynn::rng::shuffle(&mut entity_order, rng);
    let chosen: Vec<&'static str> = entity_order[..n_tables]
        .iter()
        .map(|&i| domain.entities[i])
        .collect();

    let mut metas: Vec<TableMeta> = Vec::with_capacity(n_tables);

    for (ti, entity) in chosen.iter().enumerate() {
        let mut columns: Vec<ColumnMeta> = Vec::new();
        // Primary key first.
        columns.push(ColumnMeta {
            name: pk_name(entity),
            spec: None,
            ty: DataType::Int,
            role: ColumnRole::PrimaryKey,
            dirty: false,
            described: true,
            value_pool: Vec::new(),
        });
        // FK to an earlier table with high probability (keeps the join
        // graph connected, as both benchmarks' schemas are).
        let parent = if ti > 0 && rng.next_bool(0.85) {
            let p = rng.next_below(ti);
            let parent_entity = chosen[p];
            columns.push(ColumnMeta {
                name: pk_name(parent_entity),
                spec: None,
                ty: DataType::Int,
                role: ColumnRole::ForeignKey(parent_entity.to_string()),
                dirty: false,
                described: true,
                value_pool: Vec::new(),
            });
            Some(parent_entity.to_string())
        } else {
            None
        };

        // Attribute columns: sample without replacement from the pool.
        let (c_lo, c_hi) = profile.cols_per_table;
        let n_attrs = c_lo + rng.next_below(c_hi - c_lo + 1);
        let mut pool_order: Vec<usize> = (0..ATTR_POOL.len()).collect();
        tinynn::rng::shuffle(&mut pool_order, rng);
        for &pi in pool_order.iter().take(n_attrs) {
            let spec = &ATTR_POOL[pi];
            let dirty = rng.next_bool(profile.p_dirty);
            let name = if dirty {
                abbreviate(spec.base)
            } else {
                spec.base.to_string()
            };
            // Dirty columns may additionally lose their description; a
            // clean name keeps its description (it *is* readable).
            let described = if dirty {
                !rng.next_bool(profile.p_missing_desc)
            } else {
                true
            };
            // Avoid literal duplicate column names after abbreviation.
            if columns.iter().any(|c| c.name.eq_ignore_ascii_case(&name)) {
                continue;
            }
            let value_pool = if spec.ty == DataType::Text {
                text_pool(spec.base)
            } else {
                Vec::new()
            };
            columns.push(ColumnMeta {
                name,
                spec: Some(spec),
                ty: spec.ty,
                role: ColumnRole::Attribute,
                dirty,
                described,
                value_pool,
            });
        }

        metas.push(TableMeta {
            name: entity.to_string(),
            entity,
            columns,
            parent,
        });
    }

    // Materialise schemas.
    for tm in &metas {
        let mut schema = TableSchema::new(tm.name.clone())
            .description(format!("{} records", singular(tm.entity)));
        for cm in &tm.columns {
            let mut def = ColumnDef::new(cm.name.clone(), cm.ty);
            if cm.role == ColumnRole::PrimaryKey {
                def = def.primary_key();
            }
            if cm.described {
                let text = match (&cm.role, cm.spec) {
                    (ColumnRole::PrimaryKey, _) => {
                        format!("unique identifier of the {}", singular(tm.entity))
                    }
                    (ColumnRole::ForeignKey(p), _) => {
                        format!("reference to the {} table", p)
                    }
                    (_, Some(spec)) => describe(spec, tm.entity),
                    _ => String::new(),
                };
                def = def.description(text);
            }
            schema = schema.column(def);
        }
        db.create_table(schema).expect("generated schema is valid");
    }
    for tm in &metas {
        if let Some(parent) = &tm.parent {
            let fk_col = tm.fk_to(parent).expect("fk column exists").name.clone();
            let parent_pk = metas
                .iter()
                .find(|m| &m.name == parent)
                .expect("parent table exists")
                .pk()
                .to_string();
            db.add_foreign_key(ForeignKey {
                from_table: tm.name.clone(),
                from_column: fk_col,
                to_table: parent.clone(),
                to_column: parent_pk,
            })
            .expect("fk endpoints exist");
        }
    }

    // Populate rows. Parents are created before children in `metas`
    // order only if the parent index precedes — which generate() ensures
    // by always pointing FKs at earlier tables.
    let (r_lo, r_hi) = profile.rows_per_table;
    let mut row_counts: Vec<usize> = Vec::with_capacity(metas.len());
    for tm in &metas {
        let n_rows = r_lo + rng.next_below(r_hi - r_lo + 1);
        row_counts.push(n_rows);
        for pk in 1..=n_rows {
            let mut row = Vec::with_capacity(tm.columns.len());
            for cm in &tm.columns {
                let v = match &cm.role {
                    ColumnRole::PrimaryKey => Value::Int(pk as i64),
                    ColumnRole::ForeignKey(parent) => {
                        let pidx = metas
                            .iter()
                            .position(|m| &m.name == parent)
                            .expect("parent exists");
                        let parent_rows = row_counts[pidx];
                        Value::Int(1 + rng.next_below(parent_rows) as i64)
                    }
                    ColumnRole::Attribute => {
                        let spec = cm.spec.expect("attributes have specs");
                        // ~3% NULLs: realistic dirt without breaking joins.
                        if rng.next_bool(0.03) {
                            Value::Null
                        } else {
                            match spec.ty {
                                DataType::Text => {
                                    cm.value_pool[rng.next_below(cm.value_pool.len())].clone()
                                }
                                DataType::Bool => Value::Bool(rng.next_bool(0.5)),
                                _ => numeric_value(spec, rng),
                            }
                        }
                    }
                };
                row.push(v);
            }
            db.insert(&tm.name, row).expect("generated row is valid");
        }
    }

    GeneratedDb {
        db,
        meta: DbMeta {
            name: db_name,
            domain: domain.name,
            tables: metas,
            revision: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::DOMAINS;

    fn small_profile() -> BenchmarkProfile {
        BenchmarkProfile {
            rows_per_table: (20, 40),
            ..BenchmarkProfile::bird_like()
        }
    }

    fn gen(seed: u64) -> GeneratedDb {
        let mut rng = SplitMix64::new(seed);
        generate_db(&DOMAINS[0], 0, &small_profile(), &mut rng)
    }

    #[test]
    fn generated_db_is_well_formed() {
        let g = gen(1);
        assert!(g.db.tables().len() >= 3);
        assert_eq!(g.db.tables().len(), g.meta.tables.len());
        for tm in &g.meta.tables {
            let schema = g.db.table(&tm.name).expect("schema exists");
            assert_eq!(schema.columns.len(), tm.columns.len());
            // PK exists and is the first column.
            assert_eq!(tm.pk(), tm.columns[0].name);
            // Data present.
            assert!(!g.db.table_data(&tm.name).unwrap().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen(7);
        let b = gen(7);
        assert_eq!(a.db.to_ddl(), b.db.to_ddl());
        assert_eq!(a.db.total_rows(), b.db.total_rows());
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen(1);
        let b = gen(2);
        assert!(a.db.to_ddl() != b.db.to_ddl() || a.db.total_rows() != b.db.total_rows());
    }

    #[test]
    fn foreign_keys_are_resolvable_and_joinable() {
        let g = gen(3);
        for fk in g.db.foreign_keys() {
            // Every FK value must reference an existing parent pk.
            let child = g.db.table_data(&fk.from_table).unwrap();
            let child_schema = g.db.table(&fk.from_table).unwrap();
            let cidx = child_schema.column_index(&fk.from_column).unwrap();
            let parent = g.db.table_data(&fk.to_table).unwrap();
            let n_parent = parent.len() as i64;
            for row in child.iter() {
                if let Value::Int(v) = &row[cidx] {
                    assert!(*v >= 1 && *v <= n_parent, "dangling FK value {v}");
                }
            }
        }
    }

    #[test]
    fn dirty_columns_appear_at_roughly_requested_rate() {
        let mut rng = SplitMix64::new(11);
        let profile = BenchmarkProfile {
            p_dirty: 0.5,
            rows_per_table: (5, 10),
            ..BenchmarkProfile::bird_like()
        };
        let mut dirty = 0usize;
        let mut total = 0usize;
        for (i, d) in crate::domains::pick_domains(20).into_iter().enumerate() {
            let g = generate_db(d, i, &profile, &mut rng);
            for t in &g.meta.tables {
                for c in t.attributes() {
                    total += 1;
                    dirty += c.dirty as usize;
                }
            }
        }
        let rate = dirty as f64 / total as f64;
        assert!((rate - 0.5).abs() < 0.1, "dirty rate {rate}");
    }

    #[test]
    fn text_predicate_values_exist_in_data() {
        let g = gen(5);
        for tm in &g.meta.tables {
            for cm in tm.text_attrs() {
                // At least one pool value must appear in the data (pools
                // have 8 values, tables ≥ 20 rows, so collisions are
                // essentially certain; this guards the invariant the
                // intent generator relies on).
                let schema = g.db.table(&tm.name).unwrap();
                let cidx = schema.column_index(&cm.name).unwrap();
                let data = g.db.table_data(&tm.name).unwrap();
                let any_hit = data
                    .iter()
                    .any(|row| cm.value_pool.iter().any(|pv| &row[cidx] == pv));
                assert!(any_hit, "no pool value in data for {}.{}", tm.name, cm.name);
            }
        }
    }

    #[test]
    fn join_edges_match_foreign_keys() {
        let g = gen(9);
        assert_eq!(g.meta.join_edges().len(), g.db.foreign_keys().len());
    }

    #[test]
    fn underspecified_requires_dirty_and_undescribed() {
        let g = gen(13);
        for tm in &g.meta.tables {
            for cm in &tm.columns {
                if cm.underspecified() {
                    assert!(cm.dirty && !cm.described);
                }
            }
        }
    }
}
