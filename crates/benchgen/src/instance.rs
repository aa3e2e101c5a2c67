//! The benchmark instance type: one (question, gold SQL, gold links)
//! triple plus the latent structure the LLM simulator consumes.

use nanosql::ast::SelectStmt;
use serde::{Deserialize, Serialize};

/// Question difficulty, following BIRD's three-way labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Difficulty {
    Simple,
    Moderate,
    Challenging,
}

impl Difficulty {
    pub fn label(self) -> &'static str {
        match self {
            Difficulty::Simple => "simple",
            Difficulty::Moderate => "moderate",
            Difficulty::Challenging => "challenging",
        }
    }

    pub const ALL: [Difficulty; 3] = [
        Difficulty::Simple,
        Difficulty::Moderate,
        Difficulty::Challenging,
    ];
}

/// A reference to a schema element: a table, or a column of a table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SchemaElementRef {
    pub table: String,
    /// `None` = the table itself (table-linking target).
    pub column: Option<String>,
}

impl SchemaElementRef {
    pub fn table(t: impl Into<String>) -> Self {
        Self {
            table: t.into(),
            column: None,
        }
    }

    pub fn column(t: impl Into<String>, c: impl Into<String>) -> Self {
        Self {
            table: t.into(),
            column: Some(c.into()),
        }
    }

    pub fn is_table(&self) -> bool {
        self.column.is_none()
    }

    /// `self.to_string() == s`, without formatting: `table` for a
    /// table, `table.column` for a column.
    pub fn display_eq(&self, s: &str) -> bool {
        match &self.column {
            None => self.table == s,
            Some(c) => s
                .strip_prefix(self.table.as_str())
                .and_then(|rest| rest.strip_prefix('.'))
                .is_some_and(|rest| rest == c),
        }
    }
}

impl std::fmt::Display for SchemaElementRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.column {
            Some(c) => write!(f, "{}.{}", self.table, c),
            None => write!(f, "{}", self.table),
        }
    }
}

/// A plausible *wrong* linking target for a mention, with a weight in
/// `(0, 1]` reflecting how attractive the confusion is (lexical overlap,
/// missing metadata, abbreviation opacity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Confusable {
    pub alt: SchemaElementRef,
    pub weight: f64,
}

/// Ground-truth link between a question mention and a schema element,
/// annotated with its confusion set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldLink {
    pub element: SchemaElementRef,
    /// The natural-language phrase the question used for this element.
    pub mention: String,
    pub confusables: Vec<Confusable>,
    /// Mention maps to ≥ 2 in-scope elements (Figure 1a ambiguity).
    pub ambiguous: bool,
    /// Element name is abbreviated *and* its description is missing
    /// (Figure 1b underspecification).
    pub underspecified: bool,
}

impl GoldLink {
    /// Total confusion mass — the simulator's per-link risk driver.
    pub fn confusion_mass(&self) -> f64 {
        self.confusables.iter().map(|c| c.weight).sum()
    }
}

/// One benchmark example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Instance {
    /// Stable unique id within the benchmark.
    pub id: u64,
    pub db_name: String,
    pub question: String,
    pub difficulty: Difficulty,
    pub gold_sql: SelectStmt,
    /// Sorted, deduplicated gold table names.
    pub gold_tables: Vec<String>,
    /// Sorted, deduplicated `(table, column)` pairs.
    pub gold_columns: Vec<(String, String)>,
    /// Per-element link annotations (tables first, then columns).
    pub links: Vec<GoldLink>,
    /// BIRD-style external-knowledge hint, when present.
    pub external_knowledge: Option<String>,
    /// Latent instance hardness in `[0, 1]`; aggregates ambiguity,
    /// underspecification, schema size and structural complexity.
    pub hardness: f64,
}

impl Instance {
    /// Links targeting tables.
    pub fn table_links(&self) -> impl Iterator<Item = &GoldLink> {
        self.links.iter().filter(|l| l.element.is_table())
    }

    /// Links targeting columns.
    pub fn column_links(&self) -> impl Iterator<Item = &GoldLink> {
        self.links.iter().filter(|l| !l.element.is_table())
    }

    /// Count of links flagged ambiguous or underspecified.
    pub fn risk_count(&self) -> usize {
        self.links
            .iter()
            .filter(|l| l.ambiguous || l.underspecified)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_ref_display() {
        assert_eq!(SchemaElementRef::table("races").to_string(), "races");
        assert_eq!(
            SchemaElementRef::column("races", "name").to_string(),
            "races.name"
        );
    }

    #[test]
    fn confusion_mass_sums_weights() {
        let link = GoldLink {
            element: SchemaElementRef::table("races"),
            mention: "race".into(),
            confusables: vec![
                Confusable {
                    alt: SchemaElementRef::table("lapTimes"),
                    weight: 0.5,
                },
                Confusable {
                    alt: SchemaElementRef::table("results"),
                    weight: 0.25,
                },
            ],
            ambiguous: true,
            underspecified: false,
        };
        assert!((link.confusion_mass() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn difficulty_labels() {
        assert_eq!(Difficulty::Simple.label(), "simple");
        assert_eq!(Difficulty::ALL.len(), 3);
    }
}
