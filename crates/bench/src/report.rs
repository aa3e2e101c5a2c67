//! Experiment reports: paper-vs-measured rows, console rendering, and
//! JSON persistence for EXPERIMENTS.md regeneration.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One comparable quantity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    pub label: String,
    /// The paper's number (None = the paper gives no figure for this
    /// row, e.g. our extra diagnostics).
    pub paper: Option<f64>,
    /// Our measured number (None = not measurable in this setup, e.g.
    /// leaderboard entries we only cite).
    pub measured: Option<f64>,
    /// Display unit ("%", "AUC", "count", …).
    pub unit: String,
}

impl Row {
    pub fn new(
        label: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        unit: &str,
    ) -> Self {
        Self {
            label: label.into(),
            paper,
            measured,
            unit: unit.into(),
        }
    }
}

/// A full experiment report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Stable id ("table1", "figure6", …).
    pub id: String,
    pub title: String,
    pub rows: Vec<Row>,
    /// Free-form commentary (shape checks, substitutions, caveats).
    pub notes: Vec<String>,
    /// Scale the harness ran at (1.0 = paper-sized workload).
    pub scale: f64,
    pub seed: u64,
}

impl Report {
    pub fn new(id: &str, title: &str, scale: f64, seed: u64) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
            scale,
            seed,
        }
    }

    pub fn push(
        &mut self,
        label: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        unit: &str,
    ) {
        self.rows.push(Row::new(label, paper, measured, unit));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn fmt_opt(v: Option<f64>) -> String {
        match v {
            Some(x) => format!("{x:>8.2}"),
            None => format!("{:>8}", "—"),
        }
    }

    /// Render for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} — {} (scale {}, seed {:#x})",
            self.id, self.title, self.scale, self.seed
        );
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        let _ = writeln!(
            out,
            "{:<width$}  {:>8}  {:>8}  unit",
            "row", "paper", "measured"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$}  {}  {}  {}",
                r.label,
                Self::fmt_opt(r.paper),
                Self::fmt_opt(r.measured),
                r.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as a Markdown section (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| row | paper | measured | unit |");
        let _ = writeln!(out, "|---|---:|---:|---|");
        for r in &self.rows {
            let p = r.paper.map_or("—".to_string(), |x| format!("{x:.2}"));
            let m = r.measured.map_or("—".to_string(), |x| format!("{x:.2}"));
            let _ = writeln!(out, "| {} | {} | {} | {} |", r.label, p, m, r.unit);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        let _ = writeln!(out);
        out
    }

    /// Persist to `results/<id>.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("report serialises");
        std::fs::write(path, json)
    }

    /// Largest |paper − measured| over rows where both sides exist.
    pub fn max_abs_gap(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| match (r.paper, r.measured) {
                (Some(p), Some(m)) => Some((p - m).abs()),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Report {
        let mut r = Report::new("table_x", "Demo", 1.0, 7);
        r.push("EM bird", Some(79.70), Some(81.2), "%");
        r.push("leaderboard", Some(73.01), None, "%");
        r.note("substituted workload");
        r
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let text = demo().render();
        assert!(text.contains("EM bird"));
        assert!(text.contains("79.70"));
        assert!(text.contains("81.20"));
        assert!(text.contains("substituted workload"));
        assert!(text.contains("—"), "missing values render as dashes");
    }

    #[test]
    fn markdown_is_table_shaped() {
        let md = demo().render_markdown();
        assert!(md.contains("| row | paper | measured | unit |"));
        assert!(md.contains("| EM bird | 79.70 | 81.20 | % |"));
    }

    #[test]
    fn max_gap_ignores_one_sided_rows() {
        let r = demo();
        assert!((r.max_abs_gap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip() {
        let r = demo();
        let json = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), r.rows.len());
        assert_eq!(back.id, r.id);
    }
}
