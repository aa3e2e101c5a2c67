//! The run's result line and its run record.

use std::fmt::Write;

pub enum Value {
    Num(f64),
    Text(String),
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Failed output checks, one line each; any makes `correct` false.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub record: Vec<(&'static str, Value)>,
}

impl Report {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &'static str, value: impl Into<Value>) {
        self.record.push((key, value.into()));
    }

    /// The run record: everything two runs must share to be compared,
    /// plus the counts behind the metrics.
    pub fn record_json(&self) -> String {
        let mut s = String::from("{");
        for (k, (key, value)) in self.record.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{key}\": {}", json_value(value));
        }
        s.push('}');
        s
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed
        );
        for (k, (name, value, unit)) in self.metrics.iter().enumerate() {
            if k > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        s.push_str("}}");
        s
    }
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Num(x) => json_number(*x),
        Value::Text(t) => format!("\"{}\"", t.replace('\\', "\\\\").replace('"', "\\\"")),
    }
}

/// Every digit Rust's shortest round-trip formatting gives; JSON has
/// no NaN or infinity, so those become 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}
