//! Named metrics and the result record a run prints.

use causaliot::telemetry::json::JsonValue;

/// Metrics in the order they were measured, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    items: Vec<(String, &'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(item) => {
                item.1 = unit;
                item.2 = value;
            }
            None => self.items.push((name.to_string(), unit, value)),
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> {
        self.items.iter().map(|(n, u, v)| (n.as_str(), *u, *v))
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _, _)| n == name).map(|i| i.2)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        for (name, unit, value) in &self.items {
            let mut entry = JsonValue::object();
            entry.push("value", *value).push("unit", *unit);
            obj.push(name, entry);
        }
        obj
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Context kept beside the metrics (sample counts, lateness, ...).
    pub notes: Vec<(String, JsonValue)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.notes.push((key.to_string(), value.into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (`trace` off) or per-layer (`trace` on) metrics.
    pub fn result_line(&self, trace: bool) -> String {
        let mut obj = JsonValue::object();
        obj.push("correct", self.correct())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push(
                "metrics",
                if trace {
                    self.layers.to_json()
                } else {
                    self.e2e.to_json()
                },
            );
        obj.render()
    }
}
