//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (name, start, end, parent, home), kept in memory, and written out
//! when the run ends. A layer's self time is its span's duration minus
//! the time covered by its child spans. With tracing off every call is a
//! plain pass-through that reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub home: Option<u32>,
}

/// Records spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str, home: Option<u32>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            home,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, home: Option<u32>, f: impl FnOnce() -> T) -> T {
        self.enter(name, home);
        let out = f();
        self.exit();
        out
    }

    /// Per span name, for spans named `root` and their descendants:
    /// (summed self time in seconds, span count). Self time is a span's
    /// duration minus its direct children's durations (children on one
    /// thread never overlap).
    pub fn self_times_under(&self, root: &str) -> BTreeMap<String, (f64, u64)> {
        let mut inside = vec![false; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            inside[i] = span.name == root || span.parent.is_some_and(|p| inside[p]);
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            let entry = out.entry(span.name.to_string()).or_default();
            entry.0 += own as f64 * 1e-9;
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for span in &self.spans {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.name, span.start_ns, span.end_ns
            );
            if let Some(p) = span.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(h) = span.home {
                let _ = write!(out, ",\"home\":{h}");
            }
            out.push_str("}\n");
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", None);
        t.time("inner", Some(3), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit();
        let times = t.self_times_under("outer");
        let inner = times["inner"].0;
        let outer = times["outer"].0;
        assert!(inner >= 0.005 && outer >= 0.005, "{times:?}");
        let total = t.spans[0].end_ns - t.spans[0].start_ns;
        assert!(((inner + outer) * 1e9 - total as f64).abs() < 1e3);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", None, || 7), 7);
        assert!(t.spans.is_empty());
    }
}
