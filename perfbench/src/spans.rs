//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans are recorded only by the benchmark itself, around public calls
//! (`HybridSystem::new`, `run_counted`, `run_sampled`, `run_drained`, the
//! per-layer replay loops); nothing inside the simulator's crates is
//! instrumented. They stay in memory and are written out once, at the end
//! of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id.
#[must_use]
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Nanoseconds since the first call in this process.
#[must_use]
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// Id of the enclosing span (0 for a root).
    pub parent: u64,
    /// What was called.
    pub name: String,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
}

impl Open {
    /// Starts a span named `name` under `parent` (0 = root).
    #[must_use]
    pub fn start(name: impl Into<String>, parent: u64) -> Open {
        Open {
            id: next_id(),
            parent,
            name: name.into(),
            start_ns: now_ns(),
        }
    }

    /// The id children should name as their parent.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span.
    #[must_use]
    pub fn end(self) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        }
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part covered by its direct children.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name.clone()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut s = String::new();
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            sp.id,
            sp.parent,
            sp.name.replace('\\', "\\\\").replace('"', "\\\""),
            sp.start_ns,
            sp.end_ns
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "pass".into(),
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "run".into(),
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                id: 3,
                parent: 2,
                name: "inner".into(),
                start_ns: 20,
                end_ns: 30,
            },
        ];
        let t = self_times(&spans);
        assert!((t["pass"] - 40e-9).abs() < 1e-15);
        assert!((t["run"] - 50e-9).abs() < 1e-15);
        assert!((t["inner"] - 10e-9).abs() < 1e-15);
    }
}
