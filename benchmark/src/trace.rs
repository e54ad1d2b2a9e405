//! In-memory spans for the traced pass.
//!
//! Spans are recorded from this package's own files, around the calls into
//! each crate's public functions: name, start, end and the span that caused
//! it. Boundaries crossed millions of times a repeat (one scheduler step, one
//! message) are not one span each but an *aggregate* node — count, total and
//! maximum — attached under the span they happened in. A node's self time is
//! its total minus the totals of its children, so a trace file accounts for
//! the traced repeat top down. Everything stays in memory until
//! [`Tracer::to_json`] at exit.

use crate::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Count, total and maximum of one kind of timed call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl Agg {
    pub fn add(&mut self, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Mean nanoseconds per call; 0 when nothing was timed.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// An [`Agg`] that wrappers moved into another thread's or crate's
/// ownership (a boxed `Transport`) can still be read from outside. The
/// counters publish no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct SharedAgg {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SharedAgg {
    pub fn add(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn get(&self) -> Agg {
        Agg {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Index of a node in its [`Tracer`].
pub type NodeId = usize;

#[derive(Clone, Debug)]
struct Node {
    name: &'static str,
    /// Which case of the workload the node belongs to (may be empty).
    label: String,
    parent: Option<NodeId>,
    /// `Some((start, end))` for a span, `None` for an aggregate.
    interval_ns: Option<(u64, u64)>,
    agg: Agg,
}

/// The span store of one traced repeat.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    nodes: Vec<Node>,
    open: Vec<NodeId>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            nodes: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the span open around
    /// it (a root span when none is). Returns `f`'s result and the span's
    /// duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let id = self.nodes.len();
        let start = self.now_ns();
        self.nodes.push(Node {
            name,
            label: label.to_string(),
            parent: self.open.last().copied(),
            interval_ns: Some((start, start)),
            agg: Agg::default(),
        });
        self.open.push(id);
        let result = f(self);
        let end = self.now_ns();
        self.open.pop();
        let node = &mut self.nodes[id];
        node.interval_ns = Some((start, end));
        node.agg = Agg {
            count: 1,
            total_ns: end - start,
            max_ns: end - start,
        };
        (result, Duration::from_nanos(end - start))
    }

    /// Attaches an aggregate under `parent`, or under the innermost open
    /// span when `parent` is `None` (a root aggregate when no span is open).
    pub fn aggregate(
        &mut self,
        name: &'static str,
        label: &str,
        parent: Option<NodeId>,
        agg: Agg,
    ) -> NodeId {
        self.nodes.push(Node {
            name,
            label: label.to_string(),
            parent: parent.or(self.open.last().copied()),
            interval_ns: None,
            agg,
        });
        self.nodes.len() - 1
    }

    /// Total time of the children of `id`.
    fn children_ns(&self, id: NodeId) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent == Some(id))
            .map(|n| n.agg.total_ns)
            .sum()
    }

    /// Self time of a node: its total minus the part its children cover.
    /// Saturating, because a sampled child estimate may overshoot.
    pub fn self_ns(&self, id: NodeId) -> u64 {
        self.nodes[id]
            .agg
            .total_ns
            .saturating_sub(self.children_ns(id))
    }

    /// Summed total of the root nodes: what the trace accounts for.
    pub fn root_total_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none())
            .map(|n| n.agg.total_ns)
            .sum()
    }

    /// Summed self time of every node whose name starts with `prefix` and
    /// whose label is `label`.
    pub fn self_ns_by_prefix_and_label(&self, prefix: &str, label: &str) -> u64 {
        (0..self.nodes.len())
            .filter(|&id| self.nodes[id].name.starts_with(prefix) && self.nodes[id].label == label)
            .map(|id| self.self_ns(id))
            .sum()
    }

    /// Summed total of the root nodes labelled `label`.
    pub fn root_total_ns_by_label(&self, label: &str) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.parent.is_none() && n.label == label)
            .map(|n| n.agg.total_ns)
            .sum()
    }

    /// The trace file: a header object (`header` is a list of already
    /// rendered `"key": value` members) and one object per node.
    pub fn to_json(&self, header: &[String]) -> String {
        let mut out = String::from("{\n");
        for member in header {
            out.push_str("  ");
            out.push_str(member);
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  \"root_total_ns\": {},\n  \"nodes\": [\n",
            self.root_total_ns()
        ));
        for (id, node) in self.nodes.iter().enumerate() {
            let (kind, start, end) = match node.interval_ns {
                Some((start, end)) => ("span", start.to_string(), end.to_string()),
                None => ("aggregate", "null".to_string(), "null".to_string()),
            };
            out.push_str(&format!(
                "    {{\"id\": {id}, \"name\": {}, \"label\": {}, \"parent\": {}, \
                 \"kind\": \"{kind}\", \"start_ns\": {start}, \"end_ns\": {end}, \
                 \"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"self_ns\": {}}}{}\n",
                json::quote(node.name),
                json::quote(&node.label),
                node.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                node.agg.count,
                node.agg.total_ns,
                node.agg.max_ns,
                self.self_ns(id),
                if id + 1 == self.nodes.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(count: u64, total_ns: u64) -> Agg {
        Agg {
            count,
            total_ns,
            max_ns: total_ns,
        }
    }

    #[test]
    fn self_time_is_total_minus_children() {
        let mut t = Tracer::new();
        // Build the tree by hand so the arithmetic is exact:
        // drive(1000) ⊃ sched_step(700) ⊃ blocks(450); drive ⊃ other(100).
        let (_, _) = t.span("workloads.drive", "case", |_| ());
        t.nodes[0].agg = agg(1, 1000);
        let step = t.aggregate("fpsm.sched_step", "case", Some(0), agg(10, 700));
        let blocks = t.aggregate("adversary.blocks", "case", Some(step), agg(90, 450));
        let other = t.aggregate("other", "case", Some(0), agg(1, 100));
        assert_eq!(t.self_ns(0), 200);
        assert_eq!(t.self_ns(step), 250);
        assert_eq!(t.self_ns(blocks), 450);
        assert_eq!(t.self_ns(other), 100);
        // Self times partition the root total.
        let sum: u64 = (0..4).map(|id| t.self_ns(id)).sum();
        assert_eq!(sum, t.root_total_ns());
        assert_eq!(t.root_total_ns(), 1000);
    }

    #[test]
    fn an_overshooting_child_estimate_saturates_instead_of_wrapping() {
        let mut t = Tracer::new();
        let parent = t.aggregate("fpsm.sched_step", "", None, agg(4, 100));
        t.aggregate("adversary.blocks", "", Some(parent), agg(64, 130));
        assert_eq!(t.self_ns(parent), 0);
    }

    #[test]
    fn spans_nest_under_the_open_span_and_aggregates_follow() {
        let mut t = Tracer::new();
        t.span("outer", "x", |t| {
            t.span("inner", "x", |t| {
                t.aggregate("leaf", "x", None, agg(3, 0));
            });
        });
        t.aggregate("root-agg", "y", None, agg(1, 5));
        assert_eq!(t.nodes[0].parent, None);
        assert_eq!(t.nodes[1].parent, Some(0));
        assert_eq!(t.nodes[2].parent, Some(1));
        assert_eq!(t.nodes[3].parent, None);
        let (start, end) = t.nodes[1].interval_ns.unwrap();
        let (outer_start, outer_end) = t.nodes[0].interval_ns.unwrap();
        assert!(outer_start <= start && start <= end && end <= outer_end);
        assert_eq!(t.root_total_ns_by_label("y"), 5);
        let parsed = crate::json::parse(&t.to_json(&["\"workload\": \"w\"".to_string()])).unwrap();
        let crate::json::Value::Array(nodes) = parsed.get("nodes").unwrap() else {
            panic!("nodes is an array");
        };
        assert_eq!(nodes.len(), 4);
        assert_eq!(
            nodes[3].get("kind"),
            Some(&crate::json::Value::String("aggregate".into()))
        );
    }

    #[test]
    fn aggs_track_count_total_and_max() {
        let mut a = Agg::default();
        assert_eq!(a.mean_ns(), 0.0);
        a.add(Duration::from_nanos(10));
        a.add(Duration::from_nanos(30));
        assert_eq!((a.count, a.total_ns, a.max_ns), (2, 40, 30));
        assert_eq!(a.mean_ns(), 20.0);
        let shared = SharedAgg::default();
        shared.add(Duration::from_nanos(7));
        shared.add(Duration::from_nanos(5));
        assert_eq!(
            shared.get(),
            Agg {
                count: 2,
                total_ns: 12,
                max_ns: 7
            }
        );
    }
}
