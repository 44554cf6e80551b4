//! Folds an `obs` span tree into per-layer sums: total time, self time
//! (a span's duration minus the part its children cover), counts and summed
//! attributes.

use obs::{AttrValue, SpanRecord};
use std::collections::HashMap;

/// The spans of one traced pass, indexed for folding.
pub struct Trace {
    spans: Vec<SpanRecord>,
    index: HashMap<u64, usize>,
    child_ns: HashMap<u64, u64>,
}

impl Trace {
    /// Indexes `spans` (in any order).
    pub fn new(spans: Vec<SpanRecord>) -> Self {
        let index = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns;
            }
        }
        Self {
            spans,
            index,
            child_ns,
        }
    }

    /// Every span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Summed self time of the spans called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| self.self_ns(s)).sum::<u64>() as f64 / 1e9
    }

    fn self_ns(&self, span: &SpanRecord) -> u64 {
        let children = self.child_ns.get(&span.id).copied().unwrap_or(0);
        span.duration_ns.saturating_sub(children)
    }

    /// Summed self time of every span in the trees rooted at the spans
    /// called `root`, in seconds: the phase sum of those trees.
    pub fn tree_self_s(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| self.ancestor_or_self(s, root).is_some())
            .map(|s| self.self_ns(s))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Sum of the integer attribute `key` over the spans called `name`.
    pub fn attr_sum(&self, name: &str, key: &str) -> u64 {
        self.named(name).filter_map(|s| attr_u64(s, key)).sum()
    }

    /// The parent of `span`, if it was recorded.
    pub fn parent(&self, span: &SpanRecord) -> Option<&SpanRecord> {
        span.parent
            .and_then(|p| self.index.get(&p))
            .map(|&i| &self.spans[i])
    }

    /// The nearest span called `name` on the path from `span` to its root,
    /// `span` itself included.
    pub fn ancestor_or_self<'a>(
        &'a self,
        span: &'a SpanRecord,
        name: &str,
    ) -> Option<&'a SpanRecord> {
        let mut current = Some(span);
        while let Some(s) = current {
            if s.name == name {
                return Some(s);
            }
            current = self.parent(s);
        }
        None
    }

    /// For every span called `group`, the integer attribute `key` of the
    /// latest-starting span called `name` inside it.
    pub fn last_attr_per<'a>(
        &'a self,
        group: &'a str,
        name: &'a str,
        key: &'a str,
    ) -> impl Iterator<Item = (&'a SpanRecord, u64)> + 'a {
        let mut last: HashMap<u64, &SpanRecord> = HashMap::new();
        for span in self.named(name) {
            let Some(owner) = self
                .parent(span)
                .and_then(|p| self.ancestor_or_self(p, group))
            else {
                continue;
            };
            let entry = last.entry(owner.id).or_insert(span);
            if span.start_ns > entry.start_ns {
                *entry = span;
            }
        }
        self.named(group).filter_map(move |g| {
            let span = last.get(&g.id)?;
            Some((g, attr_u64(span, key)?))
        })
    }
}

/// The integer attribute `key` of `span`.
pub fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

/// The string attribute `key` of `span`.
pub fn attr_str<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(x) if *k == key => Some(x.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            start_ns: start,
            duration_ns: dur,
            attrs: vec![("n", AttrValue::U64(id))],
        }
    }

    #[test]
    fn self_time_subtracts_children_and_tree_sum_equals_root() {
        let trace = Trace::new(vec![
            span(2, Some(1), "child", 10, 300),
            span(3, Some(1), "child", 400, 200),
            span(4, Some(3), "leaf", 450, 50),
            span(1, None, "root", 0, 1000),
        ]);
        assert_eq!(trace.count("child"), 2);
        assert!((trace.self_s("root") - 500e-9).abs() < 1e-15);
        assert!((trace.self_s("child") - 450e-9).abs() < 1e-15);
        assert!((trace.tree_self_s("root") - trace.total_s("root")).abs() < 1e-15);
        assert_eq!(trace.attr_sum("child", "n"), 5);
        let last: Vec<u64> = trace
            .last_attr_per("root", "child", "n")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(last, vec![3]);
    }
}
