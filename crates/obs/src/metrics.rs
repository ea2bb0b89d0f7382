//! The unified metrics registry: a named-counter table that every layer's
//! statistics fold into (`mpi.*` from `ProtocolStats`, `wasm.*` from the
//! embedder's lowering counts, `trace.*` from the recorder itself),
//! queried as a point-in-time snapshot.

use std::collections::BTreeMap;

/// An ordered name → counter table. Cheap to clone, merge, and render.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricSet {
    entries: BTreeMap<&'static str, u64>,
}

impl MetricSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate `value` into `name` (creating it at zero first).
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.entries.entry(name).or_insert(0) += value;
    }

    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.get(name).copied()
    }

    /// Fold another set into this one, summing shared names.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, v) in &other.entries {
            self.add(name, *v);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().map(|(n, v)| (*n, *v))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as an aligned two-column text table (the CLI's `--metrics`
    /// output).
    pub fn render_table(&self) -> String {
        let width = self.entries.keys().map(|n| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, v) in &self.entries {
            out.push_str(&format!("{name:<width$}  {v}\n"));
        }
        out
    }
}

impl FromIterator<(&'static str, u64)> for MetricSet {
    fn from_iter<T: IntoIterator<Item = (&'static str, u64)>>(iter: T) -> Self {
        let mut m = MetricSet::new();
        for (n, v) in iter {
            m.add(n, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_merge_accumulate() {
        let mut a: MetricSet = [("x", 1), ("y", 2)].into_iter().collect();
        let b: MetricSet = [("y", 3), ("z", 4)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get("x"), Some(1));
        assert_eq!(a.get("y"), Some(5));
        assert_eq!(a.get("z"), Some(4));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn table_is_sorted_and_aligned() {
        let m: MetricSet = [("bb", 2), ("a", 1)].into_iter().collect();
        let t = m.render_table();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines, vec!["a   1", "bb  2"]);
    }
}
