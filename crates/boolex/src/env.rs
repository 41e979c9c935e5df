//! Variable environments: truth-value assignments.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hash::Hash;

/// A (possibly partial) mapping from variables to truth values.
///
/// Used when the coordinator has fully resolved the vectors of a fragment and
/// pushes concrete truth values back to the sites (Stage 2/3 of PaX3,
/// Stage 2 of PaX2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment<V: Ord> {
    values: BTreeMap<V, bool>,
}

impl<V: Ord> Default for Assignment<V> {
    fn default() -> Self {
        Assignment { values: BTreeMap::new() }
    }
}

impl<V: Clone + Eq + Ord + Hash> Assignment<V> {
    /// An empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `var` to `value`, replacing any previous binding.
    pub fn set(&mut self, var: V, value: bool) {
        self.values.insert(var, value);
    }

    /// Look up a variable.
    pub fn get(&self, var: &V) -> Option<bool> {
        self.values.get(var).copied()
    }

    /// Is the assignment empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Merge another assignment into this one. Later bindings win on
    /// conflict, mirroring how fresher information from the coordinator
    /// overrides stale local guesses (in practice the two never disagree).
    pub fn extend(&mut self, other: &Assignment<V>) {
        for (k, v) in &other.values {
            self.values.insert(k.clone(), *v);
        }
    }

    /// Iterate over the bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, bool)> {
        self.values.iter().map(|(k, v)| (k, *v))
    }

    /// Build an assignment from an iterator of bindings.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(bindings: impl IntoIterator<Item = (V, bool)>) -> Self {
        Assignment { values: bindings.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_set_get_extend() {
        let mut a: Assignment<&str> = Assignment::new();
        assert!(a.is_empty());
        a.set("x", true);
        a.set("y", false);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(&"x"), Some(true));
        assert_eq!(a.get(&"z"), None);

        let mut b = Assignment::new();
        b.set("y", true);
        b.set("z", false);
        a.extend(&b);
        assert_eq!(a.get(&"y"), Some(true));
        assert_eq!(a.get(&"z"), Some(false));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn assignment_from_iter_and_iter_round_trip() {
        let a = Assignment::from_iter(vec![("b", false), ("a", true)]);
        let collected: Vec<_> = a.iter().map(|(k, v)| (*k, v)).collect();
        assert_eq!(collected, vec![("a", true), ("b", false)]);
    }
}
