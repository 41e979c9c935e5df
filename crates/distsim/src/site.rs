//! A simulated site: the fragments it stores plus scratch state kept between
//! visits.
//!
//! Fragment storage is **epoch-versioned**: a site keeps, per fragment, a
//! short list of immutable snapshots tagged with the update epoch that
//! installed them. A visit pinned to epoch `e` reads the newest snapshot
//! installed at or before `e`, so an update round building epoch `e+1` never
//! disturbs readers still executing against epoch `e`. Old snapshots are
//! dropped by [`SiteLocal::retire_below`] once the coordinator proves no
//! in-flight execution can still pin them.

use paxml_fragment::{Fragment, FragmentId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The epoch sentinel that always resolves to a fragment's newest snapshot.
/// A visit outside an epoch-pinned server reads and writes at this epoch:
/// reads see the latest version and updates replace it in place.
pub const LATEST_EPOCH: u64 = u64::MAX;

/// Identifier of a site (`S0`, `S1`, … in the paper's figures).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SiteId(pub usize);

impl SiteId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The state a site keeps locally.
///
/// Besides its fragments, a site may keep arbitrary *scratch state* between
/// visits — e.g. the per-node qualifier vectors computed during Stage 1 of
/// PaX3, which Stage 2 reads on the next visit, or the candidate-answer sets
/// that Stage 3 resolves. The scratch store is keyed by string and typed via
/// downcasting, so the algorithm crates can stash whatever they need without
/// this crate knowing their types.
pub struct SiteLocal {
    /// This site's id.
    pub id: SiteId,
    /// Per-fragment version lists, sorted by install epoch (ascending).
    /// Every list is non-empty; the snapshots are shared `Arc`s so reading
    /// a version never copies the tree.
    versions: BTreeMap<FragmentId, Vec<(u64, Arc<Fragment>)>>,
    scratch: HashMap<String, Box<dyn Any + Send>>,
    ops: u64,
}

impl SiteLocal {
    /// Create an empty site.
    pub fn new(id: SiteId) -> Self {
        SiteLocal { id, versions: BTreeMap::new(), scratch: HashMap::new(), ops: 0 }
    }

    /// Store a fragment at this site as the epoch-0 snapshot (the initial
    /// deployment), dropping any previous versions of the same fragment.
    pub fn add_fragment(&mut self, fragment: Fragment) {
        self.versions.insert(fragment.id, vec![(0, Arc::new(fragment))]);
    }

    /// The snapshot of a fragment a reader pinned to `epoch` sees: the
    /// newest version installed at or before `epoch`. With
    /// [`LATEST_EPOCH`] this is simply the newest version.
    pub fn fragment_at(&self, fragment: FragmentId, epoch: u64) -> Option<Arc<Fragment>> {
        let versions = self.versions.get(&fragment)?;
        versions.iter().rev().find(|(e, _)| *e <= epoch).map(|(_, f)| Arc::clone(f))
    }

    /// The snapshot an update building `epoch` starts from: the newest
    /// version installed **strictly before** `epoch`. Strictness matters
    /// for crash consistency — a failed epoch build may leave an orphaned
    /// version at `epoch` on sites it reached, and a retry must not apply
    /// its ops on top of that orphan. With [`LATEST_EPOCH`] the base is the
    /// newest version (in-place update semantics).
    pub fn update_base(&self, fragment: FragmentId, epoch: u64) -> Option<Arc<Fragment>> {
        let versions = self.versions.get(&fragment)?;
        if epoch == LATEST_EPOCH {
            return versions.last().map(|(_, f)| Arc::clone(f));
        }
        versions.iter().rev().find(|(e, _)| *e < epoch).map(|(_, f)| Arc::clone(f))
    }

    /// Install `fragment` as the snapshot of install-epoch `epoch`,
    /// replacing an existing version at exactly that epoch (a retried epoch
    /// build overwrites its own orphan). With [`LATEST_EPOCH`] the newest
    /// version is replaced in place, keeping its install epoch.
    pub fn install_version(&mut self, epoch: u64, fragment: Fragment) {
        let versions = self.versions.entry(fragment.id).or_default();
        if epoch == LATEST_EPOCH {
            match versions.last_mut() {
                Some(last) => last.1 = Arc::new(fragment),
                None => versions.push((0, Arc::new(fragment))),
            }
            return;
        }
        match versions.binary_search_by_key(&epoch, |(e, _)| *e) {
            Ok(i) => versions[i].1 = Arc::new(fragment),
            Err(i) => versions.insert(i, (epoch, Arc::new(fragment))),
        }
    }

    /// Drop every version no reader can still pin, given that all in-flight
    /// and future executions are pinned at or above `watermark`: per
    /// fragment, keep the newest version installed at or before the
    /// watermark (the one a reader at the watermark reads) plus everything
    /// newer. Returns the number of versions dropped.
    pub fn retire_below(&mut self, watermark: u64) -> usize {
        let mut dropped = 0;
        for versions in self.versions.values_mut() {
            let keep_from = versions.iter().rposition(|(e, _)| *e <= watermark).unwrap_or(0);
            dropped += keep_from;
            versions.drain(..keep_from);
        }
        dropped
    }

    /// Drop **every** version of a fragment, returning how many were held.
    ///
    /// This is the reclamation step after a re-fragmentation retired the
    /// fragment from this site's placement (it migrated away, or was merged
    /// into its parent). The coordinator only issues it once the retirement
    /// watermark has passed the epoch that removed the fragment, so no
    /// pinned reader can still be routed here for it.
    pub fn purge_fragment(&mut self, fragment: FragmentId) -> usize {
        self.versions.remove(&fragment).map(|v| v.len()).unwrap_or(0)
    }

    /// Per-fragment resident bytes of the snapshots a reader pinned to
    /// `epoch` sees, under the canonical wire encoding — the storage-side
    /// half of a site load report (the rebalance planner's input).
    pub fn fragment_bytes_at(&self, epoch: u64) -> Vec<(FragmentId, u64)> {
        self.versions
            .iter()
            .filter_map(|(id, v)| {
                v.iter()
                    .rev()
                    .find(|(e, _)| *e <= epoch)
                    .map(|(_, f)| (*id, crate::encoded_size(f.as_ref())))
            })
            .collect()
    }

    /// Fragment ids stored here, in id order.
    pub fn fragment_ids(&self) -> Vec<FragmentId> {
        self.versions.keys().copied().collect()
    }

    /// Number of distinct fragments stored here.
    pub fn fragment_count(&self) -> usize {
        self.versions.len()
    }

    /// Total number of fragment versions held, across all fragments. Steady
    /// state after retirement is one per fragment (leak regression tests
    /// assert on this).
    pub fn version_count(&self) -> usize {
        self.versions.values().map(Vec::len).sum()
    }

    /// Cumulative number of (non-virtual) nodes stored at this site in its
    /// newest snapshots — `|F_{S_i}|` in the paper's parallel-computation
    /// bound.
    pub fn cumulative_size(&self) -> usize {
        self.versions
            .values()
            .filter_map(|v| v.last())
            .map(|(_, f)| f.tree.all_nodes().filter(|&n| !f.tree.is_virtual(n)).count())
            .sum()
    }

    /// Charge `n` elementary operations to this site for the current visit.
    pub fn charge_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Total operations charged so far (monotone across visits).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Run one visit's `task` against this site and meter it: the task's
    /// result, the operations it charged and the wall-clock time it took.
    /// Both transports bracket their site-side work with this, so a socket
    /// site reports exactly what a simulated one does.
    pub fn metered<R>(&mut self, task: impl FnOnce(&mut SiteLocal) -> R) -> (R, u64, Duration) {
        let ops_before = self.ops;
        let start = Instant::now();
        let result = task(self);
        (result, self.ops - ops_before, start.elapsed())
    }

    /// Store a typed value in the scratch state (replacing any previous
    /// value under the same key).
    pub fn put_scratch<T: Send + 'static>(&mut self, key: impl Into<String>, value: T) {
        self.scratch.insert(key.into(), Box::new(value));
    }

    /// Borrow a typed value from the scratch state.
    pub fn scratch<T: 'static>(&self, key: &str) -> Option<&T> {
        self.scratch.get(key).and_then(|b| b.downcast_ref::<T>())
    }

    /// Mutably borrow a typed value from the scratch state.
    pub fn scratch_mut<T: 'static>(&mut self, key: &str) -> Option<&mut T> {
        self.scratch.get_mut(key).and_then(|b| b.downcast_mut::<T>())
    }

    /// Remove and return a typed value from the scratch state.
    pub fn take_scratch<T: 'static>(&mut self, key: &str) -> Option<T> {
        let boxed = self.scratch.remove(key)?;
        match boxed.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(original) => {
                // Wrong type requested: put the value back untouched.
                self.scratch.insert(key.to_string(), original);
                None
            }
        }
    }

    /// Number of entries currently parked in the scratch store. Steady
    /// state is zero: an execution must take back everything it parks
    /// (per-execution scratch slots are never reused, so a leaked entry
    /// would accumulate forever — leak regression tests assert on this).
    pub fn scratch_len(&self) -> usize {
        self.scratch.len()
    }

    /// Drop all scratch state (between independent query executions).
    pub fn clear_scratch(&mut self) {
        self.scratch.clear();
    }
}

impl fmt::Debug for SiteLocal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteLocal")
            .field("id", &self.id)
            .field("fragments", &self.fragment_ids())
            .field("versions", &self.version_count())
            .field("scratch_keys", &self.scratch.keys().collect::<Vec<_>>())
            .field("ops", &self.ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_xml::XmlTree;

    fn fragment(id: usize, label: &str) -> Fragment {
        Fragment {
            id: FragmentId(id),
            tree: XmlTree::with_root_element(label),
            root_label: label.to_string(),
            origin: vec![0],
        }
    }

    #[test]
    fn site_holds_multiple_fragments() {
        let mut s = SiteLocal::new(SiteId(2));
        s.add_fragment(fragment(2, "market"));
        s.add_fragment(fragment(4, "market"));
        assert_eq!(s.fragment_ids(), vec![FragmentId(2), FragmentId(4)]);
        assert_eq!(s.cumulative_size(), 2);
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.version_count(), 2);
        assert_eq!(s.id.to_string(), "S2");
    }

    #[test]
    fn epoch_versions_are_isolated_and_retire() {
        let mut s = SiteLocal::new(SiteId(0));
        s.add_fragment(fragment(1, "v0"));
        // Epoch 1 and 2 install fresh snapshots on top of epoch 0.
        s.install_version(1, fragment(1, "v1"));
        s.install_version(2, fragment(1, "v2"));
        assert_eq!(s.version_count(), 3);
        assert_eq!(s.fragment_at(FragmentId(1), 0).unwrap().root_label, "v0");
        assert_eq!(s.fragment_at(FragmentId(1), 1).unwrap().root_label, "v1");
        assert_eq!(s.fragment_at(FragmentId(1), 2).unwrap().root_label, "v2");
        assert_eq!(s.fragment_at(FragmentId(1), LATEST_EPOCH).unwrap().root_label, "v2");
        // An update building epoch 2 starts from epoch 1's snapshot even if
        // an orphaned version already sits at epoch 2.
        assert_eq!(s.update_base(FragmentId(1), 2).unwrap().root_label, "v1");
        assert_eq!(s.update_base(FragmentId(1), LATEST_EPOCH).unwrap().root_label, "v2");
        // Retire below epoch 2: only the newest ≤ 2 survives.
        assert_eq!(s.retire_below(2), 2);
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.fragment_at(FragmentId(1), 2).unwrap().root_label, "v2");
        assert_eq!(s.fragment_at(FragmentId(1), 1), None);
    }

    #[test]
    fn latest_epoch_updates_replace_in_place() {
        let mut s = SiteLocal::new(SiteId(0));
        s.add_fragment(fragment(3, "old"));
        s.install_version(LATEST_EPOCH, fragment(3, "new"));
        assert_eq!(s.version_count(), 1, "in-place semantics must not grow the version list");
        assert_eq!(s.fragment_at(FragmentId(3), 0).unwrap().root_label, "new");
    }

    #[test]
    fn scratch_state_is_typed() {
        let mut s = SiteLocal::new(SiteId(0));
        s.put_scratch("answers", vec![1u32, 2, 3]);
        s.put_scratch("count", 7usize);
        assert_eq!(s.scratch::<Vec<u32>>("answers"), Some(&vec![1, 2, 3]));
        assert_eq!(s.scratch::<usize>("count"), Some(&7));
        // Wrong type yields None without destroying the value.
        assert_eq!(s.scratch::<String>("answers"), None);
        assert_eq!(s.take_scratch::<String>("answers"), None);
        assert_eq!(s.take_scratch::<Vec<u32>>("answers"), Some(vec![1, 2, 3]));
        assert_eq!(s.scratch::<Vec<u32>>("answers"), None);
        if let Some(count) = s.scratch_mut::<usize>("count") {
            *count += 1;
        }
        assert_eq!(s.scratch::<usize>("count"), Some(&8));
        s.clear_scratch();
        assert_eq!(s.scratch::<usize>("count"), None);
    }

    #[test]
    fn ops_accumulate_and_metered_reports_one_visits_share() {
        let mut s = SiteLocal::new(SiteId(1));
        assert_eq!(s.ops(), 0);
        s.charge_ops(10);
        s.charge_ops(5);
        assert_eq!(s.ops(), 15);
        let (result, ops, _busy) = s.metered(|site| {
            site.charge_ops(7);
            site.id
        });
        assert_eq!((result, ops, s.ops()), (SiteId(1), 7, 22));
    }
}
