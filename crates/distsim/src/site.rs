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
//!
//! A snapshot's [`LabelSummary`], which the selection sweep reads to pass
//! over hopeless subtrees, is built on the first visit that asks for it
//! ([`SiteLocal::label_summary_at`]) and lives and dies with the snapshot.

use paxml_fragment::{Fragment, FragmentId};
use paxml_xml::LabelSummary;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The epoch sentinel that always resolves to a fragment's newest snapshot.
/// It is read-only: a visit outside an epoch-pinned server and the site-load
/// probes read at it, and every write installs at a real update epoch.
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
/// Besides its fragments, a site may keep *scratch state* between the visits
/// of one execution — e.g. the per-node qualifier vectors computed during
/// Stage 1 of PaX3, which Stage 2 reads on the next visit, or the
/// candidate-answer sets that the collection visit resolves. Scratch is
/// keyed by `(epoch, slot, fragment)`: the execution's pinned epoch, its
/// scratch slot, and the fragment the value belongs to. Values are typed via
/// downcasting, so the algorithm crates can park whatever they need without
/// this crate knowing their types.
pub struct SiteLocal {
    /// This site's id.
    pub id: SiteId,
    /// Per-fragment version lists, sorted by install epoch (ascending).
    /// Every list is non-empty.
    versions: BTreeMap<FragmentId, Vec<Version>>,
    scratch: BTreeMap<ScratchKey, Box<dyn Any + Send>>,
    ops: u64,
}

/// Where a parked value lives: `(epoch, slot, fragment)`.
type ScratchKey = (u64, usize, FragmentId);

/// One snapshot of a fragment. The snapshot and its summary are shared
/// `Arc`s, so reading either never copies it.
struct Version {
    /// The update epoch that installed it.
    epoch: u64,
    fragment: Arc<Fragment>,
    /// Built on first use; replacing or retiring the version drops it.
    summary: Option<Arc<LabelSummary>>,
}

impl Version {
    fn new(epoch: u64, fragment: Fragment) -> Version {
        Version { epoch, fragment: Arc::new(fragment), summary: None }
    }
}

impl SiteLocal {
    /// Create an empty site.
    pub fn new(id: SiteId) -> Self {
        SiteLocal { id, versions: BTreeMap::new(), scratch: BTreeMap::new(), ops: 0 }
    }

    /// Store a fragment at this site as the epoch-0 snapshot (the initial
    /// deployment), dropping any previous versions of the same fragment.
    pub fn add_fragment(&mut self, fragment: Fragment) {
        self.versions.insert(fragment.id, vec![Version::new(0, fragment)]);
    }

    /// The snapshot of a fragment a reader pinned to `epoch` sees: the
    /// newest version installed at or before `epoch`. With
    /// [`LATEST_EPOCH`] this is simply the newest version.
    pub fn fragment_at(&self, fragment: FragmentId, epoch: u64) -> Option<Arc<Fragment>> {
        let versions = self.versions.get(&fragment)?;
        versions.iter().rev().find(|v| v.epoch <= epoch).map(|v| Arc::clone(&v.fragment))
    }

    /// The [`LabelSummary`] of the snapshot [`SiteLocal::fragment_at`]
    /// returns, built the first time a visit asks for it and dropped when
    /// the snapshot is replaced or retired.
    pub fn label_summary_at(
        &mut self,
        fragment: FragmentId,
        epoch: u64,
    ) -> Option<Arc<LabelSummary>> {
        let versions = self.versions.get_mut(&fragment)?;
        let version = versions.iter_mut().rev().find(|v| v.epoch <= epoch)?;
        let tree = &version.fragment.tree;
        Some(Arc::clone(version.summary.get_or_insert_with(|| Arc::new(LabelSummary::of(tree)))))
    }

    /// The snapshot an update building `epoch` starts from: the newest
    /// version installed **strictly before** `epoch`. Strictness matters
    /// for crash consistency — a failed epoch build may leave an orphaned
    /// version at `epoch` on sites it reached, and a retry must not apply
    /// its ops on top of that orphan.
    pub fn update_base(&self, fragment: FragmentId, epoch: u64) -> Option<Arc<Fragment>> {
        let versions = self.versions.get(&fragment)?;
        versions.iter().rev().find(|v| v.epoch < epoch).map(|v| Arc::clone(&v.fragment))
    }

    /// Install `fragment` as the snapshot of install-epoch `epoch`,
    /// replacing an existing version at exactly that epoch (a retried epoch
    /// build overwrites its own orphan).
    pub fn install_version(&mut self, epoch: u64, fragment: Fragment) {
        let versions = self.versions.entry(fragment.id).or_default();
        match versions.binary_search_by_key(&epoch, |v| v.epoch) {
            Ok(i) => versions[i] = Version::new(epoch, fragment),
            Err(i) => versions.insert(i, Version::new(epoch, fragment)),
        }
    }

    /// Drop every version no reader can still pin, given that all in-flight
    /// and future executions are pinned at or above `watermark`: per
    /// fragment, keep the newest version installed at or before the
    /// watermark (the one a reader at the watermark reads) plus everything
    /// newer. Scratch parked under an epoch below the watermark goes too: no
    /// execution that could take it back is still running (an execution a
    /// failure abandoned between its visits leaves exactly such entries).
    /// Returns the number of versions dropped.
    pub fn retire_below(&mut self, watermark: u64) -> usize {
        self.scratch.retain(|&(epoch, _, _), _| epoch >= watermark);
        let mut dropped = 0;
        for versions in self.versions.values_mut() {
            let keep_from = versions.iter().rposition(|v| v.epoch <= watermark).unwrap_or(0);
            dropped += keep_from;
            versions.drain(..keep_from);
        }
        dropped
    }

    /// Drop **every** version of a fragment, returning how many were held.
    ///
    /// This is the reclamation step after a re-fragmentation retired the
    /// fragment from this site's placement (it migrated away, or was merged
    /// into its parent). The coordinator only issues it once no live
    /// epoch's topology places the fragment here, so no pinned reader can
    /// still be routed here for it.
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
                    .find(|v| v.epoch <= epoch)
                    .map(|v| (*id, crate::encoded_size(v.fragment.as_ref())))
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
            .map(|v| &v.fragment.tree)
            .map(|tree| tree.all_nodes().filter(|&n| !tree.is_virtual(n)).count())
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

    /// Park a typed value for a later visit of the execution pinned to
    /// `epoch` that owns `slot`, replacing any value under the same key.
    pub fn put_scratch<T: Send + 'static>(
        &mut self,
        epoch: u64,
        slot: usize,
        fragment: FragmentId,
        value: T,
    ) {
        self.scratch.insert((epoch, slot, fragment), Box::new(value));
    }

    /// Take back the value parked under `(epoch, slot, fragment)`, if it is
    /// a `T` (a value of another type stays parked).
    pub fn take_scratch<T: 'static>(
        &mut self,
        epoch: u64,
        slot: usize,
        fragment: FragmentId,
    ) -> Option<T> {
        let key = (epoch, slot, fragment);
        match self.scratch.remove(&key)?.downcast::<T>() {
            Ok(v) => Some(*v),
            Err(original) => {
                self.scratch.insert(key, original);
                None
            }
        }
    }

    /// Number of values currently parked. Steady state is zero: an
    /// execution takes back everything it parks, and what an abandoned one
    /// left behind retires with its epoch (leak regression tests assert on
    /// this).
    pub fn scratch_len(&self) -> usize {
        self.scratch.len()
    }
}

impl fmt::Debug for SiteLocal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteLocal")
            .field("id", &self.id)
            .field("fragments", &self.fragment_ids())
            .field("versions", &self.version_count())
            .field("scratch", &self.scratch.keys().collect::<Vec<_>>())
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
        assert_eq!(s.update_base(FragmentId(1), 3).unwrap().root_label, "v2");
        // Retire below epoch 2: only the newest ≤ 2 survives.
        assert_eq!(s.retire_below(2), 2);
        assert_eq!(s.version_count(), 1);
        assert_eq!(s.fragment_at(FragmentId(1), 2).unwrap().root_label, "v2");
        assert_eq!(s.fragment_at(FragmentId(1), 1), None);
    }

    #[test]
    fn a_label_summary_is_built_once_per_version_and_dropped_with_it() {
        let mut s = SiteLocal::new(SiteId(0));
        let f = FragmentId(1);
        s.add_fragment(fragment(1, "v0"));
        assert!(s.label_summary_at(FragmentId(9), 0).is_none());
        // Two visits of one version share one build.
        let first = s.label_summary_at(f, 0).unwrap();
        assert!(Arc::ptr_eq(&first, &s.label_summary_at(f, LATEST_EPOCH).unwrap()));
        let v0 = Arc::downgrade(&first);
        drop(first);
        // A version installed above leaves it alone.
        s.install_version(2, fragment(1, "v2"));
        let v2 = s.label_summary_at(f, 2).unwrap();
        assert!(v0.upgrade().is_some());
        // Replacing a version at its epoch, the newest included, drops its
        // summary; the new snapshot gets a fresh one.
        s.install_version(2, fragment(1, "v2 again"));
        assert!(!Arc::ptr_eq(&v2, &s.label_summary_at(f, 2).unwrap()));
        let replaced = Arc::downgrade(&v2);
        drop(v2);
        assert!(replaced.upgrade().is_none());
        let newest = Arc::downgrade(&s.label_summary_at(f, LATEST_EPOCH).unwrap());
        s.install_version(2, fragment(1, "v2 once more"));
        assert!(newest.upgrade().is_none());
        // So does retiring it.
        assert_eq!(s.retire_below(2), 1);
        assert!(v0.upgrade().is_none());
    }

    #[test]
    fn scratch_state_is_typed_and_retires_with_its_epoch() {
        let mut s = SiteLocal::new(SiteId(0));
        let (f1, f2) = (FragmentId(1), FragmentId(2));
        s.put_scratch(3, 0, f1, vec![1u32, 2, 3]);
        s.put_scratch(3, 1, f1, 7usize);
        s.put_scratch(5, 0, f2, 9usize);
        s.put_scratch(LATEST_EPOCH, 0, f2, 11usize);
        // Wrong type yields None without destroying the value.
        assert_eq!(s.take_scratch::<String>(3, 0, f1), None);
        assert_eq!(s.take_scratch::<Vec<u32>>(3, 0, f1), Some(vec![1, 2, 3]));
        assert_eq!(s.take_scratch::<Vec<u32>>(3, 0, f1), None);
        assert_eq!(s.scratch_len(), 3);
        // Retiring below epoch 5 drops what epoch 3 left behind, and only that.
        s.retire_below(5);
        assert_eq!(s.scratch_len(), 2);
        assert_eq!(s.take_scratch::<usize>(5, 0, f2), Some(9));
        assert_eq!(s.take_scratch::<usize>(LATEST_EPOCH, 0, f2), Some(11));
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
