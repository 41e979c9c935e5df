//! Compilation of a normalized query into the vector representation of §2.2:
//!
//! * `SVect(Q)` — one entry per prefix of the selection path (we additionally
//!   keep an entry 0 for the *empty* prefix, which marks the evaluation
//!   context; the paper leaves this implicit in its pseudo-code),
//! * `QVect(Q)` — the list of all sub-queries of the qualifiers of `Q`, in a
//!   topological order such that every sub-query precedes the queries that
//!   contain it.
//!
//! Both vectors are linear in `|Q|`, which is what bounds the size of every
//! message exchanged between sites.

use crate::ast::{Atom, CmpOp, PosPred};
use crate::error::{XPathError, XPathResult};
use crate::normalize::{NormItem, NormPath, NormQual, NormQuery};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Axis used by qualifier sub-queries when stepping away from a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QAxis {
    /// Step to a child.
    Child,
    /// Step to a proper descendant (the `//` of a qualifier path).
    Descendant,
}

/// Index of an entry of `QVect(Q)`.
pub type QEntryId = usize;

/// One entry (sub-query) of `QVect(Q)`.
///
/// Entries are evaluated bottom-up: the value of an entry at a node `v`
/// depends only on *earlier* entries at `v` and on the `QV`/`QDV` vectors of
/// `v`'s children — which is exactly the paper's requirement for Stage 1 to
/// run in a single bottom-up pass per fragment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QEntry {
    /// True at `v` iff `v` is an element labelled with this name.
    LabelTest(String),
    /// True at `v` iff `v` is an element (wildcard step).
    ElementTest,
    /// True at `v` iff `v` is a text node with exactly this value.
    TextTest(String),
    /// True at `v` iff `v` is a text node whose numeric value satisfies the
    /// comparison (a leading `$` is tolerated, as in the running example).
    ValTest(CmpOp, f64),
    /// True at `v` iff `v` is an element carrying this attribute.
    AttrTest(String),
    /// True at `v` iff `v` is an element whose attribute exists and has
    /// exactly this string value.
    AttrValueTest(String, String),
    /// True at `v` iff `v` is an element whose attribute exists and parses
    /// as a number satisfying the comparison.
    AttrCmpTest(String, CmpOp, f64),
    /// A step of a qualifier path: true at `v` iff the `test` entry is true
    /// at `v`, all `quals` entries are true at `v`, and — when `next` is
    /// present — the continuation holds below `v` (via a child for
    /// [`QAxis::Child`], via a proper descendant for [`QAxis::Descendant`]).
    Step {
        /// Node test entry (a `LabelTest`/`ElementTest`).
        test: QEntryId,
        /// Qualifier entries that must also hold at the node.
        quals: Vec<QEntryId>,
        /// Continuation of the path below this node.
        next: Option<(QAxis, QEntryId)>,
        /// Positional filter on the continuation: the child satisfying `next`
        /// must additionally sit at a matching position among `v`'s children.
        /// Only ever present on a [`QAxis::Child`] continuation.
        next_pos: Option<PosFilter>,
    },
    /// Existential anchor of a qualifier path at its context node: true at
    /// `v` iff some child (for [`QAxis::Child`]) or some proper descendant
    /// (for [`QAxis::Descendant`]) of `v` satisfies `entry`.
    Exists {
        /// Axis of the first step of the qualifier path.
        axis: QAxis,
        /// Entry describing the first matched node of the path.
        entry: QEntryId,
        /// Positional filter on the first step (only for [`QAxis::Child`]):
        /// the child must sit at a matching position among `v`'s children.
        pos: Option<PosFilter>,
    },
    /// Negation of another entry (same node).
    Not(QEntryId),
    /// Conjunction of other entries (same node). Empty = `true`.
    And(Vec<QEntryId>),
    /// Disjunction of other entries (same node). Empty = `false`.
    Or(Vec<QEntryId>),
}

/// One item of the compiled selection path (`SVect` granularity).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelItem {
    /// A label step.
    Label(String),
    /// A wildcard step.
    Wildcard,
    /// The `//` marker.
    DescendantOrSelf,
    /// An `ε[q]` item: the conjunction of these qualifier entries must hold
    /// at the node reached by the preceding prefix.
    SelfQualifier(Vec<QEntryId>),
}

/// Node test used when counting siblings for a positional predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PosTest {
    /// Count only element-like children carrying this label (a virtual
    /// placeholder counts via its recorded root label).
    Label(String),
    /// Count every element-like child (wildcard step).
    AnyElement,
}

impl PosTest {
    /// Does a child with this step label match the test? `label` is `None`
    /// for text nodes, which never count.
    pub fn matches(&self, label: Option<&str>) -> bool {
        match (self, label) {
            (PosTest::Label(l), Some(x)) => l == x,
            (PosTest::AnyElement, Some(_)) => true,
            (_, None) => false,
        }
    }
}

/// A positional filter on a step: the node's 1-based index among the
/// test-matching children of its parent must satisfy every predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PosFilter {
    /// The node test of the step the position counts against.
    pub test: PosTest,
    /// The positional predicates (`[2]`, `[last()]`); all must hold.
    pub preds: Vec<PosPred>,
}

impl PosFilter {
    /// Evaluate the filter for a node with the given 1-based index among its
    /// test-matching siblings, out of `total` matching siblings.
    pub fn accepts(&self, index: u32, total: u32) -> bool {
        self.preds.iter().all(|p| match p {
            PosPred::Index(k) => index == *k,
            PosPred::Last => index == total,
        })
    }

    /// Does any predicate require knowing the total sibling count
    /// (`last()`)? Decides whether evaluation needs a counting pre-pass.
    pub fn needs_total(&self) -> bool {
        self.preds.iter().any(|p| matches!(p, PosPred::Last))
    }
}

/// A positional predicate attached to a selection-path step. Each one adds a
/// *positional fact* entry to the evaluation vectors (see
/// [`CompiledQuery::init_len`]): the fact is true at a node iff the node sits
/// at an accepted position among its test-matching siblings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelPos {
    /// Index into `sel_items` of the step the position constrains.
    pub item: usize,
    /// The filter (node test + predicates).
    pub filter: PosFilter,
}

/// The fully compiled query used by every evaluation algorithm in the
/// workspace (centralized, PaX3, PaX2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledQuery {
    /// Was the query absolute? Determines the evaluation context (implicit
    /// document node vs. the root element itself).
    pub absolute: bool,
    /// The selection items; `SVect(Q)` has `sel_items.len() + 1` entries
    /// (entry 0 is the empty prefix / context marker).
    pub sel_items: Vec<SelItem>,
    /// `QVect(Q)`: all qualifier sub-queries in topological order.
    pub qvect: Vec<QEntry>,
    /// Positional predicates on selection-path steps, in path order. Each
    /// contributes one positional-fact entry to every carried vector.
    pub sel_positions: Vec<SelPos>,
}

impl CompiledQuery {
    /// Number of `SVect` entries (including the implicit entry 0).
    pub fn svect_len(&self) -> usize {
        self.sel_items.len() + 1
    }

    /// Length of the evaluation vectors carried down the tree and shipped at
    /// fragment boundaries: the `SVect` entries followed by one positional
    /// fact per constrained selection step. Equal to [`Self::svect_len`]
    /// when the query has no positional predicates.
    pub fn init_len(&self) -> usize {
        self.svect_len() + self.sel_positions.len()
    }

    /// Does the selection path carry positional predicates? (The fast paths
    /// skip the fact machinery entirely when it does not.)
    pub fn has_positions(&self) -> bool {
        !self.sel_positions.is_empty()
    }

    /// Number of `QVect` entries.
    pub fn qvect_len(&self) -> usize {
        self.qvect.len()
    }

    /// Does the query have any qualifier? (Both PaX3 and PaX2 skip the
    /// qualifier machinery entirely when it does not — Experiment 1.)
    pub fn has_qualifiers(&self) -> bool {
        !self.qvect.is_empty()
    }

    /// Does the *selection path* contain `//`? (Decides how effective the
    /// XPath-annotation pruning can be — Experiments 1–3.)
    pub fn selection_has_descendant(&self) -> bool {
        self.sel_items.iter().any(|i| matches!(i, SelItem::DescendantOrSelf))
    }

    /// A conservative upper bound on the per-node work, used by the cost
    /// meters: one operation per vector entry (including positional facts).
    pub fn per_node_ops(&self) -> u64 {
        (self.init_len() + self.qvect_len()) as u64
    }

    /// The human-readable selection path (e.g. `//broker/name`), for
    /// reports: the selection steps joined by `/`, with `//` standing in for
    /// its separator; `.` when the path has no step.
    pub fn selection_path(&self) -> String {
        let mut out = String::new();
        if self.absolute {
            out.push('/');
        }
        for step in self.selection_steps() {
            if step == "//" {
                // A `//` subsumes the single `/` separator.
                if out.ends_with('/') {
                    out.pop();
                }
            } else if !out.is_empty() && !out.ends_with('/') {
                out.push('/');
            }
            out.push_str(&step);
        }
        if out.is_empty() {
            out.push('.');
        }
        out
    }

    /// The sequence of selection-step labels, with `//` rendered as `//` and
    /// wildcards as `*` — the "selection path" of the paper.
    pub fn selection_steps(&self) -> Vec<String> {
        self.sel_items
            .iter()
            .filter_map(|i| match i {
                SelItem::Label(l) => Some(l.clone()),
                SelItem::Wildcard => Some("*".to_string()),
                SelItem::DescendantOrSelf => Some("//".to_string()),
                SelItem::SelfQualifier(_) => None,
            })
            .collect()
    }
}

impl fmt::Display for CompiledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CompiledQuery(selection: {}, |SVect| = {}, |QVect| = {})",
            self.selection_path(),
            self.svect_len(),
            self.qvect_len()
        )
    }
}

/// Compile a normalized query.
pub fn compile(query: &NormQuery) -> XPathResult<CompiledQuery> {
    compile_inner(query, None)
}

/// Compile a normalized query, sharing compiled qualifier sub-trees through
/// `cache`. Produces exactly the same [`CompiledQuery`] as [`compile`] — the
/// cache only short-cuts recompilation of qualifier subtrees it has already
/// seen (in this query or a previous one), splicing the stored block into the
/// current `QVect` through the deduplicating `push`.
pub fn compile_with_cache(
    query: &NormQuery,
    cache: &mut CompileCache,
) -> XPathResult<CompiledQuery> {
    compile_inner(query, Some(cache))
}

fn compile_inner(
    query: &NormQuery,
    cache: Option<&mut CompileCache>,
) -> XPathResult<CompiledQuery> {
    let mut compiler = Compiler { qvect: Vec::new(), cache };
    let mut sel_items: Vec<SelItem> = Vec::new();
    let mut sel_positions: Vec<SelPos> = Vec::new();
    for item in &query.path.items {
        match item {
            NormItem::Label(l) => sel_items.push(SelItem::Label(l.clone())),
            NormItem::Wildcard => sel_items.push(SelItem::Wildcard),
            NormItem::DescendantOrSelf => sel_items.push(SelItem::DescendantOrSelf),
            NormItem::Qualifier(q) => {
                let ids = compiler.compile_qual_conjuncts(q)?;
                sel_items.push(SelItem::SelfQualifier(ids));
            }
            NormItem::Position(pred) => {
                // Attach to the nearest preceding step item; `//` in between
                // means there is no single step to count against.
                let mut found = None;
                for (i, it) in sel_items.iter().enumerate().rev() {
                    match it {
                        SelItem::Label(l) => {
                            found = Some((i, PosTest::Label(l.clone())));
                            break;
                        }
                        SelItem::Wildcard => {
                            found = Some((i, PosTest::AnyElement));
                            break;
                        }
                        SelItem::SelfQualifier(_) => continue,
                        SelItem::DescendantOrSelf => break,
                    }
                }
                let (item, test) = found.ok_or(XPathError::PositionWithoutStep)?;
                match sel_positions.last_mut() {
                    Some(sp) if sp.item == item => sp.filter.preds.push(*pred),
                    _ => sel_positions
                        .push(SelPos { item, filter: PosFilter { test, preds: vec![*pred] } }),
                }
            }
        }
    }
    Ok(CompiledQuery { absolute: query.absolute, sel_items, qvect: compiler.qvect, sel_positions })
}

/// A cache of compiled qualifier sub-trees shared across
/// [`compile_with_cache`] calls. Each cached subtree is stored as a
/// relocatable block (entries with block-local ids plus a block-local root)
/// keyed by the canonical debug rendering of its [`NormQual`]; on a hit the
/// block is spliced into the current compiler, re-using identical entries
/// already present there.
#[derive(Debug, Default)]
pub struct CompileCache {
    blocks: HashMap<String, CachedBlock>,
    /// Number of qualifier subtrees served from the cache.
    pub hits: u64,
    /// Number of qualifier subtrees compiled fresh and inserted.
    pub misses: u64,
}

impl CompileCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct cached subtrees.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total number of [`QEntry`] values stored across all cached blocks —
    /// the size of the shared compilation pool.
    pub fn pool_entries(&self) -> usize {
        self.blocks.values().map(|b| b.entries.len()).sum()
    }
}

#[derive(Debug, Clone)]
struct CachedBlock {
    entries: Vec<QEntry>,
    root: usize,
}

/// Splice a query's `qvect` into `union`, the `QVect` several queries share
/// in one multi-query visit: entries already in `union` are re-used, exactly
/// as compiling one query re-uses them. Returns, for every entry of `qvect`,
/// its id in `union`; distinct entries get distinct ids.
pub(crate) fn splice_qvect(union: &mut Vec<QEntry>, qvect: &[QEntry]) -> Vec<QEntryId> {
    let mut compiler = Compiler { qvect: std::mem::take(union), cache: None };
    let map = compiler.splice(qvect);
    *union = compiler.qvect;
    map
}

/// Rewrite every entry-id reference through `map` (old id → new id).
fn remap_entry(e: &QEntry, map: &[QEntryId]) -> QEntry {
    match e {
        QEntry::Step { test, quals, next, next_pos } => QEntry::Step {
            test: map[*test],
            quals: quals.iter().map(|q| map[*q]).collect(),
            next: next.map(|(a, e)| (a, map[e])),
            next_pos: next_pos.clone(),
        },
        QEntry::Exists { axis, entry, pos } => {
            QEntry::Exists { axis: *axis, entry: map[*entry], pos: pos.clone() }
        }
        QEntry::Not(e) => QEntry::Not(map[*e]),
        QEntry::And(es) => QEntry::And(es.iter().map(|i| map[*i]).collect()),
        QEntry::Or(es) => QEntry::Or(es.iter().map(|i| map[*i]).collect()),
        atom => atom.clone(),
    }
}

/// The entry ids an entry references (always smaller than its own id).
fn entry_refs(e: &QEntry) -> Vec<QEntryId> {
    match e {
        QEntry::Step { test, quals, next, .. } => {
            let mut r = vec![*test];
            r.extend(quals.iter().copied());
            if let Some((_, e)) = next {
                r.push(*e);
            }
            r
        }
        QEntry::Exists { entry, .. } => vec![*entry],
        QEntry::Not(e) => vec![*e],
        QEntry::And(es) | QEntry::Or(es) => es.clone(),
        _ => Vec::new(),
    }
}

struct Compiler<'c> {
    qvect: Vec<QEntry>,
    cache: Option<&'c mut CompileCache>,
}

impl Compiler<'_> {
    fn push(&mut self, entry: QEntry) -> QEntryId {
        // Reuse an identical existing entry when possible: keeps QVect small
        // (e.g. the two `//stock/code/text()` sub-queries of the
        // introduction's Q1 share everything but the compared string).
        if let Some(pos) = self.qvect.iter().position(|e| *e == entry) {
            return pos;
        }
        self.qvect.push(entry);
        self.qvect.len() - 1
    }

    /// `test` at some text child of the node.
    fn push_text_test(&mut self, test: QEntry) -> QEntryId {
        let entry = self.push(test);
        self.push(QEntry::Exists { axis: QAxis::Child, entry, pos: None })
    }

    /// Splice `entries` (topologically ordered, with ids local to them, as a
    /// cached block's or a whole `QVect`) into this compiler's `QVect`, entry
    /// by entry; `push` re-uses identical entries, so splicing is a no-op
    /// when they are already present. Returns the id each entry got.
    fn splice(&mut self, entries: &[QEntry]) -> Vec<QEntryId> {
        let mut map: Vec<QEntryId> = Vec::with_capacity(entries.len());
        for e in entries {
            let remapped = remap_entry(e, &map);
            map.push(self.push(remapped));
        }
        map
    }

    /// Extract the reachable closure of `root` as a relocatable block with
    /// block-local ids (ascending original id order is already topological).
    fn extract(&self, root: QEntryId) -> CachedBlock {
        let mut wanted = vec![false; root + 1];
        wanted[root] = true;
        for i in (0..=root).rev() {
            if wanted[i] {
                for r in entry_refs(&self.qvect[i]) {
                    wanted[r] = true;
                }
            }
        }
        let mut map = vec![usize::MAX; root + 1];
        let mut entries = Vec::new();
        for i in 0..=root {
            if wanted[i] {
                map[i] = entries.len();
                entries.push(remap_entry(&self.qvect[i], &map));
            }
        }
        CachedBlock { entries, root: map[root] }
    }

    /// Compile a qualifier and return the entry ids whose conjunction is the
    /// qualifier's value (a top-level `And` is kept flat so the selection
    /// evaluation can AND them without an extra entry).
    fn compile_qual_conjuncts(&mut self, q: &NormQual) -> XPathResult<Vec<QEntryId>> {
        match q {
            NormQual::And(parts) => {
                let mut ids = Vec::with_capacity(parts.len());
                for p in parts {
                    ids.push(self.compile_qual(p)?);
                }
                Ok(ids)
            }
            other => Ok(vec![self.compile_qual(other)?]),
        }
    }

    /// Compile a qualifier into a single entry id, consulting the subtree
    /// cache when one is attached.
    fn compile_qual(&mut self, q: &NormQual) -> XPathResult<QEntryId> {
        if self.cache.is_some() {
            let key = format!("{q:?}");
            if let Some(block) = self.cache.as_ref().and_then(|c| c.blocks.get(&key)) {
                let block = block.clone();
                if let Some(c) = self.cache.as_mut() {
                    c.hits += 1;
                }
                return Ok(self.splice(&block.entries)[block.root]);
            }
            let root = self.compile_qual_uncached(q)?;
            let block = self.extract(root);
            if let Some(c) = self.cache.as_mut() {
                c.misses += 1;
                c.blocks.insert(key, block);
            }
            return Ok(root);
        }
        self.compile_qual_uncached(q)
    }

    fn compile_qual_uncached(&mut self, q: &NormQual) -> XPathResult<QEntryId> {
        match q {
            // A text test holds at a text child, an attribute test at the node.
            NormQual::Atom(atom) => Ok(match atom {
                Atom::Text(s) => self.push_text_test(QEntry::TextTest(s.clone())),
                Atom::Val(op, n) => self.push_text_test(QEntry::ValTest(*op, *n)),
                Atom::Attr(a) => self.push(QEntry::AttrTest(a.clone())),
                Atom::AttrText(a, s) => self.push(QEntry::AttrValueTest(a.clone(), s.clone())),
                Atom::AttrVal(a, op, n) => self.push(QEntry::AttrCmpTest(a.clone(), *op, *n)),
            }),
            NormQual::Not(inner) => {
                let e = self.compile_qual(inner)?;
                Ok(self.push(QEntry::Not(e)))
            }
            NormQual::And(parts) => {
                let ids =
                    parts.iter().map(|p| self.compile_qual(p)).collect::<XPathResult<Vec<_>>>()?;
                Ok(self.push(QEntry::And(ids)))
            }
            NormQual::Or(parts) => {
                let ids =
                    parts.iter().map(|p| self.compile_qual(p)).collect::<XPathResult<Vec<_>>>()?;
                Ok(self.push(QEntry::Or(ids)))
            }
            NormQual::Path(path) => self.compile_qual_path(path),
        }
    }

    /// Compile a qualifier path (existential semantics at the context node).
    fn compile_qual_path(&mut self, path: &NormPath) -> XPathResult<QEntryId> {
        // Split the item list into: qualifiers applying to the context node
        // itself (leading ε[q] items) and a list of steps, each consisting of
        // (axis, node test, trailing ε[q] items).
        struct Step {
            axis: QAxis,
            test: NodeTestKind,
            quals: Vec<NormQual>,
            pos: Vec<PosPred>,
        }
        enum NodeTestKind {
            Label(String),
            Wildcard,
        }

        let mut context_quals: Vec<NormQual> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut pending_axis = QAxis::Child;
        for item in &path.items {
            match item {
                NormItem::DescendantOrSelf => pending_axis = QAxis::Descendant,
                NormItem::Label(l) => {
                    steps.push(Step {
                        axis: pending_axis,
                        test: NodeTestKind::Label(l.clone()),
                        quals: Vec::new(),
                        pos: Vec::new(),
                    });
                    pending_axis = QAxis::Child;
                }
                NormItem::Wildcard => {
                    steps.push(Step {
                        axis: pending_axis,
                        test: NodeTestKind::Wildcard,
                        quals: Vec::new(),
                        pos: Vec::new(),
                    });
                    pending_axis = QAxis::Child;
                }
                NormItem::Qualifier(q) => match steps.last_mut() {
                    Some(step) => step.quals.push(q.clone()),
                    None => context_quals.push(q.clone()),
                },
                NormItem::Position(p) => match steps.last_mut() {
                    Some(step) => {
                        // Counting among `//`-reachable nodes has no single
                        // parent to count in.
                        if step.axis == QAxis::Descendant {
                            return Err(XPathError::PositionOnDescendantStep);
                        }
                        step.pos.push(*p);
                    }
                    None => return Err(XPathError::PositionWithoutStep),
                },
            }
        }
        // A trailing `//` with no following step (e.g. the qualifier `[a//]`)
        // would be ill-formed; the parser cannot produce it, but reject it
        // defensively for hand-built normal forms.
        if pending_axis == QAxis::Descendant && steps.is_empty() && path.items.len() == 1 {
            return Err(XPathError::EmptyQuery);
        }

        // Compile the steps from the last to the first, so that every entry
        // only references already-compiled (smaller-index) entries... the
        // entries themselves are appended in suffix order, which *is* a
        // topological order for the bottom-up pass.
        let mut next: Option<(QAxis, QEntryId, Option<PosFilter>)> = None;
        for step in steps.iter().rev() {
            let test_id = match &step.test {
                NodeTestKind::Label(l) => self.push(QEntry::LabelTest(l.clone())),
                NodeTestKind::Wildcard => self.push(QEntry::ElementTest),
            };
            let pos_filter = if step.pos.is_empty() {
                None
            } else {
                Some(PosFilter {
                    test: match &step.test {
                        NodeTestKind::Label(l) => PosTest::Label(l.clone()),
                        NodeTestKind::Wildcard => PosTest::AnyElement,
                    },
                    preds: step.pos.clone(),
                })
            };
            let mut qual_ids = Vec::with_capacity(step.quals.len());
            for q in &step.quals {
                qual_ids.push(self.compile_qual(q)?);
            }
            let (next_link, next_pos) = match next {
                Some((a, e, p)) => (Some((a, e)), p),
                None => (None, None),
            };
            let step_id = self.push(QEntry::Step {
                test: test_id,
                quals: qual_ids,
                next: next_link,
                next_pos,
            });
            next = Some((step.axis, step_id, pos_filter));
        }

        // Anchor at the context node.
        let path_anchor: Option<QEntryId> =
            next.map(|(axis, entry, pos)| self.push(QEntry::Exists { axis, entry, pos }));

        // Combine with the context qualifiers (leading ε[q] items).
        let mut conjuncts: Vec<QEntryId> = Vec::new();
        for q in &context_quals {
            conjuncts.push(self.compile_qual(q)?);
        }
        if let Some(anchor) = path_anchor {
            conjuncts.push(anchor);
        }
        match conjuncts.len() {
            0 => Ok(self.push(QEntry::And(Vec::new()))), // `[.]` — trivially true
            1 => Ok(conjuncts[0]),
            _ => Ok(self.push(QEntry::And(conjuncts))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;
    use crate::parse;

    fn comp(text: &str) -> CompiledQuery {
        compile(&normalize(&parse(text).unwrap())).unwrap()
    }

    #[test]
    fn simple_path_has_no_qvect() {
        let c = comp("/sites/site/people/person");
        assert_eq!(c.qvect_len(), 0);
        assert!(!c.has_qualifiers());
        assert_eq!(c.svect_len(), 5); // 4 steps + the empty prefix
        assert_eq!(c.selection_path(), "/sites/site/people/person");
        assert_eq!(c.selection_steps(), vec!["sites", "site", "people", "person"]);
    }

    #[test]
    fn descendant_axis_is_an_svect_item() {
        let c = comp("/sites/site/open_auctions//annotation");
        assert!(c.selection_has_descendant());
        assert_eq!(c.svect_len(), 6); // sites, site, open_auctions, //, annotation + empty
    }

    #[test]
    fn example_2_1_vectors_are_linear_in_the_query() {
        let c =
            comp("client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name");
        // Selection path client/broker/name plus two ε[q] items plus entry 0.
        assert_eq!(c.svect_len(), 6);
        assert_eq!(c.selection_path(), "client/broker/name");
        // The paper's QVect has 9 entries; ours differs slightly in shape but
        // must stay the same order of magnitude (linear in |Q|).
        assert!(c.qvect_len() >= 6);
        assert!(c.qvect_len() <= 12);
        assert!(c.has_qualifiers());
    }

    #[test]
    fn qualifier_entries_are_topologically_ordered() {
        for text in [
            "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name",
            "//broker[//stock/code/text()=\"goog\" and not(//stock/code/text()=\"yhoo\")]/name",
            "/sites//people/person[profile/age > 20 and address/country=\"US\"]/creditcard",
            "a[b[c[d]]/e]/f",
            "x[not(a or b) and c[text()='t']]",
            "a[@id = \"x\" and b[2]/c]/d[last()]",
            "//item[@price > 10]/name[1]",
        ] {
            let c = comp(text);
            for (i, entry) in c.qvect.iter().enumerate() {
                for r in entry_refs(entry) {
                    assert!(r < i, "entry {i} of {text} references later entry {r}");
                }
            }
        }
    }

    #[test]
    fn selection_qualifier_items_reference_qvect_entries() {
        let c = comp("person[profile/age > 20 and address/country=\"US\"]/creditcard");
        let qual_items: Vec<&SelItem> =
            c.sel_items.iter().filter(|i| matches!(i, SelItem::SelfQualifier(_))).collect();
        assert_eq!(qual_items.len(), 1);
        match qual_items[0] {
            SelItem::SelfQualifier(ids) => {
                assert_eq!(ids.len(), 2); // the two conjuncts stay flat
                for id in ids {
                    assert!(*id < c.qvect_len());
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn shared_subqueries_are_deduplicated() {
        // Both conjuncts mention //stock/code — the label tests are shared.
        let c =
            comp("//broker[//stock/code/text()=\"goog\" and //stock/code/text()=\"goog\"]/name");
        let label_tests = c
            .qvect
            .iter()
            .filter(|e| matches!(e, QEntry::LabelTest(l) if l == "stock" || l == "code"))
            .count();
        assert_eq!(label_tests, 2, "identical label tests must be shared");
    }

    #[test]
    fn boolean_query_compiles_to_pure_qualifier() {
        let c = comp(".[//stock/code/text()=\"goog\"]");
        assert_eq!(c.sel_items.len(), 1);
        assert!(matches!(c.sel_items[0], SelItem::SelfQualifier(_)));
        assert!(c.has_qualifiers());
        assert_eq!(c.selection_path(), ".");
    }

    #[test]
    fn per_node_ops_counts_both_vectors() {
        let c = comp("person[profile/age > 20]/name");
        assert_eq!(c.per_node_ops(), (c.svect_len() + c.qvect_len()) as u64);
    }

    #[test]
    fn wildcard_selection_step() {
        let c = comp("*/client/name");
        assert_eq!(c.sel_items[0], SelItem::Wildcard);
        assert_eq!(c.selection_steps(), vec!["*", "client", "name"]);
    }

    #[test]
    fn nested_qualifiers_compile() {
        let c = comp("client[broker[market/name/text()='TSE']]/name");
        assert!(c.has_qualifiers());
        // There must be at least: TextTest, Exists, name LabelTest, Step,
        // market LabelTest, Step, Exists, broker LabelTest, Step, Exists.
        assert!(c.qvect_len() >= 8);
    }

    #[test]
    fn attribute_atoms_compile_without_exists() {
        let c = comp("person[@id]/name");
        assert_eq!(c.qvect, vec![QEntry::AttrTest("id".into())]);
        let c = comp("person[@id = \"p7\"]");
        assert_eq!(c.qvect, vec![QEntry::AttrValueTest("id".into(), "p7".into())]);
        let c = comp("item[@price > 10]");
        assert_eq!(c.qvect, vec![QEntry::AttrCmpTest("price".into(), CmpOp::Gt, 10.0)]);
    }

    #[test]
    fn attribute_selection_step_is_a_qualifier() {
        // `p/@id` desugars to `p[@id]`: the selection result is the element.
        let c = comp("site/person/@id");
        assert_eq!(c.selection_steps(), vec!["site", "person"]);
        assert_eq!(c.qvect, vec![QEntry::AttrTest("id".into())]);
    }

    #[test]
    fn selection_positions_become_facts_not_svect_entries() {
        let c = comp("a/b[2]/c");
        assert_eq!(c.svect_len(), 4); // a, b, c + empty prefix
        assert_eq!(c.sel_positions.len(), 1);
        assert_eq!(c.init_len(), 5);
        assert_eq!(c.sel_positions[0].item, 1); // the `b` step
        assert_eq!(c.sel_positions[0].filter.test, PosTest::Label("b".into()));
        assert_eq!(c.sel_positions[0].filter.preds, vec![PosPred::Index(2)]);
        assert!(c.has_positions());
        assert!(!c.has_qualifiers());
    }

    #[test]
    fn stacked_positions_merge_into_one_fact() {
        let c = comp("a[2][last()]");
        assert_eq!(c.sel_positions.len(), 1);
        assert_eq!(c.sel_positions[0].filter.preds, vec![PosPred::Index(2), PosPred::Last]);
        assert_eq!(c.init_len(), c.svect_len() + 1);
        // Positions canonicalize ahead of qualifiers of the same step.
        let c1 = comp("a[b][2]");
        let c2 = comp("a[2][b]");
        assert_eq!(c1.sel_items, c2.sel_items);
        assert_eq!(c1.sel_positions, c2.sel_positions);
    }

    #[test]
    fn qualifier_position_sits_on_the_link() {
        let c = comp(".[b[2]/c]");
        let exists = c
            .qvect
            .iter()
            .find_map(|e| match e {
                QEntry::Exists { axis: QAxis::Child, pos: Some(p), .. } => Some(p.clone()),
                _ => None,
            })
            .expect("anchor with positional filter");
        assert_eq!(exists.test, PosTest::Label("b".into()));
        assert_eq!(exists.preds, vec![PosPred::Index(2)]);
        // Selection-side vectors are untouched by qualifier positions.
        assert!(c.sel_positions.is_empty());
        assert_eq!(c.init_len(), c.svect_len());
    }

    #[test]
    fn position_on_descendant_qualifier_step_is_rejected() {
        let norm = normalize(&parse(".[//b[2]]").unwrap());
        assert_eq!(compile(&norm), Err(XPathError::PositionOnDescendantStep));
    }

    #[test]
    fn positions_under_descendant_selection_steps_are_allowed() {
        let c = comp("//b[2]");
        assert_eq!(c.sel_positions.len(), 1);
        assert_eq!(c.sel_positions[0].item, 1);
    }

    #[test]
    fn cached_compilation_is_equivalent_and_hits() {
        let battery = [
            "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name",
            "client[country/text() = \"US\"]/name",
            "//broker[//stock/code/text()=\"goog\"]/name",
            "//broker[//stock/code/text()=\"goog\" and not(//stock/code/text()=\"yhoo\")]/x",
            "a[@id = \"x\" and b[2]/c]/d[last()]",
            "a[@id = \"x\"]/e",
        ];
        let mut cache = CompileCache::new();
        for text in battery {
            let norm = normalize(&parse(text).unwrap());
            let plain = compile(&norm).unwrap();
            let cached = compile_with_cache(&norm, &mut cache).unwrap();
            assert_eq!(plain, cached, "cache changed the compilation of {text}");
        }
        assert!(cache.hits > 0, "overlapping qualifiers must hit the cache");
        assert!(!cache.is_empty());
        assert!(cache.pool_entries() > 0);
        // Recompiling the whole battery is now pure cache hits.
        let misses_before = cache.misses;
        for text in battery {
            let norm = normalize(&parse(text).unwrap());
            compile_with_cache(&norm, &mut cache).unwrap();
        }
        assert_eq!(cache.misses, misses_before);
    }
}
