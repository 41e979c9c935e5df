//! The site kernel: evaluation sweeps over an XML (sub)tree.
//!
//! Everything a site does to a fragment during one visit is made of two
//! private sweeps over one [`FormulaArena`]:
//!
//! * the *qualifier sweep* — bottom-up (§3.1, the extended ParBoX): `QV`/`QDV`
//!   vectors for every node, residual formulas at and above virtual nodes;
//! * the *selection sweep* — top-down (§3.2, Procedure `topDown`): `SV`
//!   vectors, answers and candidate answers, and the vector to ship for each
//!   virtual node. It reads qualifier values through a callback.
//!
//! The three public passes are thin shells over them, shared by the
//! centralized evaluator and the distributed algorithms (`paxml-core`):
//!
//! * [`qualifier_pass`] — PaX3 Stage 1: qualifier sweep, exported;
//! * [`selection_pass`] — PaX3 Stage 2: selection sweep over imported
//!   qualifier values, exported;
//! * [`combined_pass`] — the PaX2 visit (§4) and the centralized evaluator:
//!   qualifier sweep, then selection sweep reading the first sweep's vectors
//!   in place. The paper fuses the two into one traversal with `qz`
//!   placeholder variables; two in-memory sweeps inside the same visit need
//!   no placeholder and no substitution (see PAPER.md, "Deviations").
//!
//! All passes are generic over the variable type `V` so that the distributed
//! layer can use globally-unique variable names while the centralized
//! evaluator uses an uninhabited variable type (everything is constant).
//!
//! # Vector representation
//!
//! The kernel keeps per-node vectors in a two-tier form. At every node that
//! is *not* adjacent to a virtual node, all entries are already known truth
//! values, so vectors stay as packed [`BitVector`]s — one inline word up to
//! 64 entries — and the child-fold loops run word-wise (64 entries per
//! AND/OR instruction). The constant path performs **no heap allocation per
//! node**: the tree walks follow links, children are pushed straight onto
//! the top-down stack, positional facts go through one per-sweep scratch,
//! and what is left is a few allocations per pass (the per-node vector
//! tables, and the amortised growth of the stack and the output lists) —
//! `tests/allocations.rs` pins that. Only once a virtual node's fresh
//! variables flow into a vector does it switch to per-entry formulas —
//! and those formulas live as interned [`ExprId`]s in the visit's
//! [`FormulaArena`], so combining the `O(k)` residual formulas never clones a
//! subtree. Pass outputs are exported as [`CompactVector`]s (bits for
//! fully-constant vectors, self-contained [`BoolExpr`] trees otherwise),
//! which is also the wire format: a variable-free leaf fragment ships
//! `⌈len/64⌉` words per vector.

use crate::ast::CmpOp;
use crate::compile::{CompiledQuery, PosFilter, QAxis, QEntry, QEntryId, SelItem};
use paxml_boolex::{BitVector, BoolExpr, CompactVector, ExprId, FormulaArena};
use paxml_xml::{NodeId, XmlTree};
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// Trait bound shorthand for formula variables.
pub trait VarLike: Clone + Eq + Ord + Hash {}
impl<T: Clone + Eq + Ord + Hash> VarLike for T {}

/// The kernel's working vector: packed bits until a variable is introduced,
/// interned formula ids afterwards. Cloning either arm copies a flat `Vec`
/// of machine words — never a formula tree.
#[derive(Debug, Clone)]
enum AVec {
    /// Every entry is a known constant.
    Bits(BitVector),
    /// At least one entry is symbolic; entries are ids into the pass arena.
    Ids(Vec<ExprId>),
}

impl AVec {
    fn all_false(len: usize) -> AVec {
        AVec::Bits(BitVector::all_false(len))
    }

    fn len(&self) -> usize {
        match self {
            AVec::Bits(b) => b.len(),
            AVec::Ids(v) => v.len(),
        }
    }

    /// The entry as an arena id (constants use the two fixed ids).
    fn id(&self, index: usize) -> ExprId {
        match self {
            AVec::Bits(b) => ExprId::of_const(b.get(index)),
            AVec::Ids(v) => v[index],
        }
    }

    /// Overwrite an entry, promoting to the ids arm when a symbolic id
    /// lands in a bits vector.
    fn set(&mut self, index: usize, id: ExprId) {
        match self {
            AVec::Bits(b) => match id.as_const() {
                Some(v) => b.set(index, v),
                None => {
                    let mut ids: Vec<ExprId> = b.iter().map(ExprId::of_const).collect();
                    ids[index] = id;
                    *self = AVec::Ids(ids);
                }
            },
            AVec::Ids(v) => v[index] = id,
        }
    }

    /// `self[i] |= other[i]` for every entry — word-wise when both sides
    /// are constant, which is the overwhelmingly common case.
    fn or_into<V: VarLike>(&mut self, other: &AVec, arena: &mut FormulaArena<V>) {
        if let (AVec::Bits(a), AVec::Bits(b)) = (&mut *self, other) {
            a.or_assign(b);
            return;
        }
        for i in 0..self.len() {
            let id = arena.or(self.id(i), other.id(i));
            self.set(i, id);
        }
    }

    /// Import a wire-format vector into the pass arena.
    fn from_compact<V: VarLike>(vector: &CompactVector<V>, arena: &mut FormulaArena<V>) -> AVec {
        match vector {
            CompactVector::Bits(b) => AVec::Bits(b.clone()),
            CompactVector::Formulas(f) => AVec::Ids(f.iter().map(|e| arena.from_expr(e)).collect()),
        }
    }

    /// Export to the wire format (bits move without conversion; formulas
    /// are materialized as self-contained trees).
    fn into_compact<V: VarLike>(self, arena: &FormulaArena<V>) -> CompactVector<V> {
        match self {
            AVec::Bits(b) => CompactVector::Bits(b),
            AVec::Ids(ids) => {
                CompactVector::from_exprs(ids.iter().map(|&id| arena.to_expr(id)).collect())
            }
        }
    }

    /// A copy of the vector with constant entries (positional facts)
    /// appended at the end — shifted in word-wise on the bits path.
    fn extended_with(&self, facts: &BitVector) -> AVec {
        match self {
            AVec::Bits(b) => AVec::Bits(b.concat(facts)),
            AVec::Ids(v) => {
                let mut ids = v.clone();
                ids.extend(facts.iter().map(ExprId::of_const));
                AVec::Ids(ids)
            }
        }
    }
}

/// Every child of `parent` with whether it sits at an accepted position
/// among the test-matching children. Children that do not match the filter's
/// node test (text nodes in particular) are never accepted; virtual
/// placeholders count through their recorded root label. Walks the sibling
/// chain (twice for `last()`) and allocates nothing.
pub(crate) fn position_accepts<'a>(
    tree: &'a XmlTree,
    parent: NodeId,
    filter: &'a PosFilter,
) -> impl Iterator<Item = (NodeId, bool)> + 'a {
    let counts = move |c: NodeId| filter.test.matches(tree.step_label(c));
    let total = if filter.needs_total() {
        tree.children(parent).filter(|&c| counts(c)).count() as u32
    } else {
        0
    };
    let mut index = 0u32;
    tree.children(parent).map(move |c| {
        let accepted = counts(c) && {
            index += 1;
            filter.accepts(index, total)
        };
        (c, accepted)
    })
}

/// Positional-fact rows for every child of `parent`, written into the
/// sweep's `rows` scratch: `rows[k]` holds fact `j` of `query.sel_positions`
/// at the `k`-th child as bit `j`. Called only for queries with positional
/// predicates.
fn child_fact_rows(
    tree: &XmlTree,
    parent: NodeId,
    query: &CompiledQuery,
    rows: &mut Vec<BitVector>,
) {
    rows.clear();
    rows.extend(tree.children(parent).map(|_| BitVector::all_false(query.sel_positions.len())));
    for (j, sp) in query.sel_positions.iter().enumerate() {
        for (row, (_, accepted)) in rows.iter_mut().zip(position_accepts(tree, parent, &sp.filter))
        {
            row.set(j, accepted);
        }
    }
}

/// The pair of vectors a fragment publishes for its root and that a parent
/// fragment needs for each of its virtual nodes: the node's own `QV` vector
/// and its descendant-closure `QDV` vector.
///
/// The paper ships a triplet `(QV, QCV, QDV)`; our entry compilation only
/// ever consults a child's `QV` and `QDV`, so `QCV` (which is derivable as
/// the disjunction of the children's `QV`s) is omitted from messages. The
/// asymptotic communication bound `O(|Q|·|FT|)` is unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualVectors<V: Ord> {
    /// `QV` — the value of every `QVect` entry at the node.
    pub qv: CompactVector<V>,
    /// `QDV` — for every entry, "true at the node or at some descendant".
    pub qdv: CompactVector<V>,
}

impl<V: VarLike> QualVectors<V> {
    /// Vectors of the right length with every entry `false`.
    pub fn all_false(len: usize) -> Self {
        QualVectors { qv: CompactVector::all_false(len), qdv: CompactVector::all_false(len) }
    }

    /// Apply a partial truth-value lookup to both vectors.
    pub fn assign_with(&self, lookup: &impl Fn(&V) -> Option<bool>) -> Self {
        QualVectors { qv: self.qv.assign_with(lookup), qdv: self.qdv.assign_with(lookup) }
    }

    /// Apply an assignment to both vectors.
    pub fn assign(&self, env: &paxml_boolex::Assignment<V>) -> Self {
        self.assign_with(&|v| env.get(v))
    }

    /// Are both vectors free of variables?
    pub fn is_fully_resolved(&self) -> bool {
        self.qv.is_fully_resolved() && self.qdv.is_fully_resolved()
    }
}

/// Result of the bottom-up qualifier pass over one subtree.
#[derive(Debug, Clone)]
pub struct QualifierPassOutput<V: Ord> {
    /// Per-node `QV` vectors, indexed by the node's arena index. Entries are
    /// `None` for nodes outside the evaluated subtree. Virtual nodes hold the
    /// vectors supplied by the `virtual_vectors` callback.
    pub node_qv: Vec<Option<CompactVector<V>>>,
    /// The `QV`/`QDV` vectors of the subtree root — what a fragment sends to
    /// the coordinator at the end of Stage 1.
    pub root: QualVectors<V>,
    /// Number of elementary operations performed (nodes × vector entries),
    /// the paper's unit of computation cost.
    pub ops: u64,
}

/// Evaluate every `QVect` entry at every node of the subtree rooted at
/// `root`, bottom-up, in a single pass.
///
/// `virtual_vectors` supplies, for every virtual node encountered, the
/// `QV`/`QDV` vectors standing for the missing sub-fragment's root — fresh
/// variables during distributed Stage 1, resolved constants during Stage 2.
pub fn qualifier_pass<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    virtual_vectors: impl FnMut(NodeId) -> QualVectors<V>,
) -> QualifierPassOutput<V> {
    let mut arena: FormulaArena<V> = FormulaArena::new();
    let sweep = qualifier_sweep(&mut arena, tree, root, query, virtual_vectors);
    let root = sweep.root_vectors(root, &arena);
    let node_qv =
        sweep.node_qv.into_iter().map(|av| av.map(|av| av.into_compact(&arena))).collect();
    QualifierPassOutput { node_qv, root, ops: sweep.ops }
}

/// What the qualifier sweep leaves in the arena: every node's `QV`, the
/// subtree root's `QDV`, and the operation count.
struct QualSweep {
    /// Per-node `QV`, indexed by arena index; `None` outside the subtree.
    node_qv: Vec<Option<AVec>>,
    /// Per-node `QDV`; a node's entry is consumed when its parent folds it,
    /// so after the sweep only the subtree root's is left.
    node_qdv: Vec<Option<AVec>>,
    ops: u64,
}

impl QualSweep {
    /// The subtree root's `QV`/`QDV` in wire form (unswept only for a query
    /// without qualifiers, whose vectors are empty).
    fn root_vectors<V: VarLike>(&self, root: NodeId, arena: &FormulaArena<V>) -> QualVectors<V> {
        let export = |vectors: &[Option<AVec>]| match &vectors[root.index()] {
            Some(av) => av.clone().into_compact(arena),
            None => CompactVector::all_false(0),
        };
        QualVectors { qv: export(&self.node_qv), qdv: export(&self.node_qdv) }
    }
}

/// The bottom-up sweep (§3.1): `QV`/`QDV` of every node of the subtree, as
/// working vectors in `arena`. The one post-order loop body of the kernel.
fn qualifier_sweep<V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    mut virtual_vectors: impl FnMut(NodeId) -> QualVectors<V>,
) -> QualSweep {
    let qlen = query.qvect_len();
    let mut sweep = QualSweep {
        node_qv: vec![None; tree.node_count()],
        node_qdv: vec![None; tree.node_count()],
        ops: 0,
    };
    if qlen == 0 {
        // No qualifier, nothing to compute bottom-up: PaX3 skips Stage 1 for
        // such a query, and so does every PaX2 and centralized visit.
        return sweep;
    }

    for v in tree.post_order(root) {
        if tree.is_virtual(v) {
            let vectors = virtual_vectors(v);
            debug_assert_eq!(vectors.qv.len(), qlen);
            sweep.node_qv[v.index()] = Some(AVec::from_compact(&vectors.qv, arena));
            sweep.node_qdv[v.index()] = Some(AVec::from_compact(&vectors.qdv, arena));
            sweep.ops += qlen as u64;
            continue;
        }

        // Fold the children's vectors into "some child has entry i true"
        // (the paper's QCV) and "some child's subtree has entry i true".
        let mut child_any_qv = AVec::all_false(qlen);
        let mut child_any_qdv = AVec::all_false(qlen);
        for c in tree.children(v) {
            let cqv = sweep.node_qv[c.index()].as_ref().expect("children processed before parent");
            let cqdv = sweep.node_qdv[c.index()].take().expect("children processed before parent");
            child_any_qv.or_into(cqv, arena);
            child_any_qdv.or_into(&cqdv, arena);
            sweep.ops += 2 * qlen as u64;
        }

        let mut qv = AVec::all_false(qlen);
        for (i, entry) in query.qvect.iter().enumerate() {
            let value = eval_qentry(
                arena,
                tree,
                v,
                entry,
                &qv,
                &child_any_qv,
                &child_any_qdv,
                &sweep.node_qv,
            );
            qv.set(i, value);
            sweep.ops += 1;
        }

        // QDV_v(i) = QV_v(i) ∨ (some child's QDV has i).
        let mut qdv = child_any_qdv;
        qdv.or_into(&qv, arena);
        sweep.ops += qlen as u64;

        sweep.node_qv[v.index()] = Some(qv);
        sweep.node_qdv[v.index()] = Some(qdv);
    }
    sweep
}

/// `text` read as a number (whitespace trimmed, a leading `$` tolerated)
/// satisfies `op n`; non-numbers and absent values fail closed.
fn numeric_holds(text: Option<&str>, op: CmpOp, n: f64) -> bool {
    text.and_then(|t| {
        let t = t.trim();
        t.strip_prefix('$').unwrap_or(t).parse::<f64>().ok()
    })
    .is_some_and(|value| op.apply(value, n))
}

/// Evaluate one `QVect` entry at a node, given the already-computed earlier
/// entries at the same node (`qv_so_far`) and the folded child vectors. On
/// the constant path this is pure integer work — no allocation at all.
///
/// `node_qv` gives access to the individual children's `QV` vectors; it is
/// only consulted for positionally-filtered child steps, where the plain
/// disjunctive fold is not enough (only the children at accepted sibling
/// positions may witness the step).
#[allow(clippy::too_many_arguments)]
fn eval_qentry<V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    v: NodeId,
    entry: &QEntry,
    qv_so_far: &AVec,
    child_any_qv: &AVec,
    child_any_qdv: &AVec,
    node_qv: &[Option<AVec>],
) -> ExprId {
    // Counted child-fold: OR of `entry` over the children sitting at
    // positions accepted by `filter`.
    let counted_fold = |arena: &mut FormulaArena<V>, e: QEntryId, filter: &PosFilter| {
        arena.or_all(position_accepts(tree, v, filter).filter(|&(_, ok)| ok).map(|(c, _)| {
            node_qv[c.index()].as_ref().expect("children processed before parent").id(e)
        }))
    };
    match entry {
        QEntry::LabelTest(label) => ExprId::of_const(tree.label(v) == Some(label.as_str())),
        QEntry::ElementTest => ExprId::of_const(tree.is_element(v)),
        QEntry::TextTest(s) => ExprId::of_const(tree.text_value(v) == Some(s.as_str())),
        QEntry::ValTest(op, n) => ExprId::of_const(numeric_holds(tree.text_value(v), *op, *n)),
        QEntry::AttrTest(a) => ExprId::of_const(tree.attribute(v, a).is_some()),
        QEntry::AttrValueTest(a, s) => ExprId::of_const(tree.attribute(v, a) == Some(s.as_str())),
        QEntry::AttrCmpTest(a, op, n) => {
            ExprId::of_const(numeric_holds(tree.attribute(v, a), *op, *n))
        }
        QEntry::Step { test, quals, next, next_pos } => {
            let next_id = match (next, next_pos) {
                (None, _) => None,
                (Some((QAxis::Child, e)), Some(filter)) => Some(counted_fold(arena, *e, filter)),
                (Some((QAxis::Child, e)), None) => Some(child_any_qv.id(*e)),
                (Some((QAxis::Descendant, e)), _) => Some(child_any_qdv.id(*e)),
            };
            // One n-ary conjunction: no intermediate `And` node is interned
            // for the prefix of a longer conjunct list (and on the constant
            // path `and_all` folds without touching the arena at all).
            arena.and_all(
                std::iter::once(qv_so_far.id(*test))
                    .chain(quals.iter().map(|q| qv_so_far.id(*q)))
                    .chain(next_id),
            )
        }
        QEntry::Exists { axis, entry, pos } => match (axis, pos) {
            (QAxis::Child, Some(filter)) => counted_fold(arena, *entry, filter),
            (QAxis::Child, None) => child_any_qv.id(*entry),
            (QAxis::Descendant, _) => child_any_qdv.id(*entry),
        },
        QEntry::Not(e) => {
            let inner = qv_so_far.id(*e);
            arena.not(inner)
        }
        QEntry::And(es) => arena.and_all(es.iter().map(|e| qv_so_far.id(*e))),
        QEntry::Or(es) => arena.or_all(es.iter().map(|e| qv_so_far.id(*e))),
    }
}

/// The initial `SV` vector for evaluating a query at the *global* root of a
/// tree: the vector of the implicit document node sitting above the root
/// element.
///
/// * entry 0 (the empty prefix) is true exactly when the query is absolute —
///   the document node is then the evaluation context;
/// * a run of *leading* `//` items inherits that truth (the document node is
///   in its own descendant-or-self closure), so that absolute queries such as
///   `//broker/name` can match starting at the root element;
/// * every other entry is false.
///
/// For a relative query the context is the root element itself; pass the
/// root as the `context` argument of [`selection_pass`] (see
/// [`evaluation_context`]).
pub fn root_context_vector(query: &CompiledQuery) -> Vec<bool> {
    let mut sv = vec![false; query.svect_len()];
    if query.absolute {
        sv[0] = true;
        for (idx, item) in query.sel_items.iter().enumerate() {
            match item {
                SelItem::DescendantOrSelf => sv[idx + 1] = sv[idx],
                _ => break,
            }
        }
    }
    sv
}

/// The full initial *carried* vector for evaluating at the global root of a
/// tree whose root element carries `root_label`: the [`root_context_vector`]
/// followed by the root element's positional facts. The root element is the
/// only child of the implicit document node, so each fact is "index 1 of 1
/// accepted, provided the root's label matches the counted test".
///
/// Equal to [`root_context_vector`] when the query has no positional
/// predicates; this is what every driver must feed to [`selection_pass`] /
/// [`combined_pass`] for the root fragment.
pub fn initial_vector(query: &CompiledQuery, root_label: &str) -> Vec<bool> {
    let mut v = root_context_vector(query);
    for sp in &query.sel_positions {
        let matches = sp.filter.test.matches(Some(root_label));
        v.push(matches && sp.filter.accepts(1, 1));
    }
    v
}

/// The node whose empty-prefix entry is true when evaluating at the global
/// root: the root element for relative queries, nothing for absolute ones.
pub fn evaluation_context(query: &CompiledQuery, root: NodeId) -> Option<NodeId> {
    if query.absolute {
        None
    } else {
        Some(root)
    }
}

/// Result of the top-down selection pass over one subtree.
#[derive(Debug, Clone)]
pub struct SelectionPassOutput<V: Ord> {
    /// Nodes whose membership in the answer is already certain.
    pub answers: Vec<NodeId>,
    /// Candidate answers: nodes whose membership depends on the residual
    /// formula (over ancestor-summary and qualifier variables).
    pub candidates: Vec<(NodeId, BoolExpr<V>)>,
    /// For every virtual node: the ancestor-summary `SV` vector that the
    /// corresponding sub-fragment needs as its initial stack vector.
    pub virtual_vectors: Vec<(NodeId, CompactVector<V>)>,
    /// Elementary operations performed.
    pub ops: u64,
}

/// Evaluate the selection path over the subtree rooted at `root`, top-down,
/// in a single pass (Procedure `topDown` of Fig. 4).
///
/// * `init` is the `SV` vector of the (possibly unknown) parent of `root`:
///   all-false-except-entry-0 for the global evaluation context, or a vector
///   of fresh variables for a non-root fragment.
/// * `context` is the node whose empty-prefix entry (entry 0) is true — the
///   global root element for relative queries, `None` otherwise.
/// * `qual_value(v, e)` returns the (constant or residual) truth value of
///   `QVect` entry `e` at node `v`, as established by Stage 1.
pub fn selection_pass<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    init: CompactVector<V>,
    context: Option<NodeId>,
    qual_value: &mut impl FnMut(NodeId, QEntryId) -> BoolExpr<V>,
) -> SelectionPassOutput<V> {
    let mut arena: FormulaArena<V> = FormulaArena::new();
    selection_sweep(&mut arena, tree, root, query, &init, context, &mut |arena, v, e| {
        arena.from_expr(&qual_value(v, e))
    })
}

/// The top-down sweep (§3.2): the one pre-order loop body of the kernel.
/// `qual_id(arena, v, e)` is the value of `QVect` entry `e` at node `v` as an
/// id in `arena`; residual formulas leave the arena only where they leave
/// the site (candidate answers, virtual-node vectors).
fn selection_sweep<V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    init: &CompactVector<V>,
    context: Option<NodeId>,
    qual_id: &mut impl FnMut(&mut FormulaArena<V>, NodeId, QEntryId) -> ExprId,
) -> SelectionPassOutput<V> {
    let slen = query.svect_len();
    debug_assert_eq!(
        init.len(),
        query.init_len(),
        "init vector must have |SVect| + |positions| entries"
    );
    let mut out = SelectionPassOutput {
        answers: Vec::new(),
        candidates: Vec::new(),
        virtual_vectors: Vec::new(),
        ops: 0,
    };

    // Explicit DFS stack carrying the parent's (summarised) SV vector plus,
    // when the query has positional predicates, the node's own positional
    // facts (entries slen..slen+P, computed by the parent while pushing).
    // `rows` is the sweep's fact scratch; neither it nor the stack allocates
    // per node once grown.
    let init = AVec::from_compact(init, arena);
    let mut stack: Vec<(NodeId, AVec)> = vec![(root, init)];
    let mut rows: Vec<BitVector> = Vec::new();
    while let Some((v, carried)) = stack.pop() {
        if tree.is_virtual(v) {
            // The stack-top summarises everything known about the ancestors
            // of the missing fragment's root (and the root's own positional
            // facts) — exactly what that fragment needs as its initial
            // vector (§3.2, Example 3.4).
            out.virtual_vectors.push((v, carried.into_compact(arena)));
            out.ops += slen as u64;
            continue;
        }

        let sv = compute_sv(arena, tree, v, query, &carried, context, qual_id);
        out.ops += slen as u64;

        if tree.is_element(v) || query.sel_items.is_empty() {
            let last = sv.id(slen - 1);
            if last == ExprId::TRUE {
                out.answers.push(v);
            } else if !last.is_const() {
                out.candidates.push((v, arena.to_expr(last)));
            }
        }

        // Children inherit v's vector as their ancestor summary, extended
        // with their own positional facts (all children of v are locally
        // present, so v can count them — including virtual placeholders,
        // whose recorded root label stands in for the missing root). They
        // are pushed in document order and the run is reversed in place, so
        // the first child is popped first.
        let first = stack.len();
        if query.sel_positions.is_empty() {
            stack.extend(tree.children(v).map(|c| (c, sv.clone())));
        } else {
            child_fact_rows(tree, v, query, &mut rows);
            out.ops += (rows.len() * query.sel_positions.len()) as u64;
            stack.extend(tree.children(v).zip(&rows).map(|(c, row)| (c, sv.extended_with(row))));
        }
        stack[first..].reverse();
    }
    out
}

/// Compute the `SV` vector of a node from its carried vector (the parent's
/// `SV` entries followed by this node's positional facts). The result has
/// `svect_len` entries — the caller appends the children's facts when
/// pushing them.
fn compute_sv<V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    v: NodeId,
    query: &CompiledQuery,
    carried: &AVec,
    context: Option<NodeId>,
    qual_id: &mut impl FnMut(&mut FormulaArena<V>, NodeId, QEntryId) -> ExprId,
) -> AVec {
    let slen = query.svect_len();
    let mut sv = AVec::all_false(slen);
    // Entry 0: the empty prefix — true only at the evaluation context.
    sv.set(0, ExprId::of_const(Some(v) == context));
    for (idx, item) in query.sel_items.iter().enumerate() {
        let i = idx + 1;
        let mut value = match item {
            SelItem::Label(l) => {
                if tree.label(v) == Some(l.as_str()) {
                    carried.id(i - 1)
                } else {
                    ExprId::FALSE
                }
            }
            SelItem::Wildcard => {
                if tree.is_element(v) {
                    carried.id(i - 1)
                } else {
                    ExprId::FALSE
                }
            }
            SelItem::DescendantOrSelf => arena.or(carried.id(i), sv.id(i - 1)),
            SelItem::SelfQualifier(quals) => {
                let mut acc = sv.id(i - 1);
                for q in quals {
                    if acc == ExprId::FALSE {
                        break;
                    }
                    let qid = qual_id(arena, v, *q);
                    acc = arena.and(acc, qid);
                }
                acc
            }
        };
        // AND in this node's positional facts for the step, straight from
        // the carried tail (entries slen..slen+P).
        if !query.sel_positions.is_empty() && matches!(item, SelItem::Label(_) | SelItem::Wildcard)
        {
            for (j, sp) in query.sel_positions.iter().enumerate() {
                if sp.item == idx && value != ExprId::FALSE {
                    let fact = carried.id(slen + j);
                    value = arena.and(value, fact);
                }
            }
        }
        sv.set(i, value);
    }
    sv
}

/// Result of the PaX2 visit ([`combined_pass`]) over one subtree.
#[derive(Debug, Clone)]
pub struct CombinedPassOutput<V: Ord> {
    /// Certain answers.
    pub answers: Vec<NodeId>,
    /// Candidate answers with their residual formulas (over ancestor-summary
    /// variables and the qualifier variables of virtual nodes).
    pub candidates: Vec<(NodeId, BoolExpr<V>)>,
    /// Ancestor-summary `SV` vector for every virtual node.
    pub virtual_vectors: Vec<(NodeId, CompactVector<V>)>,
    /// Root `QV`/`QDV` vectors (as in Stage 1 of PaX3).
    pub root: QualVectors<V>,
    /// Elementary operations performed.
    pub ops: u64,
}

/// The PaX2 visit (§4) over one subtree: the qualifier sweep, then the
/// selection sweep reading the first sweep's `QV` vectors in place — same
/// arena, same site visit, so no formula is exported between the two and
/// nothing has to be unified afterwards. Over an unfragmented tree this is
/// the centralized evaluator.
///
/// `_local_var` is ignored: the paper's single traversal needs a `qz`
/// placeholder per not-yet-known qualifier value, two sweeps do not. The
/// parameter stays because the frozen `benchmark/src/shadow.rs` passes seven
/// arguments; ROADMAP 5(b) drops it when the shadow is next opened.
pub fn combined_pass<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    init: CompactVector<V>,
    context: Option<NodeId>,
    virtual_qual_vectors: impl FnMut(NodeId) -> QualVectors<V>,
    _local_var: impl Fn(NodeId, QEntryId) -> V,
) -> CombinedPassOutput<V> {
    let mut arena: FormulaArena<V> = FormulaArena::new();
    let quals = qualifier_sweep(&mut arena, tree, root, query, virtual_qual_vectors);
    let sel = selection_sweep(&mut arena, tree, root, query, &init, context, &mut |_, v, e| {
        quals.node_qv[v.index()].as_ref().expect("the qualifier sweep covered the subtree").id(e)
    });
    CombinedPassOutput {
        answers: sel.answers,
        candidates: sel.candidates,
        virtual_vectors: sel.virtual_vectors,
        root: quals.root_vectors(root, &arena),
        ops: quals.ops + sel.ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::normalize::normalize;
    use crate::parse;
    use paxml_boolex::Assignment;
    use paxml_xml::TreeBuilder;

    /// Variable type for tests that never introduce variables.
    type NoVar = u8;

    fn compiled(text: &str) -> CompiledQuery {
        compile(&normalize(&parse(text).unwrap())).unwrap()
    }

    fn clientele() -> paxml_xml::XmlTree {
        // A condensed version of Fig. 1 (single site, no fragmentation).
        TreeBuilder::new("clientele")
            .open("client")
            .leaf("name", "Anna")
            .leaf("country", "US")
            .open("broker")
            .leaf("name", "E*trade")
            .open("market")
            .leaf("name", "NASDAQ")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$374")
            .leaf("qt", "40")
            .close()
            .close()
            .close()
            .close()
            .open("client")
            .leaf("name", "Lisa")
            .leaf("country", "Canada")
            .open("broker")
            .leaf("name", "CIBC")
            .open("market")
            .leaf("name", "TSE")
            .open("stock")
            .leaf("code", "GOOG")
            .leaf("buy", "$382")
            .leaf("qt", "90")
            .close()
            .close()
            .close()
            .close()
            .build()
    }

    #[test]
    fn qualifier_pass_computes_constants_on_unfragmented_tree() {
        let tree = clientele();
        let q = compiled(
            "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name",
        );
        let out = qualifier_pass::<NoVar>(&tree, tree.root(), &q, |_| unreachable!());
        assert!(out.root.is_fully_resolved());
        assert!(out.ops > 0);
        // Constant vectors stay in the packed-bits representation.
        assert!(matches!(out.root.qv, CompactVector::Bits(_)));
        // The US client node must satisfy the first qualifier, the Canadian
        // one must not. Qualifier 1 is the last entry of the first
        // SelfQualifier item.
        let clients = tree.find_all("client");
        let first_qual_entry = match &q.sel_items[1] {
            SelItem::SelfQualifier(ids) => ids[0],
            other => panic!("unexpected {other:?}"),
        };
        let us_val = out.node_qv[clients[0].index()].as_ref().unwrap().const_at(first_qual_entry);
        let ca_val = out.node_qv[clients[1].index()].as_ref().unwrap().const_at(first_qual_entry);
        assert_eq!(us_val, Some(true));
        assert_eq!(ca_val, Some(false));
    }

    #[test]
    fn selection_pass_finds_expected_answers() {
        let tree = clientele();
        let q = compiled(
            "client[country/text() = \"US\"]/broker[market/name/text() = \"NASDAQ\"]/name",
        );
        let quals = qualifier_pass::<NoVar>(&tree, tree.root(), &q, |_| unreachable!());
        let init = CompactVector::all_false(q.svect_len());
        let mut qual_value =
            |v: NodeId, e: QEntryId| quals.node_qv[v.index()].as_ref().unwrap().expr(e);
        let out = selection_pass::<NoVar>(
            &tree,
            tree.root(),
            &q,
            init,
            Some(tree.root()),
            &mut qual_value,
        );
        // Only the US client's broker name qualifies: "E*trade".
        assert_eq!(out.answers.len(), 1);
        assert_eq!(tree.text_of(out.answers[0]), Some("E*trade".to_string()));
        assert!(out.candidates.is_empty());
        assert!(out.virtual_vectors.is_empty());
    }

    #[test]
    fn absolute_query_context_is_the_document_node() {
        let tree = clientele();
        let q = compiled("/clientele/client/name");
        let quals = qualifier_pass::<NoVar>(&tree, tree.root(), &q, |_| unreachable!());
        let init = root_context_vector(&q);
        assert!(init[0]);
        let context = evaluation_context(&q, tree.root());
        assert_eq!(context, None);
        let mut qual_value =
            |v: NodeId, e: QEntryId| quals.node_qv[v.index()].as_ref().unwrap().expr(e);
        let out = selection_pass::<NoVar>(
            &tree,
            tree.root(),
            &q,
            CompactVector::from_bools(&init),
            context,
            &mut qual_value,
        );
        assert_eq!(out.answers.len(), 2); // both clients' name elements
    }

    #[test]
    fn descendant_axis_propagates_down() {
        let tree = clientele();
        let q = compiled("//code");
        let quals = qualifier_pass::<NoVar>(&tree, tree.root(), &q, |_| unreachable!());
        let init = root_context_vector(&q);
        // Leading `//` inherits the context truth so the root element can
        // already be inside the closure.
        assert!(init[1]);
        let mut qual_value =
            |v: NodeId, e: QEntryId| quals.node_qv[v.index()].as_ref().unwrap().expr(e);
        let out = selection_pass::<NoVar>(
            &tree,
            tree.root(),
            &q,
            CompactVector::from_bools(&init),
            None,
            &mut qual_value,
        );
        assert_eq!(out.answers.len(), 2);
        for a in &out.answers {
            assert_eq!(tree.label(*a), Some("code"));
        }
    }

    #[test]
    fn variables_flow_through_selection_when_init_is_unknown() {
        // Simulate a non-root fragment: the init vector is all variables.
        let tree = TreeBuilder::new("broker").leaf("name", "Bache").build();
        let q = compiled("client/broker/name");
        let quals = qualifier_pass::<String>(&tree, tree.root(), &q, |_| unreachable!());
        let init = CompactVector::fresh_variables(q.svect_len(), |i| format!("z{i}"));
        let mut qual_value =
            |v: NodeId, e: QEntryId| quals.node_qv[v.index()].as_ref().unwrap().expr(e);
        let out = selection_pass::<String>(&tree, tree.root(), &q, init, None, &mut qual_value);
        // The name node is a *candidate*: it is an answer iff the unknown
        // ancestor prefix ends in a matched `client` (variable z1 of the
        // paper's Example 3.4; here the entry index is 1 for the client
        // prefix because entry 0 is the empty prefix).
        assert!(out.answers.is_empty());
        assert_eq!(out.candidates.len(), 1);
        let (node, formula) = &out.candidates[0];
        assert_eq!(tree.text_of(*node), Some("Bache".to_string()));
        assert_eq!(formula.variables().len(), 1);
        // Unifying the variable with "the parent prefix client/broker was
        // matched up to client" turns the candidate into an answer.
        let var = formula.variables().into_iter().next().unwrap();
        let mut env = Assignment::new();
        env.set(var, true);
        assert!(formula.assign(&env).is_true());
    }
}
