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
//! The public passes are thin shells over them, shared by the centralized
//! evaluator and the distributed algorithms (`paxml-core`):
//!
//! * [`qualifier_sweep`] — PaX3 Stage 1: qualifier sweep, root vectors
//!   exported and the rest kept as [`ParkedQualifiers`] — the union phase's
//!   words and the spine's vectors — for the site to park;
//! * [`parked_selection_pass`] — PaX3 Stage 2: selection sweep reading the
//!   parked words in place, over the fragment's label summary;
//! * [`combined_pass`] — the PaX2 visit (§4) and the centralized evaluator:
//!   qualifier sweep, then selection sweep reading the first sweep's vectors
//!   in place. The paper fuses the two into one traversal with `qz`
//!   placeholder variables; two in-memory sweeps inside the same visit need
//!   no placeholder and no substitution (see PAPER.md, "Deviations");
//! * [`multi_combined_pass`] — the PaX2 visit of many queries at once, of
//!   which [`combined_pass`] is the batch of one (below).
//!
//! Like PaX2's visit, PaX3's two stages export nothing per node: between its
//! sweeps a fragment ships only its root vectors. [`qualifier_pass`], which
//! exports one vector per node, and [`selection_pass`], which reads them
//! back through a callback, are the older Stage 1 and Stage 2 shapes, kept
//! for the benchmark's re-enactment of PaX3 and the kernel tests.
//!
//! All passes are generic over the variable type `V` so that the distributed
//! layer can use globally-unique variable names while the centralized
//! evaluator uses an uninhabited variable type (everything is constant).
//!
//! # Vector representation
//!
//! Outside the arena, vectors are packed [`BitVector`]s — one inline word up
//! to 64 entries — and the child-fold loops run word-wise (64 entries per
//! AND/OR instruction). Formulas over variables live as interned [`ExprId`]s
//! in the visit's [`FormulaArena`], so combining the `O(k)` residual formulas
//! never clones a subtree.
//!
//! A node's entries are computed in a *lane*: `bool`s in one `u64` (the
//! **word lane**), `u64` sets of disjuncts (the **disjunction lane**) or
//! [`ExprId`]s over the visit's arena (the **arena lane**). The lanes share
//! one definition of the entry semantics — the qualifier sweep's compiled
//! program (below) and `compute_sv`, generic over the private `Lane` trait —
//! and each phase of a visit has one lane rule:
//!
//! * the qualifier sweep's **union phase** (below) computes every node with
//!   no virtual node below it. Its children are constant by construction, so
//!   it runs the word lane, which it alone runs;
//! * the qualifier sweep's **spine phase** computes the virtual nodes and
//!   their ancestors, whose inputs may be symbolic, in the arena lane;
//! * the **selection sweep** runs the disjunction lane. An entry is a `u64`
//!   set of disjuncts: bit 0 is `true`, bit `j + 1` is init entry `j`. A
//!   constant is the set `{}` or `{true}`, so the root fragment's facts are
//!   sets at any width; a non-root fragment's fresh variables (§3.2), which
//!   `//` steps only ever OR together, are sets while the init has at most 62
//!   entries. The carried sets of the stack live in one flat per-sweep
//!   buffer. A set becomes an arena id only where a formula leaves the site
//!   (a candidate answer, a virtual node's summary), as the `Or` of its
//!   variables — the id, tree and bytes the arena lane would give. Fallback
//!   is per node: a node that reads a symbolic qualifier value or ANDs two
//!   different symbolic sets reruns in the arena lane, and its children
//!   re-enter the disjunction lane as soon as its `SV` is sets again.
//!
//! In the selection sweep, a node whose `SV` is all false has no answer or
//! candidate below it. For a query without positional predicates the sweep
//! *fast-forwards* such a subtree: it walks it only to hand each virtual node
//! below its all-false summary, in the pre-order position the full walk
//! would give it. The lanes and the fast-forward charge the cost model's
//! `ops` exactly, so every meter is independent of the lane taken; every
//! pass output counts its nodes per lane ([`LaneCounts`]).
//!
//! # Passing over a subtree
//!
//! A live `SV` can be as hopeless as a dead one: an entry leads to an answer
//! below `v` only if every label step left in the path after it names a
//! node below `v`. Over the fragment's [`LabelSummary`] — per node, the
//! labels strictly below it, its subtree size and whether a virtual node
//! lies below it; a site builds one per fragment version — the selection
//! sweep passes over `v`'s subtree, wherever the fast-forward may run, when
//!
//! * no virtual node lies below `v`, so no summary is shipped from it; and
//! * no live entry `i` of `SV_v` (a non-empty set, an id other than
//!   `false`) both reaches the children — `i + 1 < |SVect|`, or item
//!   `i − 1` is `//` — and finds every label step of `sel_items[i..]` below
//!   `v`. A label the fragment lacks is below no node.
//!
//! Below such a node every last entry is `false`, so nothing there answers
//! or is a candidate. The sweep charges `(size(v) − 1)·|SVect|`, what the
//! walk costs, and counts those nodes as fast-forwarded: `ops` and every
//! output are the full walk's. With no virtual node below, every qualifier
//! value there is a constant, so the walk it saves would intern at most ORs
//! of carried values, whose place in a later formula does not depend on
//! when they were interned: formula trees are the full walk's too. Only
//! [`multi_combined_pass`] (PaX2's visit) and [`parked_selection_pass`]
//! (PaX3's Stage 2) take a summary; the other passes, and so the centralized
//! evaluator, walk every node.
//!
//! # The program
//!
//! A qualifier sweep compiles the `QVect` it holds once, into a flat
//! `QProgram`, and runs it at every node instead of matching on each entry:
//!
//! * the **atoms** — tests of the node's own label, text or attributes — are
//!   computed once per node, by node kind. An element looks its label up
//!   among the distinct `LabelTest` labels and ORs in that label's mask, the
//!   `ElementTest` mask and those of its attribute tests; a text node runs
//!   the text tests, parsing its value as a number once for all `ValTest`s;
//!   a virtual node runs none;
//! * the **structural entries** follow in entry order, each reading only
//!   earlier entries of the node (the compiler emits a `QVect` in
//!   topological order). In the word lane each is one test of the node's
//!   word against masks: a `Step` is `qv & me == me && any_qv & ch == ch &&
//!   any_qdv & de == de` over its test and qualifiers (`me`) and its child
//!   (`ch`) or descendant (`de`) continuation in the children's folds; an
//!   `Exists`, `Not`, `And` or `Or` is one mask test. A counted (positional)
//!   fold reads the children's stored words.
//!
//! The arena lane runs the same program over the same operand lists, in the
//! order the entries list them, so it interns what a per-entry evaluation
//! would: every formula, and so every byte, is the one the entry's
//! definition gives. The tests keep that per-entry evaluation as a
//! reference (`eval::tests::eval_qentry`) and check both lanes against it at
//! every node.
//!
//! The union phase and the disjunction lane perform **no heap allocation per
//! node**: the tree walks follow links, children are pushed straight onto
//! the top-down stack, carried sets and positional facts go through
//! per-sweep scratch, and what is left is a few allocations per pass (the
//! per-node vector tables of a query with qualifiers, its program's lists,
//! the init's variables, and the amortised growth of the stacks and the
//! output lists) —
//! `tests/allocations.rs` pins that. Pass outputs are exported as
//! [`CompactVector`]s (bits for fully-constant vectors, self-contained
//! [`BoolExpr`] trees otherwise), which is also the wire format: a
//! variable-free leaf fragment ships `⌈len/64⌉` words per vector.
//!
//! # Many queries, one visit
//!
//! A node with no virtual node below it has a constant `QV`/`QDV` for every
//! query, and the word lane computes it. So a visit of many queries sweeps
//! their qualifiers in two phases:
//!
//! * the **union phase** runs the post-order loop once over the *union* of
//!   the queries' `QVect`s — each query's entries spliced in through the
//!   compiler's dedup, which gives every query an injective map from its
//!   entries to the union's. It stores one word per node for `QV` and one
//!   for `QDV`, and leaves to the spine phases the *spine*: the virtual
//!   nodes and their ancestors (a node is on it when it is virtual or has a
//!   child on it), recorded in post-order;
//! * each query's **spine phase** then runs the loop's per-node step over
//!   the spine only, in the query's own arena: virtual-node import, child
//!   folds and the arena lane, reading an off-spine child's vectors
//!   — and, in a counted fold, its `QV` entries — from the union's words
//!   through the query's map. Its selection sweep follows, as for one query.
//!
//! Queries are grouped greedily so that each group's union fits one word; a
//! query wider than a word on its own is a group whose spine is every node,
//! which is one query's sweep as before. The union phase charges what a
//! sweep over the union `QVect` charges, `2·|union|` per child fold and per
//! node, on the nodes it computes; a spine phase charges the usual rule on
//! the spine. A batch of one — [`combined_pass`] — has the identity map and
//! charges exactly one sweep's `ops`.
//!
//! **Why outputs cannot change.** The union phase interns nothing, so a
//! query's arena receives, in the same order, exactly the interns its visit
//! alone gives it: those of its spine nodes, then those of its selection
//! sweep. Its answers, candidate formulas, virtual-node and root vectors are
//! therefore `==` to its single visit's, and so are the bytes it ships.

use crate::ast::CmpOp;
use crate::compile::{splice_qvect, CompiledQuery, PosFilter, QAxis, QEntry, QEntryId, SelItem};
use paxml_boolex::{Assignment, BitVector, BoolExpr, CompactVector, ExprId, FormulaArena};
use paxml_xml::{LabelSummary, NodeId, NodeKind, XmlTree};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
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

    /// A union-phase word as a vector of `len ≤ 64` entries.
    fn from_word(len: usize, word: u64) -> AVec {
        AVec::Bits(BitVector::from_word(len, word))
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

/// The value domain a selection node's entries are computed in: disjunct
/// sets in `u64`s ([`Disjunction`]) or interned ids over the visit's arena
/// ([`FormulaArena`]). [`compute_sv`] is written once against it, so the
/// lanes share one definition of every `SVect` entry kind. A node's vector
/// is written into storage its caller owns, which is how the disjunction
/// lane keeps its vectors in one flat per-sweep buffer. (The qualifier
/// sweep's lanes share their definition through [`QProgram`].)
trait Lane {
    /// One entry's value.
    type Value: Copy + PartialEq;
    /// A node's vector of entries.
    type Vector: ?Sized;
    fn get(vector: &Self::Vector, index: usize) -> Self::Value;
    fn set(vector: &mut Self::Vector, index: usize, value: Self::Value);
    fn constant(value: bool) -> Self::Value;
    fn and(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    fn or(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
}

/// The disjunct set `{true}`: bit 0.
const TRUE_SET: u64 = 1;
/// Marks a value the disjunction lane cannot represent; AND and OR carry it
/// along, so a vector is checked for it once.
const LOST: u64 = 1 << 63;
/// Init entries the disjunction lane has bits for: bits 1..=62.
const MAX_ATOMS: usize = 62;

/// The disjunction lane: an entry is a `u64` set of disjuncts, bit 0 for
/// `true` and bit `j + 1` for entry `j` of the sweep's init vector (see
/// [`Atoms`]). Its values are exactly the constants and the ORs of init
/// entries — what a selection sweep carries from the root fragment's facts
/// (`{}` and `{true}`) or from a non-root fragment's fresh variables — so it
/// runs every selection sweep as integer work. An AND of two different
/// symbolic sets is [`LOST`]; the node then reruns in the arena lane.
struct Disjunction;

impl Lane for Disjunction {
    type Value = u64;
    type Vector = [u64];

    fn get(sets: &[u64], index: usize) -> u64 {
        sets[index]
    }

    fn set(sets: &mut [u64], index: usize, value: u64) {
        sets[index] = value;
    }

    fn constant(value: bool) -> u64 {
        u64::from(value)
    }

    fn and(&mut self, a: u64, b: u64) -> u64 {
        match (a, b) {
            (0, _) | (_, 0) => 0,
            (TRUE_SET, s) | (s, TRUE_SET) => s,
            _ if a == b => a,
            _ => LOST,
        }
    }

    fn or(&mut self, a: u64, b: u64) -> u64 {
        let set = a | b;
        if set & TRUE_SET != 0 {
            TRUE_SET
        } else {
            set
        }
    }
}

/// The arena lane: entries are ids into the visit's arena, so symbolic
/// inputs combine into residual formulas.
impl<V: VarLike> Lane for FormulaArena<V> {
    type Value = ExprId;
    type Vector = AVec;

    fn get(vector: &AVec, index: usize) -> ExprId {
        vector.id(index)
    }

    fn set(vector: &mut AVec, index: usize, value: ExprId) {
        vector.set(index, value);
    }

    fn constant(value: bool) -> ExprId {
        ExprId::of_const(value)
    }

    fn and(&mut self, a: ExprId, b: ExprId) -> ExprId {
        FormulaArena::and(self, a, b)
    }

    fn or(&mut self, a: ExprId, b: ExprId) -> ExprId {
        FormulaArena::or(self, a, b)
    }
}

/// The ids the disjunction lane's bits stand for: a selection sweep's init
/// vector as arena ids, bit `j + 1` for entry `j`. Empty when the init is
/// constant or longer than [`MAX_ATOMS`]; only constants are sets then.
/// Init entries are interned in init order, so the id-sorted operands of an
/// `Or` are in bit order, and an id leaving the lane is the one the arena
/// lane builds.
struct Atoms(Vec<ExprId>);

impl Atoms {
    /// The set `id` denotes when it is a constant, an atom or an OR of atoms.
    fn set_of<V: VarLike>(&self, id: ExprId, arena: &FormulaArena<V>) -> Option<u64> {
        if let Some(value) = id.as_const() {
            return Some(u64::from(value));
        }
        let bit = |id| self.0.iter().position(|&atom| atom == id).map(|j| 2 << j);
        bit(id).or_else(|| {
            arena.or_operands(id)?.iter().try_fold(0, |set, &operand| Some(set | bit(operand)?))
        })
    }

    /// Write the sets of `vector`'s entries into `sets`, when every entry is
    /// representable.
    fn sets_of<V: VarLike>(
        &self,
        vector: &AVec,
        arena: &FormulaArena<V>,
        sets: &mut [u64],
    ) -> bool {
        sets.iter_mut()
            .enumerate()
            .all(|(i, set)| self.set_of(vector.id(i), arena).map(|value| *set = value).is_some())
    }

    /// The id of `set` — where a formula leaves the lane.
    fn id_of<V: VarLike>(&self, set: u64, arena: &mut FormulaArena<V>) -> ExprId {
        debug_assert_eq!(set & LOST, 0, "a lost value never leaves the lane");
        debug_assert!(set & TRUE_SET == 0 || set == TRUE_SET, "a set holding true is {{true}}");
        match set {
            0 => ExprId::FALSE,
            TRUE_SET => ExprId::TRUE,
            _ if set.is_power_of_two() => self.0[set.trailing_zeros() as usize - 1],
            _ => {
                let bits = (1..=MAX_ATOMS).filter(|&b| set >> b & 1 != 0);
                arena.or_all(bits.map(|b| self.0[b - 1]))
            }
        }
    }

    /// The vector of ids of `sets`.
    fn vector_of<V: VarLike>(&self, sets: &[u64], arena: &mut FormulaArena<V>) -> AVec {
        let mut vector = AVec::all_false(sets.len());
        for (i, &set) in sets.iter().enumerate() {
            vector.set(i, self.id_of(set, arena));
        }
        vector
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
    /// vectors supplied by the `virtual_vectors` callback. Empty for a query
    /// without qualifiers, whose vectors have no entry to hold (PaX3 runs no
    /// Stage 1 for such a query).
    pub node_qv: Vec<Option<CompactVector<V>>>,
    /// The `QV`/`QDV` vectors of the subtree root — what a fragment sends to
    /// the coordinator at the end of Stage 1.
    pub root: QualVectors<V>,
    /// Number of elementary operations performed (nodes × vector entries),
    /// the paper's unit of computation cost.
    pub ops: u64,
    /// Nodes of the union phase (word lane) and of the spine (arena lane).
    pub lanes: LaneCounts,
}

/// How many nodes a sweep handled in each lane (see the module doc). Every
/// node of the swept subtree is counted once: in the qualifier sweep, a
/// union-phase node in the word lane and a spine node, virtual ones
/// included, in the arena lane. Counts are read by tests and probes and
/// never leave the site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounts {
    /// Qualifier nodes whose entries were the bits of one word.
    pub word: u64,
    /// Selection nodes whose entries were disjunct sets of init entries.
    pub disjunction: u64,
    /// Nodes whose entries were ids in the visit's arena.
    pub arena: u64,
    /// Selection nodes passed over below a summary that can reach no
    /// answer: an all-false one, or one whose live entries still need a
    /// label the subtree lacks (see the module doc).
    pub fast_forwarded: u64,
}

/// Evaluate every `QVect` entry at every node of the subtree rooted at
/// `root`, bottom-up, in a single pass, and export each node's `QV`: the
/// [`qualifier_sweep`] with one vector per node built from what it parks.
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
    let QualifierSweepOutput { parked, root: root_vectors, ops, lanes } =
        qualifier_sweep(tree, root, query, virtual_vectors);
    let mut node_qv = Vec::new();
    if query.has_qualifiers() {
        node_qv.resize(tree.node_count(), None);
        for v in tree.post_order(root) {
            node_qv[v.index()] = Some(parked.vector(v));
        }
    }
    QualifierPassOutput { node_qv, root: root_vectors, ops, lanes }
}

/// What PaX3's Stage 1 leaves at a site for Stage 2, read there in place by
/// [`parked_selection_pass`]: the union phase's `QV` word and spine position
/// of every node, and the spine's `QV` vectors in wire form. The spine —
/// the virtual nodes and their ancestors — is what a single query's sweep
/// computes in its arena; every other node's `QV` is its word.
#[derive(Debug)]
pub struct ParkedQualifiers<V: Ord> {
    /// `|QVect|`.
    qlen: usize,
    /// `QV` at every node off the spine, as one word (empty when `QVect` is
    /// wider than a word, and every node is on the spine).
    qv: Vec<u64>,
    /// A node's position in `spine`, or [`OFF_SPINE`].
    spine_at: Vec<u32>,
    /// `QV` per spine position.
    spine: Vec<CompactVector<V>>,
}

impl<V: VarLike> ParkedQualifiers<V> {
    /// `v`'s `QV` in wire form: packed bits off the spine.
    fn vector(&self, v: NodeId) -> CompactVector<V> {
        match self.spine_at[v.index()] {
            OFF_SPINE => CompactVector::Bits(BitVector::from_word(self.qlen, self.qv[v.index()])),
            at => self.spine[at as usize].clone(),
        }
    }

    /// Entry `e` of `v`'s `QV` under `env` as an id in `arena`. Off the
    /// spine it is a constant, which interns nothing.
    #[inline]
    fn id(
        &self,
        arena: &mut FormulaArena<V>,
        v: NodeId,
        e: QEntryId,
        env: &Assignment<V>,
    ) -> ExprId {
        match self.spine_at[v.index()] {
            OFF_SPINE => ExprId::of_const(self.qv[v.index()] >> e & 1 != 0),
            at => arena.from_expr(&self.spine[at as usize].expr(e).assign(env)),
        }
    }
}

/// Result of the [`qualifier_sweep`] over one subtree.
#[derive(Debug)]
pub struct QualifierSweepOutput<V: Ord> {
    /// What Stage 2 reads, for the site to park.
    pub parked: ParkedQualifiers<V>,
    /// The `QV`/`QDV` vectors of the subtree root — what a fragment sends to
    /// the coordinator at the end of Stage 1.
    pub root: QualVectors<V>,
    /// Number of elementary operations performed (nodes × vector entries).
    pub ops: u64,
    /// Nodes of the union phase (word lane) and of the spine (arena lane).
    pub lanes: LaneCounts,
}

/// PaX3's Stage 1 over the subtree rooted at `root`: the qualifier sweep of
/// one query, whose root vectors are exported and whose per-node state stays
/// as the sweep computed it — one word per node off the spine — for
/// [`parked_selection_pass`]. `virtual_vectors` supplies each virtual
/// node's `QV`/`QDV`, as in [`qualifier_pass`].
pub fn qualifier_sweep<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    virtual_vectors: impl FnMut(NodeId) -> QualVectors<V>,
) -> QualifierSweepOutput<V> {
    let mut arena: FormulaArena<V> = FormulaArena::new();
    let union = union_sweep(tree, root, &query.qvect);
    let sweep = spine_sweep(&mut arena, tree, query, &union, None, virtual_vectors);
    let root_vectors = sweep.root_vectors(root, &arena);
    let QualSweep { qv: spine, ops, lanes, .. } = sweep;
    let spine = spine.into_iter().map(|qv| qv.into_compact(&arena)).collect();
    let Union { qv, spine_at, ops: union_ops, .. } = union;
    let parked = ParkedQualifiers { qlen: query.qvect_len(), qv, spine_at, spine };
    QualifierSweepOutput { parked, root: root_vectors, ops: union_ops + ops, lanes }
}

/// Marks a node off the spine in [`Union::spine_at`].
const OFF_SPINE: u32 = u32::MAX;

/// What a union phase leaves for the spine phases of its queries (see the
/// module doc, "Many queries, one visit"). Every table is indexed by arena
/// index and empty for a query without qualifiers.
#[derive(Debug, Default)]
struct Union {
    /// `QV` of the union `QVect` at every node off the spine, as one word.
    /// Empty when the union is wider than a word.
    qv: Vec<u64>,
    /// `QDV`, likewise.
    qdv: Vec<u64>,
    /// A node's position in `spine`, or [`OFF_SPINE`].
    spine_at: Vec<u32>,
    /// The nodes the union phase left to the spine phases, in post-order:
    /// the virtual nodes and their ancestors, or every node when the union
    /// is wider than a word.
    spine: Vec<NodeId>,
    /// Nodes the union phase computed.
    nodes: u64,
    /// Operations the union phase performed.
    ops: u64,
}

/// The union phase: the bottom-up sweep (§3.1) of the union `QVect` over
/// the subtree at `root` — the kernel's one post-order loop. A node is on
/// the *spine* when it is virtual or has a child on the spine; the loop
/// records it there for the spine phases and computes every other node,
/// whose children are all constant, in the word lane: one walk of its
/// children both folds their words and finds a spine child, and the
/// sweep's [`QProgram`] computes the node from the folds.
fn union_sweep(tree: &XmlTree, root: NodeId, qvect: &[QEntry]) -> Union {
    if qvect.is_empty() {
        // No qualifier, nothing to compute bottom-up and no per-node table
        // to fill: PaX3 skips Stage 1 for such a query, and so does every
        // PaX2 and centralized visit.
        return Union::default();
    }
    let (nodes, qlen) = (tree.node_count(), qvect.len());
    let mut union = Union { spine_at: vec![OFF_SPINE; nodes], ..Union::default() };
    if qlen > WORD {
        tree.post_order(root).for_each(|v| union.push_spine(v));
        return union;
    }
    (union.qv, union.qdv) = (vec![0; nodes], vec![0; nodes]);
    let program = QProgram::compile(qvect);
    // Fold the children's words into "some child has entry i true" (the
    // paper's QCV) and "some child's subtree has entry i true", and count
    // the folds; `None` when a child is on the spine.
    let fold = |union: &Union, v: NodeId| {
        let (mut any_qv, mut any_qdv, mut children) = (0, 0, 0);
        for c in tree.children(v) {
            if union.spine_at[c.index()] != OFF_SPINE {
                return None;
            }
            any_qv |= union.qv[c.index()];
            any_qdv |= union.qdv[c.index()];
            children += 1;
        }
        Some((any_qv, any_qdv, children))
    };
    for v in tree.post_order(root) {
        let folded = if tree.is_virtual(v) { None } else { fold(&union, v) };
        let Some((any_qv, any_qdv, children)) = folded else {
            union.push_spine(v);
            continue;
        };
        // One operation per entry and child fold, per entry at the node,
        // and `qlen` for the QDV.
        union.ops += 2 * qlen as u64 * (children + 1);
        let qv = program.word(tree, v, any_qv, any_qdv, &union.qv);
        (union.qv[v.index()], union.qdv[v.index()]) = (qv, qv | any_qdv);
        union.nodes += 1;
    }
    union
}

impl Union {
    /// Leave `v` to the spine phases.
    fn push_spine(&mut self, v: NodeId) {
        self.spine_at[v.index()] = self.spine.len() as u32;
        self.spine.push(v);
    }
}

/// Entries a word holds: the word lane's limit.
const WORD: usize = 64;

/// What one query's qualifier sweep leaves in its arena: the `QV`/`QDV` of
/// every spine node, read beside the union phase's words.
struct QualSweep<'u> {
    union: &'u Union,
    /// The query's entry map into the union (see [`Stored::map`]).
    map: Option<&'u [QEntryId]>,
    qlen: usize,
    /// `QV` per spine position.
    qv: Vec<AVec>,
    /// `QDV` per spine position.
    qdv: Vec<AVec>,
    /// The spine phase's operations.
    ops: u64,
    /// Nodes per lane: the union phase's in the word lane, the spine's in
    /// the arena lane.
    lanes: LaneCounts,
}

impl QualSweep<'_> {
    #[inline]
    fn stored(&self) -> Stored<'_> {
        Stored { union: self.union, map: self.map, qlen: self.qlen, qv: &self.qv, qdv: &self.qdv }
    }

    /// Entry `e` of `v`'s `QV` as an arena id.
    #[inline]
    fn id(&self, v: NodeId, e: QEntryId) -> ExprId {
        self.stored().id(v, e)
    }

    /// `v`'s `QV` and `QDV`.
    fn vectors(&self, v: NodeId) -> (AVec, AVec) {
        let (qv, qdv) = self.stored().child(v);
        (qv.into_owned(), qdv.into_owned())
    }

    /// The subtree root's `QV`/`QDV` in wire form (unswept only for a query
    /// without qualifiers, whose vectors are empty).
    fn root_vectors<V: VarLike>(&self, root: NodeId, arena: &FormulaArena<V>) -> QualVectors<V> {
        if self.qlen == 0 {
            return QualVectors::all_false(0);
        }
        let (qv, qdv) = self.vectors(root);
        QualVectors { qv: qv.into_compact(arena), qdv: qdv.into_compact(arena) }
    }
}

/// Where a query's sweep reads the vectors of a node it has swept: the
/// spine phase's own vectors on the spine, the union phase's words, through
/// the query's entry map, off it.
#[derive(Clone, Copy)]
struct Stored<'a> {
    union: &'a Union,
    /// The union entry of each of the query's entries. `None` when they are
    /// the union's first `qlen` entries in order — a batch of one, or the
    /// first query of a group.
    map: Option<&'a [QEntryId]>,
    qlen: usize,
    /// `QV` per spine position swept so far.
    qv: &'a [AVec],
    /// `QDV` per spine position swept so far.
    qdv: &'a [AVec],
}

impl<'a> Stored<'a> {
    /// The query's entries of a union word.
    #[inline]
    fn gather(&self, word: u64) -> u64 {
        match self.map {
            None => word & (u64::MAX >> (WORD - self.qlen)),
            Some(map) => map.iter().enumerate().fold(0, |out, (i, &u)| out | (word >> u & 1) << i),
        }
    }

    /// `c`'s `QV` and `QDV`.
    #[inline]
    fn child(&self, c: NodeId) -> (Cow<'a, AVec>, Cow<'a, AVec>) {
        match self.union.spine_at[c.index()] {
            OFF_SPINE => {
                let word = |words: &[u64]| {
                    Cow::Owned(AVec::from_word(self.qlen, self.gather(words[c.index()])))
                };
                (word(&self.union.qv), word(&self.union.qdv))
            }
            at => (Cow::Borrowed(&self.qv[at as usize]), Cow::Borrowed(&self.qdv[at as usize])),
        }
    }

    /// Entry `e` of `v`'s `QV` as an arena id.
    #[inline]
    fn id(&self, v: NodeId, e: QEntryId) -> ExprId {
        match self.union.spine_at[v.index()] {
            OFF_SPINE => {
                let u = self.map.map_or(e, |map| map[e]);
                ExprId::of_const(self.union.qv[v.index()] >> u & 1 != 0)
            }
            at => self.qv[at as usize].id(e),
        }
    }
}

/// A spine phase: one query's qualifier sweep over the spine its group's
/// union phase recorded, in that post-order, in the arena lane of the
/// query's `arena`. Off the spine it reads the union's words through `map`.
fn spine_sweep<'u, V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    query: &CompiledQuery,
    union: &'u Union,
    map: Option<&'u [QEntryId]>,
    mut virtual_vectors: impl FnMut(NodeId) -> QualVectors<V>,
) -> QualSweep<'u> {
    let (qlen, spine) = (query.qvect_len(), union.spine.len());
    let mut sweep = QualSweep {
        union,
        map,
        qlen,
        qv: Vec::with_capacity(spine),
        qdv: Vec::with_capacity(spine),
        ops: 0,
        lanes: LaneCounts { word: union.nodes, arena: spine as u64, ..LaneCounts::default() },
    };
    let program = QProgram::compile(&query.qvect);
    let mut ops = 0;
    for &v in &union.spine {
        let (qv, qdv) = if tree.is_virtual(v) {
            let vectors = virtual_vectors(v);
            debug_assert_eq!(vectors.qv.len(), qlen);
            ops += qlen as u64;
            (AVec::from_compact(&vectors.qv, arena), AVec::from_compact(&vectors.qdv, arena))
        } else {
            // The union phase's step in the arena lane: the virtual node
            // below `v` may make any of its inputs symbolic.
            let (mut any_qv, mut any_qdv) = (AVec::all_false(qlen), AVec::all_false(qlen));
            for c in tree.children(v) {
                let (qv, qdv) = sweep.stored().child(c);
                any_qv.or_into(&qv, arena);
                any_qdv.or_into(&qdv, arena);
                ops += 2 * qlen as u64;
            }
            ops += 2 * qlen as u64;
            let qv = program.arena(arena, tree, v, &any_qv, &any_qdv, sweep.stored());
            // QDV_v(i) = QV_v(i) ∨ (some child's QDV has i).
            any_qdv.or_into(&qv, arena);
            (qv, any_qdv)
        };
        sweep.qv.push(qv);
        sweep.qdv.push(qdv);
    }
    sweep.ops = ops;
    sweep
}

/// A `QVect` compiled for one sweep: what the sweep runs at every node in
/// place of a per-entry `match` (see the module doc, "The program"). The
/// atoms — tests of the node's own label, text or attributes — are grouped
/// by the node kind they can hold at; the structural entries follow as
/// [`QOp`]s in entry order. The compiler emits a `QVect` in topological
/// order, so an op reads only atoms and earlier ops of the same node, and
/// the children's folds.
///
/// Each lane runs the same program: the word lane ([`QProgram::word`]) its
/// masks, the arena lane ([`QProgram::arena`]) its operand lists, in the
/// order the entries list them, so the arena interns what a per-entry
/// evaluation would.
struct QProgram<'q> {
    /// `|QVect|`.
    len: usize,
    /// The distinct labels of the `LabelTest`s, with the entries testing each.
    labels: Vec<(&'q str, Hits)>,
    /// The `ElementTest` entries.
    element: Hits,
    /// The attribute tests, read at elements that carry attributes.
    attributes: Vec<(AttrAtom<'q>, Hits)>,
    /// The text tests, read at text nodes.
    texts: Vec<(TextAtom<'q>, Hits)>,
    /// Whether a text test compares numbers: a text node then parses its
    /// value once for all of them.
    numeric: bool,
    /// The structural entries, in entry order.
    ops: Vec<QOp<'q>>,
    /// The entry lists of `Hits` and the operand lists of `ops`, flat.
    entries: Vec<QEntryId>,
}

/// Entries a program sets or reads together: their word-lane mask and
/// their range in [`QProgram::entries`], for the arena lane.
#[derive(Default)]
struct Hits {
    mask: u64,
    entries: (u32, u32),
}

/// A test of a text node's value.
enum TextAtom<'q> {
    /// `TextTest`: the value equals the string.
    Equals(&'q str),
    /// `ValTest`: the value, read as a number, satisfies the comparison.
    Compares(CmpOp, f64),
}

/// A test of an element's attribute.
enum AttrAtom<'q> {
    /// `AttrTest`: the attribute is present.
    Present(&'q str),
    /// `AttrValueTest`: the attribute equals the string.
    Equals(&'q str, &'q str),
    /// `AttrCmpTest`: the attribute, read as a number, satisfies the
    /// comparison.
    Compares(&'q str, CmpOp, f64),
}

/// A structural entry of a [`QProgram`]: a `Step`, `Exists`, `Not`, `And`
/// or `Or`.
struct QOp<'q> {
    /// The entry it computes.
    out: QEntryId,
    /// Its same-node operands in entry order — a step's test, then its
    /// qualifiers; a connective's operands.
    operands: Hits,
    kind: OpKind<'q>,
}

enum OpKind<'q> {
    /// Every operand, and the continuation below the node when there is
    /// one: a `Step` (an `Exists` has no operand, an `And` no
    /// continuation). In the word lane, `ch` and `de` mask the continuation
    /// in the children's `QV` and `QDV` folds.
    All { next: Option<(QAxis, QEntryId)>, ch: u64, de: u64 },
    /// Every operand, and `entry` at some child at a position `filter`
    /// accepts: a counted fold, read from the children's stored `QV`s.
    Counted { entry: QEntryId, filter: &'q PosFilter },
    /// Some operand: an `Or`.
    Any,
    /// Not the operand: a `Not`.
    Not,
}

impl OpKind<'_> {
    fn all(next: Option<(QAxis, QEntryId)>) -> Self {
        let (ch, de) = match next {
            Some((QAxis::Child, e)) => (bit(e), 0),
            Some((QAxis::Descendant, e)) => (0, bit(e)),
            None => (0, 0),
        };
        OpKind::All { next, ch, de }
    }
}

/// `text` read as a number: whitespace trimmed, a leading `$` tolerated.
fn number(text: &str) -> Option<f64> {
    let text = text.trim();
    text.strip_prefix('$').unwrap_or(text).parse().ok()
}

/// The bit of entry `e` in a word: zero past the word, where only the
/// arena lane runs, which reads no mask.
fn bit(e: QEntryId) -> u64 {
    1u64.checked_shl(e as u32).unwrap_or(0)
}

impl<'q> QProgram<'q> {
    fn compile(qvect: &'q [QEntry]) -> QProgram<'q> {
        let mut program = QProgram {
            len: qvect.len(),
            labels: Vec::new(),
            element: Hits::default(),
            attributes: Vec::new(),
            texts: Vec::new(),
            numeric: false,
            ops: Vec::new(),
            entries: Vec::new(),
        };
        // The entries equal to `test`, which the compiler's dedup makes one.
        fn tests_of<'a>(
            qvect: &'a [QEntry],
            test: &'a QEntry,
        ) -> impl Iterator<Item = QEntryId> + 'a {
            qvect.iter().enumerate().filter(move |(_, entry)| *entry == test).map(|(e, _)| e)
        }
        program.element = program.hits(tests_of(qvect, &QEntry::ElementTest));
        for (e, entry) in qvect.iter().enumerate() {
            match entry {
                QEntry::LabelTest(label) => {
                    if !program.labels.iter().any(|(l, _)| l == label) {
                        let hits = program.hits(tests_of(qvect, entry));
                        program.labels.push((label, hits));
                    }
                }
                QEntry::TextTest(s) => {
                    let hits = program.hits([e]);
                    program.texts.push((TextAtom::Equals(s), hits));
                }
                QEntry::ValTest(op, n) => {
                    let hits = program.hits([e]);
                    program.texts.push((TextAtom::Compares(*op, *n), hits));
                    program.numeric = true;
                }
                QEntry::AttrTest(a) => {
                    let hits = program.hits([e]);
                    program.attributes.push((AttrAtom::Present(a), hits));
                }
                QEntry::AttrValueTest(a, s) => {
                    let hits = program.hits([e]);
                    program.attributes.push((AttrAtom::Equals(a, s), hits));
                }
                QEntry::AttrCmpTest(a, op, n) => {
                    let hits = program.hits([e]);
                    program.attributes.push((AttrAtom::Compares(a, *op, *n), hits));
                }
                QEntry::ElementTest => {}
                QEntry::Step { test, quals, next, next_pos } => {
                    let kind = match (next, next_pos) {
                        (Some((QAxis::Child, entry)), Some(filter)) => {
                            OpKind::Counted { entry: *entry, filter }
                        }
                        _ => OpKind::all(*next),
                    };
                    program.op(e, std::iter::once(test).chain(quals), kind);
                }
                QEntry::Exists { axis: QAxis::Child, entry, pos: Some(filter) } => {
                    program.op(e, [], OpKind::Counted { entry: *entry, filter });
                }
                QEntry::Exists { axis, entry, .. } => {
                    program.op(e, [], OpKind::all(Some((*axis, *entry))));
                }
                QEntry::Not(operand) => program.op(e, [operand], OpKind::Not),
                QEntry::And(operands) => program.op(e, operands, OpKind::all(None)),
                QEntry::Or(operands) => program.op(e, operands, OpKind::Any),
            }
        }
        program
    }

    fn op<'a>(
        &mut self,
        out: QEntryId,
        operands: impl IntoIterator<Item = &'a QEntryId>,
        kind: OpKind<'q>,
    ) {
        let operands = self.hits(operands.into_iter().copied());
        self.ops.push(QOp { out, operands, kind });
    }

    /// Append `entries` to the flat list as one range.
    fn hits(&mut self, entries: impl IntoIterator<Item = QEntryId>) -> Hits {
        let from = self.entries.len() as u32;
        let mut mask = 0;
        for e in entries {
            mask |= bit(e);
            self.entries.push(e);
        }
        Hits { mask, entries: (from, self.entries.len() as u32) }
    }

    fn entries(&self, hits: &Hits) -> &[QEntryId] {
        let (from, to) = hits.entries;
        &self.entries[from as usize..to as usize]
    }

    /// Hand `hit` the entries of every atom that holds at `v`, by node kind:
    /// an element its label's, the element tests' and its attribute tests';
    /// a text node its text tests', parsing its value as a number once; a
    /// virtual node none.
    #[inline]
    fn atoms(&self, tree: &XmlTree, v: NodeId, mut hit: impl FnMut(&Hits)) {
        match tree.kind(v) {
            NodeKind::Element { label, attributes } => {
                if let Some((_, hits)) = self.labels.iter().find(|(l, _)| l == label) {
                    hit(hits);
                }
                hit(&self.element);
                if attributes.is_empty() {
                    return;
                }
                let attribute = |name: &str| {
                    attributes.iter().find(|(k, _)| k == name).map(|(_, value)| value.as_str())
                };
                for (atom, hits) in &self.attributes {
                    let holds = match *atom {
                        AttrAtom::Present(a) => attribute(a).is_some(),
                        AttrAtom::Equals(a, s) => attribute(a) == Some(s),
                        AttrAtom::Compares(a, op, n) => {
                            attribute(a).and_then(number).is_some_and(|x| op.apply(x, n))
                        }
                    };
                    if holds {
                        hit(hits);
                    }
                }
            }
            NodeKind::Text { value } => self.text_atoms(value, hit),
            NodeKind::Virtual { .. } => {}
        }
    }

    /// The text tests of a text node whose value is `value`.
    fn text_atoms(&self, value: &str, mut hit: impl FnMut(&Hits)) {
        let parsed = if self.numeric { number(value) } else { None };
        for (atom, hits) in &self.texts {
            let holds = match *atom {
                TextAtom::Equals(s) => value == s,
                TextAtom::Compares(op, n) => parsed.is_some_and(|x| op.apply(x, n)),
            };
            if holds {
                hit(hits);
            }
        }
    }

    /// The word lane: `v`'s `QV` as a word, from its children's folds
    /// `any_qv` and `any_qdv` and, for counted folds, their words in `qv_of`.
    /// Each op is one test of the node's word against its masks.
    #[inline]
    fn word(&self, tree: &XmlTree, v: NodeId, any_qv: u64, any_qdv: u64, qv_of: &[u64]) -> u64 {
        let mut qv = 0;
        self.atoms(tree, v, |hits| qv |= hits.mask);
        for op in &self.ops {
            let me = op.operands.mask;
            let holds = match op.kind {
                OpKind::All { ch, de, .. } => {
                    qv & me == me && any_qv & ch == ch && any_qdv & de == de
                }
                OpKind::Counted { entry, filter } => {
                    qv & me == me
                        && position_accepts(tree, v, filter)
                            .any(|(c, accepted)| accepted && qv_of[c.index()] & bit(entry) != 0)
                }
                OpKind::Any => qv & me != 0,
                OpKind::Not => qv & me == 0,
            };
            qv |= u64::from(holds) << op.out;
        }
        qv
    }

    /// The arena lane: `v`'s `QV` as ids in `arena`, from its children's
    /// folds and, for counted folds, their stored `QV`s. Each op combines
    /// its operand list, in entry order, with the continuation.
    fn arena<V: VarLike>(
        &self,
        arena: &mut FormulaArena<V>,
        tree: &XmlTree,
        v: NodeId,
        any_qv: &AVec,
        any_qdv: &AVec,
        stored: Stored<'_>,
    ) -> AVec {
        let mut qv = AVec::all_false(self.len);
        self.atoms(tree, v, |hits| {
            for &e in self.entries(hits) {
                qv.set(e, ExprId::TRUE);
            }
        });
        for op in &self.ops {
            let operands = self.entries(&op.operands);
            let next = match op.kind {
                OpKind::All { next: Some((QAxis::Child, e)), .. } => Some(any_qv.id(e)),
                OpKind::All { next: Some((QAxis::Descendant, e)), .. } => Some(any_qdv.id(e)),
                OpKind::Counted { entry, filter } => Some(
                    arena.or_all(
                        position_accepts(tree, v, filter)
                            .filter(|&(_, accepted)| accepted)
                            .map(|(c, _)| stored.id(c, entry)),
                    ),
                ),
                OpKind::All { next: None, .. } | OpKind::Any | OpKind::Not => None,
            };
            let value = match op.kind {
                OpKind::Not => arena.not(qv.id(operands[0])),
                OpKind::Any => arena.or_all(operands.iter().map(|&e| qv.id(e))),
                // An `Exists` is its continuation and an empty `And` true;
                // otherwise one n-ary conjunction, which interns no `And`
                // for a prefix of the operand list.
                _ if operands.is_empty() => next.unwrap_or(ExprId::TRUE),
                _ => arena.and_all(operands.iter().map(|&e| qv.id(e)).chain(next)),
            };
            qv.set(op.out, value);
        }
        qv
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
    /// Nodes per lane.
    pub lanes: LaneCounts,
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
    selection_sweep(&mut arena, tree, root, query, &init, context, None, &mut |arena, v, e| {
        arena.from_expr(&qual_value(v, e))
    })
}

/// PaX3's Stage 2 over the subtree rooted at `root`: the [`selection_pass`]
/// whose qualifier values are read in place from what the fragment's
/// [`qualifier_sweep`] parked, under `env`, the resolved values of the
/// qualifier variables of its sub-fragments. Off the spine a value is a bit
/// of a word; on it, the spine vector's entry under `env`. `None` stands
/// for a query without qualifiers, which reads none. Over `tree`'s
/// [`LabelSummary`] the sweep passes over a subtree that can hold no answer
/// (see the module doc); `None` walks every node.
#[allow(clippy::too_many_arguments)]
pub fn parked_selection_pass<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    init: CompactVector<V>,
    context: Option<NodeId>,
    summary: Option<&LabelSummary>,
    parked: Option<&ParkedQualifiers<V>>,
    env: &Assignment<V>,
) -> SelectionPassOutput<V> {
    let mut arena: FormulaArena<V> = FormulaArena::new();
    selection_sweep(&mut arena, tree, root, query, &init, context, summary, &mut |arena, v, e| {
        parked.map_or(ExprId::FALSE, |parked| parked.id(arena, v, e, env))
    })
}

/// A vector as the selection sweep holds it: a node's carried vector (its
/// parent's `SV` entries followed by its own positional facts) or its `SV`.
enum Held {
    /// A vector of the arena lane.
    Vector(AVec),
    /// Disjunct sets in the sweep's buffers: a carried vector is the last
    /// region of the set stack, an `SV` is in `sv_sets`.
    Sets,
}

/// The top-down sweep (§3.2): the one pre-order loop body of the kernel.
/// `qual_id(arena, v, e)` is the value of `QVect` entry `e` at node `v` as an
/// id in `arena`; residual formulas leave the arena only where they leave
/// the site (candidate answers, virtual-node vectors). With `tree`'s
/// `summary` it passes over the subtrees that can hold no answer.
#[allow(clippy::too_many_arguments)]
fn selection_sweep<V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    init: &CompactVector<V>,
    context: Option<NodeId>,
    summary: Option<&LabelSummary>,
    qual_id: &mut impl FnMut(&mut FormulaArena<V>, NodeId, QEntryId) -> ExprId,
) -> SelectionPassOutput<V> {
    let (slen, width, facts) = (query.svect_len(), query.init_len(), query.sel_positions.len());
    debug_assert_eq!(init.len(), width, "init vector must have |SVect| + |positions| entries");
    let mut out = SelectionPassOutput {
        answers: Vec::new(),
        candidates: Vec::new(),
        virtual_vectors: Vec::new(),
        ops: 0,
        lanes: LaneCounts::default(),
    };
    // Below a node whose SV is all false every SV is all false — unless a
    // positional fact or the evaluation context sits below it, so only then
    // is a dead subtree walked in full.
    let fast_forward = facts == 0 && context.is_none_or(|c| c == root);
    // Where the fast-forward may run, so may the summary's pass-over.
    let summary = summary.filter(|_| fast_forward);

    // Explicit DFS stack carrying the parent's (summarised) SV vector plus,
    // when the query has positional predicates, the node's own positional
    // facts (entries slen..slen+P, computed by the parent while pushing).
    // The sweep starts in the disjunction lane whenever its init is sets —
    // always for a constant init, and for a symbolic one of at most 62
    // entries. Stack entries in that lane keep their sets in `sets`, one
    // region of `width` words each, in stack order, and a node's SV goes to
    // `sv_sets`. `rows` is the sweep's fact scratch; none of them allocates
    // per node once grown.
    let init = AVec::from_compact(init, arena);
    let atoms = match &init {
        AVec::Ids(ids) if ids.len() <= MAX_ATOMS => Atoms(ids.clone()),
        _ => Atoms(Vec::new()),
    };
    let mut sets = vec![0; width];
    let carried = if atoms.sets_of(&init, arena, &mut sets) {
        Held::Sets
    } else {
        sets.clear();
        Held::Vector(init)
    };
    // One scratch buffer holds a node's SV sets and, with a summary, the
    // labels each entry still needs.
    let mut scratch = vec![0; if summary.is_some() { 2 * slen } else { slen }];
    let (sv_sets, needs) = scratch.split_at_mut(slen);
    let hopeful = summary.map_or(0..0, |summary| hopeful_entries(query, summary, needs));
    let mut stack: Vec<(NodeId, Held)> = vec![(root, carried)];
    let mut rows: Vec<BitVector> = Vec::new();
    while let Some((v, carried)) = stack.pop() {
        if tree.is_virtual(v) {
            // The stack-top summarises everything known about the ancestors
            // of the missing fragment's root (and the root's own positional
            // facts) — exactly what that fragment needs as its initial
            // vector (§3.2, Example 3.4).
            let summary = match carried {
                Held::Vector(vector) => {
                    out.lanes.arena += 1;
                    vector
                }
                Held::Sets => {
                    out.lanes.disjunction += 1;
                    let at = sets.len() - width;
                    let vector = atoms.vector_of(&sets[at..], arena);
                    sets.truncate(at);
                    vector
                }
            };
            out.virtual_vectors.push((v, summary.into_compact(arena)));
            out.ops += slen as u64;
            continue;
        }

        // A node runs in the lane of its carried vector, unless a value it
        // reads or computes is not representable there: then it reruns in
        // the arena lane. Giving up re-reads nothing into the arena: up to
        // the first symbolic qualifier value every read was constant.
        let sv = match carried {
            Held::Sets => {
                let at = sets.len() - width;
                let carried = &sets[at..];
                let held = compute_sv(
                    &mut Disjunction,
                    tree,
                    v,
                    query,
                    carried,
                    sv_sets,
                    context,
                    &mut |_, v, e| qual_id(arena, v, e).as_const().map(u64::from),
                )
                .is_some()
                    && sv_sets.iter().all(|&set| set & LOST == 0);
                let sv = if held {
                    out.lanes.disjunction += 1;
                    Held::Sets
                } else {
                    out.lanes.arena += 1;
                    let carried = atoms.vector_of(carried, arena);
                    Held::Vector(arena_sv(arena, tree, v, query, &carried, context, qual_id))
                };
                sets.truncate(at);
                sv
            }
            Held::Vector(carried) => {
                out.lanes.arena += 1;
                Held::Vector(arena_sv(arena, tree, v, query, &carried, context, qual_id))
            }
        };
        // Fallback is per node: the children of an arena-lane node re-enter
        // the disjunction lane when its SV holds only sets.
        let sv = match sv {
            Held::Vector(sv) if atoms.sets_of(&sv, arena, sv_sets) => Held::Sets,
            sv => sv,
        };
        out.ops += slen as u64;

        if tree.is_element(v) || query.sel_items.is_empty() {
            let last = match &sv {
                Held::Sets => atoms.id_of(sv_sets[slen - 1], arena),
                Held::Vector(sv) => sv.id(slen - 1),
            };
            if last == ExprId::TRUE {
                out.answers.push(v);
            } else if !last.is_const() {
                out.candidates.push((v, arena.to_expr(last)));
            }
        }

        if let Some(summary) = summary {
            // Pass over `v`'s subtree when it holds no virtual node and no
            // live entry can reach an answer in it. Each node passed over
            // costs what visiting it does.
            let below = summary.below(v);
            let live = |i: usize| match &sv {
                Held::Sets => sv_sets[i] != 0,
                Held::Vector(sv) => sv.id(i) != ExprId::FALSE,
            };
            if !summary.has_virtual_below(v)
                && hopeful.clone().all(|i| needs[i] & !below != 0 || !live(i))
            {
                let passed = u64::from(summary.size(v)) - 1;
                out.ops += passed * slen as u64;
                out.lanes.fast_forwarded += passed;
                continue;
            }
        }
        // An all-false SV is sets: only that lane can hold a dead node.
        let dead = fast_forward && matches!(sv, Held::Sets) && sv_sets.iter().all(|&set| set == 0);
        if dead {
            // The summary every node below `v` carries is all false; only
            // the virtual nodes need it, in the order the full walk would
            // reach them. Each node passed over costs what visiting it does.
            for d in tree.descendants(v) {
                if tree.is_virtual(d) {
                    out.virtual_vectors.push((d, CompactVector::all_false(slen)));
                }
                out.ops += slen as u64;
                out.lanes.fast_forwarded += 1;
            }
            continue;
        }

        // Children inherit v's vector as their ancestor summary, extended
        // with their own positional facts (all children of v are locally
        // present, so v can count them — including virtual placeholders,
        // whose recorded root label stands in for the missing root). They
        // are pushed in document order and the run is reversed in place, so
        // the first child is popped first.
        let first = stack.len();
        if facts > 0 {
            child_fact_rows(tree, v, query, &mut rows);
            out.ops += (rows.len() * facts) as u64;
        }
        match sv {
            Held::Sets => {
                // Each child's region is written back to front, and the run
                // is reversed with the stack's: the first child's region
                // ends up last, front to back.
                let base = sets.len();
                for (k, c) in tree.children(v).enumerate() {
                    if facts > 0 {
                        let row = &rows[k];
                        sets.extend((0..facts).rev().map(|j| u64::from(row.get(j))));
                    }
                    sets.extend(sv_sets.iter().rev());
                    stack.push((c, Held::Sets));
                }
                sets[base..].reverse();
            }
            Held::Vector(sv) if facts == 0 => {
                stack.extend(tree.children(v).map(|c| (c, Held::Vector(sv.clone()))));
            }
            Held::Vector(sv) => stack.extend(
                tree.children(v)
                    .zip(&rows)
                    .map(|(c, row)| (c, Held::Vector(sv.extended_with(row)))),
            ),
        }
        stack[first..].reverse();
    }
    out
}

/// The entries of an `SV` that may still lead to an answer below a node of
/// `summary`'s tree, with the labels each needs written into `needs`: entry
/// `i` needs every label step of `sel_items[i..]` to lie below the node. An
/// entry before the last label the tree lacks can never reach an answer,
/// and the last entry reaches the children only through a `//` before it.
fn hopeful_entries(
    query: &CompiledQuery,
    summary: &LabelSummary,
    needs: &mut [u64],
) -> std::ops::Range<usize> {
    let items = &query.sel_items;
    let mut from = 0;
    needs[items.len()] = 0;
    for (idx, item) in items.iter().enumerate().rev() {
        needs[idx] = needs[idx + 1];
        if let SelItem::Label(label) = item {
            match summary.bit(label) {
                Some(bit) => needs[idx] |= bit,
                None => {
                    from = idx + 1;
                    break;
                }
            }
        }
    }
    let last_reaches = matches!(items.last(), Some(SelItem::DescendantOrSelf));
    from..if last_reaches { items.len() + 1 } else { items.len() }
}

/// A node's `SV` in the arena lane, which holds every value.
fn arena_sv<V: VarLike>(
    arena: &mut FormulaArena<V>,
    tree: &XmlTree,
    v: NodeId,
    query: &CompiledQuery,
    carried: &AVec,
    context: Option<NodeId>,
    qual_id: &mut impl FnMut(&mut FormulaArena<V>, NodeId, QEntryId) -> ExprId,
) -> AVec {
    let mut sv = AVec::all_false(query.svect_len());
    compute_sv(arena, tree, v, query, carried, &mut sv, context, &mut |arena, v, e| {
        Some(qual_id(arena, v, e))
    })
    .expect("the arena lane holds every value");
    sv
}

/// Compute the `SV` vector of a node from its carried vector (the parent's
/// `SV` entries followed by this node's positional facts) into `sv`, which
/// has `svect_len` entries — the caller appends the children's facts when
/// pushing them.
///
/// `qual(lane, v, e)` is the value of `QVect` entry `e` at `v`; the reader of
/// a lane without symbolic qualifier values returns `None` for one, and so
/// does this function then.
#[allow(clippy::too_many_arguments)]
fn compute_sv<L: Lane>(
    lane: &mut L,
    tree: &XmlTree,
    v: NodeId,
    query: &CompiledQuery,
    carried: &L::Vector,
    sv: &mut L::Vector,
    context: Option<NodeId>,
    qual: &mut impl FnMut(&mut L, NodeId, QEntryId) -> Option<L::Value>,
) -> Option<()> {
    let slen = query.svect_len();
    let f = L::constant(false);
    // Entry 0: the empty prefix — true only at the evaluation context.
    L::set(sv, 0, L::constant(Some(v) == context));
    for (idx, item) in query.sel_items.iter().enumerate() {
        let i = idx + 1;
        let mut value = match item {
            SelItem::Label(l) => {
                if tree.label(v) == Some(l.as_str()) {
                    L::get(carried, i - 1)
                } else {
                    f
                }
            }
            SelItem::Wildcard => {
                if tree.is_element(v) {
                    L::get(carried, i - 1)
                } else {
                    f
                }
            }
            SelItem::DescendantOrSelf => lane.or(L::get(carried, i), L::get(sv, i - 1)),
            SelItem::SelfQualifier(quals) => {
                let mut acc = L::get(sv, i - 1);
                for q in quals {
                    if acc == f {
                        break;
                    }
                    let value = qual(lane, v, *q)?;
                    acc = lane.and(acc, value);
                }
                acc
            }
        };
        // AND in this node's positional facts for the step, straight from
        // the carried tail (entries slen..slen+P).
        if !query.sel_positions.is_empty() && matches!(item, SelItem::Label(_) | SelItem::Wildcard)
        {
            for (j, sp) in query.sel_positions.iter().enumerate() {
                if sp.item == idx && value != f {
                    value = lane.and(value, L::get(carried, slen + j));
                }
            }
        }
        L::set(sv, i, value);
    }
    Some(())
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
    /// Elementary operations performed. In a [`multi_combined_pass`], the
    /// query's own: its spine phase and its selection sweep.
    pub ops: u64,
    /// The qualifier sweep's nodes per lane: the union phase's in the word
    /// lane, the query's spine in the arena lane.
    pub qualifier_lanes: LaneCounts,
    /// The selection sweep's nodes per lane.
    pub selection_lanes: LaneCounts,
}

/// The PaX2 visit (§4) over one subtree: the qualifier sweep, then the
/// selection sweep reading the first sweep's `QV` vectors in place — same
/// arena, same site visit, so no formula is exported between the two and
/// nothing has to be unified afterwards. Over an unfragmented tree this is
/// the centralized evaluator. It is the [`multi_combined_pass`] of one
/// query, whose union is its own `QVect`.
///
/// `_local_var` is ignored: the paper's single traversal needs a `qz`
/// placeholder per not-yet-known qualifier value, two sweeps do not. The
/// parameter stays because the frozen `benchmark/src/shadow.rs` passes seven
/// arguments; the ROADMAP item "one formula representation" drops it.
pub fn combined_pass<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    query: &CompiledQuery,
    init: CompactVector<V>,
    context: Option<NodeId>,
    mut virtual_qual_vectors: impl FnMut(NodeId) -> QualVectors<V>,
    _local_var: impl Fn(NodeId, QEntryId) -> V,
) -> CombinedPassOutput<V> {
    let queries = [VisitQuery { query, init, context }];
    let MultiPassOutput { visits, sharing } =
        multi_combined_pass(tree, root, &queries, None, |_, v| virtual_qual_vectors(v));
    let mut visit = visits.into_iter().next().expect("one query, one visit");
    visit.ops += sharing.union_ops;
    visit
}

/// One query of a [`multi_combined_pass`]: what [`combined_pass`] takes.
#[derive(Debug, Clone)]
pub struct VisitQuery<'q, V: Ord> {
    /// The compiled query.
    pub query: &'q CompiledQuery,
    /// The `SV` vector of the subtree root's (possibly unknown) parent.
    pub init: CompactVector<V>,
    /// The node whose empty-prefix entry is true, if it is in the subtree.
    pub context: Option<NodeId>,
}

/// What a [`multi_combined_pass`] shared between its queries. Read by tests
/// and probes; never leaves the site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualifierSharing {
    /// `QVect` entries of the visit's queries, summed.
    pub summed_entries: u64,
    /// Entries of the unions the visit swept, summed over its groups.
    pub union_entries: u64,
    /// Nodes the union phases computed.
    pub union_nodes: u64,
    /// Nodes the spine phases computed, summed over the queries.
    pub spine_nodes: u64,
    /// Operations of the union phases: `2·|union|` per child fold and per
    /// node, as one qualifier sweep over the union charges them.
    pub union_ops: u64,
}

/// Result of a [`multi_combined_pass`].
#[derive(Debug, Clone)]
pub struct MultiPassOutput<V: Ord> {
    /// Per query, in order: its visit, `==` its [`combined_pass`] except
    /// that `ops` leaves out the union phases.
    pub visits: Vec<CombinedPassOutput<V>>,
    /// The union phases: what they shared and what they cost.
    pub sharing: QualifierSharing,
}

/// PaX2's visit (§4) of many queries over one subtree. Queries are grouped
/// so that each group's union `QVect` fits one word; each group runs one
/// union phase over the subtree, and each of its queries a spine phase and
/// its selection sweep in its own arena (see the module doc, "Many queries,
/// one visit"). A query wider than a word is a group of its own, whose
/// spine is the whole subtree.
///
/// `summary` is `tree`'s [`LabelSummary`], over which the selection sweeps
/// pass over the subtrees that can hold no answer (see the module doc);
/// `None` walks every node. `virtual_qual_vectors(i, v)` stands for query
/// `i`'s `QV`/`QDV` at the virtual node `v`, as in [`combined_pass`].
pub fn multi_combined_pass<V: VarLike>(
    tree: &XmlTree,
    root: NodeId,
    queries: &[VisitQuery<'_, V>],
    summary: Option<&LabelSummary>,
    mut virtual_qual_vectors: impl FnMut(usize, NodeId) -> QualVectors<V>,
) -> MultiPassOutput<V> {
    let mut sharing = QualifierSharing {
        summed_entries: queries.iter().map(|q| q.query.qvect_len() as u64).sum(),
        ..QualifierSharing::default()
    };
    let mut visits: Vec<Option<CombinedPassOutput<V>>> = queries.iter().map(|_| None).collect();
    let mut visit = |i: usize, union: &Union, map: Option<&[QEntryId]>| {
        let VisitQuery { query, init, context } = &queries[i];
        let mut arena: FormulaArena<V> = FormulaArena::new();
        let quals =
            spine_sweep(&mut arena, tree, query, union, map, |v| virtual_qual_vectors(i, v));
        let sel = selection_sweep(
            &mut arena,
            tree,
            root,
            query,
            init,
            *context,
            summary,
            &mut |_, v, e| quals.id(v, e),
        );
        visits[i] = Some(CombinedPassOutput {
            answers: sel.answers,
            candidates: sel.candidates,
            virtual_vectors: sel.virtual_vectors,
            root: quals.root_vectors(root, &arena),
            ops: quals.ops + sel.ops,
            qualifier_lanes: quals.lanes,
            selection_lanes: sel.lanes,
        });
    };
    for group in groups(queries) {
        let union = union_sweep(tree, root, &group.qvect);
        sharing.union_entries += group.qvect.len() as u64;
        sharing.union_nodes += union.nodes;
        sharing.union_ops += union.ops;
        for (i, map) in &group.members {
            sharing.spine_nodes += union.spine.len() as u64;
            visit(*i, &union, map.as_deref());
        }
    }
    // A query without qualifiers is in no group: it has nothing to sweep
    // bottom-up.
    let none = Union::default();
    for (i, query) in queries.iter().enumerate() {
        if !query.query.has_qualifiers() {
            visit(i, &none, None);
        }
    }
    let visits = visits.into_iter().map(|v| v.expect("every query visited")).collect();
    MultiPassOutput { visits, sharing }
}

/// Queries whose qualifier values one union phase computes.
struct Group<'q> {
    /// The union of the members' `QVect`s.
    qvect: Cow<'q, [QEntry]>,
    /// Each member's index and entry map into `qvect` (see [`Stored::map`]).
    members: Vec<(usize, Option<Vec<QEntryId>>)>,
}

/// The groups of the queries with qualifiers, formed greedily in query
/// order: a query joins the open group while their union, built through
/// the compiler's dedup, fits one word; otherwise it opens the next group.
/// A query wider than a word on its own is a group of its own.
fn groups<'q, V: Ord>(queries: &[VisitQuery<'q, V>]) -> Vec<Group<'q>> {
    let mut groups: Vec<Group<'q>> = Vec::new();
    let mut open = None;
    for (i, query) in queries.iter().enumerate() {
        let qvect = query.query.qvect.as_slice();
        if qvect.is_empty() {
            continue;
        }
        if let Some(group) = open.and_then(|g: usize| groups.get_mut(g)) {
            let union = group.qvect.to_mut();
            let before = union.len();
            let map = splice_qvect(union, qvect);
            if union.len() <= WORD {
                group.members.push((i, Some(map)));
                continue;
            }
            union.truncate(before);
        }
        open = (qvect.len() <= WORD).then_some(groups.len());
        groups.push(Group { qvect: Cow::Borrowed(qvect), members: vec![(i, None)] });
    }
    groups
}

/// The property tests' random fragments and queries, shared with
/// `tests/property_pipeline.rs`.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::normalize::normalize;
    use crate::{centralized, parse, semantics};
    use paxml_boolex::Assignment;
    use paxml_xml::{NodeKind, TreeBuilder};
    use proptest::prelude::*;

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
    fn a_context_below_a_dead_summary_is_still_reached() {
        // Every vector is all false down to the context, so the sweep must
        // walk the dead subtree above it instead of fast-forwarding.
        let tree = clientele();
        let q = compiled("name");
        let lisa = tree.find_all("client")[1];
        let mut no_qualifier = |_: NodeId, _: QEntryId| -> BoolExpr<NoVar> { unreachable!() };
        let init = CompactVector::all_false(q.svect_len());
        let out = selection_pass(&tree, tree.root(), &q, init, Some(lisa), &mut no_qualifier);
        assert_eq!(out.answers.len(), 1);
        assert_eq!(tree.text_of(out.answers[0]), Some("Lisa".to_string()));
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

    /// Fresh `QV`/`QDV` variables for each virtual node, named after the
    /// fragment it stands for.
    fn fresh_vectors(
        tree: &XmlTree,
        qlen: usize,
    ) -> impl Fn(NodeId) -> QualVectors<String> + Copy + '_ {
        move |node| {
            let stub = tree.kind(node).virtual_fragment().expect("asked for virtual nodes only");
            QualVectors {
                qv: CompactVector::fresh_variables(qlen, |i| format!("F{stub}.qv{i}")),
                qdv: CompactVector::fresh_variables(qlen, |i| format!("F{stub}.qdv{i}")),
            }
        }
    }

    /// How a visit starts.
    #[derive(Debug, Clone, Copy)]
    enum Start {
        /// The root fragment: the query's initial facts at its evaluation
        /// context.
        Root,
        /// Any other fragment: fresh variables.
        Inner,
        /// An inner fragment whose init is partly known: entry `i` is `true`
        /// for `i % 3 == 0`, `false` for `i % 3 == 1`, a variable otherwise.
        Partial,
    }

    const STARTS: [Start; 3] = [Start::Root, Start::Inner, Start::Partial];

    /// `text` read as a number (whitespace trimmed, a leading `$` tolerated)
    /// satisfies `op n`; non-numbers and absent values fail closed.
    fn numeric_holds(text: Option<&str>, op: CmpOp, n: f64) -> bool {
        text.and_then(|t| {
            let t = t.trim();
            t.strip_prefix('$').unwrap_or(t).parse::<f64>().ok()
        })
        .is_some_and(|value| op.apply(value, n))
    }

    /// The reference for [`QProgram`]: one `QVect` entry at the non-virtual
    /// node `v`, in the arena lane, by a `match` on the entry, from the
    /// earlier entries at `v` (`qv_so_far`), the children's folds and, for
    /// counted folds, the children's stored `QV`s.
    #[allow(clippy::too_many_arguments)]
    fn eval_qentry(
        arena: &mut FormulaArena<String>,
        tree: &XmlTree,
        v: NodeId,
        entry: &QEntry,
        qv_so_far: &AVec,
        child_any_qv: &AVec,
        child_any_qdv: &AVec,
        stored: Stored<'_>,
    ) -> ExprId {
        // Counted child-fold: OR of `entry` over the children sitting at
        // positions accepted by `filter`.
        let counted_fold = |arena: &mut FormulaArena<String>, e: QEntryId, filter: &PosFilter| {
            arena.or_all(
                position_accepts(tree, v, filter)
                    .filter(|&(_, ok)| ok)
                    .map(|(c, _)| stored.id(c, e)),
            )
        };
        let earlier = |e: &QEntryId| qv_so_far.id(*e);
        let constant = ExprId::of_const;
        match entry {
            QEntry::LabelTest(label) => constant(tree.label(v) == Some(label.as_str())),
            QEntry::ElementTest => constant(tree.is_element(v)),
            QEntry::TextTest(s) => constant(tree.text_value(v) == Some(s.as_str())),
            QEntry::ValTest(op, n) => constant(numeric_holds(tree.text_value(v), *op, *n)),
            QEntry::AttrTest(a) => constant(tree.attribute(v, a).is_some()),
            QEntry::AttrValueTest(a, s) => constant(tree.attribute(v, a) == Some(s.as_str())),
            QEntry::AttrCmpTest(a, op, n) => constant(numeric_holds(tree.attribute(v, a), *op, *n)),
            QEntry::Step { test, quals, next, next_pos } => {
                let next_value = match (next, next_pos) {
                    (None, _) => None,
                    (Some((QAxis::Child, e)), Some(filter)) => {
                        Some(counted_fold(arena, *e, filter))
                    }
                    (Some((QAxis::Child, e)), None) => Some(child_any_qv.id(*e)),
                    (Some((QAxis::Descendant, e)), _) => Some(child_any_qdv.id(*e)),
                };
                arena.and_all(
                    std::iter::once(earlier(test))
                        .chain(quals.iter().map(earlier))
                        .chain(next_value),
                )
            }
            QEntry::Exists { axis, entry, pos } => match (axis, pos) {
                (QAxis::Child, Some(filter)) => counted_fold(arena, *entry, filter),
                (QAxis::Child, None) => child_any_qv.id(*entry),
                (QAxis::Descendant, _) => child_any_qdv.id(*entry),
            },
            QEntry::Not(e) => arena.not(earlier(e)),
            QEntry::And(es) => arena.and_all(es.iter().map(earlier)),
            QEntry::Or(es) => arena.or_all(es.iter().map(earlier)),
        }
    }

    fn start(
        q: &CompiledQuery,
        tree: &XmlTree,
        start: Start,
    ) -> (CompactVector<String>, Option<NodeId>) {
        let root = tree.root();
        let variable = |i| BoolExpr::Var(format!("z{i}"));
        match start {
            Start::Root => {
                let init = initial_vector(q, tree.label(root).unwrap_or_default());
                (CompactVector::from_bools(&init), evaluation_context(q, root))
            }
            Start::Inner => {
                (CompactVector::from_exprs((0..q.init_len()).map(variable).collect()), None)
            }
            Start::Partial => {
                let entry = |i| if i % 3 == 2 { variable(i) } else { BoolExpr::Const(i % 3 == 0) };
                (CompactVector::from_exprs((0..q.init_len()).map(entry).collect()), None)
            }
        }
    }

    /// Run a visit's two sweeps, then derive what they produced again in the
    /// arena lane alone — every node's `QV`/`QDV` from its children's stored
    /// vectors by the per-entry reference [`eval_qentry`], which neither the
    /// word nor the arena lane runs, and the selection output from a walk
    /// that takes the arena lane at every node and fast-forwards nowhere —
    /// and assert that both
    /// agree, that each sweep charged the cost model's `ops`, and that the
    /// sweeps counted every node in one lane: the qualifier sweep's spine in
    /// the arena lane, no selection node in the word lane. Returns the
    /// selection sweep's lane counts.
    fn assert_lanes_agree(tree: &XmlTree, q: &CompiledQuery, start_at: Start) -> LaneCounts {
        let (root, qlen, slen) = (tree.root(), q.qvect_len(), q.svect_len());
        let mut arena = FormulaArena::new();
        let union = union_sweep(tree, root, &q.qvect);
        let quals = spine_sweep(&mut arena, tree, q, &union, None, fresh_vectors(tree, qlen));

        let (mut qual_ops, mut qual_nodes) = (0, 0);
        for v in tree.post_order(root).filter(|_| qlen > 0) {
            qual_nodes += 1;
            if tree.is_virtual(v) {
                qual_ops += qlen;
                continue;
            }
            let mut child_any_qv = AVec::all_false(qlen);
            let mut child_any_qdv = AVec::all_false(qlen);
            for c in tree.children(v) {
                let (qv, qdv) = quals.vectors(c);
                child_any_qv.or_into(&qv, &mut arena);
                child_any_qdv.or_into(&qdv, &mut arena);
                qual_ops += 2 * qlen;
            }
            let mut qv = AVec::all_false(qlen);
            for (i, entry) in q.qvect.iter().enumerate() {
                let (any_qv, any_qdv, stored) = (&child_any_qv, &child_any_qdv, quals.stored());
                let value = eval_qentry(&mut arena, tree, v, entry, &qv, any_qv, any_qdv, stored);
                qv.set(i, value);
            }
            let mut qdv = child_any_qdv;
            qdv.or_into(&qv, &mut arena);
            qual_ops += 2 * qlen;
            let (got_qv, got_qdv) = quals.vectors(v);
            for i in 0..qlen {
                assert_eq!(got_qv.id(i), qv.id(i), "QV entry {i} at {v:?}");
                assert_eq!(got_qdv.id(i), qdv.id(i), "QDV entry {i} at {v:?}");
            }
        }
        assert_eq!(union.ops + quals.ops, qual_ops as u64, "qualifier sweep ops");
        let LaneCounts { word, disjunction, arena: in_arena, fast_forwarded } = quals.lanes;
        assert_eq!((disjunction, fast_forwarded), (0, 0), "qualifier sweep lanes");
        assert_eq!(in_arena, union.spine.len() as u64, "the spine runs in the arena lane");
        assert_eq!(word + in_arena, qual_nodes, "every qualifier node counted once");

        let (init, context) = start(q, tree, start_at);
        let qual_id = |v: NodeId, e: QEntryId| quals.id(v, e);
        let sel =
            selection_sweep(&mut arena, tree, root, q, &init, context, None, &mut |_, v, e| {
                qual_id(v, e)
            });

        let mut expected = SelectionPassOutput {
            answers: Vec::new(),
            candidates: Vec::new(),
            virtual_vectors: Vec::new(),
            ops: 0,
            lanes: LaneCounts::default(),
        };
        let mut nodes = 0;
        let mut stack = vec![(root, AVec::from_compact(&init, &mut arena))];
        let mut rows = Vec::new();
        while let Some((v, carried)) = stack.pop() {
            nodes += 1;
            expected.ops += slen as u64;
            if tree.is_virtual(v) {
                expected.virtual_vectors.push((v, carried.into_compact(&arena)));
                continue;
            }
            let sv =
                arena_sv(&mut arena, tree, v, q, &carried, context, &mut |_, v, e| qual_id(v, e));
            let last = sv.id(slen - 1);
            if tree.is_element(v) || q.sel_items.is_empty() {
                if last == ExprId::TRUE {
                    expected.answers.push(v);
                } else if !last.is_const() {
                    expected.candidates.push((v, arena.to_expr(last)));
                }
            }
            child_fact_rows(tree, v, q, &mut rows);
            expected.ops += (rows.len() * q.sel_positions.len()) as u64;
            let children: Vec<NodeId> = tree.children(v).collect();
            for (c, row) in children.into_iter().zip(&rows).rev() {
                stack.push((c, sv.extended_with(row)));
            }
        }
        assert_eq!(sel.answers, expected.answers, "answers");
        assert_eq!(sel.candidates, expected.candidates, "candidates");
        assert_eq!(sel.virtual_vectors, expected.virtual_vectors, "virtual-node summaries");
        assert_eq!(sel.ops, expected.ops, "selection sweep ops");
        let LaneCounts { word, disjunction, arena: in_arena, fast_forwarded } = sel.lanes;
        assert_eq!(word, 0, "no selection node runs in the word lane");
        assert_eq!(disjunction + in_arena + fast_forwarded, nodes, "every node counted once");
        sel.lanes
    }

    proptest! {
        #[test]
        fn the_two_lanes_agree_at_every_node(
            tree in common::fragment_strategy(),
            query in common::kernel_query_strategy(),
            start_at in prop::sample::select(STARTS.to_vec()),
        ) {
            assert_lanes_agree(&tree, &compiled(&query), start_at);
        }
    }

    /// How many of a fragment's qualifier variables Stage 2's environment
    /// resolves: all of them, or about two in three (the rest stay symbolic
    /// on the spine).
    #[derive(Debug, Clone, Copy)]
    enum Resolved {
        All,
        Partly,
    }

    /// Values for the `QV`/`QDV` variables of `tree`'s virtual nodes (as
    /// [`fresh_vectors`] names them), drawn from `seed`.
    fn qualifier_env(
        tree: &XmlTree,
        qlen: usize,
        seed: u64,
        resolved: Resolved,
    ) -> Assignment<String> {
        let mut env = Assignment::new();
        let mut state = seed;
        for v in tree.virtual_nodes() {
            let stub = tree.kind(v).virtual_fragment().expect("a virtual node");
            for i in 0..qlen {
                for vector in ["qv", "qdv"] {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let draw = state >> 33;
                    if matches!(resolved, Resolved::All) || !draw.is_multiple_of(3) {
                        env.set(format!("F{stub}.{vector}{i}"), draw & 1 != 0);
                    }
                }
            }
        }
        env
    }

    /// PaX3's two stages over `tree` as a site runs them — the qualifier
    /// sweep parked, then Stage 2 reading it in place under `env` — against
    /// Stage 2 over [`qualifier_pass`]'s per-node vectors read back through
    /// [`selection_pass`]'s callback (its sweep, when over a summary), and
    /// assert equal root vectors, answers, candidate formula trees,
    /// virtual-node vectors, `ops` and lane counts.
    fn assert_parked_reads_agree(
        tree: &XmlTree,
        q: &CompiledQuery,
        start_at: Start,
        summary: Option<&LabelSummary>,
        env: &Assignment<String>,
    ) {
        let (root, fresh) = (tree.root(), fresh_vectors(tree, q.qvect_len()));
        let exported = qualifier_pass(tree, root, q, fresh);
        let swept = qualifier_sweep(tree, root, q, fresh);
        assert_eq!(swept.root, exported.root, "root vectors");
        assert_eq!((swept.ops, swept.lanes), (exported.ops, exported.lanes), "qualifier sweep");

        let (init, context) = start(q, tree, start_at);
        let parked = q.has_qualifiers().then_some(&swept.parked);
        let got = parked_selection_pass(tree, root, q, init.clone(), context, summary, parked, env);
        let mut qual_value =
            |v: NodeId, e| exported.node_qv[v.index()].as_ref().expect("swept").expr(e).assign(env);
        let expected = match summary {
            None => selection_pass(tree, root, q, init, context, &mut qual_value),
            Some(_) => {
                let mut arena = FormulaArena::new();
                selection_sweep(
                    &mut arena,
                    tree,
                    root,
                    q,
                    &init,
                    context,
                    summary,
                    &mut |a, v, e| a.from_expr(&qual_value(v, e)),
                )
            }
        };
        assert_eq!(got.answers, expected.answers, "answers");
        assert_eq!(got.candidates, expected.candidates, "candidates");
        assert_eq!(got.virtual_vectors, expected.virtual_vectors, "virtual-node summaries");
        assert_eq!(got.ops, expected.ops, "selection sweep ops");
        assert_eq!(got.lanes, expected.lanes, "selection sweep lanes");
    }

    proptest! {
        #[test]
        fn stage_two_over_the_parked_sweep_equals_it_over_exported_vectors(
            tree in common::fragment_strategy(),
            query in common::kernel_query_strategy(),
            start_at in prop::sample::select(STARTS.to_vec()),
            seed in any::<u64>(),
            resolved in prop::sample::select(vec![Resolved::All, Resolved::Partly]),
        ) {
            let q = compiled(&query);
            let env = qualifier_env(&tree, q.qvect_len(), seed, resolved);
            let summary = LabelSummary::of(&tree);
            for summary in [None, Some(&summary)] {
                assert_parked_reads_agree(&tree, &q, start_at, summary, &env);
            }
        }
    }

    /// Visit `tree` with every query of `texts` at once, from `start_at`, and
    /// assert that each query's output `==` its own [`combined_pass`] —
    /// answers, candidate formula trees, virtual-node and root vectors,
    /// lane counts — and that the visit costs at most the single visits'
    /// summed `ops`, exactly those for a batch of one. Returns what the visit
    /// shared.
    fn assert_batch_equals_singles(
        tree: &XmlTree,
        texts: &[String],
        start_at: Start,
    ) -> QualifierSharing {
        let root = tree.root();
        let queries: Vec<CompiledQuery> = texts.iter().map(|text| compiled(text)).collect();
        let visits: Vec<VisitQuery<String>> = queries
            .iter()
            .map(|query| {
                let (init, context) = start(query, tree, start_at);
                VisitQuery { query, init, context }
            })
            .collect();
        let fresh = |i: usize, v| fresh_vectors(tree, queries[i].qvect_len())(v);
        let batch = multi_combined_pass(tree, root, &visits, None, fresh);
        assert_eq!(batch.visits.len(), visits.len());
        let mut summed_ops = 0;
        for (i, (visit, got)) in visits.iter().zip(&batch.visits).enumerate() {
            let VisitQuery { query, init, context } = visit;
            let held = fresh_vectors(tree, query.qvect_len());
            let single = combined_pass(
                tree,
                root,
                query,
                init.clone(),
                *context,
                held,
                |_, _| unreachable!(),
            );
            let text = &texts[i];
            assert_eq!(got.answers, single.answers, "answers of {text}");
            assert_eq!(got.candidates, single.candidates, "candidates of {text}");
            assert_eq!(got.virtual_vectors, single.virtual_vectors, "summaries of {text}");
            assert_eq!(got.root, single.root, "root vectors of {text}");
            assert_eq!(got.qualifier_lanes, single.qualifier_lanes, "qualifier lanes of {text}");
            assert_eq!(got.selection_lanes, single.selection_lanes, "selection lanes of {text}");
            summed_ops += single.ops;
        }
        let ops = batch.visits.iter().map(|v| v.ops).sum::<u64>() + batch.sharing.union_ops;
        assert!(ops <= summed_ops, "the batch costs {ops}, its queries {summed_ops}");
        if texts.len() == 1 {
            assert_eq!(ops, summed_ops, "a batch of one costs its single visit");
        }
        let sharing = batch.sharing;
        let entries: usize = queries.iter().map(CompiledQuery::qvect_len).sum();
        assert_eq!(sharing.summed_entries, entries as u64);
        assert!(sharing.union_entries <= sharing.summed_entries);
        sharing
    }

    /// Nodes of `tree` with a virtual node at or below them.
    fn spine_len(tree: &XmlTree) -> u64 {
        tree.post_order(tree.root())
            .filter(|&v| tree.is_virtual(v) || tree.descendants(v).any(|d| tree.is_virtual(d)))
            .count() as u64
    }

    /// Visit `tree` with every query of `texts` at once, from `start_at`,
    /// over `tree`'s [`LabelSummary`] and without one, and assert that the
    /// summary changes no output — answers, candidate formula trees,
    /// virtual-node and root vectors, `ops`, what the visit shared — and
    /// that each sweep still counts every node once, computing no more of
    /// them. Returns the selection nodes computed without and with it.
    fn assert_summary_changes_nothing(
        tree: &XmlTree,
        texts: &[String],
        start_at: Start,
    ) -> [u64; 2] {
        let root = tree.root();
        let queries: Vec<CompiledQuery> = texts.iter().map(|text| compiled(text)).collect();
        let visits: Vec<VisitQuery<String>> = queries
            .iter()
            .map(|query| {
                let (init, context) = start(query, tree, start_at);
                VisitQuery { query, init, context }
            })
            .collect();
        let fresh = |i: usize, v| fresh_vectors(tree, queries[i].qvect_len())(v);
        let summary = LabelSummary::of(tree);
        let walked = multi_combined_pass(tree, root, &visits, None, fresh);
        let passed = multi_combined_pass(tree, root, &visits, Some(&summary), fresh);
        assert_eq!(passed.sharing, walked.sharing);
        let computed = |lanes: LaneCounts| lanes.disjunction + lanes.arena;
        let mut nodes = [0, 0];
        for ((text, walked), got) in texts.iter().zip(&walked.visits).zip(&passed.visits) {
            assert_eq!(got.answers, walked.answers, "answers of {text}");
            assert_eq!(got.candidates, walked.candidates, "candidates of {text}");
            assert_eq!(got.virtual_vectors, walked.virtual_vectors, "summaries of {text}");
            assert_eq!(got.root, walked.root, "root vectors of {text}");
            assert_eq!(got.ops, walked.ops, "ops of {text}");
            assert_eq!(got.qualifier_lanes, walked.qualifier_lanes, "qualifier lanes of {text}");
            let (got, walked) = (got.selection_lanes, walked.selection_lanes);
            assert_eq!(got.word + walked.word, 0, "{text}: selection nodes in the word lane");
            assert_eq!(
                computed(got) + got.fast_forwarded,
                computed(walked) + walked.fast_forwarded,
                "{text}: every selection node counted once"
            );
            assert!(computed(got) <= computed(walked), "{text}: {got:?} computes more");
            nodes[0] += computed(walked);
            nodes[1] += computed(got);
        }
        nodes
    }

    proptest! {
        #[test]
        fn a_label_summary_changes_no_output_of_a_visit(
            tree in common::fragment_strategy(),
            texts in prop::collection::vec(
                prop_oneof![common::kernel_query_strategy(), Just("a//.".to_string())],
                1..=4,
            ),
            start_at in prop::sample::select(STARTS.to_vec()),
        ) {
            assert_summary_changes_nothing(&tree, &texts, start_at);
        }
    }

    #[test]
    fn a_hopeless_subtree_holding_a_virtual_node_is_walked() {
        // From the root fragment's facts nothing under `x` or `z` can answer
        // `/r/a//c`, but the `y` held below `x` still needs its summary: the
        // fast-forward walks `x` and passes over `z` with or without the
        // summary. From fresh variables both carry a live `//` entry, and
        // only `z` lacks a `c`: the summary passes over its two `b`s.
        let tree = TreeBuilder::new("r")
            .open("x")
            .open("y")
            .element("c")
            .close()
            .element("c")
            .close()
            .open("a")
            .open("y")
            .element("c")
            .close()
            .element("c")
            .close()
            .open("z")
            .element("b")
            .element("b")
            .close()
            .build();
        let (fragment, _) = cut(&tree, &tree.find_all("y"));
        let (texts, nodes) = (["/r/a//c".to_string()], fragment.node_count() as u64);
        let computed =
            STARTS.map(|start_at| assert_summary_changes_nothing(&fragment, &texts, start_at));
        assert_eq!(computed, [[nodes - 4, nodes - 4], [nodes, nodes - 2], [nodes, nodes - 2]]);
    }

    #[test]
    fn a_trailing_descendant_or_self_reaches_the_children() {
        // The last entry of `a//.` holds at `a`, and the `//` before it
        // hands it to every node below: `b` and `c` answer too.
        let tree = TreeBuilder::new("r").open("a").open("b").element("c").close().close().build();
        let (a, b, c) = (tree.find_first("a"), tree.find_first("b"), tree.find_first("c"));
        let q = compiled("a//.");
        let summary = LabelSummary::of(&tree);
        let (init, context) = start(&q, &tree, Start::Root);
        let visit = multi_combined_pass(
            &tree,
            tree.root(),
            &[VisitQuery { query: &q, init, context }],
            Some(&summary),
            |_, _| unreachable!(),
        );
        let answers: Vec<_> = visit.visits[0].answers.iter().map(|&n| Some(n)).collect();
        assert_eq!(answers, [a, b, c]);
        for start_at in STARTS {
            assert_summary_changes_nothing(&tree, &["a//.".to_string()], start_at);
        }
    }

    #[test]
    fn labels_sharing_the_overflow_bit_never_pass_over_an_answer() {
        // 80 labels below `r`: from `p31` on they share bit 63, so a subtree
        // holding any of them looks as if it held every one.
        let mut tree = XmlTree::with_root_element("r");
        for k in 0..40 {
            let p = tree.append_element(tree.root(), format!("p{k}"));
            tree.append_element(p, format!("l{k}"));
        }
        let summary = LabelSummary::of(&tree);
        assert_eq!(summary.bit("p33"), Some(1 << 63));
        for text in ["//p33/l33", "/r/p33/l33", "//*/l33", "//p33/l3"] {
            let mut oracle = semantics::oracle_eval(&tree, text).unwrap();
            oracle.sort();
            let q = compiled(text);
            let (init, context) = start(&q, &tree, Start::Root);
            let visits = [VisitQuery { query: &q, init, context }];
            let visit = multi_combined_pass(
                &tree,
                tree.root(),
                &visits,
                Some(&summary),
                |_, _| unreachable!(),
            );
            assert_eq!(visit.visits[0].answers, oracle, "{text}");
            for start_at in STARTS {
                assert_summary_changes_nothing(&tree, &[text.to_string()], start_at);
            }
        }
    }

    #[test]
    fn a_passed_over_subtree_costs_what_walking_it_does() {
        // `/r/a/b` needs a `b` below `a`: the `a` without one and the `d`
        // subtree are passed over, charging `|SVect|` per node below them.
        let tree = TreeBuilder::new("r")
            .open("a")
            .element("b")
            .close()
            .open("a")
            .open("c")
            .element("c")
            .close()
            .close()
            .open("d")
            .open("a")
            .element("b")
            .close()
            .close()
            .build();
        let q = compiled("/r/a/b");
        let summary = LabelSummary::of(&tree);
        let (init, context) = start(&q, &tree, Start::Root);
        let visits = [VisitQuery { query: &q, init, context }];
        let walk = |summary| {
            multi_combined_pass(&tree, tree.root(), &visits, summary, |_, _| unreachable!())
        };
        let (walked, passed) = (walk(None), walk(Some(&summary)));
        let (walked, passed) = (&walked.visits[0], &passed.visits[0]);
        assert_eq!(passed.answers, [tree.find_first("b").unwrap()]);
        assert_eq!(passed.ops, walked.ops);
        assert_eq!(passed.ops, (tree.node_count() * q.svect_len()) as u64);
        // The dead `d` fast-forwards over its two nodes below, and the dead
        // outer `c` over its one. With the summary the second `a`, live but
        // without a `b` below, passes over both of its `c`s instead.
        assert_eq!(walked.selection_lanes.fast_forwarded, 3);
        assert_eq!(passed.selection_lanes.fast_forwarded, 4);
    }

    /// `//a[b/text()="t{i}" or …]` over `range`: four `QVect` entries a text.
    fn text_choice_query(range: std::ops::Range<usize>) -> String {
        let tests: Vec<String> = range.map(|i| format!("b/text()=\"t{i}\"")).collect();
        format!("//a[{}]", tests.join(" or "))
    }

    proptest! {
        #[test]
        fn a_multi_query_visit_equals_its_single_visits(
            tree in common::fragment_strategy(),
            texts in prop::collection::vec(common::kernel_query_strategy(), 1..=4),
            start_at in prop::sample::select(STARTS.to_vec()),
        ) {
            assert_batch_equals_singles(&tree, &texts, start_at);
        }

        #[test]
        fn a_union_wider_than_a_word_splits_the_batch(
            tree in common::fragment_strategy(),
            start_at in prop::sample::select(STARTS.to_vec()),
        ) {
            // The wide query is a group of its own and the two halves do not
            // fit one word together: the counted fold joins the second half.
            let (first, second) = (text_choice_query(0..12), text_choice_query(8..20));
            let (a, b) = (compiled(&first), compiled(&second));
            let mut union = a.qvect.clone();
            splice_qvect(&mut union, &b.qvect);
            assert!(a.qvect_len() <= WORD && b.qvect_len() <= WORD && union.len() > WORD);
            let texts = [
                common::wide_qualifier_query(),
                first,
                second,
                "*[b[1]/c]/d".to_string(),
                "a/b[2]/c".to_string(),
                common::deep_selection_query(),
            ];
            let sharing = assert_batch_equals_singles(&tree, &texts, start_at);
            let (nodes, spine) = (tree.node_count() as u64, spine_len(&tree));
            // Two word-wide union phases; the wide group's spine is the tree.
            assert_eq!(sharing.union_nodes, 2 * (nodes - spine));
            assert_eq!(sharing.spine_nodes, nodes + 3 * spine);
        }
    }

    #[test]
    fn one_union_phase_serves_a_batch_that_fits_a_word() {
        // `b` is held elsewhere: the spine is `b` and the root.
        let tree = TreeBuilder::new("a").leaf("b", "x").open("c").leaf("b", "US").close().build();
        let (fragment, _) = cut(&tree, &[tree.find_first("b").unwrap()]);
        let texts = ["//a[b/text()=\"x\"]", "//c[b/text()=\"US\"]/b", "//c[b]", "//*[b]"];
        let texts = texts.map(str::to_string);
        for start_at in STARTS {
            let sharing = assert_batch_equals_singles(&fragment, &texts, start_at);
            let nodes = fragment.node_count() as u64;
            assert_eq!(spine_len(&fragment), 2);
            assert!(sharing.union_entries < sharing.summed_entries, "{sharing:?}");
            assert_eq!((sharing.union_nodes, sharing.spine_nodes), (nodes - 2, 4 * 2));
        }
    }

    /// `tree` with the subtree at each node of `cuts` replaced by a virtual
    /// node standing for fragment `k + 1` (`cuts[k]`), and for every node of
    /// the result the `tree` node it copies.
    fn cut(tree: &XmlTree, cuts: &[NodeId]) -> (XmlTree, Vec<NodeId>) {
        let root = tree.root();
        let mut fragment = XmlTree::with_root_element(tree.label(root).expect("an element root"));
        let mut origin = vec![root];
        let mut walk = vec![(root, fragment.root())];
        while let Some((from, to)) = walk.pop() {
            for c in tree.children(from) {
                let held = cuts.iter().position(|&x| x == c);
                let kind = match held {
                    Some(k) => NodeKind::virtual_node(k + 1, tree.label(c).map(str::to_string)),
                    None => tree.kind(c).clone(),
                };
                let copy = fragment.append_child(to, kind);
                assert_eq!(copy.index(), origin.len());
                origin.push(c);
                if held.is_none() {
                    walk.push((c, copy));
                }
            }
        }
        (fragment, origin)
    }

    /// One lane-boundary case: the document `tree`, whose subtrees at `cuts`
    /// another site holds, and the query `text`. Checks
    /// * the centralized evaluator against the oracle on `tree`;
    /// * the lanes against the arena lane alone on `tree` and on the cut
    ///   fragment, from every [`Start`];
    /// * the fragment's PaX2 visit against PaX3's two passes, from every
    ///   start;
    /// * the distributed answer against the oracle: the visit's residual
    ///   formulas resolved from the held subtrees' root vectors, plus each
    ///   held subtree evaluated from the summary the visit ships for it.
    ///
    /// Returns the fragment and its PaX2 visit.
    fn check_boundary(
        tree: &XmlTree,
        cuts: &[NodeId],
        text: &str,
    ) -> (XmlTree, CombinedPassOutput<String>) {
        let q = compiled(text);
        let mut oracle = semantics::oracle_eval(tree, text).unwrap();
        oracle.sort();
        assert_eq!(centralized::evaluate(tree, text).unwrap().answers, oracle, "centralized");

        let (fragment, origin) = cut(tree, cuts);
        for whole in [tree, &fragment] {
            for start_at in STARTS {
                assert_lanes_agree(whole, &q, start_at);
            }
        }

        let root = fragment.root();
        let fresh = fresh_vectors(&fragment, q.qvect_len());
        let same = |a: &BoolExpr<String>, b: &BoolExpr<String>| {
            let mut arena = FormulaArena::new();
            arena.from_expr(a) == arena.from_expr(b)
        };
        let [pax2, _, _] = STARTS.map(|start_at| {
            let (init, context) = start(&q, &fragment, start_at);
            let quals = qualifier_pass(&fragment, root, &q, fresh);
            let mut qual_value =
                |v: NodeId, e| quals.node_qv[v.index()].as_ref().expect("swept").expr(e);
            let pax3 = selection_pass(&fragment, root, &q, init.clone(), context, &mut qual_value);
            let pax2 =
                combined_pass(&fragment, root, &q, init, context, fresh, |_, _| unreachable!());
            assert_eq!(pax2.root, quals.root);
            assert_eq!(pax2.answers, pax3.answers);
            assert_eq!(pax2.candidates.len(), pax3.candidates.len());
            for ((n2, f2), (n3, f3)) in pax2.candidates.iter().zip(&pax3.candidates) {
                assert!(n2 == n3 && same(f2, f3), "candidate {n2:?}: {f2} vs {f3}");
            }
            assert_eq!(pax2.virtual_vectors.len(), pax3.virtual_vectors.len());
            for ((n2, v2), (n3, v3)) in pax2.virtual_vectors.iter().zip(&pax3.virtual_vectors) {
                assert!(n2 == n3 && (0..v2.len()).all(|i| same(&v2.expr(i), &v3.expr(i))));
            }
            assert_eq!(pax2.ops, quals.ops + pax3.ops);
            assert_eq!(pax2.selection_lanes, pax3.lanes);
            pax2
        });

        let mut env = Assignment::new();
        for (k, &held) in cuts.iter().enumerate() {
            let vectors = qualifier_pass::<String>(tree, held, &q, |_| unreachable!()).root;
            for i in 0..q.qvect_len() {
                env.set(format!("F{}.qv{i}", k + 1), vectors.qv.const_at(i).unwrap());
                env.set(format!("F{}.qdv{i}", k + 1), vectors.qdv.const_at(i).unwrap());
            }
        }
        let mut answers: Vec<NodeId> = pax2.answers.iter().map(|n| origin[n.index()]).collect();
        for (n, formula) in &pax2.candidates {
            if formula.assign(&env).as_const().expect("every variable resolved") {
                answers.push(origin[n.index()]);
            }
        }
        for (vnode, summary) in &pax2.virtual_vectors {
            let summary = summary.assign(&env).as_bools().expect("every variable resolved");
            let below = combined_pass::<String>(
                tree,
                origin[vnode.index()],
                &q,
                CompactVector::from_bools(&summary),
                None,
                |_| unreachable!(),
                |_, _| unreachable!(),
            );
            answers.extend(below.answers);
        }
        answers.sort();
        assert_eq!(answers, oracle, "distributed answers");
        (fragment, pax2)
    }

    #[test]
    fn more_than_64_qvect_entries_take_the_arena_lane() {
        let tree = TreeBuilder::new("r")
            .open("a")
            .leaf("b", "x")
            .close()
            .open("a")
            .leaf("b", "t7")
            .leaf("c", "x")
            .close()
            .open("a")
            .leaf("b", "none")
            .close()
            .open("a")
            .open("d")
            .leaf("b", "US")
            .close()
            .leaf("b", "t19")
            .close()
            .build();
        let text = common::wide_qualifier_query();
        assert!(compiled(&text).qvect_len() > 64);
        let a = tree.find_all("a");
        let d = tree.find_first("d").unwrap();
        check_boundary(&tree, &[a[1], d], &text);
    }

    /// Sixty-seven carried entries are more than a word holds and more than
    /// the disjunction lane has bits for: fresh variables take the arena
    /// lane from the fragment's root on, and a partly known init until
    /// `true` has absorbed every variable, three levels down. The root
    /// fragment's constants are sets at any width, so its sweep never does.
    #[test]
    fn more_than_64_carried_entries_take_the_arena_lane() {
        let mut tree = XmlTree::with_root_element("r");
        let mut at = tree.root();
        let mut middle = at;
        for depth in 1..=40 {
            at = tree.append_element(at, "e");
            if depth % 10 == 0 {
                tree.append_leaf(at, "s", "x");
            }
            if depth == 20 {
                middle = at;
            }
        }
        let text = common::deep_selection_query();
        let q = compiled(&text);
        assert!(q.init_len() > 64);
        let (fragment, _) = check_boundary(&tree, &[middle], &text);
        let nodes = fragment.node_count() as u64;
        let lanes = |start_at| {
            let LaneCounts { disjunction, arena, .. } = assert_lanes_agree(&fragment, &q, start_at);
            (disjunction, arena)
        };
        assert_eq!(lanes(Start::Root), (nodes, 0));
        assert_eq!(lanes(Start::Inner), (0, nodes));
        assert_eq!(lanes(Start::Partial), (nodes - 3, 3));
    }

    #[test]
    fn a_counted_fold_over_a_symbolic_child_takes_the_arena_lane() {
        // The first `p`'s children make both of its child folds constant
        // (`c` and `x` witness every entry), while the second counted `b` —
        // the one `b[2]` reads — is held elsewhere: only the arena lane can
        // carry its value.
        let tree = TreeBuilder::new("r")
            .open("p")
            .element("c")
            .open("x")
            .element("b")
            .open("b")
            .element("c")
            .close()
            .close()
            .open("b")
            .element("c")
            .close()
            .open("b")
            .element("c")
            .close()
            .close()
            .open("p")
            .open("b")
            .element("c")
            .close()
            .element("b")
            .close()
            .build();
        let p = tree.find_all("p");
        let counted = |parent| tree.children(parent).filter(|&c| tree.label(c) == Some("b")).nth(1);
        let cuts = [counted(p[0]).unwrap(), counted(p[1]).unwrap()];
        let (fragment, pax2) = check_boundary(&tree, &cuts, "//p[b[2]/c]");
        let q = compiled("//p[b[2]/c]");
        let residual: Vec<_> =
            pax2.candidates.iter().map(|(n, f)| (fragment.label(*n), f)).collect();
        let step = q.qvect.iter().position(|e| matches!(e, QEntry::Step { next: Some(_), .. }));
        let var = |k| BoolExpr::Var(format!("F{k}.qv{}", step.unwrap()));
        assert_eq!(residual, [(Some("p"), &var(1)), (Some("p"), &var(2))]);
    }

    #[test]
    fn a_positional_selection_path_walks_dead_subtrees_in_full() {
        // `q` is dead for `/r/p/b[2]/c`, but the `b` held below it sits at
        // position 2: its summary must still carry that fact.
        let tree = TreeBuilder::new("r")
            .open("p")
            .open("b")
            .element("c")
            .close()
            .open("b")
            .element("c")
            .close()
            .element("b")
            .close()
            .open("q")
            .element("b")
            .open("b")
            .element("c")
            .close()
            .close()
            .build();
        let second_b = |parent| tree.children(parent).nth(1).unwrap();
        let cuts =
            [second_b(tree.find_first("p").unwrap()), second_b(tree.find_first("q").unwrap())];
        let (_, pax2) = check_boundary(&tree, &cuts, "/r/p/b[2]/c");
        let summary = &pax2.virtual_vectors[1].1;
        let facts = summary.as_bools().unwrap();
        assert!(facts[..facts.len() - 1].iter().all(|&b| !b), "q's summary is dead");
        assert_eq!(facts.last(), Some(&true), "but the held b's positional fact holds");
    }

    #[test]
    fn a_dead_summary_above_a_virtual_node_ships_all_false_in_document_order() {
        // `x` is dead for `/r/a//c`, so the sweep fast-forwards through it;
        // the `y` held below it still gets its (all-false) summary, before
        // the live one held below `a`.
        let tree = TreeBuilder::new("r")
            .open("x")
            .open("y")
            .element("c")
            .close()
            .element("c")
            .close()
            .open("a")
            .open("y")
            .element("c")
            .close()
            .element("c")
            .close()
            .build();
        let (fragment, pax2) = check_boundary(&tree, &tree.find_all("y"), "/r/a//c");
        let slen = compiled("/r/a//c").svect_len();
        let shipped: Vec<_> =
            pax2.virtual_vectors.iter().map(|(n, v)| (fragment.ancestors(*n).next(), v)).collect();
        assert_eq!(shipped.len(), 2);
        assert_eq!(shipped[0], (fragment.find_first("x"), &CompactVector::all_false(slen)));
        assert_eq!(shipped[1].0, fragment.find_first("a"));
        assert!(shipped[1].1.as_bools().unwrap().iter().any(|&b| b));
    }

    #[test]
    fn an_init_longer_than_62_entries_takes_the_arena_lane() {
        let mut tree = XmlTree::with_root_element("r");
        let mut at = tree.root();
        let mut middle = at;
        for depth in 1..=40 {
            at = tree.append_element(at, "e");
            if depth % 10 == 0 {
                tree.append_leaf(at, "s", "x");
            }
            if depth == 20 {
                middle = at;
            }
        }
        // 62 entries fill the disjunction lane's bits; 63 do not fit.
        for (text, width) in [("//*".repeat(30) + "/s", 62), ("//*".repeat(31), 63)] {
            let q = compiled(&text);
            assert_eq!(q.init_len(), width);
            let (fragment, _) = check_boundary(&tree, &[middle], &text);
            let lanes = assert_lanes_agree(&fragment, &q, Start::Inner);
            let nodes = fragment.node_count() as u64;
            if width == 62 {
                assert_eq!((lanes.arena, lanes.disjunction), (0, nodes), "{text}");
            } else {
                assert_eq!((lanes.arena, lanes.disjunction), (nodes, 0), "{text}");
            }
        }
    }

    #[test]
    fn a_symbolic_qualifier_read_takes_the_arena_lane_at_one_node() {
        // `a`'s qualifier reads `b`, held elsewhere, under the carried `//`
        // variable; then the missing `@k`, which is false. Only `a` needs
        // the arena lane: its SV is sets again, so its children re-enter.
        let tree = TreeBuilder::new("r")
            .open("a")
            .element("b")
            .open("d")
            .element("e")
            .close()
            .element("d")
            .close()
            .build();
        let text = "//a[b and @k]/d";
        let (fragment, _) = check_boundary(&tree, &[tree.find_first("b").unwrap()], text);
        let lanes = assert_lanes_agree(&fragment, &compiled(text), Start::Inner);
        let expected = LaneCounts { word: 0, disjunction: 5, arena: 1, fast_forwarded: 0 };
        assert_eq!(lanes, expected);
    }

    #[test]
    fn a_positional_fact_under_a_symbolic_init_ands_two_sets() {
        // At the fragment's root `b`, the step `b[2]` ANDs the carried `//`
        // variable with the root's own positional fact, another variable.
        // The conjunction is no set: the root and its children take the
        // arena lane, and `d`, whose SV drops it, hands its children back.
        let tree = TreeBuilder::new("b")
            .element("c")
            .open("d")
            .open("b")
            .element("c")
            .close()
            .open("b")
            .element("c")
            .close()
            .close()
            .build();
        let text = "//b[2]/c";
        let q = compiled(text);
        let held = tree.children(tree.find_first("d").unwrap()).nth(1).unwrap();
        let (fragment, _) = check_boundary(&tree, &[held], text);
        let lanes = assert_lanes_agree(&fragment, &q, Start::Inner);
        assert_eq!(lanes, LaneCounts { word: 0, disjunction: 3, arena: 3, fast_forwarded: 0 });

        let root = fragment.root();
        let (init, context) = start(&q, &fragment, Start::Inner);
        let fresh = fresh_vectors(&fragment, q.qvect_len());
        let visit = combined_pass(&fragment, root, &q, init, context, fresh, |_, _| unreachable!());
        let var = |i: usize| BoolExpr::Var(format!("z{i}"));
        let first_c = fragment.children(root).next();
        let and = BoolExpr::And(vec![var(1), var(q.svect_len())]);
        assert_eq!(visit.candidates.first(), Some(&(first_c.unwrap(), and)));
    }

    #[test]
    fn an_or_of_init_variables_leaves_the_lane_as_the_arena_builds_it() {
        // Below `a`, `//a//b`'s second `//` holds z1 ∨ z3: the candidate
        // `b` and the summary shipped for the held `x` carry that `Or`.
        let tree = TreeBuilder::new("r").open("a").element("b").element("x").close().build();
        let text = "//a//b";
        let q = compiled(text);
        let (fragment, _) = check_boundary(&tree, &[tree.find_first("x").unwrap()], text);
        let lanes = assert_lanes_agree(&fragment, &q, Start::Inner);
        assert_eq!(lanes, LaneCounts { word: 0, disjunction: 4, arena: 0, fast_forwarded: 0 });

        let root = fragment.root();
        let (init, context) = start(&q, &fragment, Start::Inner);
        let fresh = fresh_vectors(&fragment, q.qvect_len());
        let visit = combined_pass(&fragment, root, &q, init, context, fresh, |_, _| unreachable!());
        let var = |i: usize| BoolExpr::Var(format!("z{i}"));
        let or = BoolExpr::Or(vec![var(1), var(3)]);
        assert_eq!(visit.candidates, [(fragment.find_first("b").unwrap(), or.clone())]);
        let f = BoolExpr::Const(false);
        let summary = CompactVector::from_exprs(vec![f.clone(), var(1), var(1), or, f]);
        assert_eq!(visit.virtual_vectors, [(fragment.virtual_nodes()[0], summary)]);
    }

    #[test]
    fn true_absorbs_a_variable_in_a_partly_known_init() {
        // From the partial start (true, false, z2, true), `a` matches its
        // step on a known `true`, so the `//` after it is `true` ∨ z2 =
        // `true`, and the `b` below is an answer, not a candidate.
        let tree = TreeBuilder::new("a").open("c").element("b").close().build();
        let text = "a//b";
        let q = compiled(text);
        let lanes = assert_lanes_agree(&tree, &q, Start::Partial);
        assert_eq!(lanes, LaneCounts { word: 0, disjunction: 3, arena: 0, fast_forwarded: 0 });
        let (init, context) = start(&q, &tree, Start::Partial);
        let mut no_qualifier = |_: NodeId, _: QEntryId| -> BoolExpr<String> { unreachable!() };
        let out = selection_pass(&tree, tree.root(), &q, init, context, &mut no_qualifier);
        assert_eq!(out.answers, tree.find_all("b"));
        assert!(out.candidates.is_empty());
    }
}
