//! The coordinator-side `evalFT` procedures: unifying the residual variables
//! of the per-fragment partial answers over the fragment tree.
//!
//! The coordinator's working state is a [`DenseAssignment`]: instead of a
//! `BTreeMap<PaxVar, bool>` with one tree node per `(fragment, vector,
//! entry)` coordinate, every fragment owns three packed [`BitVector`]s (`QV`,
//! `QDV`, `SV`) indexed directly by entry — a lookup is two array reads, and
//! resolving a variable-free (leaf-fragment) vector is a word copy.

use crate::vars::{PaxVar, QualVecKind};
use paxml_boolex::{Assignment, BitVector, CompactVector};
use paxml_fragment::{FragmentId, FragmentTree};
use paxml_xpath::eval::QualVectors;
use std::collections::{BTreeMap, BTreeSet};

/// Per-fragment truth values of every residual variable, packed as bits.
///
/// `Qual` variables live in the `qv`/`qdv` vectors, `Sel` variables in
/// `sel`; a whole vector is either entirely known (set in one unification
/// step) or entirely unknown, which is exactly how `evalFT` proceeds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FragmentBits {
    /// `QV` values of the fragment's root (None until Stage 1 resolves them).
    qv: Option<BitVector>,
    /// `QDV` values of the fragment's root.
    qdv: Option<BitVector>,
    /// `SV` (ancestor-summary) values of the fragment.
    sel: Option<BitVector>,
}

/// A dense truth-value assignment for every `Qual`/`Sel` variable of a
/// deployment, indexed by `(fragment, vector, entry)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseAssignment {
    frags: Vec<FragmentBits>,
}

impl DenseAssignment {
    /// An empty assignment for `fragments` fragments — nothing is known yet.
    pub fn new(fragments: usize) -> Self {
        DenseAssignment { frags: vec![FragmentBits::default(); fragments] }
    }

    /// Make sure `fragment` is addressable (assignments built before a
    /// fragment tree grew can still be extended).
    fn slot(&mut self, fragment: FragmentId) -> &mut FragmentBits {
        let index = fragment.index();
        if index >= self.frags.len() {
            self.frags.resize(index + 1, FragmentBits::default());
        }
        &mut self.frags[index]
    }

    /// Record the resolved root `QV`/`QDV` values of a fragment, returning
    /// whether anything changed (used by the incremental dirty-cone walk).
    pub fn set_qual(&mut self, fragment: FragmentId, qv: BitVector, qdv: BitVector) -> bool {
        let slot = self.slot(fragment);
        let changed = slot.qv.as_ref() != Some(&qv) || slot.qdv.as_ref() != Some(&qdv);
        slot.qv = Some(qv);
        slot.qdv = Some(qdv);
        changed
    }

    /// Record the resolved ancestor-summary (`Sel`) values of a fragment,
    /// returning whether anything changed.
    pub fn set_sel(&mut self, fragment: FragmentId, sel: BitVector) -> bool {
        let slot = self.slot(fragment);
        let changed = slot.sel.as_ref() != Some(&sel);
        slot.sel = Some(sel);
        changed
    }

    /// Look up a variable. `None` when the owning vector has not been
    /// unified yet (or for the never-minted `PaxVar::Local`).
    pub fn get(&self, var: &PaxVar) -> Option<bool> {
        match var {
            PaxVar::Qual { fragment, vector, entry } => {
                let slot = self.frags.get(fragment.index())?;
                let bits = match vector {
                    QualVecKind::Qv => slot.qv.as_ref()?,
                    QualVecKind::Qdv => slot.qdv.as_ref()?,
                };
                (*entry < bits.len()).then(|| bits.get(*entry))
            }
            PaxVar::Sel { fragment, entry } => {
                let bits = self.frags.get(fragment.index())?.sel.as_ref()?;
                (*entry < bits.len()).then(|| bits.get(*entry))
            }
            PaxVar::Local { .. } => None,
        }
    }

    /// The resolved `Sel` bits of a fragment, if unified already.
    pub fn sel_of(&self, fragment: FragmentId) -> Option<&BitVector> {
        self.frags.get(fragment.index())?.sel.as_ref()
    }

    /// Restrict the assignment to the variables a particular fragment's site
    /// needs: the `Qual` variables of the fragment's sub-fragments and the
    /// fragment's own `Sel` variables. Keeps the per-message payload
    /// `O(|Q|)` per fragment, as required by the communication bound.
    pub fn restrict_for_fragment(
        &self,
        fragment: FragmentId,
        sub_fragments: &[FragmentId],
    ) -> Vec<(PaxVar, bool)> {
        let mut out = Vec::new();
        for &child in sub_fragments {
            if let Some(slot) = self.frags.get(child.index()) {
                for (kind, bits) in [(QualVecKind::Qv, &slot.qv), (QualVecKind::Qdv, &slot.qdv)] {
                    if let Some(bits) = bits {
                        for entry in 0..bits.len() {
                            out.push((
                                PaxVar::Qual { fragment: child, vector: kind, entry },
                                bits.get(entry),
                            ));
                        }
                    }
                }
            }
        }
        if let Some(sel) = self.sel_of(fragment) {
            for entry in 0..sel.len() {
                out.push((PaxVar::Sel { fragment, entry }, sel.get(entry)));
            }
        }
        out
    }
}

/// Bottom-up unification of Stage-1 (qualifier) vectors.
///
/// `roots[f]` is the `QV`/`QDV` pair computed at the root of fragment `f`;
/// its entries may mention the variables `Qual{c, …}` of `f`'s
/// sub-fragments. Leaf fragments are variable-free — they arrive as packed
/// bits and resolve by a word copy — so walking the fragment tree bottom-up
/// resolves every vector to constants (Example 3.2: `y₈` unifies with entry
/// `q₈` of `QV_market`).
///
/// Fragments missing from `roots` (pruned by the annotation optimization)
/// resolve to all-false vectors; the pruning criterion guarantees their
/// values are never consulted by an answer-determining formula.
///
/// Fills `assignment` with a truth value for every `Qual` variable.
pub fn unify_qualifiers(
    ft: &FragmentTree,
    roots: &BTreeMap<FragmentId, QualVectors<PaxVar>>,
    qvect_len: usize,
    assignment: &mut DenseAssignment,
) {
    walk_qualifiers(ft, |f| roots.get(&f), qvect_len, assignment, |_| true);
}

/// Top-down unification of the selection (Stage-2) vectors.
///
/// `virtuals[c]` is the ancestor-summary `SV` vector recorded at the virtual
/// node standing for fragment `c` inside its parent fragment; it may mention
/// the parent's own `Sel` variables (its unknown ancestors) and, for PaX2,
/// `Qual` variables. `root_init` is the known initial vector of the root
/// fragment (the implicit document node). `assignment` must already hold the
/// `Qual` truth values (it is empty of them for qualifier-free queries,
/// whose summaries mention no `Qual` variables).
///
/// Fills `assignment` with a truth value for every `Sel` variable of every
/// fragment (Example 3.4: `z₁` unifies to true via `SV_client`).
pub fn unify_selection(
    ft: &FragmentTree,
    virtuals: &BTreeMap<FragmentId, CompactVector<PaxVar>>,
    root_init: &[bool],
    assignment: &mut DenseAssignment,
) {
    walk_selection(ft, virtuals, root_init, &BTreeSet::new(), assignment, |_| true);
}

/// What one `evalFT` walk did.
#[derive(Debug, Default)]
pub(crate) struct Walk {
    /// Fragments whose values in the assignment changed.
    pub(crate) changed: BTreeSet<FragmentId>,
    /// Fragments the walk recomputed (the root's known summary excluded).
    pub(crate) recomputed: usize,
}

/// `evalFT`'s bottom-up half, the one walk behind [`unify_qualifiers`] and
/// a prepared query's dirty cone: a fragment's `Qual` values are recomputed
/// when `recompute` asks for it or a sub-fragment's values changed; every
/// other fragment keeps the values `assignment` already holds.
pub(crate) fn walk_qualifiers<'a>(
    ft: &FragmentTree,
    root_of: impl Fn(FragmentId) -> Option<&'a QualVectors<PaxVar>>,
    qvect_len: usize,
    assignment: &mut DenseAssignment,
    recompute: impl Fn(FragmentId) -> bool,
) -> Walk {
    let mut walk = Walk::default();
    for fragment in ft.bottom_up_order() {
        let below = |c: &FragmentId| walk.changed.contains(c);
        if !recompute(fragment) && !ft.children(fragment).iter().any(below) {
            continue;
        }
        walk.recomputed += 1;
        let (qv, qdv) = match root_of(fragment) {
            Some(vectors) => {
                let lookup = |var: &PaxVar| assignment.get(var);
                (vectors.qv.resolve_bits(&lookup), vectors.qdv.resolve_bits(&lookup))
            }
            None => (BitVector::all_false(qvect_len), BitVector::all_false(qvect_len)),
        };
        if assignment.set_qual(fragment, qv, qdv) {
            walk.changed.insert(fragment);
        }
    }
    walk
}

/// `evalFT`'s top-down half, the one walk behind [`unify_selection`] and a
/// prepared query's dirty cone. The root fragment's summary is `root_init`.
/// Another fragment's `Sel` values are recomputed when `recompute` asks for
/// it, its parent's values changed, or its recorded summary mentions a
/// `Qual` variable of a fragment in `qual_changed`.
pub(crate) fn walk_selection(
    ft: &FragmentTree,
    virtuals: &BTreeMap<FragmentId, CompactVector<PaxVar>>,
    root_init: &[bool],
    qual_changed: &BTreeSet<FragmentId>,
    assignment: &mut DenseAssignment,
    recompute: impl Fn(FragmentId) -> bool,
) -> Walk {
    let slen = root_init.len();
    let mut walk = Walk::default();
    for fragment in ft.top_down_order() {
        let Some(parent) = ft.parent(fragment) else {
            let root = BitVector::from_bools(root_init);
            if recompute(fragment) && assignment.set_sel(fragment, root) {
                walk.changed.insert(fragment);
            }
            continue;
        };
        let summary = virtuals.get(&fragment);
        let mentions_changed = |vector: &CompactVector<PaxVar>| {
            vector.variables().iter().any(|var| match var {
                PaxVar::Qual { fragment: g, .. } => qual_changed.contains(g),
                _ => false,
            })
        };
        if !recompute(fragment)
            && !walk.changed.contains(&parent)
            && !summary.is_some_and(mentions_changed)
        {
            continue;
        }
        walk.recomputed += 1;
        let sel = match summary {
            Some(vector) => resolve_summary(vector, slen, assignment),
            // The parent fragment was pruned or did not record a vector:
            // nothing above this fragment can match, so the summary is
            // all-false.
            None => BitVector::all_false(slen),
        };
        if assignment.set_sel(fragment, sel) {
            walk.changed.insert(fragment);
        }
    }
    walk
}

/// Resolve a recorded ancestor summary to exactly `slen` constant bits
/// under the current assignment (undecidable or missing entries are false).
fn resolve_summary(
    vector: &CompactVector<PaxVar>,
    slen: usize,
    assignment: &DenseAssignment,
) -> BitVector {
    let resolved = vector.resolve_bits(&|var| assignment.get(var));
    if resolved.len() == slen {
        return resolved;
    }
    let mut sel = BitVector::all_false(slen);
    for i in 0..slen.min(resolved.len()) {
        sel.set(i, resolved.get(i));
    }
    sel
}

/// Turn a wire-format variable/value list back into an assignment.
pub fn assignment_from_pairs(pairs: &[(PaxVar, bool)]) -> Assignment<PaxVar> {
    Assignment::from_iter(pairs.iter().cloned())
}

/// Helper: fresh qualifier vectors (all entries variables) for a virtual
/// node standing for `fragment` — what the per-fragment Stage-1/combined
/// pass plugs in for each missing sub-fragment.
pub fn fresh_qual_vectors(fragment: FragmentId, qvect_len: usize) -> QualVectors<PaxVar> {
    QualVectors {
        qv: CompactVector::fresh_variables(qvect_len, |entry| PaxVar::Qual {
            fragment,
            vector: QualVecKind::Qv,
            entry,
        }),
        qdv: CompactVector::fresh_variables(qvect_len, |entry| PaxVar::Qual {
            fragment,
            vector: QualVecKind::Qdv,
            entry,
        }),
    }
}

/// Helper: the fresh ancestor-summary vector for a non-root fragment.
pub fn fresh_selection_vector(fragment: FragmentId, svect_len: usize) -> CompactVector<PaxVar> {
    CompactVector::fresh_variables(svect_len, |entry| PaxVar::Sel { fragment, entry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxml_boolex::BoolExpr;
    use paxml_xml::LabelPath;

    fn two_level_ft() -> FragmentTree {
        // F0 -> F1 -> F2
        let mut ft = FragmentTree::new();
        ft.add_child(FragmentId(0), FragmentId(1), LabelPath::parse("client/broker"));
        ft.add_child(FragmentId(1), FragmentId(2), LabelPath::parse("market"));
        ft
    }

    #[test]
    fn qualifier_unification_resolves_through_two_levels() {
        // Mirrors Example 3.2: F2's root has q8 true; F1's root entry q9 is
        // the variable x[F2.q8]; after unification q9 at F1 must be true.
        let ft = two_level_ft();
        let qlen = 9;
        let mut roots: BTreeMap<FragmentId, QualVectors<PaxVar>> = BTreeMap::new();

        let mut f2 = QualVectors::all_false(qlen);
        f2.qv.set(7, BoolExpr::constant(true));
        f2.qdv.set(7, BoolExpr::constant(true));
        // A leaf fragment's vectors are variable-free: packed bits.
        assert!(matches!(f2.qv, CompactVector::Bits(_)));
        roots.insert(FragmentId(2), f2);

        let mut f1 = QualVectors::all_false(qlen);
        f1.qv.set(
            8,
            BoolExpr::var(PaxVar::Qual {
                fragment: FragmentId(2),
                vector: QualVecKind::Qv,
                entry: 7,
            }),
        );
        assert!(matches!(f1.qv, CompactVector::Formulas(_)));
        roots.insert(FragmentId(1), f1);
        roots.insert(FragmentId(0), QualVectors::all_false(qlen));

        let mut assignment = DenseAssignment::new(ft.len());
        unify_qualifiers(&ft, &roots, qlen, &mut assignment);
        assert_eq!(
            assignment.get(&PaxVar::Qual {
                fragment: FragmentId(2),
                vector: QualVecKind::Qv,
                entry: 7
            }),
            Some(true)
        );
        assert_eq!(
            assignment.get(&PaxVar::Qual {
                fragment: FragmentId(1),
                vector: QualVecKind::Qv,
                entry: 8
            }),
            Some(true)
        );
        assert_eq!(
            assignment.get(&PaxVar::Qual {
                fragment: FragmentId(1),
                vector: QualVecKind::Qv,
                entry: 0
            }),
            Some(false)
        );
    }

    #[test]
    fn missing_fragments_default_to_false() {
        let ft = two_level_ft();
        let roots = BTreeMap::new();
        let mut assignment = DenseAssignment::new(ft.len());
        unify_qualifiers(&ft, &roots, 3, &mut assignment);
        for f in 0..3 {
            for e in 0..3 {
                assert_eq!(
                    assignment.get(&PaxVar::Qual {
                        fragment: FragmentId(f),
                        vector: QualVecKind::Qv,
                        entry: e
                    }),
                    Some(false)
                );
            }
        }
    }

    #[test]
    fn selection_unification_mirrors_example_3_4() {
        // F1's init vector depends on z-variables; the root fragment records
        // SV_client = <0, 1, 0, 0> at the virtual node for F1 (entry 1 =
        // "the parent matched prefix client"), so F1's Sel variables resolve
        // to exactly that.
        let ft = two_level_ft();
        let slen = 4;
        let mut virtuals: BTreeMap<FragmentId, CompactVector<PaxVar>> = BTreeMap::new();
        let mut sv_client: CompactVector<PaxVar> = CompactVector::all_false(slen);
        sv_client.set(1, BoolExpr::constant(true));
        virtuals.insert(FragmentId(1), sv_client);
        // F1 records, at its own virtual node for F2, a vector depending on
        // its z variables: entry 2 = z[F1.1] (its broker matched iff the
        // parent's client prefix was matched).
        let mut sv_broker: CompactVector<PaxVar> = CompactVector::all_false(slen);
        sv_broker.set(2, BoolExpr::var(PaxVar::Sel { fragment: FragmentId(1), entry: 1 }));
        virtuals.insert(FragmentId(2), sv_broker);

        let root_init = vec![false, false, false, false];
        let mut assignment = DenseAssignment::new(ft.len());
        unify_selection(&ft, &virtuals, &root_init, &mut assignment);
        assert_eq!(assignment.get(&PaxVar::Sel { fragment: FragmentId(1), entry: 1 }), Some(true));
        assert_eq!(assignment.get(&PaxVar::Sel { fragment: FragmentId(2), entry: 2 }), Some(true));
        assert_eq!(assignment.get(&PaxVar::Sel { fragment: FragmentId(2), entry: 1 }), Some(false));
    }

    #[test]
    fn restriction_keeps_only_the_relevant_variables() {
        let mut assignment = DenseAssignment::new(4);
        assignment.set_sel(FragmentId(1), BitVector::from_bools(&[true]));
        assignment.set_sel(FragmentId(2), BitVector::from_bools(&[true]));
        assignment.set_qual(
            FragmentId(2),
            BitVector::from_bools(&[false]),
            BitVector::from_bools(&[true]),
        );
        assignment.set_qual(
            FragmentId(3),
            BitVector::from_bools(&[true]),
            BitVector::from_bools(&[false]),
        );
        let restricted = assignment.restrict_for_fragment(FragmentId(1), &[FragmentId(2)]);
        // F2's QV+QDV entries plus F1's own Sel entry.
        assert_eq!(restricted.len(), 3);
        let back = assignment_from_pairs(&restricted);
        assert_eq!(back.get(&PaxVar::Sel { fragment: FragmentId(1), entry: 0 }), Some(true));
        assert_eq!(
            back.get(&PaxVar::Qual { fragment: FragmentId(2), vector: QualVecKind::Qdv, entry: 0 }),
            Some(true)
        );
        assert_eq!(back.get(&PaxVar::Sel { fragment: FragmentId(2), entry: 0 }), None);
    }

    #[test]
    fn unknown_vectors_and_local_vars_are_unset() {
        let assignment = DenseAssignment::new(2);
        assert_eq!(assignment.get(&PaxVar::Sel { fragment: FragmentId(0), entry: 0 }), None);
        assert_eq!(
            assignment.get(&PaxVar::Local { fragment: FragmentId(0), node: 1, entry: 0 }),
            None
        );
        // Out-of-range fragments are simply unknown, not a panic.
        assert_eq!(assignment.get(&PaxVar::Sel { fragment: FragmentId(9), entry: 0 }), None);
    }

    #[test]
    fn fresh_vector_helpers_produce_distinct_variables() {
        let q = fresh_qual_vectors(FragmentId(5), 4);
        assert_eq!(q.qv.variables().len(), 4);
        assert_eq!(q.qdv.variables().len(), 4);
        assert!(q.qv.variables().is_disjoint(&q.qdv.variables()));
        let s = fresh_selection_vector(FragmentId(5), 3);
        assert_eq!(s.variables().len(), 3);
    }
}
