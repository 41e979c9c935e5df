//! Per-query planning shared by every coordinator: which fragments take
//! part (§5 pruning, or all of them) and how each one's top-down pass
//! starts. PaX2, PaX3 and the residual-vector sessions all derive their
//! per-fragment stage inputs from one [`QueryPlan`]; PaX2's first visit and
//! a session round share [`QueryPlan::combined_input`].

use crate::deployment::Topology;
use crate::protocol::{CombinedFragmentInput, InitVector};
use crate::prune::{analyze_with_trie, AnnotationAnalysis};
use paxml_boolex::BitVector;
use paxml_fragment::FragmentId;
use paxml_xpath::eval::initial_vector;
use paxml_xpath::CompiledQuery;

/// What the coordinator decides about one query before visiting any site.
#[derive(Clone)]
pub(crate) struct QueryPlan {
    /// The fragments that take part, with the exact ancestor summaries the
    /// annotations provide (`keep_all` without the §5 optimization).
    pub(crate) analysis: AnnotationAnalysis,
    /// The root fragment's initial vector.
    pub(crate) root_init: Vec<bool>,
    /// Is the global root element the evaluation context (a relative query)?
    relative: bool,
    has_qualifiers: bool,
}

impl QueryPlan {
    /// Plan `query` over one topology version, through its §5 index when
    /// it has one.
    pub(crate) fn new(query: &CompiledQuery, topology: &Topology) -> QueryPlan {
        let analysis = match topology.annotations() {
            Some(trie) => analyze_with_trie(query, trie),
            None => AnnotationAnalysis::keep_all(&topology.fragment_tree),
        };
        QueryPlan {
            analysis,
            root_init: initial_vector(query, topology.root_label()),
            relative: !query.absolute,
            has_qualifiers: query.has_qualifiers(),
        }
    }

    /// How a fragment's top-down pass initialises its ancestor summary: the
    /// root fragment and annotation-resolved fragments start exact, every
    /// other fragment from fresh `Sel` variables.
    pub(crate) fn init_for(&self, fragment: FragmentId) -> InitVector {
        if fragment == FragmentId::ROOT {
            InitVector::Exact(BitVector::from_bools(&self.root_init))
        } else if let Some(exact) = self.analysis.exact_init.get(&fragment) {
            InitVector::Exact(BitVector::from_bools(exact))
        } else {
            InitVector::Unknown
        }
    }

    /// A fragment's input to PaX2's first visit. Its answers are certain
    /// at once when the pass starts exact and no qualifier is left open.
    pub(crate) fn combined_input(&self, fragment: FragmentId) -> CombinedFragmentInput {
        let init = self.init_for(fragment);
        CombinedFragmentInput {
            collect_answers_now: self.answers_certain(&init, false),
            root_is_context: self.root_is_context(fragment),
            init,
        }
    }

    /// Is this fragment's root the evaluation context?
    pub(crate) fn root_is_context(&self, fragment: FragmentId) -> bool {
        fragment == FragmentId::ROOT && self.relative
    }

    /// Are a fragment's answers certain as soon as its top-down pass (started
    /// from `init`) ends, so the collection visit can be skipped for it? That
    /// needs an exact ancestor summary and no qualifier left open: PaX3's
    /// selection stage runs with the qualifiers already unified
    /// (`qualifiers_known`), PaX2's combined pass qualifies only when the
    /// query has none.
    pub(crate) fn answers_certain(&self, init: &InitVector, qualifiers_known: bool) -> bool {
        matches!(init, InitVector::Exact(_)) && (qualifiers_known || !self.has_qualifiers)
    }
}
