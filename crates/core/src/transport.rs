//! The transport abstraction: one typed surface over which every driver
//! (naive/PaX2/PaX3) and [`PaxServer`](crate::server::PaxServer) talk
//! to their sites, whether the sites are in-process simulator threads or
//! real processes behind TCP sockets.
//!
//! The in-process [`Cluster`] has a *closure*-shaped round API: the
//! coordinator ships a request value and a `Fn(&mut SiteLocal, Req) -> Resp`
//! to run site-side. Closures cannot cross a socket, so the remote-capable
//! surface replaces the closure with data: every site-side task of
//! [`crate::protocol`] gets a variant in [`ProtocolRequest`], and one shared
//! [`dispatch`] function maps each variant to its task. Both transports run
//! the *same* `dispatch` — which is exactly what makes the simulator a
//! conformance oracle for any remote transport: byte-for-byte identical
//! requests, responses, operation counts and traffic meters.
//!
//! A [`Transport`] is a **data plane**: [`Transport::deliver`] moves one
//! round's requests to their sites and hands back, per site, the response
//! plus the bytes, ops and busy time it observed. It charges nothing and
//! injects no faults — the round gate owned by
//! [`Deployment`](crate::Deployment) decides whether a round is delivered at
//! all (fault plan, fault clock) and commits what was observed to the
//! execution's recorder and the cumulative ledger, identically for every
//! transport.
//!
//! A round over a remote transport can fail (a site process can die); the
//! in-process simulator cannot. `deliver` is therefore fallible, and the
//! drivers propagate [`PaxError::SiteUnreachable`] to the caller instead of
//! hanging.

use crate::error::{PaxError, PaxResult};
use crate::protocol::{
    batch_collect_task, collect_task, combined_task, multi_combined_task, qualifier_task,
    refrag_task, selection_task, BatchCollectRequest, BatchCollectResponse, CollectRequest,
    CollectResponse, CombinedRequest, CombinedResponse, MsgRefrag, MsgVacuum, MultiCombinedRequest,
    MultiCombinedResponse, QualRequest, QualResponse, RefragOutcome, SelRequest, SelResponse,
};
use paxml_distsim::{
    Cluster, Delivery, FaultKind, ReplicaSet, SiteId, SiteLoadReport, SiteLocal, LATEST_EPOCH,
};
use paxml_fragment::{Fragment, FragmentId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The envelope every coordinator→site message travels in: a protocol body
/// plus the deployment epoch the visit is pinned to and a retirement
/// watermark. This (not the bare [`ProtocolRequest`]) is the unit that
/// crosses the wire, so its encoded size is the unit both transports charge
/// — which keeps the simulator byte-identical to the socket transport.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRequest {
    /// The epoch this visit reads (and, for update bodies, installs).
    /// [`LATEST_EPOCH`] means "the newest snapshot" and is read-only — what
    /// a driver run outside an epoch-versioned server reads.
    pub epoch: u64,
    /// Retirement watermark: before the body runs, the site drops every
    /// fragment version that no execution pinned at or above this epoch can
    /// read. Zero retires nothing.
    pub retire_below: u64,
    /// The protocol task to run.
    pub body: ProtocolRequest,
}

impl EpochRequest {
    /// Wrap a body at [`LATEST_EPOCH`] with no retirement — the envelope of
    /// a read outside an epoch-versioned server. Reads only: an update body
    /// must install at a real epoch.
    pub fn latest(body: ProtocolRequest) -> EpochRequest {
        EpochRequest { epoch: LATEST_EPOCH, retire_below: 0, body }
    }
}

/// A coordinator→site message body: one variant per site-side task of the
/// PaX protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProtocolRequest {
    /// PaX3 Stage 1: partial qualifier evaluation.
    Qual(QualRequest),
    /// PaX3 Stage 2: selection-path evaluation.
    Sel(SelRequest),
    /// PaX2 Stage 1: combined selection+qualifier pass.
    Combined(CombinedRequest),
    /// PaX2/PaX3 final stage: answer collection.
    Collect(CollectRequest),
    /// PaX2 Stage 1 over many queries in one visit, after applying any
    /// update ops: a batch, a cold snapshot or an update round.
    MultiCombined(MultiCombinedRequest),
    /// Batched answer collection.
    BatchCollect(BatchCollectRequest),
    /// Ship the named fragments as seen from the request's epoch. The
    /// request is *routed*: the coordinator asks each site only for the
    /// fragments the current topology places there, so stale copies left
    /// behind by a migration are never read.
    FetchFragments(Vec<FragmentId>),
    /// Re-fragmentation round: install the shipped fragment payloads as the
    /// envelope epoch's snapshots (see [`MsgRefrag`]).
    Refrag(MsgRefrag),
    /// Explicit retirement sweep: drop fragment versions below the
    /// envelope's `retire_below` watermark, purge every fragment not on the
    /// keep list wholesale, and report what remains. Sent by
    /// `PaxServer::vacuum`, which exists because piggybacked watermarks
    /// only reach sites the next update happens to visit.
    Vacuum(MsgVacuum),
}

impl ProtocolRequest {
    /// The variant's name — the "in-flight operation" named in transport
    /// error details.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolRequest::Qual(_) => "Qual",
            ProtocolRequest::Sel(_) => "Sel",
            ProtocolRequest::Combined(_) => "Combined",
            ProtocolRequest::Collect(_) => "Collect",
            ProtocolRequest::MultiCombined(_) => "MultiCombined",
            ProtocolRequest::BatchCollect(_) => "BatchCollect",
            ProtocolRequest::FetchFragments(_) => "FetchFragments",
            ProtocolRequest::Refrag(_) => "Refrag",
            ProtocolRequest::Vacuum(_) => "Vacuum",
        }
    }
}

/// A site→coordinator message: the response to the same-named
/// [`ProtocolRequest`] variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProtocolResponse {
    /// Response to [`ProtocolRequest::Qual`].
    Qual(QualResponse),
    /// Response to [`ProtocolRequest::Sel`].
    Sel(SelResponse),
    /// Response to [`ProtocolRequest::Combined`].
    Combined(CombinedResponse),
    /// Response to [`ProtocolRequest::Collect`].
    Collect(CollectResponse),
    /// Response to [`ProtocolRequest::MultiCombined`].
    MultiCombined(MultiCombinedResponse),
    /// Response to [`ProtocolRequest::BatchCollect`].
    BatchCollect(BatchCollectResponse),
    /// Response to [`ProtocolRequest::FetchFragments`].
    Fragments(Vec<Fragment>),
    /// Response to [`ProtocolRequest::Refrag`].
    Refragged(RefragOutcome),
    /// Response to [`ProtocolRequest::Vacuum`].
    Vacuumed(VacuumOutcome),
    /// The reply to any request naming a fragment the site holds no
    /// readable version of at the envelope's epoch (a copy lost with a
    /// restarted site process, say). Nothing ran.
    /// [`ExecCtx::round`](crate::ExecCtx::round) turns it into
    /// [`PaxError::FragmentMissing`].
    Missing(FragmentId),
}

/// What a [`ProtocolRequest::Vacuum`] sweep did at one site.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VacuumOutcome {
    /// Fragment versions dropped by this sweep.
    pub dropped: usize,
    /// Fragment versions still held after the sweep (steady state: one per
    /// fragment).
    pub live_versions: usize,
}

/// Run one protocol request against a site. Both transports execute this
/// exact function site-side, so a remote site computes — and is charged —
/// precisely what the simulator computes and charges.
///
/// The envelope is consumed first: versions (and parked scratch) below the
/// retirement watermark are dropped. Then the body is checked once against
/// what the site holds — a body naming a fragment the site cannot read at
/// the envelope's epoch gets [`ProtocolResponse::Missing`] and runs no task
/// — and finally runs pinned to the envelope's epoch.
pub fn dispatch(site: &mut SiteLocal, request: EpochRequest) -> ProtocolResponse {
    let EpochRequest { epoch, retire_below, body } = request;
    if let ProtocolRequest::Vacuum(msg) = body {
        let mut dropped = site.retire_below(retire_below);
        let keep: BTreeSet<FragmentId> = msg.keep.into_iter().collect();
        for fragment in site.fragment_ids().into_iter().filter(|f| !keep.contains(f)) {
            dropped += site.purge_fragment(fragment);
        }
        site.charge_ops(1);
        return ProtocolResponse::Vacuumed(VacuumOutcome {
            dropped,
            live_versions: site.version_count(),
        });
    }
    if retire_below > 0 {
        site.retire_below(retire_below);
    }
    if let Some(fragment) = missing_fragment(site, epoch, &body) {
        return ProtocolResponse::Missing(fragment);
    }
    match body {
        ProtocolRequest::Qual(r) => ProtocolResponse::Qual(qualifier_task(site, epoch, r)),
        ProtocolRequest::Sel(r) => ProtocolResponse::Sel(selection_task(site, epoch, r)),
        ProtocolRequest::Combined(r) => ProtocolResponse::Combined(combined_task(site, epoch, r)),
        ProtocolRequest::Collect(r) => ProtocolResponse::Collect(collect_task(site, epoch, r)),
        ProtocolRequest::MultiCombined(r) => {
            ProtocolResponse::MultiCombined(multi_combined_task(site, epoch, r))
        }
        ProtocolRequest::BatchCollect(r) => {
            ProtocolResponse::BatchCollect(batch_collect_task(site, epoch, r))
        }
        ProtocolRequest::FetchFragments(ids) => {
            let mut fragments = Vec::with_capacity(ids.len());
            for id in ids {
                let fragment = site.fragment_at(id, epoch).expect("checked above");
                site.charge_ops(paxml_distsim::encoded_size(fragment.as_ref()));
                fragments.push(fragment.as_ref().clone());
            }
            ProtocolResponse::Fragments(fragments)
        }
        ProtocolRequest::Refrag(r) => ProtocolResponse::Refragged(refrag_task(site, epoch, r)),
        ProtocolRequest::Vacuum(_) => unreachable!("handled before the epoch body match"),
    }
}

/// The first fragment `body` names that the site cannot serve at `epoch`: a
/// fragment a task reads needs a version at or before the epoch, one whose
/// ops an update applies needs a base strictly before it.
fn missing_fragment(site: &SiteLocal, epoch: u64, body: &ProtocolRequest) -> Option<FragmentId> {
    let unreadable = |f: &&FragmentId| site.fragment_at(**f, epoch).is_none();
    match body {
        ProtocolRequest::Qual(r) => r.fragments.iter().find(unreadable),
        ProtocolRequest::Sel(r) => r.fragments.keys().find(unreadable),
        ProtocolRequest::Combined(r) => r.fragments.keys().find(unreadable),
        ProtocolRequest::Collect(r) => r.fragments.keys().find(unreadable),
        ProtocolRequest::MultiCombined(r) => r
            .ops
            .keys()
            .find(|f| site.update_base(**f, epoch).is_none())
            .or_else(|| r.entries.iter().flat_map(|(_, inputs)| inputs.keys()).find(unreadable)),
        ProtocolRequest::BatchCollect(r) => {
            r.entries.iter().flat_map(|e| e.fragments.keys()).find(unreadable)
        }
        ProtocolRequest::FetchFragments(ids) => ids.iter().find(unreadable),
        ProtocolRequest::Refrag(_) | ProtocolRequest::Vacuum(_) => None,
    }
    .copied()
}

macro_rules! response_accessor {
    ($(#[$doc:meta] $fn_name:ident, $variant:ident => $ty:ty;)*) => {
        $(
            #[$doc]
            pub fn $fn_name(self) -> PaxResult<$ty> {
                match self {
                    ProtocolResponse::$variant(inner) => Ok(inner),
                    other => Err(PaxError::Protocol {
                        message: format!(
                            "expected a {} response, got {}",
                            stringify!($variant),
                            other.kind()
                        ),
                    }),
                }
            }
        )*
    };
}

impl ProtocolResponse {
    /// The variant's name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolResponse::Qual(_) => "Qual",
            ProtocolResponse::Sel(_) => "Sel",
            ProtocolResponse::Combined(_) => "Combined",
            ProtocolResponse::Collect(_) => "Collect",
            ProtocolResponse::MultiCombined(_) => "MultiCombined",
            ProtocolResponse::BatchCollect(_) => "BatchCollect",
            ProtocolResponse::Fragments(_) => "Fragments",
            ProtocolResponse::Refragged(_) => "Refragged",
            ProtocolResponse::Vacuumed(_) => "Vacuumed",
            ProtocolResponse::Missing(_) => "Missing",
        }
    }

    response_accessor! {
        /// Unwrap a Stage-1 qualifier response.
        into_qual, Qual => QualResponse;
        /// Unwrap a Stage-2 selection response.
        into_sel, Sel => SelResponse;
        /// Unwrap a combined-pass response.
        into_combined, Combined => CombinedResponse;
        /// Unwrap an answer-collection response.
        into_collect, Collect => CollectResponse;
        /// Unwrap a multi-query combined-pass response.
        into_multi_combined, MultiCombined => MultiCombinedResponse;
        /// Unwrap a batched collection response.
        into_batch_collect, BatchCollect => BatchCollectResponse;
        /// Unwrap a naive-baseline fragment shipment.
        into_fragments, Fragments => Vec<Fragment>;
        /// Unwrap a re-fragmentation outcome.
        into_refragged, Refragged => RefragOutcome;
        /// Unwrap a retirement-sweep outcome.
        into_vacuumed, Vacuumed => VacuumOutcome;
    }
}

/// The error the round gate raises when the installed
/// [`FaultPlan`](paxml_distsim::FaultPlan) refuses to deliver a round. One
/// function for every transport (only `peer`, from [`Transport::peer`],
/// differs), so an injected fault surfaces identically in-process and over
/// TCP: `Kill`/`Drop` are transient
/// [`PaxError::SiteUnreachable`] (failover retries them), `Garble` is a
/// permanent [`PaxError::Protocol`] (retrying re-reads the same
/// corruption). `Delay` never fails a round and must be handled by the
/// caller before constructing an error.
pub(crate) fn injected_fault_error(
    site: SiteId,
    kind: &FaultKind,
    peer: &str,
    operation: &str,
) -> PaxError {
    match kind {
        FaultKind::Kill => PaxError::SiteUnreachable {
            site,
            detail: format!("{peer}: injected Kill fault while sending {operation}"),
        },
        FaultKind::Drop => PaxError::SiteUnreachable {
            site,
            detail: format!("{peer}: injected Drop fault: {operation} request lost in flight"),
        },
        FaultKind::Garble => PaxError::Protocol {
            message: format!("{peer}: injected Garble fault: undecodable reply to {operation}"),
        },
        FaultKind::Delay(d) => {
            unreachable!("a Delay({d:?}) fault stalls the round instead of failing it")
        }
    }
}

/// The coordinator's data plane to a set of sites, independent of how the
/// sites are reached. [`Cluster`] implements it in-process; `paxml-wire`'s
/// `TcpCluster` implements it over sockets. A transport only moves frames
/// and answers control probes: routing comes from the deployment's
/// topology, and fault injection, scratch slots and every meter live in the
/// round gate of [`Deployment`](crate::Deployment).
pub trait Transport: Send + Sync {
    /// Deliver each request to its site, run [`dispatch`] there, and
    /// collect per site the response and the [`SiteWork`] the visit was
    /// measured at: request and response at their encoded sizes, the ops
    /// the task charged, the time it took. Nothing is charged here.
    ///
    /// [`SiteWork`]: paxml_distsim::SiteWork
    fn deliver(
        &self,
        requests: BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<BTreeMap<SiteId, Delivery<ProtocolResponse>>>;

    /// Number of sites.
    fn site_count(&self) -> usize;

    /// The sites a fragment was stored on **at deploy time**, primary
    /// first. Read once, when the deployment captures its first topology.
    fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet;

    /// How error text names a site's endpoint (`sim://S1`, a socket
    /// address).
    fn peer(&self, site: SiteId) -> String;

    /// Is the raw link to the site up *right now*, fault schedule aside?
    /// The liveness half of [`Deployment::probe`](crate::Deployment::probe).
    /// Must be cheap (bounded by a couple of connect attempts, never the
    /// full connect backoff). In-process sites are always reachable.
    fn link_alive(&self, _site: SiteId) -> bool {
        true
    }

    /// Number of parked scratch entries at a site (test instrumentation:
    /// the scratch-leak regression tests assert this returns to zero).
    fn scratch_len(&self, site: SiteId) -> usize;

    /// What the site currently holds: every fragment with a live version
    /// list, with the encoded size of its newest snapshot. A control-plane
    /// inspection (like [`Transport::scratch_len`]): nothing is charged to
    /// the traffic meters. Transports that cannot inspect their sites
    /// report no fragments.
    fn site_load(&self, site: SiteId) -> SiteLoadReport {
        SiteLoadReport { site, fragments: Vec::new() }
    }

    /// Downcast to the in-process simulator, when that is what this is
    /// (test instrumentation: `inspect_site` reads a site's store directly).
    fn as_cluster(&self) -> Option<&Cluster> {
        None
    }
}

impl Transport for Cluster {
    fn deliver(
        &self,
        requests: BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<BTreeMap<SiteId, Delivery<ProtocolResponse>>> {
        Ok(Cluster::deliver(self, requests, dispatch))
    }

    fn site_count(&self) -> usize {
        Cluster::site_count(self)
    }

    fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
        Cluster::replicas_of(self, fragment)
    }

    fn peer(&self, site: SiteId) -> String {
        format!("sim://{site}")
    }

    fn scratch_len(&self, site: SiteId) -> usize {
        self.inspect_site(site).scratch_len()
    }

    fn site_load(&self, site: SiteId) -> SiteLoadReport {
        SiteLoadReport { site, fragments: self.inspect_site(site).fragment_bytes_at(LATEST_EPOCH) }
    }

    fn as_cluster(&self) -> Option<&Cluster> {
        Some(self)
    }
}
