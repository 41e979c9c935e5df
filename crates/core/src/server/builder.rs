//! Configuring and deploying a [`PaxServer`].

use super::epochs::initial_epoch;
use super::{PaxServer, RetryPolicy};
use crate::deployment::Deployment;
use crate::error::{PaxError, PaxResult};
use crate::report::Algorithm;
use paxml_distsim::{Cluster, Placement, SiteId};
use paxml_fragment::{FragmentId, FragmentedTree};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

/// Builder for a [`PaxServer`]. Obtain with [`PaxServer::builder`],
/// configure, then [`PaxServerBuilder::deploy`] over a fragmented tree.
#[derive(Debug, Clone)]
pub struct PaxServerBuilder {
    algorithm: Algorithm,
    use_annotations: bool,
    placement: Placement,
    sites: Option<usize>,
    assignment: Option<BTreeMap<FragmentId, SiteId>>,
    replication: usize,
    retry_policy: RetryPolicy,
}

impl Default for PaxServerBuilder {
    fn default() -> Self {
        PaxServerBuilder {
            algorithm: Algorithm::PaX2,
            use_annotations: false,
            placement: Placement::RoundRobin,
            sites: None,
            assignment: None,
            replication: 1,
            retry_policy: RetryPolicy::default(),
        }
    }
}

impl PaxServerBuilder {
    /// Which engine serves single-query executions (default
    /// [`Algorithm::PaX2`], the only engine with an incremental
    /// residual-vector cache).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enable the XPath-annotation optimization of §5 (default off): the
    /// topology of a PaX2 or PaX3 server then carries the label-path index.
    /// The naive baseline, which ships every fragment, ignores it.
    pub fn annotations(mut self, on: bool) -> Self {
        self.use_annotations = on;
        self
    }

    /// How fragments are placed onto sites (default round-robin). Ignored
    /// when an explicit [`PaxServerBuilder::assignment`] is given.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Number of simulated sites (default: one site per fragment).
    pub fn sites(mut self, sites: usize) -> Self {
        self.sites = Some(sites);
        self
    }

    /// An explicit fragment→site assignment (fragments not mentioned go to
    /// site 0). Overrides [`PaxServerBuilder::placement`].
    pub fn assignment(mut self, assignment: BTreeMap<FragmentId, SiteId>) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Store every fragment on that many sites (default 1: unreplicated).
    /// The primary copy is placed by [`PaxServerBuilder::placement`] as
    /// before; each extra copy goes to the next site round-robin, so no two
    /// copies of one fragment share a site. Clamped to the site count.
    /// Incompatible with an explicit [`PaxServerBuilder::assignment`].
    pub fn replication(mut self, copies: usize) -> Self {
        self.replication = copies.max(1);
        self
    }

    /// The fault-handling policy of every operation of the server (default
    /// [`RetryPolicy::default`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry_policy = policy;
        self
    }

    /// Deploy `fragmented` over the configured cluster and start the
    /// session.
    pub fn deploy(mut self, fragmented: &FragmentedTree) -> PaxResult<PaxServer> {
        if self.sites == Some(0) {
            return Err(PaxError::InvalidConfig {
                message: "a deployment needs at least one site".into(),
            });
        }
        let sites = self.sites.unwrap_or_else(|| fragmented.fragment_count().max(1));
        if let Some(assignment) = &self.assignment {
            if let Some((f, s)) = assignment.iter().find(|(_, s)| s.index() >= sites) {
                return Err(PaxError::InvalidConfig {
                    message: format!("fragment {f} assigned to nonexistent site {s} (of {sites})"),
                });
            }
        }
        if self.assignment.is_some() && self.replication > 1 {
            return Err(PaxError::InvalidConfig {
                message: "an explicit assignment fixes one site per fragment; use placement() \
                          with replication() instead"
                    .into(),
            });
        }
        let replicas = match self.assignment.take() {
            Some(assignment) => assignment.into_iter().map(|(f, site)| (f, site.into())).collect(),
            None => self.placement.replica_sets(fragmented, sites, self.replication),
        };
        let cluster = Cluster::with_replicas(fragmented, sites, replicas);
        self.deploy_over(fragmented, Arc::new(cluster))
    }

    /// Deploy over an externally built [`Transport`](crate::Transport)
    /// (e.g. `paxml-wire`'s `TcpCluster`) and start the session.
    ///
    /// The transport already owns the site topology, so only
    /// [`algorithm`](PaxServerBuilder::algorithm),
    /// [`annotations`](PaxServerBuilder::annotations) and
    /// [`retry_policy`](PaxServerBuilder::retry_policy) take effect here.
    /// Socket tuning belongs to the transport's own constructor.
    pub fn deploy_over(
        self,
        fragmented: &FragmentedTree,
        transport: Arc<dyn crate::transport::Transport>,
    ) -> PaxResult<PaxServer> {
        let deployment = Deployment::over_transport(transport);
        // Only the PaX engines plan through the §5 index; the naive
        // baseline ships every fragment anyway.
        let annotations = self.use_annotations && self.algorithm != Algorithm::NaiveCentralized;
        let (current, epochs) =
            initial_epoch(deployment.deployed_topology(fragmented, annotations));
        Ok(PaxServer {
            deployment,
            algorithm: self.algorithm,
            retry: self.retry_policy,
            writer: Mutex::new(()),
            current,
            epochs,
            prepared: RwLock::default(),
            update_hook: Mutex::new(None),
        })
    }
}
