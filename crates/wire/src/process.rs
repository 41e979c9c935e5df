//! Spawning sites as real OS processes: the helpers behind `paxml cluster`
//! and the process-level conformance and fault-injection tests.
//!
//! A site process is any binary that understands `site --listen <addr>` and
//! prints `LISTENING <addr>` on stdout once bound (the `paxml` CLI does).
//! [`ProcessCluster`] spawns N of them on loopback, wires a [`TcpCluster`]
//! to them, and tears everything down on drop — shutdown messages first
//! (via the `TcpCluster` drop), then a kill as backstop.

use crate::tcp::{TcpCluster, READ_TIMEOUT};
use paxml_core::{PaxError, PaxResult};
use paxml_distsim::{Placement, SiteId};
use paxml_fragment::FragmentedTree;
use std::ffi::OsStr;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// The line a site process prints once its listener is bound.
pub const LISTENING_PREFIX: &str = "LISTENING ";

/// One spawned site process.
pub struct SiteProcess {
    /// The identity this process plays in the cluster.
    pub site: SiteId,
    /// Where its listener ended up (the OS picks the port).
    pub addr: SocketAddr,
    child: Child,
}

impl SiteProcess {
    /// Spawn `program site --listen 127.0.0.1:0` and wait for its
    /// `LISTENING` line to learn the bound address.
    pub fn spawn(program: impl AsRef<OsStr>, site: SiteId) -> io::Result<SiteProcess> {
        let mut child = Command::new(program)
            .args(["site", "--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = lines
            .next()
            .transpose()?
            .and_then(|line| line.strip_prefix(LISTENING_PREFIX)?.trim().parse().ok())
            .ok_or_else(|| {
                let _ = child.kill();
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "site process did not announce its listening address",
                )
            })?;
        Ok(SiteProcess { site, addr, child })
    }

    /// Kill the process immediately (fault injection; drop does this too).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for SiteProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A local cluster of site processes plus the [`TcpCluster`] speaking to
/// them.
///
/// Field order matters for teardown: the transport drops first (sending
/// each live site a clean shutdown), then the processes are killed as a
/// backstop for sites that no longer listen.
pub struct ProcessCluster {
    /// The socket transport over the spawned sites. Shared so it can be
    /// handed to a `Deployment` while the process handles stay here.
    pub transport: Arc<TcpCluster>,
    sites: Vec<SiteProcess>,
}

impl ProcessCluster {
    /// Spawn `site_count` site processes from `program`, store every
    /// fragment of `fragmented` on `replication` of them (primary by
    /// `placement`, secondaries round-robin on the next sites — see
    /// [`Placement::replica_sets`]; 1 leaves it unreplicated, more leave a
    /// live copy of every fragment when one process is killed), and
    /// connect to them.
    pub fn spawn(
        program: impl AsRef<OsStr> + Copy,
        fragmented: &FragmentedTree,
        site_count: usize,
        placement: Placement,
        replication: usize,
    ) -> PaxResult<ProcessCluster> {
        let mut sites = Vec::with_capacity(site_count.max(1));
        for index in 0..site_count.max(1) {
            let site = SiteId(index);
            sites.push(SiteProcess::spawn(program, site).map_err(|err| {
                PaxError::SiteUnreachable { site, detail: format!("spawning site process: {err}") }
            })?);
        }
        let addrs: Vec<SocketAddr> = sites.iter().map(|s| s.addr).collect();
        let replicas = placement.replica_sets(fragmented, addrs.len(), replication);
        let transport = Arc::new(TcpCluster::connect_with_replicas(
            fragmented,
            &addrs,
            replicas,
            READ_TIMEOUT,
        )?);
        Ok(ProcessCluster { transport, sites })
    }

    /// Kill one site's process outright — the fault the fault-injection
    /// tests inject. Rounds that address the site afterwards must report
    /// [`PaxError::SiteUnreachable`].
    pub fn kill_site(&mut self, site: SiteId) {
        if let Some(process) = self.sites.iter_mut().find(|p| p.site == site) {
            process.kill();
        }
    }

    /// Number of spawned site processes.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The loopback addresses the spawned sites listen on, in site order.
    pub fn addresses(&self) -> impl Iterator<Item = SocketAddr> + '_ {
        self.sites.iter().map(|s| s.addr)
    }
}
