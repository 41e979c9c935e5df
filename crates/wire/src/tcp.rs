//! [`TcpCluster`]: the coordinator's socket-backed [`Transport`] — the same
//! `deliver` data plane the round gate drives over the in-process
//! simulator, served by real site processes.
//!
//! # Round protocol
//!
//! A round is pipelined: the coordinator first writes every site's request
//! frame, then reads the replies — so the sites compute in parallel, like
//! the simulator's worker pool, while the coordinator stays single-threaded.
//! One lock serializes whole rounds (and the control operations), which
//! keeps every connection's request/reply streams in lockstep even when the
//! cluster is shared across coordinator threads.
//!
//! # Failure behaviour
//!
//! A connection that errors is marked **dead**: the first failed round
//! reports [`PaxError::SiteUnreachable`] (naming the peer address and the
//! in-flight operation), and every later round addressed to that site fails
//! the same way — no hangs (reads carry a timeout as a backstop) and no
//! desynchronized streams (a failing round still drains the replies of the
//! sites it did reach, so surviving connections stay clean for the next
//! round). A dead connection is only revived through
//! [`Transport::link_alive`] (the link half of `Deployment::probe`): the
//! server's health tracker quarantines the site, re-probes it after a
//! cooldown, and the probe redials with a deliberately small attempt budget
//! so readmission checks never stall the serving path.
//!
//! The read timeout is fixed when the cluster is constructed
//! ([`TcpCluster::connect_with_replicas`]); the dial and probe budgets are
//! constants of this module. Injected faults never reach
//! this module: the deployment's round gate refuses a scheduled round
//! before `deliver` is called, on this transport exactly as on the
//! simulator.
//!
//! # Accounting
//!
//! This transport charges nothing; [`Transport::deliver`] *reports*. A
//! request is reported at the length of its encoded [`EpochRequest`] frame
//! body (epoch tag, retirement watermark and protocol body) and a response
//! at the length of its encoded [`ProtocolResponse`] body. The simulator
//! reports `encoded_size` of the same values — the same serializer run over
//! a counting sink — so the two transports report bit-identical byte counts
//! by construction. Ops come back from the site (`dispatch` is
//! deterministic, so they too are identical); busy time is real wall clock
//! and therefore the one figure that legitimately differs. The round gate
//! commits all of it, for either transport, with one function.

use crate::codec;
use crate::msg::{self, WireReply, WireRequest};
use paxml_core::{EpochRequest, PaxError, PaxResult, ProtocolResponse, Transport};
use paxml_distsim::{
    clamp_assignment, Delivery, Placement, ReplicaSet, SiteId, SiteLoadReport, SiteWork,
};
use paxml_fragment::{Fragment, FragmentId, FragmentedTree};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// The per-read deadline of [`TcpCluster::connect`] and
/// [`ProcessCluster`](crate::ProcessCluster).
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How many times the initial dial to a site is tried before giving up
/// (site processes come up asynchronously).
const CONNECT_ATTEMPTS: u32 = 40;
/// Linear backoff increment between dial attempts.
const CONNECT_BACKOFF_STEP: Duration = Duration::from_millis(5);
/// Ceiling on the backoff between dial attempts.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(150);
/// How many dial attempts a liveness *probe* makes before declaring the
/// site still dead. Deliberately much smaller than [`CONNECT_ATTEMPTS`]:
/// probes run on the serving path when a quarantined site comes up for
/// readmission, and must answer fast.
const PROBE_ATTEMPTS: u32 = 2;

/// One site's connection: alive, or dead with the error that killed it.
struct Connection {
    stream: Result<TcpStream, String>,
}

impl Connection {
    /// Mark the connection dead and return the unreachable error, naming
    /// the peer and the operation that was in flight.
    fn kill(
        &mut self,
        site: SiteId,
        peer: SocketAddr,
        operation: &str,
        err: &io::Error,
    ) -> PaxError {
        let detail = format!("{peer}: {operation}: {err}");
        self.stream = Err(detail.clone());
        PaxError::SiteUnreachable { site, detail }
    }
}

/// A cluster of remote sites reached over TCP, implementing the same
/// [`Transport`] surface as the in-process simulator.
///
/// Dropping the cluster sends every live site a clean
/// [`WireRequest::Shutdown`].
pub struct TcpCluster {
    /// One connection per site, in site order, behind the one lock that
    /// serializes rounds and control operations: per-connection streams
    /// must not interleave messages of concurrent rounds.
    conns: Mutex<Vec<Connection>>,
    addrs: Vec<SocketAddr>,
    assignment: BTreeMap<FragmentId, ReplicaSet>,
    /// Per-read deadline on every site socket: the initial dial set it,
    /// probe redials set it again.
    read_timeout: Duration,
}

impl TcpCluster {
    /// Connect to one site per address, distribute the fragments of
    /// `fragmented` according to `placement` (one copy each), and load each
    /// site with its share — the socket equivalent of
    /// [`paxml_distsim::Cluster::new`]. Reads time out after 30 s.
    pub fn connect(
        fragmented: &FragmentedTree,
        addrs: &[SocketAddr],
        placement: Placement,
    ) -> PaxResult<TcpCluster> {
        let assignment = placement.replica_sets(fragmented, addrs.len(), 1);
        Self::connect_with_replicas(fragmented, addrs, assignment, READ_TIMEOUT)
    }

    /// The most general constructor: an explicit fragment→replica-set
    /// assignment (completed by [`clamp_assignment`], exactly like the
    /// simulator's; [`Placement::replica_sets`] builds one from a
    /// placement) and the per-read deadline on every site socket — a site
    /// that accepts the connection but never replies fails the round after
    /// `read_timeout` instead of hanging the coordinator. Every replica
    /// site is loaded with a full copy of its fragments.
    pub fn connect_with_replicas(
        fragmented: &FragmentedTree,
        addrs: &[SocketAddr],
        assignment: BTreeMap<FragmentId, ReplicaSet>,
        read_timeout: Duration,
    ) -> PaxResult<TcpCluster> {
        if addrs.is_empty() {
            return Err(PaxError::InvalidConfig {
                message: "a TCP cluster needs at least one site address".into(),
            });
        }
        let assignment = clamp_assignment(fragmented, addrs.len(), &assignment);
        let mut per_site: Vec<Vec<Fragment>> = vec![Vec::new(); addrs.len()];
        for fragment in &fragmented.fragments {
            for &site in assignment[&fragment.id].sites() {
                per_site[site.index()].push(fragment.clone());
            }
        }

        let mut conns = Vec::with_capacity(addrs.len());
        for (index, addr) in addrs.iter().enumerate() {
            let site = SiteId(index);
            let mut stream = connect_with_retry(site, *addr, read_timeout, CONNECT_ATTEMPTS)?;
            let fragments = std::mem::take(&mut per_site[index]);
            handshake(&mut stream, site, fragments).map_err(|err| PaxError::SiteUnreachable {
                site,
                detail: format!("{addr}: handshake failed: {err}"),
            })?;
            conns.push(Connection { stream: Ok(stream) });
        }
        Ok(TcpCluster { conns: Mutex::new(conns), addrs: addrs.to_vec(), assignment, read_timeout })
    }

    fn addr(&self, site: SiteId) -> SocketAddr {
        self.addrs[site.index()]
    }

    /// Send one control request to a site and read its reply under the
    /// round lock, marking the connection dead on any io failure.
    fn control(
        &self,
        site: SiteId,
        request: &WireRequest,
        operation: &str,
    ) -> PaxResult<WireReply> {
        let peer = self.addr(site);
        let mut conns = self.conns.lock().expect("the round lock is never poisoned");
        let conn = &mut conns[site.index()];
        let stream = match &mut conn.stream {
            Ok(stream) => stream,
            Err(detail) => return Err(PaxError::SiteUnreachable { site, detail: detail.clone() }),
        };
        match msg::send(stream, request).and_then(|()| msg::recv::<WireReply>(stream)) {
            Ok(reply) => Ok(reply),
            Err(err) => Err(conn.kill(site, peer, operation, &err)),
        }
    }
}

/// Dial `addr` with bounded linear backoff (the site process may still be
/// binding its listener when the coordinator starts): [`CONNECT_ATTEMPTS`]
/// for the initial dial, [`PROBE_ATTEMPTS`] for a liveness probe.
fn connect_with_retry(
    site: SiteId,
    addr: SocketAddr,
    read_timeout: Duration,
    attempts: u32,
) -> PaxResult<TcpStream> {
    let mut last_error = String::new();
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(read_timeout))
                    .and_then(|()| stream.set_nodelay(true))
                    .map_err(|err| PaxError::SiteUnreachable {
                        site,
                        detail: format!("{addr}: configuring the socket: {err}"),
                    })?;
                return Ok(stream);
            }
            Err(err) => last_error = err.to_string(),
        }
        std::thread::sleep((CONNECT_BACKOFF_STEP * (attempt + 1)).min(CONNECT_BACKOFF_CAP));
    }
    Err(PaxError::SiteUnreachable {
        site,
        detail: format!("{addr}: no connection after {attempts} attempts: {last_error}"),
    })
}

/// Hello + Load over a fresh connection.
fn handshake(stream: &mut TcpStream, site: SiteId, fragments: Vec<Fragment>) -> io::Result<()> {
    msg::send(stream, &WireRequest::Hello { site })?;
    match msg::recv::<WireReply>(stream)? {
        WireReply::Hello { site: echoed } if echoed == site => {}
        other => return Err(unexpected_reply("Hello", &other)),
    }
    msg::send(stream, &WireRequest::Load { fragments })?;
    match msg::recv::<WireReply>(stream)? {
        WireReply::Loaded { .. } => Ok(()),
        other => Err(unexpected_reply("Loaded", &other)),
    }
}

fn unexpected_reply(expected: &str, got: &WireReply) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("expected a {expected} reply, got {got:?}"))
}

impl Transport for TcpCluster {
    fn deliver(
        &self,
        requests: BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<BTreeMap<SiteId, Delivery<ProtocolResponse>>> {
        for site in requests.keys() {
            assert!(site.index() < self.addrs.len(), "request addressed to unknown site {site}");
        }
        // Encode every body before taking the round lock, so threads sharing
        // the cluster wait on each other only for the sockets.
        let bodies: Vec<(SiteId, &'static str, Vec<u8>)> = requests
            .iter()
            .map(|(site, request)| (*site, request.body.kind(), codec::encode(request)))
            .collect();
        let mut conns = self.conns.lock().expect("the round lock is never poisoned");

        // Phase 1 — write every request frame. On the first failure stop
        // sending (sites later in the order receive nothing this round).
        let mut sent: Vec<(SiteId, u64, &'static str)> = Vec::with_capacity(bodies.len());
        let mut failure: Option<PaxError> = None;
        for (site, operation, body) in bodies {
            let request_bytes = body.len() as u64;
            let peer = self.addr(site);
            let conn = &mut conns[site.index()];
            let result = match &mut conn.stream {
                Ok(stream) => msg::send(stream, &WireRequest::Round { body }),
                Err(detail) => {
                    failure = Some(PaxError::SiteUnreachable { site, detail: detail.clone() });
                    break;
                }
            };
            match result {
                Ok(()) => sent.push((site, request_bytes, operation)),
                Err(err) => {
                    let label = format!("sending {operation}");
                    failure = Some(conn.kill(site, peer, &label, &err));
                    break;
                }
            }
        }

        // Phase 2 — drain a reply from every site we reached, even when the
        // round is already doomed: leaving a reply unread would desync that
        // connection for every later round.
        let mut delivered = BTreeMap::new();
        for (site, request_bytes, operation) in sent {
            let peer = self.addr(site);
            let conn = &mut conns[site.index()];
            let reply = match &mut conn.stream {
                Ok(stream) => msg::recv::<WireReply>(stream),
                Err(detail) => Err(io::Error::other(detail.clone())),
            };
            match reply {
                Ok(WireReply::Round { ops, busy_nanos, body }) => {
                    match codec::decode::<ProtocolResponse>(&body) {
                        Ok(response) => {
                            let work = SiteWork {
                                request_bytes,
                                response_bytes: body.len() as u64,
                                ops,
                                busy: Duration::from_nanos(busy_nanos),
                            };
                            delivered.insert(site, Delivery { response, work });
                        }
                        Err(err) => {
                            failure = failure.or(Some(PaxError::Protocol {
                                message: format!(
                                    "{peer}: undecodable {operation} response from site {site}: \
                                     {err}"
                                ),
                            }))
                        }
                    }
                }
                Ok(WireReply::Error { message }) => {
                    failure = failure.or(Some(PaxError::Protocol {
                        message: format!("{peer}: site {site} failed its {operation}: {message}"),
                    }))
                }
                Ok(other) => {
                    failure = failure.or(Some(PaxError::Protocol {
                        message: format!(
                            "{peer}: unexpected reply from site {site} to {operation}: {other:?}"
                        ),
                    }))
                }
                Err(err) => {
                    let label = format!("awaiting the {operation} reply");
                    let unreachable = conn.kill(site, peer, &label, &err);
                    failure = failure.or(Some(unreachable));
                }
            }
        }
        match failure {
            Some(error) => Err(error),
            None => Ok(delivered),
        }
    }

    fn site_count(&self) -> usize {
        self.addrs.len()
    }

    fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
        self.assignment
            .get(&fragment)
            .cloned()
            .expect("every fragment was assigned to a replica set at construction")
    }

    fn peer(&self, site: SiteId) -> String {
        self.addr(site).to_string()
    }

    fn link_alive(&self, site: SiteId) -> bool {
        if site.index() >= self.addrs.len() {
            return false;
        }
        let peer = self.addr(site);
        let mut conns = self.conns.lock().expect("the round lock is never poisoned");
        let conn = &mut conns[site.index()];
        match &mut conn.stream {
            // Live connection: one Hello round-trip settles it.
            Ok(stream) => {
                match msg::send(stream, &WireRequest::Hello { site })
                    .and_then(|()| msg::recv::<WireReply>(stream))
                {
                    Ok(WireReply::Hello { site: echoed }) if echoed == site => true,
                    Ok(other) => {
                        let err = unexpected_reply("Hello", &other);
                        let _ = conn.kill(site, peer, "probing", &err);
                        false
                    }
                    Err(err) => {
                        let _ = conn.kill(site, peer, "probing", &err);
                        false
                    }
                }
            }
            // Dead connection: redial with the small probe budget and
            // re-introduce ourselves. A site process that restarted comes
            // back empty: the first round naming one of its copies gets a
            // missing-fragment reply, which marks that copy stale, so reads
            // fail over to a replica until the repair pass re-installs it.
            Err(_) => match connect_with_retry(site, peer, self.read_timeout, PROBE_ATTEMPTS) {
                Ok(mut stream) => match handshake(&mut stream, site, Vec::new()) {
                    Ok(()) => {
                        conn.stream = Ok(stream);
                        true
                    }
                    Err(_) => false,
                },
                Err(_) => false,
            },
        }
    }

    fn scratch_len(&self, site: SiteId) -> usize {
        match self.control(site, &WireRequest::ScratchLen, "probing scratch length") {
            Ok(WireReply::ScratchLen { len }) => len,
            Ok(other) => panic!("unexpected reply to a scratch-len probe: {other:?}"),
            Err(err) => panic!("scratch-len probe failed: {err}"),
        }
    }

    fn site_load(&self, site: SiteId) -> SiteLoadReport {
        match self.control(site, &WireRequest::SiteLoad, "probing site load") {
            Ok(WireReply::SiteLoad { report }) => report,
            // A dead or confused site stores nothing we can observe; load
            // probes are best-effort observability, never a failure.
            _ => SiteLoadReport { site, fragments: Vec::new() },
        }
    }
}

impl Drop for TcpCluster {
    fn drop(&mut self) {
        // A round that panicked leaves the lock poisoned; the shutdown is
        // best-effort either way, and a drop must not panic.
        let conns = self.conns.get_mut().unwrap_or_else(PoisonError::into_inner);
        for conn in conns {
            if let Ok(stream) = &mut conn.stream {
                // Give the site its clean shutdown; ignore failures — the
                // peer may already be gone.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = msg::send(stream, &WireRequest::Shutdown);
                let _ = msg::recv::<WireReply>(stream);
            }
        }
    }
}
