//! The system under test and the benchmark's view of it: the seeded
//! document, a full set-up (parse → fragment → deploy → prepare), the
//! expected answers, and the per-report checks.

use crate::{Workload, SITES};
use paxml_core::{
    Algorithm, ExecMode, ExecReport, PaxError, PaxServer, PreparedQuery, QueryOutcome,
};
use paxml_distsim::Placement;
use paxml_fragment::{fragment_at, reassemble_with_origin, FragmentId, FragmentedTree, UpdateOp};
use paxml_wire::{SiteServer, TcpCluster};
use paxml_xmark::UpdateWorkload;
use paxml_xml::{NodeId, XmlTree};
use paxml_xpath::centralized;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The generated input: the document as XML text plus where FT2 cuts it,
/// each cut as the child-index path from the root (node ids do not survive
/// serialization; positions do).
pub struct Doc {
    pub text: String,
    pub cut_paths: Vec<Vec<usize>>,
}

impl Doc {
    /// `ft2(vmb, seed)`: four XMark sites cut into ten fragments (Fig. 8).
    pub fn generate(vmb: f64, seed: u64) -> Doc {
        let (tree, fragmented) = paxml_xmark::ft2(vmb, seed);
        let cut_paths = fragmented.fragments[1..]
            .iter()
            .map(|fragment| {
                let mut node = fragment.origin_of(fragment.tree.root());
                let mut path = Vec::new();
                while let Some(parent) = tree.parent(node) {
                    let index = tree.children(parent).position(|c| c == node);
                    path.push(index.expect("a node is among its parent's children"));
                    node = parent;
                }
                path.reverse();
                path
            })
            .collect();
        Doc { text: paxml_xml::to_string(&tree), cut_paths }
    }

    /// The cut nodes of a freshly parsed copy of the document.
    pub fn locate_cuts(&self, tree: &XmlTree) -> Vec<NodeId> {
        self.cut_paths
            .iter()
            .map(|path| {
                path.iter().fold(tree.root(), |node, &index| {
                    tree.children(node).nth(index).expect("the parsed document has the cut path")
                })
            })
            .collect()
    }

    /// The first two steps of every set-up: parse the text, cut it.
    pub fn parse_and_fragment(&self) -> (XmlTree, FragmentedTree) {
        let tree = paxml_xml::parse(&self.text).expect("the generated document parses");
        let fragmented =
            fragment_at(&tree, &self.locate_cuts(&tree)).expect("FT2 cut points are valid");
        (tree, fragmented)
    }
}

/// Sorted origin ids: the identity answers are compared by.
pub type Origins = Vec<NodeId>;

fn sorted(mut origins: Origins) -> Origins {
    origins.sort();
    origins
}

/// What `xpath::centralized` answers for each query over `tree`.
pub fn expected_on_tree(tree: &XmlTree, queries: &[&str]) -> Vec<Origins> {
    queries
        .iter()
        .map(|q| sorted(centralized::evaluate(tree, q).expect("benchmark queries compile").answers))
        .collect()
}

/// The same over a fragmentation that updates have moved away from the
/// document: reassemble it, evaluate centrally, map back to origin ids.
pub fn expected_on_fragments(fragmented: &FragmentedTree, queries: &[&str]) -> Vec<Origins> {
    let (tree, origin) = reassemble_with_origin(fragmented).expect("the mirror stays a valid FT");
    expected_on_tree(&tree, queries)
        .into_iter()
        .map(|answers| {
            sorted(answers.iter().map(|n| NodeId::from_index(origin[n.index()] as usize)).collect())
        })
        .collect()
}

/// What one lap of `workload` must return, outcome by outcome, given each
/// query's answers: the list once — twice over on `oneshot-sim`, whose lap
/// goes through the PaX2 server and then the PaX3 server.
pub fn expected_per_lap(workload: Workload, per_query: Vec<Origins>) -> Vec<Origins> {
    match workload {
        Workload::OneshotSim => [per_query.clone(), per_query].concat(),
        _ => per_query,
    }
}

pub type Batch = Vec<(FragmentId, UpdateOp)>;

/// The open-loop writers' schedule: one batch every 200 ms.
pub const UPDATE_PERIOD: Duration = Duration::from_millis(200);

/// The benchmark's update stream: seeded `UpdateWorkload::next_batch(4, 2)`
/// — four valid ops over at most two fragments — against the fragmentation
/// a server was deployed from. The generator applies what it emits to its
/// own mirror.
pub struct UpdateStream(UpdateWorkload);

impl UpdateStream {
    pub fn new(fragmented: &FragmentedTree, tree: &XmlTree, seed: u64) -> UpdateStream {
        UpdateStream(UpdateWorkload::new(fragmented, tree.node_count(), seed))
    }

    pub fn next_batch(&mut self) -> Batch {
        self.0.next_batch(4, 2)
    }

    /// The fragments as they stand after every batch emitted so far.
    pub fn mirror(&self) -> &FragmentedTree {
        self.0.mirror()
    }
}

/// A deployed cluster with the workload's servers on it.
pub struct Rig {
    /// The PaX2-XA server every workload drives.
    pub pax2: PaxServer,
    /// `oneshot-sim` only: PaX3-XA over the same fragmentation.
    pub pax3: Option<PaxServer>,
    /// `batch-sim` and `prepared-rw`: `QMIX8`, prepared as a set.
    pub prepared: Vec<PreparedQuery>,
    /// `prepared-rw`: the reports of the cold `execute` lap that warmed the
    /// session caches during set-up — this workload's first lap.
    pub cold_lap: Vec<ExecReport>,
    pub tree: XmlTree,
    pub fragmented: FragmentedTree,
    site_threads: SiteThreads,
}

fn builder(algorithm: Algorithm) -> paxml_core::PaxServerBuilder {
    // The paper's XA configuration, so `core::prune` is on the path.
    PaxServer::builder().algorithm(algorithm).annotations(true)
}

/// A simulator server: site worker threads in this process.
pub fn deploy_sim(algorithm: Algorithm, fragmented: &FragmentedTree) -> PaxServer {
    builder(algorithm)
        .placement(Placement::RoundRobin)
        .sites(SITES)
        .deploy(fragmented)
        .expect("a valid simulator configuration")
}

/// The `SiteServer` threads of a TCP cluster. They end when the cluster is
/// dropped (its drop tells every site to shut down); [`SiteThreads::join`]
/// then waits for them.
#[derive(Default)]
pub struct SiteThreads(Vec<JoinHandle<std::io::Result<()>>>);

impl SiteThreads {
    pub fn join(self) {
        for thread in self.0 {
            thread.join().expect("site threads do not panic").expect("site threads exit cleanly");
        }
    }
}

/// Fresh `SiteServer` threads on loopback and a PaX2 server connected to them.
pub fn deploy_tcp(fragmented: &FragmentedTree) -> Result<(PaxServer, SiteThreads), PaxError> {
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut threads = Vec::new();
    for _ in 0..SITES {
        let site = SiteServer::bind("127.0.0.1:0").expect("loopback accepts a listener");
        addrs.push(site.local_addr().expect("a bound listener has an address"));
        threads.push(std::thread::spawn(move || site.run()));
    }
    let transport = Arc::new(TcpCluster::connect(fragmented, &addrs, Placement::RoundRobin)?);
    let server = builder(Algorithm::PaX2).deploy_over(fragmented, transport)?;
    Ok((server, SiteThreads(threads)))
}

impl Rig {
    /// One full set-up — what `setup_s` times: `xml::parse` of the document
    /// text, cuts re-located by child-index path, `fragment_at`, deploy
    /// (both servers on `oneshot-sim`; fresh site threads and `connect` on
    /// `oneshot-tcp`), prepare, and on `prepared-rw` the warming lap.
    pub fn set_up(doc: &Doc, workload: Workload) -> Result<Rig, PaxError> {
        let (tree, fragmented) = doc.parse_and_fragment();
        let (pax2, site_threads) = match workload {
            Workload::OneshotTcp => deploy_tcp(&fragmented)?,
            _ => (deploy_sim(Algorithm::PaX2, &fragmented), SiteThreads::default()),
        };
        let pax3 =
            (workload == Workload::OneshotSim).then(|| deploy_sim(Algorithm::PaX3, &fragmented));
        let mut rig = Rig {
            pax2,
            pax3,
            prepared: Vec::new(),
            cold_lap: Vec::new(),
            tree,
            fragmented,
            site_threads,
        };
        if matches!(workload, Workload::BatchSim | Workload::PreparedRw) {
            rig.prepared = rig.pax2.prepare_set(workload.queries())?.0;
        }
        if workload == Workload::PreparedRw {
            rig.cold_lap = rig.lap(workload, 0)?;
        }
        Ok(rig)
    }

    /// One lap: one pass over the workload's whole query list, starting
    /// `offset` queries in. Reports come back in execution order.
    pub fn lap(&self, workload: Workload, offset: usize) -> Result<Vec<ExecReport>, PaxError> {
        let queries = workload.queries();
        let rotated = (0..queries.len()).map(|k| queries[(k + offset) % queries.len()]);
        match workload {
            Workload::OneshotSim => {
                let pax3 = self.pax3.as_ref().expect("oneshot-sim deploys a PaX3 server");
                let mut reports = Vec::with_capacity(2 * queries.len());
                for q in rotated.clone() {
                    reports.push(self.pax2.query_once(q)?);
                }
                for q in rotated {
                    reports.push(pax3.query_once(q)?);
                }
                Ok(reports)
            }
            Workload::OneshotTcp => rotated.map(|q| self.pax2.query_once(q)).collect(),
            Workload::BatchSim => Ok(vec![self.pax2.execute_batch(&self.prepared)?]),
            Workload::PreparedRw => (0..queries.len())
                .map(|k| self.pax2.execute(&self.prepared[(k + offset) % queries.len()]))
                .collect(),
        }
    }

    /// Drop the servers (a TCP cluster tells its sites to shut down) and
    /// wait for every site thread to end.
    pub fn close(self) {
        let Rig { pax2, pax3, site_threads, .. } = self;
        drop(pax2);
        drop(pax3);
        site_threads.join();
    }
}

/// The paper's visit bound for one report: 0 for a cached read, 1 for an
/// update round, 3 for PaX3, 2 for PaX2 and for a whole batch.
pub fn visit_bound(report: &ExecReport) -> u32 {
    match (report.from_cache, report.mode, report.algorithm) {
        (true, _, _) => 0,
        (_, ExecMode::Update, _) => 1,
        (_, ExecMode::Query, Algorithm::PaX3) => 3,
        _ => 2,
    }
}

/// Do a lap's reports carry one outcome per entry of `expected`, each with
/// exactly those answers, within the visit bounds? The `k`-th outcome of a
/// lap that started `offset` queries in is held to entry
/// `(k + offset) % len`.
pub fn lap_is_correct(reports: &[ExecReport], expected: &[Origins], offset: usize) -> bool {
    let outcomes: Vec<&QueryOutcome> = reports.iter().flat_map(|r| &r.queries).collect();
    // A lap that dropped an outcome must not pass for want of evidence.
    outcomes.len() == expected.len()
        && reports.iter().all(|r| r.max_visits_per_site() <= visit_bound(r))
        && outcomes.iter().enumerate().all(|(k, outcome)| {
            let answers: Origins = outcome.answers.iter().map(|a| a.origin).collect();
            sorted(answers) == expected[(k + offset) % expected.len()]
        })
}

/// The deterministic meters of a lap, one row per report: what the
/// simulator and the socket transport must agree on exactly.
pub fn exact_meters(reports: &[ExecReport]) -> Vec<[u64; 6]> {
    reports
        .iter()
        .map(|r| {
            [
                r.max_visits_per_site() as u64,
                r.rounds() as u64,
                r.stats.messages,
                r.total_ops(),
                r.parallel_ops(),
                r.network_bytes(),
            ]
        })
        .collect()
}
