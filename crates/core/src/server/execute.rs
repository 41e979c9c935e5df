//! The read path: single-query, one-shot and batched executions, each
//! pinned to the epoch current at entry.

use super::epochs::EpochInner;
use super::{PaxServer, PreparedQuery};
use crate::error::PaxResult;
use crate::incremental::{session_round, QuerySession};
use crate::report::{Algorithm, ExecMode, ExecReport, QueryOutcome};
use crate::{naive, pax2, pax3};
use paxml_xpath::{compile_text, CompiledQuery};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

impl PaxServer {
    /// Execute a prepared query through the configured engine. Takes
    /// `&self`: any number of executions may run concurrently, and none is
    /// ever blocked by an in-flight [`PaxServer::apply_updates`] — the
    /// execution pins the epoch current at entry and reads it to
    /// completion (see the [module docs](super)).
    ///
    /// On a PaX2 server the first execution also snapshots the query's
    /// residual vectors coordinator-side (one visit per relevant site —
    /// within the ≤ 2 bound); later executions are served from that cache
    /// with **zero visits** until an update dirties it, and
    /// [`PaxServer::apply_updates`] re-freshens it in the update's own
    /// visit. PaX3 and naive servers run their classic protocols each time.
    pub fn execute(&self, query: &PreparedQuery) -> PaxResult<ExecReport> {
        self.resolve(query)?;
        self.run_engine(&query.compiled, query.text(), |epoch| self.execute_session(query, epoch))
    }

    /// Prepare (or fetch the cached preparation of) `text` and execute it.
    pub fn execute_text(&self, text: &str) -> PaxResult<ExecReport> {
        let query = self.prepare(text)?;
        self.execute(&query)
    }

    /// One-shot evaluation of `text` through the configured classic engine:
    /// compiles fresh, runs the full protocol, touches no prepared-query
    /// cache — what benchmarks use as the un-amortized baseline. Shares the
    /// deployment like [`PaxServer::execute`] does.
    pub fn query_once(&self, text: &str) -> PaxResult<ExecReport> {
        let compiled = compile_text(text)?;
        self.run_engine(&compiled, text, |epoch| {
            let slice = [(&compiled, text)];
            pax2::run(self.reader(epoch), &slice, ExecMode::Query)
        })
    }

    /// One single-query execution under the failover policy: every attempt
    /// pins the epoch afresh and dispatches on the configured engine. The
    /// classic engines run their protocol as they are; what a PaX2 server
    /// does (session cache or one-shot) is the caller's `pax2`.
    fn run_engine(
        &self,
        query: &CompiledQuery,
        text: &str,
        pax2: impl Fn(&EpochInner) -> PaxResult<ExecReport>,
    ) -> PaxResult<ExecReport> {
        self.with_failover(|| {
            let epoch = self.pin();
            match self.algorithm {
                Algorithm::NaiveCentralized => naive::run(self.reader(&epoch), query, text),
                Algorithm::PaX3 => pax3::run(self.reader(&epoch), query, text),
                Algorithm::PaX2 => pax2(&epoch),
            }
        })
    }

    /// Execute a batch of prepared queries in one shared-visit execution.
    ///
    /// PaX2 and PaX3 servers run the batched combined protocol (the whole
    /// batch costs each site at most two visits, §4 extended); a naive
    /// server evaluates the batch one query at a time. Batch executions do
    /// not touch the prepared-query residual caches, and run concurrently
    /// with other executions like [`PaxServer::execute`] does.
    pub fn execute_batch(&self, queries: &[PreparedQuery]) -> PaxResult<ExecReport> {
        for query in queries {
            self.resolve(query)?;
        }
        // Every attempt pins the epoch afresh, so a retry after a failover
        // sees current health state.
        self.with_failover(|| {
            let epoch = self.pin();
            if self.algorithm == Algorithm::NaiveCentralized {
                // One classic run per query, folded into one report.
                let start = Instant::now();
                let mut batch = ExecReport::skeleton(
                    self.algorithm,
                    ExecMode::Batch,
                    epoch.number,
                    &epoch.topology,
                    start,
                );
                for query in queries {
                    let report = naive::run(self.reader(&epoch), &query.compiled, query.text())?;
                    batch.coordinator_ops += report.coordinator_ops;
                    batch.stats.merge(&report.stats);
                    batch.queries.extend(report.queries);
                }
                batch.elapsed = start.elapsed();
                return Ok(batch);
            }
            let slice: Vec<(&CompiledQuery, &str)> =
                queries.iter().map(|q| (q.compiled.as_ref(), q.text())).collect();
            let mut report = pax2::run(self.reader(&epoch), &slice, ExecMode::Batch)?;
            // Batched execution always uses the shared-visit combined
            // protocol; the report names the server's configured
            // algorithm (PaX3's ≤ 3 bound holds a fortiori).
            report.algorithm = self.algorithm;
            Ok(report)
        })
    }

    /// Prepare every text and execute them as one batch.
    pub fn execute_batch_text<S: AsRef<str>>(&self, texts: &[S]) -> PaxResult<ExecReport> {
        let queries: Vec<PreparedQuery> =
            texts.iter().map(|t| self.prepare(t.as_ref())).collect::<PaxResult<_>>()?;
        self.execute_batch(&queries)
    }

    /// The PaX2 session path of [`PaxServer::execute`]: snapshot on first
    /// run, serve from the maintained cache afterwards. Runs against the
    /// epoch the caller pinned; cold snapshots of one particular query
    /// serialize on that query's session lock, warm executions of
    /// different queries run fully in parallel.
    fn execute_session(&self, query: &PreparedQuery, epoch: &EpochInner) -> PaxResult<ExecReport> {
        let start = Instant::now();
        let session_arc = {
            let mut map = epoch.sessions.lock().expect("the session-table lock is never poisoned");
            Arc::clone(map.entry(query.id).or_insert_with(|| {
                Arc::new(Mutex::new(QuerySession::new(
                    Arc::clone(&query.compiled),
                    Arc::clone(&query.text),
                    &epoch.topology,
                )))
            }))
        };
        let mut session = session_arc.lock().expect("a session lock is never poisoned");
        // A warm cache is current for this epoch (every update carries the
        // sessions into the next epoch refreshed): answer without visiting
        // a single site, handing out the session's text and answer list by
        // reference count.
        let from_cache = session.initialized;
        let (mut stats, mut fragments_evaluated, mut coordinator_ops) = Default::default();
        if !from_cache {
            // Cold snapshot: a session round with no ops, one visit per
            // relevant site, reading the pinned epoch's fragment versions.
            let mut ctx = self.reader(epoch);
            let relevant_by_site = ctx.group_by_site(session.relevant().iter().copied())?;
            let round = session_round(
                &mut ctx,
                &relevant_by_site,
                &BTreeMap::new(),
                BTreeMap::from([(query.id, &mut *session)]),
            )?;
            (stats, fragments_evaluated, coordinator_ops) =
                (ctx.stats, session.relevant().len(), round.unify_ops);
        }
        Ok(ExecReport {
            queries: vec![QueryOutcome {
                query: Arc::clone(session.query_text()),
                answers: Arc::clone(session.answers()),
                fragments_evaluated,
                coordinator_ops,
            }],
            stats,
            coordinator_ops,
            from_cache,
            ..ExecReport::skeleton(
                Algorithm::PaX2,
                ExecMode::Query,
                epoch.number,
                &epoch.topology,
                start,
            )
        })
    }
}
