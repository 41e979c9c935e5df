//! The prepared-query table: compile once, execute any number of times.

use super::PaxServer;
use crate::error::{PaxError, PaxResult};
use paxml_xpath::{CompileCache, CompiledQuery};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A query compiled and normalized once by [`PaxServer::prepare`], reusable
/// across any number of executions of the server that prepared it. Cloning
/// is cheap (the compiled form is shared), and a clone may be moved to any
/// thread.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Position in the server's prepared-query table.
    pub(super) id: usize,
    pub(super) text: Arc<str>,
    pub(super) compiled: Arc<CompiledQuery>,
}

impl PreparedQuery {
    /// The query text as prepared.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The compiled, normalized form.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }
}

/// How much work [`PaxServer::prepare_set`] shared across its queries,
/// measured against compiling every text independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareSetStats {
    /// Number of texts in the set (including duplicates).
    pub queries: usize,
    /// Number of distinct normal forms among them — only these were
    /// actually compiled (or found already compiled).
    pub distinct_queries: usize,
    /// Qualifier sub-trees served from the shared pool during this set.
    pub subtree_hits: u64,
    /// Qualifier sub-trees compiled fresh into the pool during this set.
    pub subtree_misses: u64,
    /// Total `QVect` entries in the server's shared compilation pool after
    /// the set was prepared.
    pub arena_entries: usize,
    /// Total `QVect` entries the set's texts would occupy if each were
    /// compiled independently (the sum of their `QVect` lengths — cached
    /// compilation produces identical queries, so this is exact).
    pub arena_entries_independent: usize,
    /// Wall-clock time for the whole set, parse to table insertion.
    pub elapsed: Duration,
}

/// The prepared-query table: compilations cached by query text, plus the
/// two sharing layers that make overlapping prepared queries cheap:
///
/// * `by_norm` — whole-query sharing: two texts with the same normal form
///   (e.g. `a[b][2]` and `a[2][b]`) share one compiled `Arc`;
/// * `compile_cache` — sub-query sharing: distinct queries whose qualifier
///   sub-trees overlap (e.g. a hundred variants of
///   `person[address/country/text()='US']/…`) compile each shared sub-tree
///   once into a common pool and splice it thereafter.
#[derive(Default)]
pub(super) struct PreparedTable {
    queries: Vec<PreparedQuery>,
    by_text: BTreeMap<String, usize>,
    by_norm: BTreeMap<String, usize>,
    compile_cache: CompileCache,
}

impl PaxServer {
    /// Number of queries prepared so far.
    pub fn prepared_count(&self) -> usize {
        self.prepared.read().expect("the prepared-query lock is never poisoned").queries.len()
    }

    /// Compile and normalize `text` once, caching by query text: preparing
    /// the same text again returns the cached compilation, and a text whose
    /// *normal form* matches an earlier prepared query shares that query's
    /// compiled `Arc`. Exclusive only against other `prepare` calls —
    /// in-flight executions are not blocked.
    pub fn prepare(&self, text: &str) -> PaxResult<PreparedQuery> {
        {
            let table = self.prepared.read().expect("the prepared-query lock is never poisoned");
            if let Some(&id) = table.by_text.get(text) {
                return Ok(table.queries[id].clone());
            }
        }
        // Parse and normalize outside any lock — a slow parse must not
        // stall resolve() calls of concurrent executions. Only the (cheap,
        // cache-assisted) compilation step runs under the write lock, so it
        // can consult the server's shared sub-tree pool.
        let norm = paxml_xpath::normalize(&paxml_xpath::parse(text)?);
        let mut table = self.prepared.write().expect("the prepared-query lock is never poisoned");
        Self::prepare_normalized(&mut table, text, &norm)
    }

    /// Table-level prepare of one text whose normal form is already in
    /// hand. Shares whole compilations via `by_norm` and qualifier
    /// sub-trees via the table's `compile_cache`.
    fn prepare_normalized(
        table: &mut PreparedTable,
        text: &str,
        norm: &paxml_xpath::NormQuery,
    ) -> PaxResult<PreparedQuery> {
        if let Some(&id) = table.by_text.get(text) {
            // A racing prepare of the same text won; use its entry.
            return Ok(table.queries[id].clone());
        }
        let norm_key = format!("{norm:?}");
        let compiled = match table.by_norm.get(&norm_key) {
            Some(&id) => Arc::clone(&table.queries[id].compiled),
            None => Arc::new(paxml_xpath::compile_with_cache(norm, &mut table.compile_cache)?),
        };
        let id = table.queries.len();
        let query = PreparedQuery { id, text: Arc::from(text), compiled };
        table.queries.push(query.clone());
        table.by_text.insert(text.to_string(), id);
        table.by_norm.entry(norm_key).or_insert(id);
        Ok(query)
    }

    /// Prepare a whole set of queries in one call, maximising sharing
    /// across them: texts with equal normal forms share one compiled query,
    /// and distinct queries with overlapping qualifier sub-trees share
    /// those sub-trees through the server's compilation pool. Returns the
    /// prepared queries in input order plus a [`PrepareSetStats`] report
    /// quantifying the sharing against independent compilation.
    ///
    /// The whole set is admitted atomically under one table lock; any parse
    /// or compile error rejects the entire set without side effects on the
    /// table (beyond sub-trees already pooled, which are harmless).
    pub fn prepare_set(&self, texts: &[&str]) -> PaxResult<(Vec<PreparedQuery>, PrepareSetStats)> {
        let start = Instant::now();
        // Parse and normalize everything outside the lock; fail fast before
        // touching the table.
        let mut norms = Vec::with_capacity(texts.len());
        for text in texts {
            norms.push(paxml_xpath::normalize(&paxml_xpath::parse(text)?));
        }
        let mut table = self.prepared.write().expect("the prepared-query lock is never poisoned");
        let (hits_before, misses_before) = (table.compile_cache.hits, table.compile_cache.misses);
        let mut queries = Vec::with_capacity(texts.len());
        let mut distinct: BTreeSet<String> = BTreeSet::new();
        let mut arena_entries_independent = 0usize;
        for (text, norm) in texts.iter().zip(&norms) {
            let query = Self::prepare_normalized(&mut table, text, norm)?;
            // What compiling this text on its own would have cost: its full
            // QVect (the cached output is identical to an uncached compile).
            arena_entries_independent += query.compiled.qvect_len();
            distinct.insert(format!("{norm:?}"));
            queries.push(query);
        }
        let stats = PrepareSetStats {
            queries: texts.len(),
            distinct_queries: distinct.len(),
            subtree_hits: table.compile_cache.hits - hits_before,
            subtree_misses: table.compile_cache.misses - misses_before,
            arena_entries: table.compile_cache.pool_entries(),
            arena_entries_independent,
            elapsed: start.elapsed(),
        };
        Ok((queries, stats))
    }

    /// Check a prepared query belongs to this server and return its id.
    pub(super) fn resolve(&self, query: &PreparedQuery) -> PaxResult<usize> {
        let table = self.prepared.read().expect("the prepared-query lock is never poisoned");
        match table.queries.get(query.id) {
            Some(own) if *own.text == *query.text => Ok(query.id),
            _ => Err(PaxError::ForeignQuery { query: query.text().to_string() }),
        }
    }
}
