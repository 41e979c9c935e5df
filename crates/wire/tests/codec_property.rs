//! Property tests for the wire codec, at two levels.
//!
//! First, plain values: for proptest-generated integers, strings, options,
//! sequences and maps, `decode(encode(v)) == v` and
//! `encode(v).len() == paxml_distsim::encoded_size(v)` — the codec and the
//! simulator's byte meter implement one layout.
//!
//! Second, live protocol messages: a [`RecordingTransport`] wraps the
//! in-process simulator and, for every [`EpochRequest`] envelope and
//! [`ProtocolResponse`] that actually crosses it, asserts the same two
//! properties plus re-encode stability (`encode(decode(encode(m))) ==
//! encode(m)`). Random workloads — single queries, prepared sessions,
//! batches and update streams under every algorithm — then push every
//! message variant the drivers produce through those assertions.

use paxml_core::{
    dispatch, Algorithm, EpochRequest, PaxError, PaxResult, PaxServer, ProtocolRequest,
    ProtocolResponse, RefragOp, Transport,
};
use paxml_distsim::{encoded_size, Cluster, Delivery, Placement, ReplicaSet, SiteId};
use paxml_fragment::FragmentId;
use paxml_wire::{decode, encode};
use paxml_xmark::{clientele_fragmentation, UpdateWorkload, CLIENTELE_QUERY_EXAMPLES};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Assert the codec invariants for one message, returning the decoded
/// copy (so the round actually runs on what came off the wire) and the
/// number of bytes it travelled as.
fn check_roundtrip<T>(message: &T, kind: &str) -> (T, u64)
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let bytes = encode(message);
    assert_eq!(
        bytes.len() as u64,
        encoded_size(message),
        "{kind}: encode and encoded_size disagree on the byte count"
    );
    let decoded: T = decode(&bytes).unwrap_or_else(|e| panic!("{kind}: decode failed: {e}"));
    assert_eq!(encode(&decoded), bytes, "{kind}: decoding and re-encoding changed the bytes");
    (decoded, bytes.len() as u64)
}

/// A simulator cluster that round-trips every protocol message through
/// the codec before (requests) and after (responses) dispatching it, so
/// whatever a workload sends is exactly what a socket would carry.
struct RecordingTransport {
    inner: Cluster,
    messages_checked: AtomicU64,
}

impl RecordingTransport {
    fn new(inner: Cluster) -> RecordingTransport {
        RecordingTransport { inner, messages_checked: AtomicU64::new(0) }
    }
}

impl Transport for RecordingTransport {
    fn deliver(
        &self,
        requests: BTreeMap<SiteId, EpochRequest>,
    ) -> PaxResult<BTreeMap<SiteId, Delivery<ProtocolResponse>>> {
        let mut request_bytes = BTreeMap::new();
        let decoded_requests: BTreeMap<SiteId, EpochRequest> = requests
            .into_iter()
            .map(|(site, request)| {
                self.messages_checked.fetch_add(1, Ordering::Relaxed);
                let (decoded, bytes) = check_roundtrip(&request, "request");
                request_bytes.insert(site, bytes);
                (site, decoded)
            })
            .collect();
        let mut delivered = Cluster::deliver(&self.inner, decoded_requests, dispatch);
        for (site, delivery) in &mut delivered {
            self.messages_checked.fetch_add(1, Ordering::Relaxed);
            let (decoded, bytes) = check_roundtrip(&delivery.response, "response");
            // What the transport reports for the meters is what a socket
            // would have carried: the frames' lengths.
            assert_eq!(delivery.work.request_bytes, request_bytes[site], "reported request size");
            assert_eq!(delivery.work.response_bytes, bytes, "reported response size");
            delivery.response = decoded;
        }
        Ok(delivered)
    }

    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
        self.inner.replicas_of(fragment)
    }

    fn peer(&self, site: SiteId) -> String {
        format!("recording://{site}")
    }

    fn scratch_len(&self, site: SiteId) -> usize {
        self.inner.inspect_site(site).scratch_len()
    }

    // No `as_cluster` override: drivers must not bypass the recording.
}

/// Strings over the full Latin-1 range, so multi-byte UTF-8 shows up.
fn string_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..40)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn plain_values_roundtrip_and_match_encoded_size(
        unsigned in any::<u64>(),
        signed in any::<i64>(),
        small in any::<u16>(),
        real_bits in any::<u64>(),
        text in string_strategy(),
        maybe in (any::<bool>(), any::<u32>()),
        numbers in prop::collection::vec(any::<i32>(), 0..20),
        entries in prop::collection::vec((any::<u32>(), string_strategy()), 0..8),
    ) {
        let maybe: Option<u32> = maybe.0.then_some(maybe.1);
        let table: BTreeMap<u32, String> = entries.into_iter().collect();
        check_roundtrip(&unsigned, "u64");
        check_roundtrip(&signed, "i64");
        check_roundtrip(&small, "u16");
        check_roundtrip(&text, "string");
        check_roundtrip(&maybe, "option");
        check_roundtrip(&numbers, "vec");
        check_roundtrip(&table, "map");
        // NaN != NaN would trip the equality assert; bytes still must agree.
        let real = f64::from_bits(real_bits);
        if !real.is_nan() {
            check_roundtrip(&real, "f64");
        } else {
            prop_assert_eq!(encode(&real).len() as u64, encoded_size(&real));
        }
        let nested: BTreeMap<u16, Option<Vec<i32>>> =
            [(small, maybe.map(|_| numbers.clone()))].into_iter().collect();
        check_roundtrip(&nested, "nested map");
    }

    #[test]
    fn protocol_messages_roundtrip_under_random_workloads(
        algorithm_pick in 0usize..3,
        annotations in any::<bool>(),
        query_picks in prop::collection::vec(0usize..CLIENTELE_QUERY_EXAMPLES.len(), 1..4),
        update_seed in any::<u64>(),
        update_rounds in 0usize..3,
    ) {
        let algorithm =
            [Algorithm::NaiveCentralized, Algorithm::PaX2, Algorithm::PaX3][algorithm_pick];
        let (tree, fragmented) = clientele_fragmentation();
        let transport = Arc::new(RecordingTransport::new(Cluster::new(
            &fragmented,
            4,
            Placement::RoundRobin,
        )));
        let server = PaxServer::builder()
            .algorithm(algorithm)
            .annotations(annotations)
            .deploy_over(&fragmented, transport.clone())
            .expect("deploy over recording transport");

        // Single queries (classic engines) and prepared executions.
        for &pick in &query_picks {
            let (query, _) = CLIENTELE_QUERY_EXAMPLES[pick];
            server.query_once(query).expect("query_once");
            server.execute_text(query).expect("execute_text");
        }
        // One batch over all picked queries.
        let texts: Vec<&str> =
            query_picks.iter().map(|&p| CLIENTELE_QUERY_EXAMPLES[p].0).collect();
        server.execute_batch_text(&texts).expect("execute_batch_text");
        // Update batches keep the prepared sessions fresh over the wire.
        let mut workload =
            UpdateWorkload::new(&fragmented, tree.all_nodes().count(), update_seed);
        for _ in 0..update_rounds {
            let batch = workload.next_batch(3, 2);
            server.apply_updates(&batch).expect("apply_updates");
        }
        prop_assert!(
            transport.messages_checked.load(Ordering::Relaxed) > 0,
            "the workload exercised no protocol messages"
        );
    }
}

/// Deterministic sweep asserting that the workloads above actually cover
/// every protocol message variant the drivers can emit, so the property
/// test is not vacuously green on some of them.
#[test]
fn workloads_cover_every_protocol_message_variant() {
    use std::sync::Mutex;

    struct TaggingTransport {
        inner: Cluster,
        seen: Mutex<BTreeSet<String>>,
        /// Fragments named on the keep lists of every `Vacuum` request.
        kept: AtomicU64,
    }

    impl Transport for TaggingTransport {
        fn deliver(
            &self,
            requests: BTreeMap<SiteId, EpochRequest>,
        ) -> PaxResult<BTreeMap<SiteId, Delivery<ProtocolResponse>>> {
            for request in requests.values() {
                if let ProtocolRequest::Vacuum(msg) = &request.body {
                    self.kept.fetch_add(msg.keep.len() as u64, Ordering::Relaxed);
                }
            }
            let checked: BTreeMap<SiteId, EpochRequest> = requests
                .into_iter()
                .map(|(site, request)| (site, check_roundtrip(&request, "request").0))
                .collect();
            let delivered = Cluster::deliver(&self.inner, checked, dispatch);
            let mut seen = self.seen.lock().unwrap();
            for Delivery { response, .. } in delivered.values() {
                assert_eq!(listed(response), response.kind());
                seen.insert(response.kind().to_string());
                check_roundtrip(response, "response");
            }
            Ok(delivered)
        }
        fn site_count(&self) -> usize {
            self.inner.site_count()
        }
        fn replicas_of(&self, fragment: FragmentId) -> ReplicaSet {
            self.inner.replicas_of(fragment)
        }
        fn peer(&self, site: SiteId) -> String {
            format!("tagging://{site}")
        }
        fn scratch_len(&self, site: SiteId) -> usize {
            self.inner.inspect_site(site).scratch_len()
        }
    }

    let (tree, fragmented) = clientele_fragmentation();
    let mut all_seen = BTreeSet::new();
    for algorithm in [Algorithm::NaiveCentralized, Algorithm::PaX2, Algorithm::PaX3] {
        let transport = Arc::new(TaggingTransport {
            inner: Cluster::new(&fragmented, 4, Placement::RoundRobin),
            seen: Mutex::new(BTreeSet::new()),
            kept: AtomicU64::new(0),
        });
        let server = PaxServer::builder()
            .algorithm(algorithm)
            .deploy_over(&fragmented, transport.clone())
            .expect("deploy");
        let (query, _) = CLIENTELE_QUERY_EXAMPLES[1];
        server.query_once(query).expect("query_once");
        server.execute_text(query).expect("execute_text");
        server.execute_batch_text(&[query, CLIENTELE_QUERY_EXAMPLES[0].0]).expect("batch");
        let mut workload = UpdateWorkload::new(&fragmented, tree.all_nodes().count(), 7);
        let batch = workload.next_batch(3, 2);
        server.apply_updates(&batch).expect("apply_updates");
        // A pure migration (F1 moves one site over) and a sweep.
        let from = server.topology().site_of(FragmentId(1));
        let to = SiteId((from.index() + 1) % 4);
        let migrate = RefragOp::Migrate { fragment: FragmentId(1), from, to };
        server.refragment(&[migrate]).expect("refragment");
        server.vacuum().expect("vacuum");
        assert!(transport.kept.load(Ordering::Relaxed) > 0, "the sweep kept nothing anywhere");
        // The site that lost its only copy of F1 (migrated above) answers
        // that it is missing.
        let holder = server.topology().site_of(FragmentId(1));
        transport.inner.inspect_site(holder).purge_fragment(FragmentId(1));
        let lost = server.query_once(query).expect_err("the only copy of F1 is gone");
        assert!(matches!(lost, PaxError::FragmentMissing { .. }), "{lost}");
        all_seen.extend(transport.seen.lock().unwrap().iter().cloned());
    }
    // Exactly the response kinds the protocol has: none live but never
    // exercised, none listed but no longer produced. The match has no
    // wildcard, so a new variant fails to compile until it is listed here
    // (and then fails the assertion until a workload above produces it).
    fn listed(response: &ProtocolResponse) -> &'static str {
        match response {
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
    let every_kind: BTreeSet<String> = [
        "Qual",
        "Sel",
        "Combined",
        "Collect",
        "MultiCombined",
        "BatchCollect",
        "Fragments",
        "Refragged",
        "Vacuumed",
        "Missing",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(all_seen, every_kind, "response kinds seen vs. the protocol's variants");
}
