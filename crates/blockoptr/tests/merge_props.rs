//! Monoid laws for sharded session ingestion.
//!
//! [`Session::merge`] turns sessions into a mergeable monoid over
//! commit-ordered stream partitions: split a ledger anywhere into k
//! contiguous shards, ingest each shard into its own session, fold the
//! shards back together in *any* association order — the result must be
//! byte-equal (snapshot, footprint, eviction counter) to one session that
//! ingested the whole stream as a single batch. A fresh empty session is
//! the identity element. The laws are exercised unbounded and windowed.

use blockoptr::log::{BlockchainLog, TxRecord};
use blockoptr::session::{Analyzer, Session, WindowPolicy};
use fabric_sim::ledger::TxStatus;
use fabric_sim::rwset::{ReadWriteSet, Version};
use fabric_sim::types::{ClientId, OrgId, PeerId, TxType, Value};
use proptest::prelude::*;
use sim_core::time::SimTime;

/// One random record: keys from a small pool (so conflicts and hotkeys
/// form), an identifier argument (so case families form), and a status mix.
fn arb_record() -> impl Strategy<Value = TxRecord> {
    (
        0usize..4, // activity
        0usize..6, // read key
        0usize..6, // write key
        0usize..5, // case id
        0u8..10,   // status selector (30 % failures)
        0u8..2,    // write at all?
    )
        .prop_map(|(act, read, write, case, status, writes)| {
            let writes = writes == 1;
            let activities = ["transfer", "audit", "query", "settle"];
            let mut rwset = ReadWriteSet::new();
            rwset.record_read(format!("ns/k{read}"), Some(Version::new(1, 0)));
            if writes {
                rwset.record_write(format!("ns/k{write}"), Some(Value::Int(1)));
            }
            let status = match status {
                0 | 1 => TxStatus::MvccReadConflict,
                2 => TxStatus::PhantomReadConflict,
                _ => TxStatus::Success,
            };
            TxRecord {
                commit_index: 0, // assigned below
                block: 1,        // assigned below
                client_ts: SimTime::ZERO,
                commit_ts: SimTime::ZERO,
                contract: "cc".into(),
                activity: activities[act].into(),
                args: vec![Value::Str(format!("CASE{case:03}"))],
                endorsers: vec![PeerId {
                    org: OrgId((act % 3) as u16),
                    index: 0,
                }],
                invoker: ClientId {
                    org: OrgId((case % 2) as u16),
                    index: 0,
                },
                rwset,
                status,
                tx_type: if writes { TxType::Update } else { TxType::Read },
            }
        })
}

/// A random commit-ordered ledger: strictly increasing commit indices,
/// nondecreasing block numbers and commit timestamps.
fn arb_ledger() -> impl Strategy<Value = BlockchainLog> {
    (
        prop::collection::vec((arb_record(), 1u64..5, 0u64..400_000), 8..100),
        2u64..7, // mean block size selector
    )
        .prop_map(|(specs, per_block)| {
            let mut block = 1u64;
            let mut commit_us = 0u64;
            let mut records = Vec::with_capacity(specs.len());
            for (i, (mut r, step, lead)) in specs.into_iter().enumerate() {
                if i > 0 && (i as u64).is_multiple_of(per_block) {
                    block += step.min(1) + (step / 3); // occasionally skip numbers
                }
                commit_us += 50_000 + step * 10_000;
                r.commit_index = i;
                r.block = block;
                r.commit_ts = SimTime::from_micros(commit_us);
                r.client_ts = SimTime::from_micros(commit_us.saturating_sub(lead));
                records.push(r);
            }
            chunk_log(records)
        })
}

/// A log over `records` declaring exactly the distinct blocks it contains.
fn chunk_log(records: Vec<TxRecord>) -> BlockchainLog {
    let blocks: std::collections::BTreeSet<u64> = records.iter().map(|r| r.block).collect();
    let count = blocks.len();
    BlockchainLog::from_records(records, count)
}

/// The state a merge must reproduce byte-for-byte: the full analysis (a
/// deterministic Debug render), the footprint counters, and the eviction
/// counter. (Raw `Session` Debug is *not* usable here — it renders interior
/// `HashMap`s whose order is instance-dependent.)
fn witness(session: &Session) -> String {
    format!(
        "{:?}|{:?}|{}",
        session.snapshot().expect("non-empty session snapshots"),
        session.footprint(),
        session.evicted()
    )
}

/// Ingest the whole log as one batch — the locked serial reference.
fn single_batch(policy: WindowPolicy, log: BlockchainLog) -> Session {
    let mut session = Analyzer::new()
        .window(policy)
        .session()
        .expect("fresh session");
    session.ingest_log(log).expect("commit-ordered batch");
    session
}

/// Shard the log at `chunk`-record boundaries, one single-batch session per
/// shard.
fn shard_sessions(policy: WindowPolicy, log: &BlockchainLog, chunk: usize) -> Vec<Session> {
    log.records()
        .chunks(chunk.max(1))
        .map(|piece| single_batch(policy, chunk_log(piece.to_vec())))
        .collect()
}

/// Fold adjacent shard pairs in an arbitrary association order driven by
/// `picks` (each pick selects which adjacent boundary merges next).
fn fold_in_order(mut sessions: Vec<Session>, picks: &[usize]) -> Session {
    let mut step = 0usize;
    while sessions.len() > 1 {
        let pick = picks.get(step % picks.len().max(1)).copied().unwrap_or(0);
        let idx = pick % (sessions.len() - 1);
        let right = sessions.remove(idx + 1);
        sessions[idx].merge(right).expect("adjacent shards merge");
        step += 1;
    }
    sessions.into_iter().next().expect("one session remains")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Unbounded sessions: any partition, folded in any association order,
    /// equals single-batch serial ingest byte-for-byte.
    #[test]
    fn merged_partition_equals_single_batch_ingest(
        log in arb_ledger(),
        chunk in 1usize..25,
        picks in prop::collection::vec(0usize..16, 1..24),
    ) {
        let policy = WindowPolicy::Unbounded;
        let shards = shard_sessions(policy, &log, chunk);
        let merged = fold_in_order(shards, &picks);
        let serial = single_batch(policy, log);
        prop_assert_eq!(witness(&merged), witness(&serial));
    }

    /// The same law under a bounded window: shards may evict on their own
    /// before merging, and the merged session must still match the
    /// single-batch ingest (which evicts once, at the end).
    #[test]
    fn windowed_merged_partition_equals_single_batch_ingest(
        log in arb_ledger(),
        n in 1usize..6,
        chunk in 1usize..25,
        picks in prop::collection::vec(0usize..16, 1..24),
    ) {
        let policy = WindowPolicy::LastBlocks(n);
        let shards = shard_sessions(policy, &log, chunk);
        let merged = fold_in_order(shards, &picks);
        let serial = single_batch(policy, log);
        prop_assert_eq!(witness(&merged), witness(&serial));
    }

    /// A fresh session is the identity on both sides of the merge.
    #[test]
    fn empty_session_is_the_identity(log in arb_ledger()) {
        let policy = WindowPolicy::Unbounded;
        let serial = single_batch(policy, log.clone());
        let reference = witness(&serial);

        let mut left = single_batch(policy, log.clone());
        let empty = Analyzer::new().window(policy).session().expect("fresh");
        left.merge(empty).expect("identity merge");
        prop_assert_eq!(witness(&left), reference.clone());

        let mut right = Analyzer::new().window(policy).session().expect("fresh");
        right.merge(single_batch(policy, log)).expect("adoption merge");
        prop_assert_eq!(witness(&right), reference);
    }
}
