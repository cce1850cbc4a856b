//! World-state values are shared, not copied, across the layers.
//!
//! `Value`'s containers are reference-counted and copy-on-write, so one
//! written value is a single allocation seen by the world state, the
//! committed envelope, and the analyzer's log record. LAP's by-employee
//! model is the case that depends on it: the hot employee's application
//! list grows with every application, so a deep copy per layer would make
//! a paper-size run cost gigabytes. These tests pin the sharing by pointer
//! identity instead of by a memory measurement.

use blockoptr_suite::prelude::*;
use fabric_sim::ledger::TransactionEnvelope;
use fabric_sim::rwset::{ReadWriteSet, Version};
use fabric_sim::state::WorldState;
use std::sync::Arc;
use workload::lap;

const HOT_KEY: &str = "lap/E001";

fn lap_run() -> SimOutput {
    let spec = lap::LapSpec {
        applications: 300,
        ..Default::default()
    };
    lap::generate(&spec).run(NetworkConfig::default())
}

/// The hot key's written list in a read-write set, if it writes one.
fn hot_list(rw: &ReadWriteSet) -> Option<&Arc<Vec<Value>>> {
    rw.writes
        .iter()
        .find(|w| w.key == HOT_KEY)
        .and_then(|w| match &w.value {
            Some(Value::List(items)) => Some(items),
            _ => None,
        })
}

/// Committed (valid) transactions that wrote the hot key, in commit order,
/// with their position in the whole chain.
fn hot_writers(out: &SimOutput) -> Vec<(usize, &TransactionEnvelope)> {
    out.ledger
        .transactions()
        .enumerate()
        .filter(|(_, env)| env.status.is_success() && hot_list(&env.rwset).is_some())
        .collect()
}

fn application_of(entry: &Value) -> Option<&str> {
    entry.as_map()?.get("application")?.as_str()
}

#[test]
fn hot_key_value_is_one_allocation_in_state_ledger_and_log() {
    let out = lap_run();
    // The committed world state, rebuilt from the chain the way the
    // validator applies each valid transaction's write set.
    let mut state = WorldState::new();
    for block in out.ledger.blocks() {
        for (t, env) in block.txs.iter().enumerate() {
            if env.status.is_success() {
                state.apply(&env.rwset.writes, Version::new(block.number, t as u32));
            }
        }
    }
    let log = BlockchainLog::from_ledger(&out.ledger);

    let &(index, last) = hot_writers(&out).last().expect("hot key committed");
    let in_ledger = hot_list(&last.rwset).expect("hot write");
    let Some(Value::List(in_state)) = state.get(HOT_KEY).map(|vv| &vv.value) else {
        panic!("hot key holds a list in the world state");
    };
    let record = &log.records()[index];
    assert_eq!(record.commit_index, index);
    let in_log = hot_list(&record.rwset).expect("hot write in the log");

    assert!(in_ledger.len() > 100, "hot list grew: {}", in_ledger.len());
    assert!(Arc::ptr_eq(in_state, in_ledger), "state vs ledger");
    assert!(Arc::ptr_eq(in_ledger, in_log), "ledger vs log");
}

#[test]
fn upsert_shares_untouched_entries_between_consecutive_lists() {
    let out = lap_run();
    let writers = hot_writers(&out);
    let mut shared = 0usize;
    for pair in writers.windows(2) {
        let (prev, next) = (pair[0].1, pair[1].1);
        let touched = next.args.get(1).and_then(Value::as_str);
        let prev_list = hot_list(&prev.rwset).expect("hot write");
        let next_list = hot_list(&next.rwset).expect("hot write");
        // A valid successor read its predecessor's list, so the upsert kept
        // every position and either replaced one entry or appended one.
        assert!(next_list.len() >= prev_list.len());
        for (before, after) in prev_list.iter().zip(next_list.iter()) {
            let app = application_of(after);
            if app == touched {
                continue;
            }
            let (Value::Map(before), Value::Map(after)) = (before, after) else {
                panic!("application entries are records");
            };
            assert!(
                Arc::ptr_eq(before, after),
                "untouched entry {app:?} was copied"
            );
            shared += 1;
        }
    }
    assert!(shared > 1_000, "only {shared} entries compared");
}
