//! Growth against an independent oracle.
//!
//! `enumerate_sharded` and `extend_sharded` share one code path, so
//! checking a grown universe against a from-scratch `enumerate_sharded`
//! run only compares that path with itself. This suite compares
//! exact-mode growth with the sequential DFS `enumerate` instead, which
//! shares no code with the sharded engine: from checkpoints at depths 0,
//! 2 and 4, captured and extended at 1, 2 and 8 shards, the grown
//! universe must be byte-identical to the sequential one at the deeper
//! horizon.

use hpl_core::{
    enumerate, enumerate_sharded, extend_sharded, EnumerationLimits, Protocol, ProtocolUniverse,
    ShardConfig,
};
use hpl_protocols::failure::CrashableWorker;
use hpl_protocols::gossip::PushGossip;
use hpl_protocols::token_bus::TokenBus;
use hpl_protocols::tracking::Toggler;
use hpl_protocols::two_generals::TwoGenerals;

const SHARDS: [usize; 3] = [1, 2, 8];
const CHECKPOINT_DEPTHS: [usize; 3] = [0, 2, 4];

/// Byte-identity: sizes, per-id computations, event bindings, payloads.
fn assert_identical(grown: &ProtocolUniverse, oracle: &ProtocolUniverse, label: &str) {
    assert_eq!(
        grown.universe().len(),
        oracle.universe().len(),
        "{label}: universe size"
    );
    for (id, c) in oracle.universe().iter() {
        assert_eq!(grown.universe().get(id), c, "{label}: computation {id}");
        for e in c.iter() {
            assert_eq!(
                grown.universe().event(e.id()),
                oracle.universe().event(e.id()),
                "{label}: binding of {:?}",
                e.id()
            );
        }
    }
    assert_eq!(
        grown.payload_table(),
        oracle.payload_table(),
        "{label}: payload table"
    );
}

fn check_growth<P: Protocol + Sync>(p: &P, horizon: usize, label: &str) {
    let limits = |depth| EnumerationLimits {
        max_events: depth,
        max_computations: 1_000_000,
    };
    let oracle = enumerate(p, limits(horizon)).expect("within budget");
    for depth in CHECKPOINT_DEPTHS {
        for from_shards in SHARDS {
            let base = enumerate_sharded(
                p,
                limits(depth),
                &ShardConfig::with_shards(from_shards).checkpoint(),
            )
            .expect("within budget");
            let frontier = base.frontier.as_ref().expect("checkpoint requested");
            for shards in SHARDS {
                let label = format!(
                    "{label}: d{depth} @ {from_shards} shard(s) → d{horizon} @ {shards} shard(s)"
                );
                let grown = extend_sharded(
                    p,
                    frontier,
                    limits(horizon),
                    &ShardConfig::with_shards(shards),
                )
                .expect("within budget");
                assert_identical(&grown.universe, &oracle, &label);
                assert_eq!(
                    grown.stats.explored,
                    oracle.universe().len(),
                    "{label}: explored"
                );
                assert_eq!(
                    grown.stats.unique,
                    oracle.universe().len(),
                    "{label}: unique"
                );
                assert_eq!(
                    grown.stats.resumed,
                    base.universe.universe().len(),
                    "{label}: resumed"
                );
                let growth = grown.growth.expect("extensions report growth");
                assert_eq!(growth.len(), base.universe.universe().len(), "{label}");
            }
        }
    }
}

#[test]
fn token_bus_growth_matches_sequential() {
    check_growth(&TokenBus::new(3), 6, "token_bus(3)");
}

#[test]
fn two_generals_growth_matches_sequential() {
    check_growth(&TwoGenerals::new(3), 6, "two_generals");
}

#[test]
fn crashable_worker_growth_matches_sequential() {
    check_growth(&CrashableWorker { max_reports: 2 }, 5, "crashable_worker");
}

#[test]
fn push_gossip_growth_matches_sequential() {
    check_growth(&PushGossip { n: 3 }, 5, "push_gossip(3)");
}

#[test]
fn toggler_growth_matches_sequential() {
    check_growth(&Toggler { max_toggles: 2 }, 5, "toggler");
}
