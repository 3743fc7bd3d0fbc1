//! The selection-change counts live in the Loc-RIB's slots; they were
//! once a table of their own (`Chassis::selection_changes`). The values
//! below were recorded from that table: `BgpNode::selection_changes`,
//! `all_selection_changes` and `audit::oscillation_suspects` must keep
//! returning exactly these — on converged runs of the corpus gadgets,
//! on an oscillating one, and for a prefix the whole network has
//! withdrawn (whose count outlives its selection).

use abrr::audit::{self, OscillationSuspect};
use abrr::{BgpNode, ExternalEvent, Mode};
use bgp_types::{Ipv4Prefix, RouterId};
use netsim::{RunConfig, RunLimits, Sim, Time, WireMode};
use scenario::Loaded;

fn load(stem: &str) -> Loaded {
    scenario::load_corpus(stem).unwrap_or_else(|e| panic!("{stem} failed to load: {e:?}"))
}

/// Per router, in id order: `(router id, [change count per prefix, in
/// the order of `prefixes`])`.
fn counts(sim: &Sim<BgpNode>, prefixes: &[Ipv4Prefix]) -> Vec<(u32, Vec<u64>)> {
    sim.nodes()
        .map(|(id, node)| {
            let per_prefix: Vec<u64> = prefixes.iter().map(|p| node.selection_changes(p)).collect();
            // The iterator and the point lookup are two views of one
            // table; prefixes never selected appear in neither.
            let listed: Vec<(Ipv4Prefix, u64)> = node.all_selection_changes().collect();
            let mut want: Vec<(Ipv4Prefix, u64)> = prefixes
                .iter()
                .copied()
                .zip(per_prefix.iter().copied())
                .filter(|(_, c)| *c > 0)
                .collect();
            want.sort();
            assert_eq!(listed, want, "router {id:?}");
            (id.0, per_prefix)
        })
        .collect()
}

fn suspect(prefix: &str, total_changes: u64, hottest: u32) -> OscillationSuspect {
    OscillationSuspect {
        prefix: prefix.parse().unwrap(),
        total_changes,
        hottest_node: RouterId(hottest),
    }
}

#[test]
fn small_reference_counts_match_the_parent() {
    let s = load("small_reference");
    let run = s.run(Mode::Abrr, RunConfig::default()).unwrap();
    assert!(run.outcome.quiesced);
    let sim = run.sim;
    assert_eq!(
        counts(&sim, &s.prefixes()),
        vec![
            (1, vec![1, 1]),
            (2, vec![1, 1]),
            (3, vec![1, 1]),
            (4, vec![2, 1]),
            (5, vec![2, 1]),
            (6, vec![1, 1]),
            (7, vec![1, 1]),
            (8, vec![1, 1]),
            (9, vec![1, 1]),
        ]
    );
    assert_eq!(
        audit::oscillation_suspects(&sim, 5),
        vec![
            suspect("10.0.0.0/8", 11, 4),
            suspect("192.168.0.0/16", 9, 1)
        ]
    );
}

#[test]
fn small_reference_withdrawn_prefix_keeps_its_counts() {
    // Router 9's feed of 192.168.0.0/16 is the only one: withdrawing it
    // leaves every Loc-RIB without a selection for the prefix, and the
    // counts must still read what they read before the slot emptied
    // (routers that hunted through the other ARR's copy lost it twice).
    let s = load("small_reference");
    let p2: Ipv4Prefix = "192.168.0.0/16".parse().unwrap();
    let (_, mut sim) = s.build(Mode::Abrr, WireMode::Off).unwrap();
    sim.schedule_external(
        10_000_000,
        RouterId(9),
        ExternalEvent::EbgpWithdraw {
            prefix: p2,
            peer_addr: 9003,
        },
    );
    assert!(sim.run_to_quiescence().quiesced);
    for (_, node) in sim.nodes() {
        assert_eq!(node.selected(&p2), None);
        assert_eq!(node.loc_rib_len(), 1);
    }
    assert_eq!(
        counts(&sim, &s.prefixes()),
        vec![
            (1, vec![1, 2]),
            (2, vec![1, 3]),
            (3, vec![1, 3]),
            (4, vec![2, 2]),
            (5, vec![2, 3]),
            (6, vec![1, 3]),
            (7, vec![1, 3]),
            (8, vec![1, 3]),
            (9, vec![1, 2]),
        ]
    );
    assert_eq!(
        audit::oscillation_suspects(&sim, 1),
        vec![suspect("192.168.0.0/16", 24, 2)]
    );
}

#[test]
fn med_gadget_counts_match_the_parent() {
    let s = load("med_gadget");
    let run = s.run(Mode::Abrr, RunConfig::default()).unwrap();
    assert!(run.outcome.quiesced);
    assert_eq!(
        counts(&run.sim, &s.prefixes()),
        vec![
            (1, vec![3]),
            (2, vec![3]),
            (3, vec![1]),
            (4, vec![2]),
            (5, vec![1]),
        ]
    );
    assert_eq!(
        audit::oscillation_suspects(&run.sim, 5),
        vec![suspect("10.0.0.0/8", 10, 1)]
    );

    // Single-path TBRR oscillates on the gadget; an event budget makes
    // the run, and so the counts, repeat exactly.
    let budget = RunConfig {
        limits: RunLimits {
            max_events: 20_000,
            max_time: Time::MAX,
        },
        ..Default::default()
    };
    let run = s.run(Mode::Tbrr { multipath: false }, budget).unwrap();
    assert!(!run.outcome.quiesced);
    assert_eq!(
        counts(&run.sim, &s.prefixes()),
        vec![
            (1, vec![4001]),
            (2, vec![3999]),
            (3, vec![1]),
            (4, vec![1]),
            (5, vec![1]),
        ]
    );
    assert_eq!(
        audit::oscillation_suspects(&run.sim, 5),
        vec![suspect("10.0.0.0/8", 8003, 1)]
    );
}
