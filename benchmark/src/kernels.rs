//! Layer kernels: each layer's public hot functions replayed in
//! isolation on inputs taken from a finished pass.
//!
//! A kernel's number times its call count in the run, divided by
//! `netsim.run_s`, is the most an optimisation of that function can
//! save end to end. Every kernel is the best of [`REPS`] repetitions,
//! in nanoseconds per operation.

use crate::pass::World;
use crate::spans::Recorder;
use abrr::msg::{BgpMsg, Plane};
use bgp_rib::{
    best_as_level, best_path, AdjRibIn, AdjRibOut, Candidate, CandidateBatch, LocRib, PathSet,
};
use bgp_types::{intern, Ipv4Prefix, NextHop, PathId, PrefixTrie, RouterId};
use igp::SpfResult;
use netsim::{Ctx, Mrai, MraiVerdict, Protocol, RunLimits, Sim};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;
/// Prefixes sampled from the finished sim.
const SAMPLE: usize = 512;
/// Peers a sampled path set is stored under in the RIB kernels.
const PEERS: u32 = 8;
/// Messages bounced around the no-op ring.
const RING_EVENTS: u64 = 200_000;

/// Best-of-`REPS` host nanoseconds per operation of `f`, which does
/// `ops` operations per call.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let best = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("REPS > 0");
    best as f64 / ops.max(1) as f64
}

/// Sampled prefixes with the distinct routes the fleet selected for
/// each: real attribute sets, as many per prefix as the network has
/// exits in use.
fn sample(world: &World) -> Vec<(Ipv4Prefix, Vec<Candidate>)> {
    let prefixes = world.model.sorted_prefixes();
    let stride = prefixes.len().div_ceil(SAMPLE).max(1);
    prefixes
        .iter()
        .step_by(stride)
        .map(|prefix| {
            let mut cands: Vec<Candidate> = Vec::new();
            for (_, node) in world.sim.nodes() {
                if let Some(sel) = node.selected(prefix) {
                    if !cands.iter().any(|c| Arc::ptr_eq(&c.attrs, &sel.attrs)) {
                        cands.push(Candidate {
                            attrs: sel.attrs.clone(),
                            source: sel.source,
                            neighbor_id: sel.neighbor_id,
                        });
                    }
                }
            }
            (*prefix, cands)
        })
        .filter(|(_, cands)| !cands.is_empty())
        .collect()
}

fn path_set(cands: &[Candidate]) -> PathSet {
    cands
        .iter()
        .enumerate()
        .map(|(i, c)| (PathId(i as u32), c.attrs.clone()))
        .collect()
}

/// A node that forwards every message to the next node of a ring and
/// does nothing else: what one event costs with no protocol at all.
struct Relay {
    next: RouterId,
}

impl Protocol for Relay {
    type Msg = u64;
    type External = u64;

    fn on_message(&mut self, ctx: &mut Ctx<u64>, _from: RouterId, hops_left: u64) {
        if hops_left > 0 {
            ctx.send(self.next, hops_left - 1);
        }
    }

    fn on_external(&mut self, ctx: &mut Ctx<u64>, hops_left: u64) {
        ctx.send(self.next, hops_left);
    }
}

/// Nanoseconds per event of a ring of `n` [`Relay`]s with one message
/// in flight per node, so heap depth and node-table size match a run's
/// order of magnitude.
fn dispatch_floor(n: u32) -> f64 {
    ns_per_op(RING_EVENTS as usize, || {
        let mut sim: Sim<Relay> = Sim::new();
        for i in 0..n {
            sim.add_node(
                RouterId(i),
                Relay {
                    next: RouterId((i + 1) % n),
                },
            );
        }
        for i in 0..n {
            sim.add_session(RouterId(i), RouterId((i + 1) % n), 10);
            sim.schedule_external(0, RouterId(i), RING_EVENTS / n as u64);
        }
        black_box(sim.run(RunLimits {
            max_events: RING_EVENTS,
            max_time: u64::MAX,
        }));
    })
}

/// Runs every kernel on `world`; returns `(metric name, ns)` pairs.
/// Each kernel is a span under `kernels`.
pub fn run(world: &World, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
    let sample = sample(world);
    let n = sample.len();
    let cfg = world.spec.decision;
    let mut out = Vec::new();
    let mut kernel = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let ns = rec.leaf(name, f);
        out.push((name, ns));
    };

    // igp
    let topo = &world.model.view.topo;
    let sources: Vec<RouterId> = topo.routers().collect();
    kernel("igp.spf_ns_per_source", &mut || {
        ns_per_op(sources.len(), || {
            for s in &sources {
                black_box(SpfResult::run(topo, *s));
            }
        })
    });

    // netsim
    let nodes = world.spec.all_nodes().len() as u32;
    kernel("netsim.dispatch_floor_ns_per_event", &mut || {
        dispatch_floor(nodes)
    });
    kernel("netsim.mrai.offer_flush_ns", &mut || {
        ns_per_op(n, || {
            let mut mrai: Mrai<Ipv4Prefix, u64> = Mrai::new(1_000_000);
            let mut sent = 0u64;
            for (i, (prefix, _)) in sample.iter().enumerate() {
                if let MraiVerdict::SendNow(v) = mrai.offer(0, *prefix, i as u64) {
                    sent += v;
                }
            }
            black_box(sent + mrai.flush(1_000_000).len() as u64);
        })
    });

    // bgp-rib: decision
    kernel("bgp-rib.decision.best_as_level_ns", &mut || {
        ns_per_op(n, || {
            for (_, cands) in &sample {
                black_box(best_as_level(cands, &cfg));
            }
        })
    });
    kernel("bgp-rib.decision.batch_survivors_ns", &mut || {
        let mut batch = CandidateBatch::new();
        ns_per_op(n, || {
            for (_, cands) in &sample {
                batch.load(cands);
                black_box(batch.survivors(&cfg).len());
            }
        })
    });
    kernel("bgp-rib.decision.best_path_ns", &mut || {
        let me = world.spec.routers[0];
        let igp = |nh: NextHop| world.spec.oracle.distance(me, RouterId(nh.0));
        ns_per_op(n, || {
            for (_, cands) in &sample {
                black_box(best_path(cands, &cfg, &igp));
            }
        })
    });

    // bgp-rib: storage
    let sets: Vec<(Ipv4Prefix, PathSet)> = sample.iter().map(|(p, c)| (*p, path_set(c))).collect();
    let fill_in = || {
        let mut rib = AdjRibIn::new();
        for peer in 0..PEERS {
            for (prefix, set) in &sets {
                rib.set_paths(RouterId(peer), *prefix, set.clone());
            }
        }
        rib
    };
    kernel("bgp-rib.rib.adj_in_set_ns", &mut || {
        ns_per_op(n * PEERS as usize, || {
            black_box(fill_in().num_entries());
        })
    });
    let rib_in = fill_in();
    kernel("bgp-rib.rib.adj_in_all_paths_ns", &mut || {
        ns_per_op(n, || {
            for (prefix, _) in &sets {
                black_box(rib_in.all_paths(prefix).count());
            }
        })
    });
    let mut rib_out = AdjRibOut::new();
    rib_out.define_group(1, (0..PEERS).map(RouterId).collect());
    for (prefix, set) in &sets {
        rib_out.set_paths(1, *prefix, set.clone());
    }
    kernel("bgp-rib.rib.export_walk_ns_per_prefix", &mut || {
        ns_per_op(n, || {
            black_box(rib_out.export_walk(RouterId(0)).count());
        })
    });
    let mut loc: LocRib<u32> = LocRib::new();
    for (i, (prefix, _)) in sets.iter().enumerate() {
        loc.set(*prefix, Some(i as u32));
    }
    kernel("bgp-rib.rib.loc_lookup_ns", &mut || {
        ns_per_op(n, || {
            for (prefix, _) in &sets {
                black_box(loc.lookup(prefix.addr()));
            }
        })
    });

    // bgp-types
    let attrs: Vec<_> = sample.iter().map(|(_, c)| c[0].attrs.clone()).collect();
    kernel("bgp-types.intern.hit_ns", &mut || {
        ns_per_op(n, || {
            for a in &attrs {
                black_box(intern((**a).clone()));
            }
        })
    });
    kernel("bgp-types.intern.miss_ns", &mut || {
        let mut round = 0u32;
        ns_per_op(n, || {
            // A next hop no route uses makes every set new; the results
            // stay alive to the end of the repetition, as RIB entries do.
            round += 1;
            let mut keep = Vec::with_capacity(n);
            for (i, a) in attrs.iter().enumerate() {
                let mut fresh = (**a).clone();
                fresh.next_hop = NextHop(0xF000_0000 | (round << 20) | i as u32);
                keep.push(intern(fresh));
            }
            black_box(keep.len());
        })
    });
    let all_prefixes = world.model.sorted_prefixes();
    kernel("bgp-types.trie.insert_ns", &mut || {
        ns_per_op(all_prefixes.len(), || {
            let mut trie = PrefixTrie::new();
            for (i, p) in all_prefixes.iter().enumerate() {
                trie.insert(*p, i);
            }
            black_box(trie.len());
        })
    });
    let trie: PrefixTrie<usize> = all_prefixes
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, i))
        .collect();
    kernel("bgp-types.trie.longest_match_ns", &mut || {
        ns_per_op(all_prefixes.len(), || {
            for p in &all_prefixes {
                black_box(trie.longest_match(p.addr()));
            }
        })
    });

    // bgp-wire through core::wire
    let msgs: Vec<BgpMsg> = sets
        .iter()
        .map(|(prefix, set)| BgpMsg {
            prefix: *prefix,
            paths: Arc::new(set.clone()),
            plane: Plane::Abrr,
        })
        .collect();
    let frames: Vec<_> = msgs
        .iter()
        .map(|m| abrr::wire::encode_frame(m).expect("sampled update encodes"))
        .collect();
    kernel("core.wire.encode_ns_per_frame", &mut || {
        ns_per_op(n, || {
            for m in &msgs {
                black_box(abrr::wire::encode_frame(m).expect("sampled update encodes"));
            }
        })
    });
    kernel("core.wire.decode_ns_per_frame", &mut || {
        ns_per_op(n, || {
            for f in &frames {
                black_box(abrr::wire::decode_frame(f).expect("encoded frame decodes"));
            }
        })
    });
    let bytes: usize = frames.iter().map(|f| f.bytes.len()).sum();
    out.push(("core.wire.bytes_per_frame", bytes as f64 / n.max(1) as f64));
    out
}
