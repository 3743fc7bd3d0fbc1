//! JSON → [`ScenarioFile`] with precise error spans.
//!
//! The vendored `serde` stub reports *syntax* errors with byte offsets;
//! this module layers *structural* errors on top, each carrying the
//! JSON path of the offending value (`workload.feeds[2].router`).
//! Unknown keys are rejected — a typoed `"no_lops"` is an error, not a
//! silently ignored assertion.

use crate::schema::*;
use serde::Value;

/// A parse or validation error, anchored to a JSON path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError {
    /// JSON path of the offending value (`$` is the document root).
    pub path: String,
    /// What is wrong there.
    pub msg: String,
}

impl ScenarioError {
    /// An error at `path`.
    pub fn at(path: impl Into<String>, msg: impl Into<String>) -> ScenarioError {
        ScenarioError {
            path: path.into(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// Parses scenario JSON text into the model. Syntax errors carry the
/// byte offset; structural errors carry the JSON path.
pub fn parse_str(text: &str) -> Result<ScenarioFile, ScenarioError> {
    let v: Value = serde::json::from_str(text)
        .map_err(|e| ScenarioError::at("$", format!("invalid JSON: {e}")))?;
    parse_value(&v)
}

/// Parses an already-decoded [`Value`] into the model.
pub fn parse_value(v: &Value) -> Result<ScenarioFile, ScenarioError> {
    let top = Cur::new(v);
    top.keys(&[
        "name",
        "comment",
        "network",
        "workload",
        "faults",
        "checks",
        "budget",
        "expect_verdict",
    ])?;
    let name = top.req("name")?.str()?;
    let comment = top.get("comment").map(|c| c.str()).transpose()?;
    let network = parse_network(&top.req("network")?)?;
    let workload = match top.get("workload") {
        Some(w) => parse_workload(&w)?,
        None => Workload::default(),
    };
    let faults = match top.get("faults") {
        Some(f) => f.seq()?.iter().map(parse_fault).collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let checks = top
        .req("checks")?
        .seq()?
        .iter()
        .map(parse_check)
        .collect::<Result<_, _>>()?;
    let budget = match top.get("budget") {
        Some(b) => {
            b.keys(&["max_events", "max_time_us"])?;
            Budget {
                max_events: b
                    .get("max_events")
                    .map(|x| x.u64())
                    .transpose()?
                    .unwrap_or(DEFAULT_MAX_EVENTS),
                max_time_us: b
                    .get("max_time_us")
                    .map(|x| x.u64())
                    .transpose()?
                    .unwrap_or(u64::MAX),
            }
        }
        None => Budget::default(),
    };
    let expect_verdict = match top.get("expect_verdict") {
        None => Verdict::Pass,
        Some(x) => match x.str()?.as_str() {
            "pass" => Verdict::Pass,
            "fail" => Verdict::Fail,
            other => {
                return Err(x.err(format!(
                    "unknown verdict `{other}` (expected `pass` or `fail`)"
                )))
            }
        },
    };
    Ok(ScenarioFile {
        name,
        comment,
        network,
        workload,
        faults,
        checks,
        budget,
        expect_verdict,
    })
}

// ---------------------------------------------------------------------
// Cursor: a Value plus the JSON path that leads to it.
// ---------------------------------------------------------------------

struct Cur<'a> {
    v: &'a Value,
    path: String,
}

impl<'a> Cur<'a> {
    fn new(v: &'a Value) -> Cur<'a> {
        Cur {
            v,
            path: "$".to_string(),
        }
    }

    fn err(&self, msg: impl Into<String>) -> ScenarioError {
        ScenarioError::at(self.path.clone(), msg)
    }

    fn map(&self) -> Result<&'a [(Value, Value)], ScenarioError> {
        self.v
            .as_map()
            .ok_or_else(|| self.err("expected an object"))
    }

    /// Asserts this is an object whose keys all come from `allowed`.
    fn keys(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for (k, _) in self.map()? {
            match k.as_str() {
                Some(key) if allowed.contains(&key) => {}
                Some(key) => {
                    return Err(self.err(format!(
                        "unknown key `{key}` (expected one of: {})",
                        allowed.join(", ")
                    )))
                }
                None => return Err(self.err("object keys must be strings")),
            }
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<Cur<'a>> {
        let entries = self.v.as_map()?;
        entries
            .iter()
            .find(|(k, _)| k.as_str() == Some(key))
            .map(|(_, v)| Cur {
                v,
                path: format!("{}.{key}", self.path),
            })
    }

    fn req(&self, key: &str) -> Result<Cur<'a>, ScenarioError> {
        self.map()?;
        self.get(key)
            .ok_or_else(|| self.err(format!("missing required key `{key}`")))
    }

    fn seq(&self) -> Result<Vec<Cur<'a>>, ScenarioError> {
        let items = self
            .v
            .as_seq()
            .ok_or_else(|| self.err("expected an array"))?;
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, v)| Cur {
                v,
                path: format!("{}[{i}]", self.path),
            })
            .collect())
    }

    fn str(&self) -> Result<String, ScenarioError> {
        self.v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| self.err("expected a string"))
    }

    fn u64(&self) -> Result<u64, ScenarioError> {
        self.v
            .as_u64()
            .ok_or_else(|| self.err("expected a non-negative integer"))
    }

    fn u32(&self) -> Result<u32, ScenarioError> {
        let n = self.u64()?;
        u32::try_from(n).map_err(|_| self.err(format!("{n} does not fit in 32 bits")))
    }

    fn u16(&self) -> Result<u16, ScenarioError> {
        let n = self.u64()?;
        u16::try_from(n).map_err(|_| self.err(format!("{n} does not fit in 16 bits")))
    }

    fn usize(&self) -> Result<usize, ScenarioError> {
        Ok(self.u64()? as usize)
    }

    fn boolean(&self) -> Result<bool, ScenarioError> {
        self.v
            .as_bool()
            .ok_or_else(|| self.err("expected true or false"))
    }

    /// An IPv4 address: either a dotted quad string or a raw integer.
    fn addr(&self) -> Result<u32, ScenarioError> {
        if let Some(n) = self.v.as_u64() {
            return u32::try_from(n).map_err(|_| self.err(format!("{n} is not a 32-bit address")));
        }
        let text = self
            .v
            .as_str()
            .ok_or_else(|| self.err("expected a dotted-quad address or integer"))?;
        let octets: Vec<&str> = text.split('.').collect();
        if octets.len() != 4 {
            return Err(self.err(format!("`{text}` is not a dotted-quad address")));
        }
        let mut addr: u32 = 0;
        for o in octets {
            let b: u32 = o
                .parse::<u8>()
                .map_err(|_| self.err(format!("`{text}` is not a dotted-quad address")))?
                as u32;
            addr = (addr << 8) | b;
        }
        Ok(addr)
    }
}

// ---------------------------------------------------------------------
// Section parsers.
// ---------------------------------------------------------------------

fn parse_network(n: &Cur) -> Result<Network, ScenarioError> {
    n.keys(&[
        "links", "pop_grid", "tier1", "routers", "rrs", "clusters", "aps", "arrs", "spec",
    ])?;
    if let Some(t) = n.get("tier1") {
        for key in [
            "links", "pop_grid", "routers", "rrs", "clusters", "aps", "arrs", "spec",
        ] {
            if n.get(key).is_some() {
                return Err(n.err(format!("`tier1` networks do not take `{key}`")));
            }
        }
        t.keys(&[
            "prefixes",
            "pops",
            "routers_per_pop",
            "seed",
            "aps",
            "arrs_per_ap",
            "trrs_per_cluster",
            "mrai_us",
        ])?;
        let opt = |key: &str, dflt: usize| -> Result<usize, ScenarioError> {
            t.get(key)
                .map(|x| x.usize())
                .transpose()
                .map(|v| v.unwrap_or(dflt))
        };
        return Ok(Network::Tier1(Tier1Network {
            prefixes: t.req("prefixes")?.usize()?,
            pops: opt("pops", 13)?,
            routers_per_pop: opt("routers_per_pop", 8)?,
            seed: t
                .get("seed")
                .map(|x| x.u64())
                .transpose()?
                .unwrap_or(20101220),
            aps: opt("aps", 13)?,
            arrs_per_ap: opt("arrs_per_ap", 2)?,
            trrs_per_cluster: opt("trrs_per_cluster", 2)?,
            mrai_us: t
                .get("mrai_us")
                .map(|x| x.u64())
                .transpose()?
                .unwrap_or(1_000_000),
        }));
    }

    let topology = match (n.get("links"), n.get("pop_grid")) {
        (Some(links), None) => TopologySource::Links(
            links
                .seq()?
                .iter()
                .map(|l| {
                    let parts = l.seq()?;
                    if parts.len() != 3 {
                        return Err(l.err("expected a [a, b, metric] triple"));
                    }
                    Ok(Link {
                        a: parts[0].u32()?,
                        b: parts[1].u32()?,
                        metric: parts[2].u32()?,
                    })
                })
                .collect::<Result<_, _>>()?,
        ),
        (None, Some(pg)) => {
            pg.keys(&["pops", "routers_per_pop"])?;
            TopologySource::PopGrid {
                pops: pg.req("pops")?.usize()?,
                routers_per_pop: pg.req("routers_per_pop")?.usize()?,
            }
        }
        (Some(_), Some(_)) => return Err(n.err("give `links` or `pop_grid`, not both")),
        (None, None) => {
            return Err(n.err("network needs a topology: `links`, `pop_grid`, or `tier1`"))
        }
    };
    let ids = |key: &str| -> Result<Vec<u32>, ScenarioError> {
        match n.get(key) {
            None => Ok(Vec::new()),
            Some(list) => list.seq()?.iter().map(|x| x.u32()).collect(),
        }
    };
    let clusters = match n.get("clusters") {
        None => Vec::new(),
        Some(list) => list
            .seq()?
            .iter()
            .map(|c| {
                c.keys(&["id", "trrs", "clients"])?;
                Ok(Cluster {
                    id: c.req("id")?.u32()?,
                    trrs: c
                        .req("trrs")?
                        .seq()?
                        .iter()
                        .map(|x| x.u32())
                        .collect::<Result<_, _>>()?,
                    clients: c
                        .req("clients")?
                        .seq()?
                        .iter()
                        .map(|x| x.u32())
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let aps = match n.get("aps") {
        None => None,
        Some(a) => {
            a.keys(&["uniform", "explicit"])?;
            match (a.get("uniform"), a.get("explicit")) {
                (Some(u), None) => Some(ApScheme::Uniform(u.u16()?)),
                (None, Some(list)) => Some(ApScheme::Explicit(
                    list.seq()?
                        .iter()
                        .map(|r| {
                            r.keys(&["id", "first", "last"])?;
                            Ok(ApRange {
                                id: r.req("id")?.u16()?,
                                first: r.req("first")?.addr()?,
                                last: r.req("last")?.addr()?,
                            })
                        })
                        .collect::<Result<_, _>>()?,
                )),
                _ => return Err(a.err("aps takes exactly one of `uniform` or `explicit`")),
            }
        }
    };
    let arrs = match n.get("arrs") {
        None => Vec::new(),
        Some(list) => list
            .seq()?
            .iter()
            .map(|e| {
                e.keys(&["ap", "arrs"])?;
                Ok(ApArrs {
                    ap: e.req("ap")?.u16()?,
                    arrs: e
                        .req("arrs")?
                        .seq()?
                        .iter()
                        .map(|x| x.u32())
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let knobs = match n.get("spec") {
        None => SpecKnobs::default(),
        Some(k) => parse_knobs(&k)?,
    };
    Ok(Network::Gadget(GadgetNetwork {
        topology,
        routers: ids("routers")?,
        rrs: ids("rrs")?,
        clusters,
        aps,
        arrs,
        knobs,
    }))
}

fn parse_knobs(k: &Cur) -> Result<SpecKnobs, ScenarioError> {
    k.keys(&[
        "mrai_us",
        "clients_keep_backups",
        "loop_prevention",
        "latency",
        "rrs_are_clients",
    ])?;
    let d = SpecKnobs::default();
    Ok(SpecKnobs {
        mrai_us: k
            .get("mrai_us")
            .map(|x| x.u64())
            .transpose()?
            .unwrap_or(d.mrai_us),
        clients_keep_backups: k
            .get("clients_keep_backups")
            .map(|x| x.boolean())
            .transpose()?
            .unwrap_or(d.clients_keep_backups),
        loop_prevention: match k.get("loop_prevention") {
            None => d.loop_prevention,
            Some(x) => match x.str()?.as_str() {
                "reflected_bit" => LoopPrevention::ReflectedBit,
                "cluster_list" => LoopPrevention::ClusterList,
                "none" => LoopPrevention::None,
                other => {
                    return Err(x.err(format!(
                        "unknown loop prevention `{other}` (expected reflected_bit, cluster_list, or none)"
                    )))
                }
            },
        },
        latency: match k.get("latency") {
            None => d.latency,
            Some(l) => {
                l.keys(&["fixed_us", "base_us", "per_metric_us"])?;
                match (l.get("fixed_us"), l.get("base_us"), l.get("per_metric_us")) {
                    (Some(f), None, None) => Latency::Fixed(f.u64()?),
                    (None, Some(b), Some(p)) => Latency::Igp {
                        base_us: b.u64()?,
                        per_metric_us: p.u64()?,
                    },
                    _ => {
                        return Err(l.err(
                            "latency takes `fixed_us` alone, or `base_us` with `per_metric_us`",
                        ))
                    }
                }
            }
        },
        rrs_are_clients: k
            .get("rrs_are_clients")
            .map(|x| x.boolean())
            .transpose()?
            .unwrap_or(d.rrs_are_clients),
    })
}

fn parse_workload(w: &Cur) -> Result<Workload, ScenarioError> {
    w.keys(&["feeds", "withdraws", "cutovers"])?;
    let feeds = match w.get("feeds") {
        None => Vec::new(),
        Some(list) => list
            .seq()?
            .iter()
            .map(|f| {
                f.keys(&[
                    "at",
                    "router",
                    "prefix",
                    "peer_as",
                    "peer_addr",
                    "med",
                    "local_pref",
                ])?;
                Ok(Feed {
                    at: f.get("at").map(|x| x.u64()).transpose()?.unwrap_or(0),
                    router: f.req("router")?.u32()?,
                    prefix: f.req("prefix")?.str()?,
                    peer_as: f.req("peer_as")?.u32()?,
                    peer_addr: f.req("peer_addr")?.addr()?,
                    med: f.get("med").map(|x| x.u32()).transpose()?.unwrap_or(0),
                    local_pref: f.get("local_pref").map(|x| x.u32()).transpose()?,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let withdraws = match w.get("withdraws") {
        None => Vec::new(),
        Some(list) => list
            .seq()?
            .iter()
            .map(|x| {
                x.keys(&["at", "router", "prefix", "peer_addr"])?;
                Ok(Withdraw {
                    at: x.req("at")?.u64()?,
                    router: x.req("router")?.u32()?,
                    prefix: x.req("prefix")?.str()?,
                    peer_addr: x.req("peer_addr")?.addr()?,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    let cutovers = match w.get("cutovers") {
        None => Vec::new(),
        Some(list) => list
            .seq()?
            .iter()
            .map(|c| {
                c.keys(&["at", "ap"])?;
                Ok(Cutover {
                    at: c.req("at")?.u64()?,
                    ap: c.req("ap")?.u16()?,
                })
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(Workload {
        feeds,
        withdraws,
        cutovers,
    })
}

const FAULT_KINDS: [&str; 7] = [
    "session_flap",
    "link_down",
    "link_up",
    "router_crash",
    "router_down",
    "arr_failure",
    "ap_reassign",
];

fn parse_fault(f: &Cur) -> Result<TimedFault, ScenarioError> {
    use bgp_types::{ApId, RouterId};
    f.keys(&[
        "at",
        "session_flap",
        "link_down",
        "link_up",
        "router_crash",
        "router_down",
        "arr_failure",
        "ap_reassign",
    ])?;
    let at = f.req("at")?.u64()?;
    let kinds: Vec<&str> = FAULT_KINDS
        .iter()
        .copied()
        .filter(|k| f.get(k).is_some())
        .collect();
    let [kind] = kinds.as_slice() else {
        return Err(f.err(format!(
            "a fault takes `at` plus exactly one kind ({})",
            FAULT_KINDS.join(", ")
        )));
    };
    let body = f.get(kind).expect("kind present");
    let rid =
        |key: &str| -> Result<RouterId, ScenarioError> { Ok(RouterId(body.req(key)?.u32()?)) };
    let kind = match *kind {
        "session_flap" => {
            body.keys(&["a", "b", "down_for"])?;
            faults::FaultKind::SessionFlap {
                a: rid("a")?,
                b: rid("b")?,
                down_for: body.req("down_for")?.u64()?,
            }
        }
        "link_down" => {
            body.keys(&["a", "b"])?;
            faults::FaultKind::LinkDown {
                a: rid("a")?,
                b: rid("b")?,
            }
        }
        "link_up" => {
            body.keys(&["a", "b"])?;
            faults::FaultKind::LinkUp {
                a: rid("a")?,
                b: rid("b")?,
            }
        }
        "router_crash" => {
            body.keys(&["node", "down_for"])?;
            faults::FaultKind::RouterCrash {
                node: rid("node")?,
                down_for: body.req("down_for")?.u64()?,
            }
        }
        "router_down" => {
            body.keys(&["node"])?;
            faults::FaultKind::RouterDown { node: rid("node")? }
        }
        "arr_failure" => {
            body.keys(&["arr"])?;
            faults::FaultKind::ArrFailure { arr: rid("arr")? }
        }
        "ap_reassign" => {
            body.keys(&["ap", "arrs"])?;
            faults::FaultKind::ApReassign {
                ap: ApId(body.req("ap")?.u16()?),
                arrs: body
                    .req("arrs")?
                    .seq()?
                    .iter()
                    .map(|x| Ok(RouterId(x.u32()?)))
                    .collect::<Result<_, ScenarioError>>()?,
            }
        }
        _ => unreachable!(),
    };
    Ok(TimedFault { at, kind })
}

fn parse_check(c: &Cur) -> Result<Check, ScenarioError> {
    c.keys(&[
        "mode",
        "quiesces",
        "no_loops",
        "no_blackholes",
        "matches_full_mesh",
        "wire",
        "exits",
    ])?;
    let mode_cur = c.req("mode")?;
    let mode = match mode_cur.str()?.as_str() {
        "full_mesh" => ModeSpec::FullMesh,
        "abrr" => ModeSpec::Abrr,
        "tbrr" => ModeSpec::Tbrr,
        "tbrr_multipath" => ModeSpec::TbrrMultipath,
        "transition" => ModeSpec::Transition,
        other => {
            return Err(mode_cur.err(format!(
                "unknown mode `{other}` (expected full_mesh, abrr, tbrr, tbrr_multipath, or transition)"
            )))
        }
    };
    let flag = |key: &str| -> Result<bool, ScenarioError> {
        c.get(key)
            .map(|x| x.boolean())
            .transpose()
            .map(|v| v.unwrap_or(false))
    };
    let exits = match c.get("exits") {
        None => Vec::new(),
        Some(list) => list
            .seq()?
            .iter()
            .map(|x| {
                x.keys(&["router", "prefix", "exit"])?;
                let exit_cur = x.req("exit")?;
                Ok(ExitExpect {
                    router: x.req("router")?.u32()?,
                    prefix: x.req("prefix")?.str()?,
                    exit: if exit_cur.v == &Value::Null {
                        None
                    } else {
                        Some(exit_cur.u32()?)
                    },
                })
            })
            .collect::<Result<_, _>>()?,
    };
    Ok(Check {
        mode,
        quiesces: c.get("quiesces").map(|x| x.boolean()).transpose()?,
        no_loops: flag("no_loops")?,
        no_blackholes: flag("no_blackholes")?,
        matches_full_mesh: flag("matches_full_mesh")?,
        wire: flag("wire")?,
        exits,
    })
}
