//! Per-node update counters, mirroring the quantities of paper §4.2.
//!
//! The observability layer owns all update accounting (`abrr`
//! re-exports the type at its crate root). The struct itself stays a
//! plain always-on value type — the paper's results are computed from
//! it, so it is never gated behind the metrics enable flag;
//! [`UpdateCounters::publish`] copies it into the registry at report
//! time.

use serde::{Deserialize, Serialize};

/// Update accounting for one node.
///
/// The paper distinguishes three costs (§4.2): *received* updates,
/// *generated* updates ("updates to the RIB-Out" — the expensive
/// operation, since a generation implies running the decision and
/// rewriting RIB-Out state), and *transmitted* updates (cheap copies of
/// an already-generated update, one per peer). `bytes_transmitted`
/// backs the §4.2 bandwidth comparison (ABRR updates are ~10× longer
/// but ~2.5× fewer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateCounters {
    /// iBGP updates received (client + RR roles combined).
    pub received: u64,
    /// Updates generated: changes written to a RIB-Out peer group.
    pub generated: u64,
    /// Updates transmitted to peers (post-MRAI, one per destination).
    pub transmitted: u64,
    /// Bytes put on the wire (when byte accounting is enabled).
    pub bytes_transmitted: u64,
    /// Updates discarded by loop prevention (ABRR reflected bit,
    /// RFC 4456 cluster list / originator id).
    pub loop_prevented: u64,
    /// eBGP announcements/withdrawals ingested from outside.
    pub ebgp_events: u64,
    /// Advertisements exported to eBGP neighbors (Table 1's
    /// "Client → eBGP Neighbor: all best routes, not returned to
    /// sender"). External peers are not simulated, so this counts the
    /// per-neighbor export events a real border router would emit.
    pub ebgp_exported: u64,
}

impl UpdateCounters {
    /// Adds another counter set into this one (for fleet aggregation).
    pub fn merge(&mut self, other: &UpdateCounters) {
        self.received += other.received;
        self.generated += other.generated;
        self.transmitted += other.transmitted;
        self.bytes_transmitted += other.bytes_transmitted;
        self.loop_prevented += other.loop_prevented;
        self.ebgp_events += other.ebgp_events;
        self.ebgp_exported += other.ebgp_exported;
    }

    /// Sets the per-node gauges `core.updates.*` / `core.ebgp.*` to
    /// this counter set's current totals (inert with metrics disabled,
    /// like every registry write).
    pub fn publish(&self, node: Option<u32>) {
        for (name, v) in [
            ("core.updates.received", self.received),
            ("core.updates.generated", self.generated),
            ("core.updates.transmitted", self.transmitted),
            ("core.updates.bytes_transmitted", self.bytes_transmitted),
            ("core.updates.loop_prevented", self.loop_prevented),
            ("core.ebgp.events", self.ebgp_events),
            ("core.ebgp.exported", self.ebgp_exported),
        ] {
            crate::metrics::gauge(name, node).set(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = UpdateCounters {
            received: 1,
            generated: 2,
            transmitted: 3,
            bytes_transmitted: 4,
            loop_prevented: 5,
            ebgp_events: 6,
            ebgp_exported: 7,
        };
        // Copy (counter windows), Eq (golden comparisons), Default
        // (baselines) and Debug are what downstream code relies on.
        let before = a;
        assert_eq!(before, a);
        assert_ne!(before, UpdateCounters::default());
        assert!(format!("{a:?}").contains("received: 1"));
        a.merge(&before);
        assert_eq!(a.received, 2);
        assert_eq!(a.generated, 4);
        assert_eq!(a.transmitted, 6);
        assert_eq!(a.bytes_transmitted, 8);
        assert_eq!(a.loop_prevented, 10);
        assert_eq!(a.ebgp_events, 12);
        assert_eq!(a.ebgp_exported, 14);
    }
}
