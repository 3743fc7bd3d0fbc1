//! The prefix-keyed maps' hasher spreads a generated Tier-1 table over
//! its buckets. A SwissTable takes a key's first probe position from the
//! low bits of its hash; a hasher whose low bits follow the prefix's low
//! bits (Fx: the length and the host zeros) starts 100 000 /24s at 512
//! of 131 072 positions and turns every lookup into a long probe.

use bgp_types::PrefixMap;
use std::collections::BTreeSet;
use std::hash::BuildHasher;
use workload::tier1::{Tier1Config, Tier1Model};

#[test]
fn prefix_hasher_spreads_tier1_prefixes_over_the_buckets() {
    let model = Tier1Model::generate(Tier1Config {
        n_prefixes: 100_000,
        peering_points_per_as: 1,
        ..Tier1Config::default()
    });
    let prefixes = model.sorted_prefixes();
    let n = prefixes.len();
    assert!(n > 95_000, "{n} distinct prefixes");
    // The bucket count a map holding them grows to: a power of two at
    // most 7/8 full.
    let buckets = (n * 8 / 7 + 1).next_power_of_two();
    let hasher = PrefixMap::<()>::default().hasher().clone();
    let starts: BTreeSet<u64> = prefixes
        .iter()
        .map(|p| hasher.hash_one(p) & (buckets as u64 - 1))
        .collect();
    // Distinct positions n uniform draws are expected to hit.
    let m = buckets as f64;
    let ideal = m * (1.0 - (1.0 - 1.0 / m).powf(n as f64));
    assert!(
        starts.len() as f64 >= 0.9 * ideal,
        "{} distinct start positions of {buckets}, ideal {ideal:.0}",
        starts.len()
    );
}
