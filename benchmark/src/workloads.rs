//! The four workloads: which pipeline each runs and at what scale.

use abrr::NetworkSpec;
use netsim::{Time, WireMode};
use workload::specs::{self, SpecOptions};
use workload::{ChurnConfig, Tier1Config, Tier1Model};

/// The `--seed` default: the paper's trace start date, as everywhere
/// else in the repository.
pub const DEFAULT_SEED: u64 = 20101220;

/// Which reflection scheme the spec is built for.
#[derive(Clone, Copy, Debug)]
pub enum Scheme {
    /// `specs::abrr_spec` with this many APs, two ARRs each.
    Abrr {
        /// Address partitions.
        aps: usize,
    },
    /// `specs::tbrr_spec`, multi-path, two TRRs per cluster.
    TbrrMulti,
}

/// The churn trace replayed in the timed region of a churn workload.
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Trace length in simulated seconds.
    pub seconds: u64,
    /// Routing events per simulated second.
    pub rate: f64,
}

/// One workload. A workload without `churn` times the snapshot load
/// itself; one with `churn` converges the snapshot during set-up and
/// times the churn trace.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Reflection scheme.
    pub scheme: Scheme,
    /// Routed prefixes at full scale.
    pub prefixes: usize,
    /// MRAI in microseconds.
    pub mrai_us: Time,
    /// Session transport.
    pub wire: WireMode,
    /// Timed churn trace, if any.
    pub churn: Option<Churn>,
    /// Kill the first ARR at the midpoint of the churn trace.
    pub arr_failure: bool,
    /// Whether the traced run repeats the pass on the sharded and epoch
    /// engines. Only MRAI-paced churn gives them multi-event windows;
    /// elsewhere they fall back to one window per timestamp and a
    /// single pass costs a minute or more.
    pub compare_engines: bool,
}

/// The workloads, in `BENCHMARK.json` order. Scales are tuned so that
/// one pass (set-up, timed region and checks) costs 2.5–4 s on the
/// 2-vCPU container the bounds were measured on, which leaves room for
/// five to eight passes in a 20-second run. The churn traces hold 400
/// routing events each: with fewer, which prefixes happen to churn
/// decides `updates_per_record`, and it swings by a fifth from seed to
/// seed.
pub const WORKLOADS: [Workload; 4] = [
    // fig6: bulk insert into empty RIBs.
    Workload {
        name: "abrr_load",
        scheme: Scheme::Abrr { aps: 8 },
        prefixes: 1_500,
        mrai_us: 1_000_000,
        wire: WireMode::Off,
        churn: None,
        arr_failure: false,
        compare_engines: false,
    },
    // fig7: small updates against warm RIBs, MRAI-paced.
    Workload {
        name: "abrr_churn",
        scheme: Scheme::Abrr { aps: 8 },
        prefixes: 800,
        mrai_us: 1_000_000,
        wire: WireMode::Off,
        churn: Some(Churn {
            seconds: 200,
            rate: 2.0,
        }),
        arr_failure: false,
        compare_engines: true,
    },
    // fig6's TBRR-multi #C=13 row: the baseline's use of the same layers.
    Workload {
        name: "tbrr_load",
        scheme: Scheme::TbrrMulti,
        prefixes: 500,
        mrai_us: 1_000_000,
        wire: WireMode::Off,
        churn: None,
        arr_failure: false,
        compare_engines: false,
    },
    // resilience over bytes: codec, fault compile, purge and resync.
    Workload {
        name: "wire_failover",
        scheme: Scheme::Abrr { aps: 8 },
        prefixes: 250,
        mrai_us: 0,
        wire: WireMode::Bytes,
        churn: Some(Churn {
            seconds: 200,
            rate: 2.0,
        }),
        arr_failure: true,
        compare_engines: false,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The Tier-1 model configuration at `1/scale_div` of full scale
    /// (the topology keeps its size; prefixes shrink).
    pub fn tier1_config(&self, seed: u64, scale_div: u64) -> Tier1Config {
        Tier1Config {
            seed,
            n_prefixes: self.prefixes / scale_div as usize,
            ..Tier1Config::default()
        }
    }

    /// Builds the network spec the way the figure binaries do.
    pub fn spec(&self, model: &Tier1Model) -> NetworkSpec {
        let opts = SpecOptions {
            mrai_us: self.mrai_us,
            ..Default::default()
        };
        let mut spec = match self.scheme {
            Scheme::Abrr { aps } => specs::abrr_spec(model, aps, 2, &opts),
            Scheme::TbrrMulti => specs::tbrr_spec(model, 2, true, &opts),
        };
        spec.wire_mode = self.wire;
        spec
    }

    /// The churn configuration at `1/scale_div` of the full trace length.
    pub fn churn_config(&self, seed: u64, scale_div: u64) -> Option<ChurnConfig> {
        self.churn.map(|c| ChurnConfig {
            seed,
            duration_us: c.seconds * 1_000_000 / scale_div,
            events_per_sec: c.rate,
            ..ChurnConfig::default()
        })
    }
}
