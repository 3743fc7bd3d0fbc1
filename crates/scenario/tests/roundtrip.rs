//! Serialization round-trips: a scenario written by `to_json_pretty`
//! must parse back to the identical schema value. This is what makes
//! shrunk fuzzer output directly committable as corpus files.

use scenario::load_str;

#[test]
fn generated_scenarios_roundtrip() {
    for seed in 0..64u64 {
        let file = scenario::gen::generate(seed);
        let json = file.to_json_pretty();
        let reparsed = scenario::parse::parse_str(&json)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e:?}\n{json}"));
        assert_eq!(
            file, reparsed,
            "seed {seed}: round-trip changed the scenario"
        );
    }
}

#[test]
fn generated_scenarios_validate() {
    for seed in 0..256u64 {
        let file = scenario::gen::generate(seed);
        let errs = scenario::validate::validate(&file);
        assert!(
            errs.is_empty(),
            "seed {seed}: generator produced an invalid scenario: {errs:?}"
        );
    }
}

#[test]
fn corpus_files_roundtrip() {
    let dir = scenario::corpus_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read corpus file");
        let loaded =
            load_str(&src).unwrap_or_else(|e| panic!("{} does not load: {e:?}", path.display()));
        let json = loaded.file().to_json_pretty();
        let reparsed = scenario::parse::parse_str(&json)
            .unwrap_or_else(|e| panic!("{}: reserialize+reparse failed: {e:?}", path.display()));
        assert_eq!(
            *loaded.file(),
            reparsed,
            "{}: round-trip changed the scenario",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 8,
        "expected the full corpus, found {checked} files"
    );
}

/// Three fixtures that between them use every record, every variant
/// and every key of the format with a non-default value, so the writer
/// has to emit each one. `gen::generate` only covers `links`
/// topologies, uniform APs and three fault kinds.
const EVERY_KEY: [&str; 3] = [
    r#"{
      "name": "every-key-gadget",
      "comment": "links topology, explicit APs, IGP latency, every fault kind",
      "network": {
        "links": [[1, 2, 3], [1, 10, 1], [2, 11, 4]],
        "routers": [10, 11],
        "rrs": [1, 2],
        "clusters": [{"id": 7, "trrs": [1], "clients": [10, 11]}],
        "aps": {"explicit": [
          {"id": 0, "first": "0.0.0.0", "last": "127.255.255.255"},
          {"id": 1, "first": 2147483648, "last": "255.255.255.255"}
        ]},
        "arrs": [{"ap": 0, "arrs": [1]}, {"ap": 1, "arrs": [2]}],
        "spec": {
          "mrai_us": 5000,
          "clients_keep_backups": true,
          "loop_prevention": "cluster_list",
          "latency": {"base_us": 100, "per_metric_us": 25},
          "rrs_are_clients": false
        }
      },
      "workload": {
        "feeds": [
          {"at": 0, "router": 10, "prefix": "10.0.0.0/8", "peer_as": 100, "peer_addr": 9001, "med": 3, "local_pref": 120},
          {"at": 500, "router": 11, "prefix": "192.168.0.0/16", "peer_as": 200, "peer_addr": "0.0.35.42", "med": 0}
        ],
        "withdraws": [{"at": 9000, "router": 10, "prefix": "10.0.0.0/8", "peer_addr": 9001}],
        "cutovers": [{"at": 4000, "ap": 0}, {"at": 4000, "ap": 1}]
      },
      "faults": [
        {"at": 1000, "session_flap": {"a": 1, "b": 10, "down_for": 300}},
        {"at": 2000, "link_down": {"a": 1, "b": 2}},
        {"at": 3000, "link_up": {"a": 1, "b": 2}},
        {"at": 4000, "router_crash": {"node": 11, "down_for": 700}},
        {"at": 5000, "router_down": {"node": 10}},
        {"at": 6000, "arr_failure": {"arr": 2}},
        {"at": 7000, "ap_reassign": {"ap": 1, "arrs": [1]}}
      ],
      "checks": [
        {"mode": "full_mesh", "quiesces": false},
        {"mode": "abrr", "quiesces": true, "no_loops": true, "no_blackholes": true,
         "matches_full_mesh": true, "wire": true,
         "exits": [{"router": 10, "prefix": "10.0.0.0/8", "exit": 10},
                   {"router": 11, "prefix": "10.0.0.0/8", "exit": null}]},
        {"mode": "tbrr"},
        {"mode": "tbrr_multipath"},
        {"mode": "transition"}
      ],
      "budget": {"max_events": 1234, "max_time_us": 99000},
      "expect_verdict": "fail"
    }"#,
    r#"{
      "name": "every-key-grid",
      "network": {
        "pop_grid": {"pops": 2, "routers_per_pop": 3},
        "rrs": [0],
        "aps": {"uniform": 4},
        "spec": {"loop_prevention": "none", "latency": {"fixed_us": 250}}
      },
      "checks": [{"mode": "abrr"}]
    }"#,
    r#"{
      "name": "every-key-tier1",
      "network": {"tier1": {
        "prefixes": 500, "pops": 3, "routers_per_pop": 4, "seed": 7,
        "aps": 5, "arrs_per_ap": 3, "trrs_per_cluster": 1, "mrai_us": 250000
      }},
      "checks": [{"mode": "tbrr_multipath", "quiesces": true}]
    }"#,
];

/// Every key the format declares, and the keyword values that are
/// written only when they differ from the default.
const KEYS: &str = "\
    name comment network workload faults checks budget expect_verdict links pop_grid tier1 \
    routers rrs clusters aps arrs spec pops routers_per_pop prefixes seed arrs_per_ap \
    trrs_per_cluster mrai_us id trrs clients uniform explicit first last ap \
    clients_keep_backups loop_prevention latency rrs_are_clients fixed_us base_us per_metric_us \
    feeds withdraws cutovers at router prefix peer_as peer_addr med local_pref session_flap \
    link_down link_up router_crash router_down arr_failure ap_reassign a b down_for node arr \
    mode quiesces no_loops no_blackholes matches_full_mesh wire exits exit max_events \
    max_time_us";
const VALUES: &[&str] = &[
    "\"full_mesh\"",
    "\"abrr\"",
    "\"tbrr\"",
    "\"tbrr_multipath\"",
    "\"transition\"",
    "\"cluster_list\"",
    "\"none\"",
    "\"fail\"",
    "null",
];

#[test]
fn every_key_roundtrips_and_is_written() {
    let mut written = String::new();
    for src in EVERY_KEY {
        let file = scenario::parse::parse_str(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let json = file.to_json_pretty();
        let reparsed = scenario::parse::parse_str(&json)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{json}"));
        assert_eq!(file, reparsed, "read∘write changed the scenario:\n{json}");
        assert_eq!(
            json,
            reparsed.to_json_pretty(),
            "write∘read∘write is not a fixpoint"
        );
        written.push_str(&json);
    }
    for key in KEYS.split_whitespace() {
        assert!(
            written.contains(&format!("\"{key}\": ")),
            "key `{key}` is never written:\n{written}"
        );
    }
    for value in VALUES {
        assert!(
            written.contains(&format!(": {value}")),
            "value {value} is never written:\n{written}"
        );
    }
}
