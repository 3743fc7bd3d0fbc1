//! Validator and parser error coverage (ISSUE 6, satellite 3): every
//! malformed input class must produce a targeted `ScenarioError` with
//! a JSON-path span — never a panic, never a silent pass.

use scenario::{load_str, ScenarioError};

/// Loads and returns the error list (empty when the scenario loads).
fn errors_of(src: &str) -> Vec<ScenarioError> {
    match load_str(src) {
        Ok(_) => Vec::new(),
        Err(errs) => errs,
    }
}

fn assert_error(src: &str, path_frag: &str, msg_frag: &str) {
    let errs = errors_of(src);
    assert!(
        errs.iter()
            .any(|e| e.path.contains(path_frag) && e.msg.contains(msg_frag)),
        "expected an error at `{path_frag}` mentioning `{msg_frag}`, got: {errs:?}"
    );
}

/// A minimal well-formed gadget all malformed variants start from.
fn base() -> &'static str {
    r#"{
      "name": "base",
      "network": {
        "links": [[1, 10, 1], [1, 11, 2]],
        "routers": [10, 11],
        "rrs": [1]
      },
      "workload": {
        "feeds": [{"router": 10, "prefix": "10.0.0.0/8", "peer_as": 100, "peer_addr": 9001, "med": 0}]
      },
      "checks": [{"mode": "abrr", "quiesces": true}]
    }"#
}

#[test]
fn well_formed_base_loads() {
    assert!(load_str(base()).is_ok(), "base fixture must load clean");
}

#[test]
fn json_syntax_error_reports_offset() {
    let errs = errors_of("{\"name\": \"x\", }");
    assert!(!errs.is_empty());
    assert!(
        errs[0].msg.contains("offset"),
        "syntax errors carry a byte offset: {errs:?}"
    );
}

#[test]
fn unknown_key_is_rejected_with_span() {
    let src = base().replace(
        "\"name\": \"base\"",
        "\"name\": \"base\", \"nmae\": \"oops\"",
    );
    assert_error(&src, "$", "unknown key `nmae`");
}

/// `engines_agree` was retired with the engine choice: a file that
/// still declares it gets the typed unknown-key error at its check.
#[test]
fn retired_engines_agree_key_is_rejected_at_its_check() {
    let src = base().replace(
        r#""checks": [{"mode": "abrr", "quiesces": true}]"#,
        r#""checks": [{"mode": "abrr", "quiesces": true}, {"mode": "abrr", "engines_agree": true}]"#,
    );
    assert_error(&src, "$.checks[1]", "unknown key `engines_agree`");
}

#[test]
fn dangling_link_endpoint() {
    // Router 99 appears in a link but is neither a router nor an RR.
    let src = base().replace("[1, 11, 2]", "[1, 11, 2], [99, 10, 3]");
    assert_error(
        &src,
        "$.network.links[2]",
        "neither a data-plane router nor an RR",
    );
}

#[test]
fn zero_metric_link() {
    let src = base().replace("[1, 11, 2]", "[1, 11, 0]");
    assert_error(&src, "$.network.links[1]", "IGP metric must be >= 1");
}

#[test]
fn overlapping_ap_assignment() {
    let src = base().replace(
        "\"rrs\": [1]",
        r#""rrs": [1],
        "aps": {"explicit": [
          {"id": 0, "first": "0.0.0.0", "last": "127.255.255.255"},
          {"id": 1, "first": "100.0.0.0", "last": "255.255.255.255"}
        ]}"#,
    );
    assert_error(&src, "$.network.aps", "overlapping AP assignment");
}

#[test]
fn ap_id_aliasing_another_peer_group() {
    // Group ids are `base + ap` with 1000 ids per family, so AP 1000's
    // client→ARR group would be AP 0's ARR→client group.
    let src = base().replace(
        "\"rrs\": [1]",
        r#""rrs": [1],
        "aps": {"explicit": [
          {"id": 0, "first": "0.0.0.0", "last": "127.255.255.255"},
          {"id": 1000, "first": "128.0.0.0", "last": "255.255.255.255"}
        ]},
        "arrs": [{"ap": 0, "arrs": [1]}, {"ap": 1000, "arrs": [1]}]"#,
    );
    assert_error(
        &src,
        "$.network.aps.explicit[1].id",
        "outside the peer-group id space",
    );
}

#[test]
fn spanning_prefix_accept_set_violation() {
    // Under uniform-3 APs, 0.0.0.0/1 crosses the AP0/AP1 boundary;
    // cutting over only AP 0 while a Transition check is active
    // violates the paper's 2.4 accept rule.
    let src = base()
        .replace("\"rrs\": [1]", "\"rrs\": [1], \"aps\": {\"uniform\": 3}")
        .replace("\"prefix\": \"10.0.0.0/8\"", "\"prefix\": \"0.0.0.0/1\"")
        .replace(
            "\"feeds\": [",
            "\"cutovers\": [{\"at\": 5000, \"ap\": 0}], \"feeds\": [",
        )
        .replace("\"mode\": \"abrr\"", "\"mode\": \"transition\"");
    assert_error(&src, "$.workload.feeds[0]", "accept-set violation");
}

#[test]
fn fault_referencing_unknown_node() {
    let src = base().replace(
        "\"checks\"",
        "\"faults\": [{\"at\": 1000, \"router_down\": {\"node\": 77}}], \"checks\"",
    );
    assert_error(&src, "$.faults[0]", "unknown node 77");
}

#[test]
fn arr_failure_on_non_rr() {
    let src = base().replace(
        "\"checks\"",
        "\"faults\": [{\"at\": 1000, \"arr_failure\": {\"arr\": 10}}], \"checks\"",
    );
    assert_error(&src, "$.faults[0]", "not an RR");
}

#[test]
fn feed_from_unknown_router() {
    let src = base().replace("\"router\": 10", "\"router\": 42");
    assert_error(&src, "$.workload.feeds[0]", "not a data-plane router");
}

#[test]
fn withdraw_of_never_announced_route() {
    // Router 11 withdraws a route only router 10 ever announced.
    let src = base().replace(
        "\"med\": 0}]",
        r#""med": 0}],
        "withdraws": [{"at": 9000, "router": 11, "prefix": "10.0.0.0/8", "peer_addr": 9001}]"#,
    );
    assert_error(
        &src,
        "$.workload.withdraws[0]",
        "no earlier feed announced it",
    );
}

#[test]
fn duplicate_cluster_ids() {
    let src = base().replace(
        "\"rrs\": [1]",
        r#""rrs": [1],
        "clusters": [
          {"id": 1, "trrs": [1], "clients": [10]},
          {"id": 1, "trrs": [1], "clients": [11]}
        ]"#,
    );
    assert_error(&src, "$.network.clusters", "duplicate cluster id");
}

#[test]
fn unknown_arr_assignment() {
    let src = base().replace(
        "\"rrs\": [1]",
        r#""rrs": [1], "aps": {"uniform": 2}, "arrs": [{"ap": 0, "arrs": [1]}, {"ap": 5, "arrs": [1]}]"#,
    );
    assert_error(&src, "$.network.arrs", "unknown AP");
}

#[test]
fn empty_checks_rejected() {
    let src = base().replace(
        "\"checks\": [{\"mode\": \"abrr\", \"quiesces\": true}]",
        "\"checks\": []",
    );
    assert_error(&src, "$.checks", "at least one check");
}

#[test]
fn tier1_rejects_faults() {
    let src = r#"{
      "name": "t",
      "network": {"tier1": {"prefixes": 10}},
      "faults": [{"at": 1, "router_down": {"node": 1}}],
      "checks": [{"mode": "abrr"}]
    }"#;
    assert_error(src, "$.faults", "tier1");
}

#[test]
fn exit_expectation_unknown_router() {
    let src = base().replace(
        "\"quiesces\": true",
        "\"quiesces\": true, \"exits\": [{\"router\": 55, \"prefix\": \"10.0.0.0/8\", \"exit\": 10}]",
    );
    assert_error(&src, "$.checks[0].exits[0]", "unknown router 55");
}

/// Size caps: a ~110-byte file must not make the loader build a
/// network too large for memory. Each is rejected by the validator,
/// before any topology or model exists.
#[test]
fn oversized_pop_grid_is_rejected_before_it_is_built() {
    let src = r#"{"name": "big", "network": {"pop_grid": {"pops": 1, "routers_per_pop": 200000}},
      "checks": [{"mode": "abrr"}]}"#;
    assert_error(src, "$.network.pop_grid", "at most 4096 routers");
    // pops × routers_per_pop overflows u64.
    let src = src.replace("\"pops\": 1", "\"pops\": 18446744073709551615");
    assert_error(&src, "$.network.pop_grid", "at most 4096 routers");
}

#[test]
fn oversized_tier1_is_rejected_before_it_is_generated() {
    let src = r#"{"name": "big", "network": {"tier1": {"prefixes": 4000000000}},
      "checks": [{"mode": "abrr"}]}"#;
    assert_error(src, "$.network.tier1", "at most 1048576 prefixes");
    let src = r#"{"name": "big", "network": {"tier1": {"prefixes": 10, "pops": 4097, "routers_per_pop": 1}},
      "checks": [{"mode": "abrr"}]}"#;
    assert_error(src, "$.network.tier1", "4096 routers");
}

#[test]
fn empty_explicit_ap_list_is_rejected() {
    let src = base().replace("\"rrs\": [1]", r#""rrs": [1], "aps": {"explicit": []}"#);
    assert_error(&src, "$.network.aps.explicit", "need at least one AP");
}

#[test]
fn bad_prefix_is_rejected_at_its_path() {
    let src = base().replace("10.0.0.0/8", "10.0.0.0/33");
    assert_error(
        &src,
        "$.workload.feeds[0].prefix",
        "bad prefix `10.0.0.0/33`",
    );
}
