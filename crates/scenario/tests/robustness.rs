//! The scenario loader faces files from outside: whatever bytes it is
//! given, `parse_str` → `validate` → `compile` (for gadget networks)
//! must return `Ok` or errors anchored at a JSON path — never panic,
//! never abort. Swept over arbitrary bytes and over single-edit
//! mutations of every corpus file: a flipped, deleted or inserted
//! byte; a number replaced by 0, 2³² or 2⁶⁴−1; a key dropped or
//! renamed. Any file that does parse must also round-trip through the
//! writer.

use proptest::prelude::*;
use proptest::TestRng;
use scenario::schema::Network;
use serde::Value;

/// Runs one input through the loader and checks its contract.
fn load(text: &str) {
    let file = match scenario::parse::parse_str(text) {
        Ok(file) => file,
        Err(e) => {
            assert!(
                e.path.starts_with('$'),
                "unanchored error {e:?} for {text:?}"
            );
            return;
        }
    };
    let json = file.to_json_pretty();
    assert_eq!(
        scenario::parse::parse_str(&json).as_ref(),
        Ok(&file),
        "a parsed file does not round-trip:\n{json}"
    );
    let errs = scenario::validate::validate(&file);
    for e in &errs {
        assert!(
            e.path.starts_with('$'),
            "unanchored error {e:?} for {text:?}"
        );
    }
    if errs.is_empty() && matches!(file.network, Network::Gadget(_)) {
        scenario::compile::compile(file);
    }
}

/// Bytes that JSON is made of, so random text gets past the first byte.
const JSONISH: &[u8] = b"{}[]:,\" \n-.0123456789eEtrufalsn/abcdefghijklmopqvwxyz_";

proptest! {
    #[test]
    fn arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        load(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_json_shaped_text(
        bytes in prop::collection::vec(prop::sample::select(JSONISH.to_vec()), 0..256)
    ) {
        load(&String::from_utf8_lossy(&bytes));
    }
}

fn corpus() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(scenario::corpus_dir())
        .expect("corpus dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read corpus file");
            (p.display().to_string(), text)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 8,
        "expected the full corpus, found {}",
        files.len()
    );
    files
}

/// Byte edits per corpus file and edit kind.
const BYTE_EDITS: usize = 200;

#[test]
fn byte_edits_of_every_corpus_file() {
    for (name, text) in corpus() {
        let mut rng = TestRng::seed(proptest::seed_of(&name));
        let bytes = text.as_bytes();
        for _ in 0..BYTE_EDITS {
            let at = rng.below(bytes.len() as u64) as usize;
            let byte = rng.below(256) as u8;
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << rng.below(8);
            let mut deleted = bytes.to_vec();
            deleted.remove(at);
            let mut inserted = bytes.to_vec();
            inserted.insert(at, byte);
            for edit in [flipped, deleted, inserted] {
                load(&String::from_utf8_lossy(&edit));
            }
        }
    }
}

/// One structural edit, applied at the `n`-th site of its kind in
/// document order.
#[derive(Clone, Copy)]
enum Edit {
    Number(u64),
    DropKey,
    RenameKey,
}

/// Applies `edit` at site `*n` of `v`; returns whether it was applied.
fn apply(v: &mut Value, edit: Edit, n: &mut usize) -> bool {
    match (v, edit) {
        (v @ Value::U64(_), Edit::Number(x)) => {
            if *n == 0 {
                *v = Value::U64(x);
                return true;
            }
            *n -= 1;
            false
        }
        (Value::Seq(items), _) => items.iter_mut().any(|item| apply(item, edit, n)),
        (Value::Map(entries), _) => {
            for i in 0..entries.len() {
                if !matches!(edit, Edit::Number(_)) {
                    if *n == 0 {
                        match edit {
                            Edit::DropKey => {
                                entries.remove(i);
                            }
                            _ => {
                                let Value::Str(key) = &mut entries[i].0 else {
                                    unreachable!("corpus keys are strings")
                                };
                                key.push('_');
                            }
                        }
                        return true;
                    }
                    *n -= 1;
                }
                if apply(&mut entries[i].1, edit, n) {
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

#[test]
fn structural_edits_of_every_corpus_file() {
    let edits = [
        Edit::Number(0),
        Edit::Number(1 << 32),
        Edit::Number(u64::MAX),
        Edit::DropKey,
        Edit::RenameKey,
    ];
    for (_, text) in corpus() {
        let doc: Value = serde::json::from_str(&text).expect("corpus file is JSON");
        for edit in edits {
            for site in 0.. {
                let mut edited = doc.clone();
                if !apply(&mut edited, edit, &mut { site }) {
                    break;
                }
                load(&serde::json::to_string(&edited));
            }
        }
    }
}

/// Inputs that once panicked or aborted somewhere on the load path.
#[test]
fn known_hazards() {
    let deep = "[".repeat(100_000);
    let hazards = [
        // Recursion depth in the JSON parser.
        deep.as_str(),
        // Negation overflow in the JSON parser.
        r#"{"name": -9223372036854775808}"#,
        // Sizes that exhaust memory while validating or compiling.
        r#"{"name": "x", "network": {"pop_grid": {"pops": 1, "routers_per_pop": 200000}},
            "checks": [{"mode": "abrr"}]}"#,
        r#"{"name": "x", "network": {"tier1": {"prefixes": 4000000000}}, "checks": [{"mode": "abrr"}]}"#,
        // An empty explicit AP list reaching `ApMap::new`.
        r#"{"name": "x", "network": {"links": [[1, 10, 1]], "routers": [10], "rrs": [1],
            "aps": {"explicit": []}},
            "workload": {"feeds": [{"router": 10, "prefix": "10.0.0.0/8", "peer_as": 1, "peer_addr": 9}],
                         "cutovers": [{"at": 5, "ap": 0}]},
            "checks": [{"mode": "transition"}]}"#,
    ];
    for text in hazards {
        load(text);
    }
}
