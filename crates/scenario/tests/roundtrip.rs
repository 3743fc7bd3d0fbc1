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
