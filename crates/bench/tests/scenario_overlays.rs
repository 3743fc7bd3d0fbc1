//! `repro scenario --overlays` end to end: a constrained-connectivity gadget
//! that does not load is an error, not a shorter table.

use std::process::Command;

#[test]
fn overlays_without_the_gadget_fail_and_write_nothing() {
    let tmp = std::env::temp_dir().join(format!("abrr-overlays-{}", std::process::id()));
    let empty = tmp.join("empty");
    std::fs::create_dir_all(&empty).expect("create temp dirs");
    let table = tmp.join("table_overlays.txt");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("scenario")
        .arg("--no-corpus")
        .arg("--overlays")
        .arg(&table)
        .arg("--dir")
        .arg(&empty)
        .output()
        .expect("run repro scenario");
    let written = table.exists();
    std::fs::remove_dir_all(&tmp).expect("remove temp dirs");

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0; stderr: {stderr}");
    assert!(
        !written,
        "wrote {} despite the load failure",
        table.display()
    );
    assert!(
        stderr.contains("constrained_connectivity.json"),
        "the load error names no file: {stderr}"
    );
}
