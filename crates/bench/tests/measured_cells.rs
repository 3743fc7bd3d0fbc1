//! The number rule of EXPERIMENTS.md: every number in a *Measured*
//! cell of the paper-vs-measured tables, from "Figure 3" through
//! "§2.2 — resilience", is quoted verbatim from an artefact its section
//! names (`results/NAME.txt`) or from `results/scorecard.txt`. *Paper*
//! cells, and the performance sections after them, are exempt.

use std::collections::BTreeSet;
use std::path::Path;

/// The numbers of `text`: runs of digits with internal decimal points,
/// except those that are part of a name or a reference — a run right
/// after a letter, a digit, `_` or `§` (`fig6`, `R1`, `§2.3.3`).
fn numbers(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !b[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len()
            && (b[i].is_ascii_digit()
                || (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit)))
        {
            i += 1;
        }
        let before = text[..start].chars().next_back();
        if !before.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '§') {
            out.push(&text[start..i]);
        }
    }
    out
}

#[test]
fn numbers_skip_names_and_section_references() {
    assert_eq!(
        numbers("fig6 R1 §2.3.3 #APs=4 643–3626 1.23× R^2 = 0.8831 0 to 24."),
        ["4", "643", "3626", "1.23", "2", "0.8831", "0", "24"]
    );
}

fn cells(line: &str) -> Vec<&str> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(str::trim).collect()
}

#[test]
fn measured_cells_quote_their_artefacts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let doc = read("EXPERIMENTS.md");
    let scorecard = read("results/scorecard.txt");

    // The sections from "Figure 3" through "§2.2 — resilience".
    let mut sections: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in doc.lines() {
        if line.starts_with("## ") {
            sections.push((line, Vec::new()));
        } else if let Some((_, body)) = sections.last_mut() {
            body.push(line);
        }
    }
    let first = sections
        .iter()
        .position(|(h, _)| h.starts_with("## Figure 3"))
        .expect("a `## Figure 3` section");
    let last = sections
        .iter()
        .position(|(h, _)| h.starts_with("## §2.2 — resilience"))
        .expect("a `## §2.2 — resilience` section");
    assert!(first < last);

    let mut checked = 0;
    let mut unquoted = Vec::new();
    for (heading, body) in &sections[first..=last] {
        let text = body.join("\n");
        let mut known: BTreeSet<&str> = numbers(&scorecard).into_iter().collect();
        let mut artefacts = Vec::new();
        for (at, _) in text.match_indices("results/") {
            let name: String = text[at + "results/".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
                .collect();
            let name = name.trim_end_matches('.');
            if name.ends_with(".txt") && !artefacts.contains(&name.to_string()) {
                artefacts.push(name.to_string());
            }
        }
        let contents: Vec<String> = artefacts
            .iter()
            .map(|a| read(&format!("results/{a}")))
            .collect();
        for c in &contents {
            known.extend(numbers(c));
        }

        let mut measured: Option<usize> = None;
        for line in body.iter().filter(|l| l.starts_with('|')) {
            let row = cells(line);
            if row
                .iter()
                .all(|c| c.chars().all(|ch| ch == '-' || ch == ':'))
            {
                continue;
            }
            if let Some(col) = row.iter().position(|c| *c == "Measured") {
                measured = Some(col);
                continue;
            }
            let Some(col) = measured else { continue };
            let cell = row.get(col).copied().unwrap_or_default();
            for num in numbers(cell) {
                checked += 1;
                if !known.contains(num) {
                    unquoted.push(format!("{heading}: `{num}` in `{cell}`"));
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} numbers checked");
    assert!(
        unquoted.is_empty(),
        "Measured cells quote numbers that neither an artefact their section \
         names nor results/scorecard.txt prints:\n{}",
        unquoted.join("\n")
    );
}
