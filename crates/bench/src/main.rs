//! `repro`: the one front door to every experiment.
//!
//! * `repro <experiment> [--key value ...]` runs one;
//! * `repro <experiment> --help` lists its flags and their defaults;
//! * `repro list` prints one `artefact experiment flags` row per
//!   published `results/` file, the table `scripts/results.sh` runs.

use abrr_bench::experiments::ALL;
use abrr_bench::pipeline::Experiment;

fn main() {
    let mut argv = std::env::args().skip(1);
    let error = match argv.next().as_deref() {
        Some("list") => {
            for d in ALL {
                for (file, flags) in d.artefacts {
                    println!(
                        "{}",
                        format!("{file:<19} {:<14} {flags}", d.name).trim_end()
                    );
                }
            }
            return;
        }
        Some("help" | "--help") => {
            println!("{}", overview());
            return;
        }
        Some(name) => match ALL.iter().find(|d| d.name == name) {
            Some(def) => {
                (def.run)(&Experiment::new(def, argv));
                return;
            }
            None => format!("unknown experiment `{name}`"),
        },
        None => "no experiment given".to_string(),
    };
    eprintln!("repro: {error}\n\n{}", overview());
    std::process::exit(2);
}

/// The top-level usage: every experiment with its description.
fn overview() -> String {
    let mut s = String::from(
        "usage: repro <experiment> [--key value ...] | repro <experiment> --help | repro list\n\
         experiments:\n",
    );
    for d in ALL {
        s.push_str(&format!("  {:<14} {}\n", d.name, d.about));
    }
    s.pop();
    s
}
