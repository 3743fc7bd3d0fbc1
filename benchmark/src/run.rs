//! The run: repeat the pass, judge every pass, estimate host time with
//! the slice composite, print the result.
//!
//! Host time is estimated as the **slice composite**: the timed region
//! of every pass is cut at the same event counts, and the composite is
//! the sum over slices of the fastest time any pass took for that
//! slice. A burst of host noise shorter than a pass spoils one pass's
//! copy of a few slices and leaves the composite alone. It only works
//! because passes are identical event for event — which the run checks
//! slice by slice, so the estimator doubles as the determinism oracle.

use crate::calib::Calib;
use crate::layers;
use crate::metrics::{ratio, Values, END_TO_END, PER_LAYER};
use crate::pass::{run_pass, set_up, PassResult, World, SLICE_EVENTS};
use crate::spans::Recorder;
use crate::workloads::{self, Workload, DEFAULT_SEED};
use netsim::Engine;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Fewest passes a time-boxed run makes: the composite needs several
/// copies of each slice, and the determinism check at least two.
pub const MIN_PASSES: usize = 3;

/// Parsed command line.
pub struct Config {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring budget: passes repeat until it is used up.
    pub seconds: f64,
    /// Exact pass count, overriding `seconds` (the smoke test's knob).
    pub passes: Option<usize>,
    /// Run at `1/scale_div` of full scale.
    pub scale_div: u64,
    /// Directory of the expected oracle files.
    pub expected_dir: PathBuf,
    /// Directory the trace is written to.
    pub out_dir: PathBuf,
    /// Write the expected file instead of checking against it.
    pub bless: bool,
}

const USAGE: &str = "usage: --workload NAME [--seed N] [--seconds S] --trace 0|1 \
[--passes K] [--scale-div N] [--expected-dir DIR] [--out-dir DIR] [--bless]";

impl Config {
    /// Parses `--key value` arguments; `traced` is the mode this binary
    /// was built for, which `--trace` must agree with.
    pub fn from_args(args: impl Iterator<Item = String>, traced: bool) -> Result<Config, String> {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut cfg = Config {
            workload: &workloads::WORKLOADS[0],
            seed: DEFAULT_SEED,
            seconds: 10.0,
            passes: None,
            scale_div: 1,
            expected_dir: manifest_dir.join("expected"),
            out_dir: manifest_dir.join("out"),
            bless: false,
        };
        let (mut saw_workload, mut trace) = (false, None);
        let mut args = args;
        while let Some(flag) = args.next() {
            if flag == "--bless" {
                cfg.bless = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => {
                    cfg.workload = workloads::by_name(&value).ok_or_else(|| {
                        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{value}` (have: {})", names.join(", "))
                    })?;
                    saw_workload = true;
                }
                "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
                "--passes" => cfg.passes = Some(value.parse().map_err(|_| bad())?),
                "--scale-div" => cfg.scale_div = value.parse().map_err(|_| bad())?,
                "--expected-dir" => cfg.expected_dir = PathBuf::from(value),
                "--out-dir" => cfg.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        if !saw_workload {
            return Err(format!("--workload is required\n{USAGE}"));
        }
        if trace != Some(traced as u8) {
            return Err(format!(
                "this binary runs --trace {} only (benchmark/run.sh picks the binary)",
                traced as u8
            ));
        }
        if cfg.passes.is_some_and(|k| k < 2)
            || cfg.scale_div == 0
            || cfg.seconds.is_nan()
            || cfg.seconds < 0.0
        {
            return Err(format!(
                "--passes must be >= 2, --scale-div >= 1, --seconds >= 0\n{USAGE}"
            ));
        }
        Ok(cfg)
    }

    fn expected_file(&self) -> PathBuf {
        let scale = if self.scale_div == 1 {
            String::new()
        } else {
            format!(".div{}", self.scale_div)
        };
        self.expected_dir
            .join(format!("{}.{}{scale}.txt", self.workload.name, self.seed))
    }
}

/// Host time spent on extra set-ups after the first pass. Set-up is
/// milliseconds on the load workloads, too short to estimate from one
/// sample a pass; where it costs more than this it is not repeated.
const SETUP_SAMPLING_S: f64 = 0.5;

/// The passes of one run and what was measured around them.
pub struct Measured {
    /// Every pass, in order.
    pub passes: Vec<PassResult>,
    /// `setup_s` of every pass and of the extra set-ups.
    pub setups: Vec<f64>,
    /// One calibration run per pass.
    pub calib: Vec<Vec<u64>>,
    /// The world of the last pass.
    pub world: World,
}

/// Repeats the pass on the sequential engine until `budget_s` is used
/// up (at least [`MIN_PASSES`] times), or exactly `cfg.passes` times.
pub fn measure(cfg: &Config, budget_s: f64, rec: &mut Recorder) -> Measured {
    let calib_input = Calib::new();
    let (mut passes, mut calib, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let (pass, world) = run_pass(
            cfg.workload,
            cfg.seed,
            cfg.scale_div,
            Engine::Seq,
            SLICE_EVENTS,
            rec,
        );
        setups.push(pass.setup_s);
        passes.push(pass);
        calib.push(calib_input.run());
        let done = match cfg.passes {
            Some(k) => passes.len() >= k,
            None => passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            return Measured {
                passes,
                setups,
                calib,
                world,
            };
        }
        // Free the world before the next pass builds its own: peak RSS
        // is one pipeline's, not two.
        drop(world);
        if passes.len() == 1 {
            let extra = (SETUP_SAMPLING_S / passes[0].setup_s) as usize;
            let mut untraced = Recorder::new(false);
            setups.extend(
                (0..extra)
                    .map(|_| set_up(cfg.workload, cfg.seed, cfg.scale_div, &mut untraced).setup_s),
            );
        }
    }
}

/// The slice composite's terms: for every slice index the fastest
/// copy in any row. Rows hold one series of slice times each and must
/// be equally long.
pub fn slice_minima(rows: &[Vec<u64>]) -> Vec<u64> {
    let n = rows.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| rows.iter().map(|row| row[i]).min().expect("a row"))
        .collect()
}

fn seconds(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Judges every pass: its own failures, the oracle text against the
/// expected file (or pass 1 when no file covers this seed), and its
/// simulated slice series against pass 1. Returns the failure reasons
/// per pass.
fn judge(cfg: &Config, passes: &[PassResult]) -> Vec<Vec<String>> {
    let path = cfg.expected_file();
    let expected = if cfg.bless {
        None
    } else {
        std::fs::read_to_string(&path).ok()
    };
    let reference = expected.as_deref().unwrap_or(&passes[0].oracle);
    let source = if expected.is_some() {
        path.display().to_string()
    } else {
        "pass 1".to_string()
    };
    let series = |p: &PassResult| p.slices.iter().map(|s| s.simulated()).collect::<Vec<_>>();
    let first = series(&passes[0]);
    passes
        .iter()
        .map(|p| {
            let mut why = p.failures.clone();
            if p.oracle != reference {
                why.push(format!("fingerprint differs from {source}"));
            }
            if series(p) != first {
                why.push("slice series differs from pass 1".to_string());
            }
            why
        })
        .collect()
}

/// What a finished run knows, shared by both output modes.
pub struct Summary<'a> {
    /// The passes that passed every check.
    pub good: Vec<&'a PassResult>,
    /// Per-slice minima over `good`.
    pub minima: Vec<u64>,
    /// Slice composite of the timed region, seconds.
    pub composite_s: f64,
}

fn print_fields(
    cfg: &Config,
    m: &Measured,
    verdicts: &[Vec<String>],
    s: &Summary,
    traced: bool,
    attempted: usize,
    failed: usize,
) {
    let w = cfg.workload;
    println!(
        "workload {} seed {} scale 1/{} trace {}",
        w.name, cfg.seed, cfg.scale_div, traced as u8
    );
    let p = &m.passes[0];
    println!(
        "passes {} slices {} records {} events {}",
        m.passes.len(),
        p.slices.len(),
        p.records,
        p.events()
    );
    println!("ops_attempted {attempted}");
    println!("ops_failed {failed}");
    for (i, why) in verdicts.iter().enumerate() {
        for reason in why {
            println!("pass {} failed: {reason}", i + 1);
        }
    }
    let timed: Vec<f64> = m.passes.iter().map(|p| p.timed_s()).collect();
    let slowest = timed.iter().copied().fold(0.0, f64::max);
    println!("composite_s {:?}", s.composite_s);
    println!("median_pass_s {:?}", median(timed));
    println!("slowest_pass_s {slowest:?}");
    println!("calib_s {:?}", seconds(&slice_minima(&m.calib)));
}

fn print_result(
    values: &Values,
    defs: &[(&'static str, &'static str)],
    attempted: usize,
    failed: usize,
) {
    let mut metrics = Vec::new();
    for (name, unit) in defs {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("metric {name} {value:?} {unit}");
        metrics.push((
            Value::Str(name.to_string()),
            Value::Map(vec![
                (Value::Str("value".into()), Value::F64(value)),
                (Value::Str("unit".into()), Value::Str(unit.to_string())),
            ]),
        ));
    }
    let result = Value::Map(vec![
        (Value::Str("correct".into()), Value::Bool(failed == 0)),
        (Value::Str("attempted".into()), Value::U64(attempted as u64)),
        (Value::Str("failed".into()), Value::U64(failed as u64)),
        (Value::Str("metrics".into()), Value::Map(metrics)),
    ]);
    println!("{}", serde::json::to_string(&result));
}

/// Runs the benchmark as configured and prints the result; `traced`
/// selects the per-layer run. Returns the process exit code: non-zero
/// when any pass failed a check.
pub fn run(cfg: &Config, traced: bool) -> ExitCode {
    // The traced run first measures the untraced binary on the same
    // inputs, for `obs.overhead_ratio`.
    let mut untraced_composite_s = 0.0;
    if traced {
        untraced_composite_s = layers::untraced_composite_s(cfg);
        obs::metrics::set_enabled(true);
        obs::profile::set_enabled(true);
    }
    let mut rec = Recorder::new(traced);
    let root = rec.enter("run");
    let budget_s = if traced {
        cfg.seconds / 3.0
    } else {
        cfg.seconds
    };
    let measured = measure(cfg, budget_s, &mut rec);
    let verdicts = judge(cfg, &measured.passes);
    let mut attempted = measured.passes.len();
    let mut failed = verdicts.iter().filter(|v| !v.is_empty()).count();
    let good: Vec<&PassResult> = measured
        .passes
        .iter()
        .zip(&verdicts)
        .filter(|(_, why)| why.is_empty())
        .map(|(p, _)| p)
        .collect();
    let host_ns = |p: &&PassResult| p.slices.iter().map(|s| s.host_ns).collect();
    let minima = slice_minima(&good.iter().map(host_ns).collect::<Vec<_>>());
    let summary = Summary {
        composite_s: seconds(&minima),
        minima,
        good,
    };

    let first = &measured.passes[0];
    let records = first.records as f64;
    let mut values = Values::new();
    if traced {
        let (engine_passes, engine_failures) = layers::collect(
            cfg,
            &measured,
            &summary,
            untraced_composite_s,
            &mut rec,
            &mut values,
        );
        attempted += engine_passes;
        failed += engine_failures;
        rec.exit(root, &[("passes", measured.passes.len() as u64)]);
        if let Err(e) = layers::write_trace(cfg, &rec) {
            eprintln!("cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        values.insert(
            "setup_s",
            measured
                .setups
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
        );
        values.insert("records_per_s", ratio(records, summary.composite_s));
        values.insert("peak_rss_mb", first.peak_rss_kb as f64 / 1024.0);
        values.insert(
            "updates_per_record",
            ratio(first.counters.transmitted as f64, records),
        );
    }

    if cfg.bless && failed == 0 {
        let path = cfg.expected_file();
        let written = std::fs::create_dir_all(&cfg.expected_dir)
            .and_then(|()| std::fs::write(&path, &first.oracle));
        match written {
            Ok(()) => println!("blessed {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    print_fields(
        cfg, &measured, &verdicts, &summary, traced, attempted, failed,
    );
    let defs: &[_] = if traced { &PER_LAYER } else { &END_TO_END };
    print_result(&values, defs, attempted, failed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Entry point of both binaries.
pub fn main_with(traced: bool) -> ExitCode {
    let cfg = match Config::from_args(std::env::args().skip(1), traced) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // A panic inside a layer (the wire oracle hard-fails that way) is a
    // failed run, reported in the result line like any other.
    match std::panic::catch_unwind(|| run(&cfg, traced)) {
        Ok(code) => code,
        Err(_) => {
            println!("ops_failed 1 (a pass panicked; see stderr)");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}
