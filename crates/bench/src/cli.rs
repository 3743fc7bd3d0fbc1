//! Strict typed CLI for the experiment binaries.
//!
//! The sanctioned crate set has no argument parser, so this is a tiny
//! `--key value` reader — but a *strict* one: every binary declares its
//! flags up front, unknown `--keys` and unparseable values are hard
//! errors (exit 2 with the generated flag list), and `--help` prints
//! that list. The previous lenient parser silently fell back to the
//! default on both mistakes, so a mistyped flag ran with defaults
//! without a word; that failure mode is gone.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;

/// The address-partition counts a spec can hold (`--aps`): AP ids index
/// peer-group families of `AP_STRIDE` ids each, so ids stop below it.
pub const AP_COUNTS: RangeInclusive<usize> = 1..=abrr::node::group::AP_STRIDE as usize;

/// One declared `--name` flag of a binary.
#[derive(Debug)]
pub struct FlagSpec {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Value placeholder shown in the flag list (e.g. `"N"`). Empty
    /// declares a presence-only boolean that consumes no value.
    pub value: &'static str,
    /// One-line description; include the default.
    pub help: &'static str,
}

/// Shorthand [`FlagSpec`] constructor for the per-binary flag tables.
pub const fn flag(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec { name, value, help }
}

/// Flags every binary accepts on top of its own declarations.
const COMMON: &[FlagSpec] = &[
    flag(
        "obs",
        "",
        "enable the observability layer: metrics registry + engine profiling, \
         printed as an obs_report when the experiment finishes (default off)",
    ),
    flag(
        "wire",
        "MODE",
        "session wire mode: off (in-memory structs, default) | verify \
         (encode-decode-verify: every UPDATE/OPEN round-trips through the BGP \
         codec as a differential oracle) | bytes (bytes-only transport)",
    ),
    flag(
        "pcap",
        "FILE",
        "dump every session message as a classic pcap capture to FILE when the \
         experiment finishes (synthetic deterministic TCP/179 framing; \
         requires --wire verify or bytes)",
    ),
    flag("help", "", "print this flag list and exit"),
];

/// Parsed arguments of one binary, validated against its declared
/// flag table.
#[derive(Debug)]
pub struct Args {
    bin: &'static str,
    flags: &'static [FlagSpec],
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parses `std::env::args` against `flags` (plus the common
    /// flags). Unknown flags, positional arguments, missing values and
    /// output files that cannot be opened exit with status 2 and the
    /// flag list; `--help` prints the list and exits 0.
    pub fn parse(bin: &'static str, flags: &'static [FlagSpec]) -> Args {
        match Self::try_parse(bin, flags, std::env::args().skip(1)) {
            Ok(args) => {
                if args.map.contains_key("help") {
                    println!("{}", args.usage());
                    std::process::exit(0);
                }
                // A `--pcap` without a byte path exits before its file
                // is created.
                args.pcap();
                args.or_exit(args.open_outputs());
                args
            }
            Err(e) => Args {
                bin,
                flags,
                map: BTreeMap::new(),
            }
            .exit_usage(&e),
        }
    }

    /// Reports a command-line error with the generated flag list and
    /// exits with status 2.
    fn exit_usage(&self, error: &str) -> ! {
        eprintln!("{}: {error}\n\n{}", self.bin, self.usage());
        std::process::exit(2);
    }

    fn try_parse(
        bin: &'static str,
        flags: &'static [FlagSpec],
        argv: impl Iterator<Item = String>,
    ) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = argv;
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument `{tok}` (flags are `--key value`)"
                ));
            };
            let spec =
                Self::lookup(flags, name).ok_or_else(|| format!("unknown flag `--{name}`"))?;
            let value = if spec.value.is_empty() {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("flag `--{name}` expects a value <{}>", spec.value))?
            };
            map.insert(name.to_string(), value);
        }
        Ok(Args { bin, flags, map })
    }

    fn lookup(flags: &'static [FlagSpec], name: &str) -> Option<&'static FlagSpec> {
        flags.iter().chain(COMMON.iter()).find(|f| f.name == name)
    }

    /// The generated flag list for this binary.
    pub fn usage(&self) -> String {
        let mut s = format!("usage: {} [--key value ...]\nflags:\n", self.bin);
        let rows: Vec<(String, &str)> = self
            .flags
            .iter()
            .chain(COMMON.iter())
            .map(|f| {
                let head = if f.value.is_empty() {
                    format!("--{}", f.name)
                } else {
                    format!("--{} <{}>", f.name, f.value)
                };
                (head, f.help)
            })
            .collect();
        let w = rows.iter().map(|(h, _)| h.len()).max().unwrap_or(0);
        for (head, help) in rows {
            s.push_str(&format!("  {head:<w$}  {help}\n"));
        }
        s.pop();
        s
    }

    /// Whether `key` is in this binary's declared flag table (used by
    /// helpers that read a knob only where the binary exposes it).
    pub fn declared(&self, key: &str) -> bool {
        Self::lookup(self.flags, key).is_some()
    }

    fn checked<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.map_get(key).map(|v| parse_value(key, v)).transpose()
    }

    /// Every comma-separated element of `--key`, each parsed and inside
    /// `range`.
    fn checked_list<T: FromStr + PartialOrd + Display>(
        &self,
        key: &str,
        range: &RangeInclusive<T>,
    ) -> Result<Option<Vec<T>>, String> {
        let Some(v) = self.map_get(key) else {
            return Ok(None);
        };
        let element = |x: &str| within(key, parse_value(key, x.trim())?, range);
        v.split(',')
            .map(element)
            .collect::<Result<_, _>>()
            .map(Some)
    }

    fn checked_choice(
        &self,
        key: &str,
        choices: &[&'static str],
    ) -> Result<Option<&'static str>, String> {
        let Some(v) = self.map_get(key) else {
            return Ok(None);
        };
        let choice = choices.iter().find(|c| **c == v).copied();
        choice.map(Some).ok_or_else(|| {
            let expected = choices.join(" | ");
            format!("invalid value `{v}` for `--{key}` (expected {expected})")
        })
    }

    /// `result`'s value, or exit 2 with its error and the flag list.
    fn or_exit<T>(&self, result: Result<T, String>) -> T {
        result.unwrap_or_else(|e| self.exit_usage(&e))
    }

    /// Typed getter with default. Exits with status 2 if the given
    /// value does not parse as `T` — never silently falls back.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> T {
        self.get_opt(key).unwrap_or(default)
    }

    /// Typed getter without a default: `None` when the flag is absent.
    /// Exits with status 2 if the given value does not parse as `T`.
    pub fn get_opt<T: FromStr>(&self, key: &str) -> Option<T> {
        self.or_exit(self.checked(key))
    }

    /// [`Args::get`] for a value that must also lie in `range`.
    pub fn get_in<T: FromStr + PartialOrd + Display>(
        &self,
        key: &str,
        default: T,
        range: RangeInclusive<T>,
    ) -> T {
        let v = self
            .checked(key)
            .and_then(|v| v.map(|x| within(key, x, &range)).transpose());
        self.or_exit(v).unwrap_or(default)
    }

    /// Comma-separated list getter with default (`--aps 1,2,4`). Exits
    /// with status 2 unless every element parses as `T` and lies in
    /// `range`.
    pub fn list<T: FromStr + PartialOrd + Display + Clone>(
        &self,
        key: &str,
        default: &[T],
        range: RangeInclusive<T>,
    ) -> Vec<T> {
        let v = self.or_exit(self.checked_list(key, &range));
        v.unwrap_or_else(|| default.to_vec())
    }

    /// One of `choices`, `default` when the flag is absent. Any other
    /// value exits with status 2, naming the choices.
    pub fn choice(
        &self,
        key: &str,
        default: &'static str,
        choices: &[&'static str],
    ) -> &'static str {
        let v = self.or_exit(self.checked_choice(key, choices));
        v.unwrap_or(default)
    }

    /// Presence check for boolean flags.
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(self.declared(key), "undeclared flag `--{key}` queried");
        self.map.contains_key(key)
    }

    /// Raw string getter.
    pub fn map_get(&self, key: &str) -> Option<&str> {
        debug_assert!(self.declared(key), "undeclared flag `--{key}` queried");
        self.map.get(key).map(|s| s.as_str())
    }

    /// The `--obs` knob shared by every bench bin: turns on the
    /// metrics registry and engine profiling for this invocation
    /// (default off — the hot paths then pay only one relaxed atomic
    /// load per instrumentation site).
    pub fn obs(&self) -> bool {
        self.flag("obs")
    }

    /// The `--wire` knob shared by every bench bin (default
    /// [`netsim::WireMode::Off`]). Unknown mode names exit 2.
    pub fn wire(&self) -> netsim::WireMode {
        match self.map.get("wire").map(|s| s.as_str()) {
            None => netsim::WireMode::Off,
            Some(s) => netsim::WireMode::parse(s).unwrap_or_else(|| {
                self.exit_usage(&format!(
                    "invalid value `{s}` for `--wire` (expected off | verify | bytes)"
                ))
            }),
        }
    }

    /// Opens the files `--out` (append) and `--pcap` (truncate) name,
    /// so an unwritable path is a flag error before the run instead of
    /// a failure after it.
    fn open_outputs(&self) -> Result<(), String> {
        for (key, append) in [("out", true), ("pcap", false)] {
            if let Some(path) = self.map.get(key) {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(append)
                    .write(!append)
                    .truncate(!append)
                    .open(path)
                    .map_err(|e| format!("cannot open `{path}` for `--{key}`: {e}"))?;
            }
        }
        Ok(())
    }

    /// The `--pcap` knob shared by every bench bin: the capture output
    /// path, if requested. Exits 2 when combined with `--wire off`
    /// (there are no wire frames to capture without a byte path).
    pub fn pcap(&self) -> Option<String> {
        let path = self.map.get("pcap").cloned()?;
        if !self.wire().encodes() {
            self.exit_usage(
                "`--pcap` requires `--wire verify` or `--wire bytes` \
                 (structs-only sessions produce no wire frames)",
            );
        }
        Some(path)
    }
}

/// `v` parsed as the value of `--key`.
fn parse_value<T: FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| {
        let expected = std::any::type_name::<T>();
        format!("invalid value `{v}` for `--{key}` (expected {expected})")
    })
}

/// `x`, if it lies in `range`.
fn within<T: PartialOrd + Display>(
    key: &str,
    x: T,
    range: &RangeInclusive<T>,
) -> Result<T, String> {
    if range.contains(&x) {
        Ok(x)
    } else {
        let (lo, hi) = (range.start(), range.end());
        Err(format!("value {x} for `--{key}` is outside {lo}..={hi}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[FlagSpec] = &[
        flag("prefixes", "N", "number of prefixes (default 3000)"),
        flag("balanced", "", "prefix-balanced APs"),
        flag("aps", "LIST", "#AP sweep"),
        flag("workload", "W", "churn | failover"),
        flag("prefix", "P", "one prefix"),
        flag("out", "FILE", "append JSON rows to FILE"),
    ];
    const WORKLOADS: &[&str] = &["churn", "failover"];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::try_parse("test", FLAGS, argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn typo_is_an_error_not_a_silent_default() {
        // The motivating bug: a misspelt flag used to run with defaults.
        assert!(parse(&["--prefixs", "4"])
            .unwrap_err()
            .contains("--prefixs"));
    }

    #[test]
    fn bad_value_is_an_error() {
        let args = parse(&["--prefixes", "many"]).unwrap();
        assert!(args.checked::<usize>("prefixes").is_err());
    }

    #[test]
    fn declared_flags_parse() {
        let args = parse(&["--prefixes", "42", "--balanced"]).unwrap();
        assert_eq!(args.checked::<usize>("prefixes").unwrap(), Some(42));
        assert!(args.flag("balanced"));
    }

    #[test]
    fn booleans_consume_no_value() {
        let args = parse(&["--balanced", "--prefixes", "7"]).unwrap();
        assert!(args.flag("balanced"));
        assert_eq!(args.checked::<usize>("prefixes").unwrap(), Some(7));
    }

    #[test]
    fn missing_value_and_positionals_rejected() {
        assert!(parse(&["--prefixes"]).is_err());
        assert!(parse(&["42"]).is_err());
    }

    #[test]
    fn usage_lists_every_flag() {
        let args = parse(&[]).unwrap();
        let u = args.usage();
        for name in [
            "--prefixes <N>",
            "--balanced",
            "--wire <MODE>",
            "--pcap <FILE>",
            "--help",
        ] {
            assert!(u.contains(name), "usage missing {name}:\n{u}");
        }
    }

    #[test]
    fn aps_list_parses_with_its_default() {
        let aps = |argv: &[&str]| parse(argv).unwrap().checked_list("aps", &AP_COUNTS);
        assert_eq!(aps(&[]), Ok(None));
        assert_eq!(aps(&["--aps", "1, 2,1000"]), Ok(Some(vec![1, 2, 1000])));
        let args = parse(&[]).unwrap();
        assert_eq!(args.list("aps", &[1, 2], AP_COUNTS), vec![1, 2]);
    }

    /// `fig7 --aps 1,x` panicked on the element that does not parse.
    #[test]
    fn aps_list_with_a_bad_element_is_an_error() {
        let args = parse(&["--aps", "1,x"]).unwrap();
        let err = args.checked_list::<usize>("aps", &AP_COUNTS).unwrap_err();
        assert!(err.contains("`x`") && err.contains("--aps"), "{err}");
    }

    /// `fig6 --aps 0` panicked in `ApMap::uniform`.
    #[test]
    fn zero_aps_is_an_error() {
        let args = parse(&["--aps", "4,0"]).unwrap();
        let err = args.checked_list::<usize>("aps", &AP_COUNTS).unwrap_err();
        assert!(err.contains("value 0") && err.contains("1..=1000"), "{err}");
    }

    /// `fig6 --aps 2000` panicked in `NetworkSpec::validate`: AP ids
    /// must stay below the peer-group stride.
    #[test]
    fn aps_beyond_the_group_stride_is_an_error() {
        let args = parse(&["--aps", "2000"]).unwrap();
        let err = args.checked_list::<usize>("aps", &AP_COUNTS).unwrap_err();
        assert!(err.contains("value 2000"), "{err}");
        let single = args
            .checked::<usize>("aps")
            .map(|v| within("aps", v.unwrap(), &AP_COUNTS));
        assert!(single.unwrap().is_err(), "`get_in` checks the same range");
    }

    /// `scale --workload nope` panicked; `show_rib --mode nope` exited
    /// without the flag list. Both now go through `choice`.
    #[test]
    fn unknown_choice_is_an_error() {
        let choice = |argv: &[&str]| parse(argv).unwrap().checked_choice("workload", WORKLOADS);
        assert_eq!(choice(&[]), Ok(None));
        assert_eq!(choice(&["--workload", "failover"]), Ok(Some("failover")));
        let err = choice(&["--workload", "nope"]).unwrap_err();
        assert!(
            err.contains("`nope`") && err.contains("churn | failover"),
            "{err}"
        );
    }

    /// `show_rib --prefix 10.0.0.0/33` panicked in the bin's `expect`.
    #[test]
    fn prefix_longer_than_32_is_an_error() {
        use bgp_types::Ipv4Prefix;
        let prefix = |v: &str| {
            parse(&["--prefix", v])
                .unwrap()
                .checked::<Ipv4Prefix>("prefix")
        };
        assert_eq!(
            prefix("10.0.0.0/8"),
            Ok(Some("10.0.0.0/8".parse().unwrap()))
        );
        let err = prefix("10.0.0.0/33").unwrap_err();
        assert!(
            err.contains("10.0.0.0/33") && err.contains("--prefix"),
            "{err}"
        );
    }

    #[test]
    fn wire_mode_parses_with_off_default() {
        use netsim::WireMode;
        assert_eq!(parse(&[]).unwrap().wire(), WireMode::Off);
        assert_eq!(
            parse(&["--wire", "verify"]).unwrap().wire(),
            WireMode::Verify
        );
        assert_eq!(
            parse(&["--wire", "encode-decode-verify"]).unwrap().wire(),
            WireMode::Verify
        );
        assert_eq!(parse(&["--wire", "bytes"]).unwrap().wire(), WireMode::Bytes);
        // Valid --wire + --pcap combination resolves the path.
        let args = parse(&["--wire", "verify", "--pcap", "/tmp/x.pcap"]).unwrap();
        assert_eq!(args.pcap().as_deref(), Some("/tmp/x.pcap"));
        assert_eq!(parse(&[]).unwrap().pcap(), None);
    }

    /// The engine is not a user choice: every run is the sequential
    /// loop, and `--engine` takes the unknown-flag exit-2 path.
    #[test]
    fn engine_is_an_unknown_flag() {
        let err = parse(&["--engine", "seq"]).unwrap_err();
        assert!(err.contains("unknown flag `--engine`"), "{err}");
    }

    /// `--out` to an unopenable path panicked after the whole run; it
    /// is now a flag error naming the flag and the OS error.
    #[test]
    fn unwritable_out_path_is_a_flag_error() {
        let path = "/nonexistent-dir/x.json";
        let err = parse(&["--out", path]).unwrap().open_outputs().unwrap_err();
        assert!(
            err.contains("--out") && err.contains(path) && err.contains("os error"),
            "{err}"
        );
    }
}
