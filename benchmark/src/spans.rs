//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer's public functions, kept in a `Vec`, and written
//! as one JSON document when the run ends. A span's `self_ns` is its
//! duration minus the durations of its direct children, so the
//! `self_ns` of a span and all its descendants sum to its duration.
//! A disabled recorder records nothing and never reads the clock.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// Layer-qualified name, e.g. `netsim.run`.
    pub name: &'static str,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Duration not covered by child spans.
    pub self_ns: u64,
    /// Work counted at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `None` when the recorder is disabled.
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index, if it is being recorded.
    pub fn id(self) -> Option<usize> {
        self.0
    }
}

/// The span store. Spans nest strictly: [`Recorder::exit`] must close
/// the most recently opened span.
pub struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name,
            parent: self.stack.last().copied(),
            start_ns: Self::now_ns(origin),
            end_ns: 0,
            self_ns: 0,
            counts: Vec::new(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, attaching `counts`.
    pub fn exit(&mut self, open: Open, counts: &[(&'static str, u64)]) {
        let (Some(origin), Some(id)) = (self.origin, open.0) else {
            return;
        };
        assert_eq!(self.stack.pop(), Some(id), "spans must nest");
        let end = Self::now_ns(origin);
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.counts = counts.to_vec();
        // `self_ns` held the children's total until now.
        let duration = end - span.start_ns;
        span.self_ns = duration - span.self_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].self_ns += duration;
        }
    }

    /// Records `f` as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open, &[]);
        r
    }

    /// Total duration, in seconds, of the spans called `name` below
    /// `ancestor` (at any depth).
    pub fn seconds_under(&self, ancestor: usize, name: &str) -> f64 {
        let below = |s: &Span| {
            let mut parent = s.parent;
            while let Some(p) = parent {
                if p == ancestor {
                    return true;
                }
                parent = self.spans[p].parent;
            }
            false
        };
        self.spans
            .iter()
            .filter(|s| s.name == name && below(s))
            .map(|s| s.duration_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// The trace as a JSON document (`{"spans": [...]}`); names and
    /// count keys are identifiers, so nothing needs escaping.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"counts\": {{",
                s.id, s.name, s.start_ns, s.end_ns, s.self_ns
            )
            .expect("write to String");
            for (j, (k, v)) in s.counts.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                write!(out, "{sep}\"{k}\": {v}").expect("write to String");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
