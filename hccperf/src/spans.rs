//! In-memory wall-clock span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! library layer: a name, a start and end offset from the recorder's
//! epoch, and the enclosing span that caused it. Nothing is written while
//! the run is measured; [`Spans::to_json`] and [`Spans::folded`] render
//! the whole tree once the run is over.

use std::time::Instant;

use hcc_types::json::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point or stage name.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch (equal to
    /// `start_ns` while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers, in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A tree of spans under one epoch; `time` nests under the innermost
/// open span.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's index.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, usize) {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name` that `ancestor` encloses.
    pub fn sum_within(&self, ancestor: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && self.encloses(ancestor, *i))
            .map(|(_, s)| s.secs())
            .sum()
    }

    fn encloses(&self, ancestor: usize, mut i: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == ancestor {
                return true;
            }
            i = p;
        }
        false
    }

    /// Self time of span `i`: its duration minus the part its direct
    /// children cover (children never overlap, being sequential calls).
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum();
        self.spans[i]
            .end_ns
            .saturating_sub(self.spans[i].start_ns)
            .saturating_sub(children)
    }

    /// Folded-stack text (`root;child;leaf <self µs>` per line, equal
    /// stacks merged), the input format of offline flame-graph viewers.
    pub fn folded(&self) -> String {
        let mut stacks: Vec<(String, u64)> = Vec::new();
        for i in 0..self.spans.len() {
            let mut path = vec![self.spans[i].name.as_str()];
            let mut at = self.spans[i].parent;
            while let Some(p) = at {
                path.push(self.spans[p].name.as_str());
                at = self.spans[p].parent;
            }
            path.reverse();
            let key = path.join(";");
            let us = self.self_ns(i) / 1_000;
            match stacks.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += us,
                None => stacks.push((key, us)),
            }
        }
        stacks
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect::<String>()
    }

    /// Every span as a JSON array of `{id, name, parent, start_ns,
    /// end_ns}` objects.
    pub fn to_json(&self) -> Json {
        let field = |k: &str, v: Json| (k.to_string(), v);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::Obj(vec![
                        field("id", Json::U64(i as u64)),
                        field("name", Json::Str(s.name.clone())),
                        field(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        field("start_ns", Json::U64(s.start_ns)),
                        field("end_ns", Json::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Runs `f` in a span when a recorder is present, plainly otherwise, so
/// the traced and untraced passes share one code path.
pub fn stage<T>(spans: &mut Option<&mut Spans>, name: &str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.time(name, |_| f()).0,
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_self_time_and_folded_stacks() {
        let mut spans = Spans::new();
        let (_, root) = spans.time("pass", |s| {
            s.time("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            s.time("a", |_| ());
            s.time("b", |_| ());
        });
        assert_eq!(spans.spans()[1].parent, Some(root));
        assert!(spans.sum_within(root, "a") >= 0.002);
        assert_eq!(spans.sum_within(root, "pass"), 0.0);
        let folded = spans.folded();
        assert!(folded.starts_with("pass "));
        assert_eq!(
            folded.lines().filter(|l| l.starts_with("pass;a ")).count(),
            1
        );
        assert!(spans.self_ns(root) <= spans.spans()[root].end_ns);
        let json = spans.to_json().to_string();
        assert!(json.contains("\"parent\":null"));
    }
}
