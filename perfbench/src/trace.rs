//! In-memory span recorder for the traced run.
//!
//! Each span holds a name, its start and end (seconds since the tracer was
//! created) and the index of its parent. Spans stay in memory until the run
//! ends and are then written out as JSON. Self time is span time minus the
//! time of its direct children.

use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans around layer calls.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`; spans opened by `f` nest under it.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_s = self.now();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.now();
        out
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// Self time of every span, aligned with [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_s();
            }
        }
        own
    }

    /// Summed duration of every span named `name` (children included).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.duration_s())
    }

    /// Share of the spans named `root` that their descendants' layer spans
    /// account for: one minus the self time of `root` and of the phase spans
    /// in `phases` (grouping spans that do no work of their own but may hide
    /// untraced work) below it, over the duration of `root`.
    pub fn coverage(&self, root: &str, phases: &[&str]) -> f64 {
        let own = self.self_times();
        let mut total = 0.0;
        let mut unattributed = 0.0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.name == root {
                total += span.duration_s();
                unattributed += own[i];
            } else if phases.contains(&span.name) && self.has_ancestor(i, root) {
                unattributed += own[i];
            }
        }
        if total > 0.0 {
            1.0 - unattributed / total
        } else {
            0.0
        }
    }

    fn has_ancestor(&self, mut i: usize, name: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].name == name {
                return true;
            }
            i = p;
        }
        false
    }

    /// The spans as a JSON array (name, start, end, parent, self time).
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, own)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"self_s\": {}}}",
                    s.name, s.start_s, s.end_s, parent, own
                )
            })
            .collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.leaf("a", || spin(5));
            t.span("phase", |t| t.leaf("b", || spin(5)));
        });
        let own = t.self_times();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        let root = t.spans[0].duration_s();
        assert!(own[0] >= 0.0 && own[0] < root);
        assert!((t.total_s("phase") - t.total_s("b") - own[2]).abs() < 1e-12);
        let coverage = t.coverage("root", &["phase"]);
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
        assert!(t.to_json().contains("\"name\": \"b\""));
    }
}
