//! Spans recorded by the benchmark around its calls into each layer, kept in
//! memory and written when the run ends.
//!
//! The calls are made from outside the program, so a replayed
//! `plan.execute` and the `gemm.execute` spans beside it are *siblings*
//! under one `replay` root, not parent and child: a layer's self time is its
//! span minus the replayed spans of the layers it is known to call (see the
//! README). Spans of one request share `req`.

use crate::json::Writer;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the trace; a parent's id is always smaller than its
    /// children's.
    pub id: u32,
    /// The span that caused this one, `None` for a root.
    pub parent: Option<u32>,
    /// Request (or pass, or probe) index the span belongs to.
    pub req: u64,
    /// Layer boundary, e.g. `serve.submit`, `plan.execute`.
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    /// Free-form attributes (`m=32 k=512 n=2048`); empty when none.
    pub detail: String,
}

/// The in-memory span store of one traced round.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `t`.
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a finished interval (microseconds since the epoch, see
    /// [`Tracer::us`]) and returns its id.
    pub fn push(
        &mut self,
        parent: Option<u32>,
        req: u64,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        detail: String,
    ) -> u32 {
        let id = self.spans.len() as u32;
        debug_assert!(parent.is_none_or(|p| p < id), "parent must precede child");
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_us,
            end_us,
            detail,
        });
        id
    }

    /// Opens a root span whose end is not known yet; [`Tracer::close`] sets
    /// it. Children recorded in between point at the returned id.
    pub fn open(&mut self, req: u64, name: &'static str, detail: String) -> u32 {
        let now = self.us(Instant::now());
        self.push(None, req, name, now, now, detail)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        let end = self.us(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_us = end;
        }
    }

    /// Times `f` as a child of `parent`, returning its result and duration
    /// in microseconds.
    pub fn scope<R>(
        &mut self,
        parent: u32,
        req: u64,
        name: &'static str,
        detail: String,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(
            Some(parent),
            req,
            name,
            self.us(start),
            self.us(end),
            detail,
        );
        (out, end.duration_since(start).as_secs_f64() * 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: a header object and one span per line.
    pub fn to_json(&self, workload: &str, seed: u64, note: &str) -> String {
        let mut w = Writer::new();
        w.begin_obj();
        w.key("workload").str(workload);
        w.key("seed").uint(seed);
        w.key("time_unit").str("us since the traced round began");
        w.key("note").str(note);
        w.key("spans").begin_arr();
        for s in &self.spans {
            w.newline().begin_obj();
            w.key("id").uint(u64::from(s.id));
            match s.parent {
                Some(p) => w.key("parent").uint(u64::from(p)),
                None => w.key("parent").null(),
            };
            w.key("req").uint(s.req);
            w.key("name").str(s.name);
            w.key("start_us").num(s.start_us);
            w.key("end_us").num(s.end_us);
            if !s.detail.is_empty() {
                w.key("detail").str(&s.detail);
            }
            w.end_obj();
        }
        w.newline().end_arr().end_obj().newline();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ids_parents_and_nesting() {
        let mut t = Tracer::new();
        // A served request: root over submit + wait, recorded after the fact.
        let root = t.push(None, 42, "request", 100.0, 400.0, String::new());
        let submit = t.push(Some(root), 42, "serve.submit", 100.0, 110.0, String::new());
        let wait = t.push(Some(root), 42, "serve.wait", 110.0, 400.0, String::new());
        // Its replay: an open root closed after its children ran.
        let replay = t.open(42, "replay", "batch=1".into());
        let ((), dur) = t.scope(replay, 42, "plan.execute", String::new(), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        t.close(replay);

        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!((root, submit, wait, replay), (0, 1, 2, 3));
        for s in spans {
            assert!(s.end_us >= s.start_us, "{s:?}");
            assert_eq!(s.req, 42);
            if let Some(p) = s.parent {
                let parent = &spans[p as usize];
                assert!(p < s.id);
                assert!(
                    parent.start_us <= s.start_us && s.end_us <= parent.end_us,
                    "{s:?}"
                );
            }
        }
        assert_eq!(spans[4].parent, Some(replay));
        assert!(dur >= 2000.0);
    }

    #[test]
    fn file_shape() {
        let mut t = Tracer::new();
        let root = t.push(None, 7, "request", 1.0, 2.5, String::new());
        t.push(
            Some(root),
            7,
            "serve.wait",
            1.5,
            2.5,
            "a \"quoted\" detail".into(),
        );
        let text = t.to_json("dense_sync", 3, "note");
        assert!(text.starts_with(r#"{"workload":"dense_sync","seed":3,"#));
        assert!(text.contains(r#""id":0,"parent":null,"req":7,"name":"request""#));
        assert!(text.contains(r#""id":1,"parent":0,"req":7,"name":"serve.wait""#));
        assert!(text.contains(r#""detail":"a \"quoted\" detail""#));
        // One span per line between the brackets, balanced braces.
        assert_eq!(text.lines().count(), 4);
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert!(text.trim_end().ends_with("]}"));
    }
}
