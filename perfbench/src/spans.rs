//! Benchmark-side spans around each call into a layer of the engine.
//!
//! Spans are kept in memory while the benchmark runs and written out once,
//! as Chrome trace-event JSON, when it ends. Spans of one request (a set-up
//! round, one query) share an id; a span's parent is the innermost span
//! open when it started.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in [`Spans::done`], if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// An in-memory span recorder with a stack of open spans.
pub struct Spans {
    epoch: Instant,
    done: Vec<Span>,
    open: Vec<usize>,
    ids: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            done: Vec::new(),
            open: Vec::new(),
            ids: 0,
        }
    }

    /// A fresh request id.
    pub fn next_id(&mut self) -> u64 {
        self.ids += 1;
        self.ids
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; it must be closed with [`Spans::exit`] in stack order.
    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.done.len();
        self.done.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: f64::NAN,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`; returns its
    /// duration in seconds.
    pub fn exit(&mut self, idx: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in stack order");
        let span = &mut self.done[idx];
        span.end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        (span.end_us - span.start_us) / 1e6
    }

    /// Runs `f` inside a span and returns its result and duration (s).
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.enter(name, id);
        let out = f();
        (out, self.exit(idx))
    }

    /// Total and self time (total minus time covered by child spans) per
    /// span name, in seconds, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64)> {
        let mut child = vec![0.0; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child[p] += s.end_us - s.start_us;
            }
        }
        let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
        for (i, s) in self.done.iter().enumerate() {
            let total = (s.end_us - s.start_us) / 1e6;
            let own = total - child[i] / 1e6;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += total;
                    row.2 += own;
                }
                None => out.push((s.name, total, own)),
            }
        }
        out
    }

    /// Renders every finished span as Chrome trace-event JSON (one track,
    /// request id and parent index in the args).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.done.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.id,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let outer = spans.enter("query", 7);
        let (_, inner) = spans.time("run", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = spans.exit(outer);
        let rows = spans.self_times();
        let query = rows.iter().find(|r| r.0 == "query").unwrap();
        assert!((query.1 - total).abs() < 1e-9);
        assert!((query.2 - (total - inner)).abs() < 1e-6);
        assert_eq!(spans.done[1].parent, Some(0));
        assert_eq!(spans.done[1].id, 7);
        assert!(spans.chrome_json().contains("\"name\":\"run\""));
    }
}
