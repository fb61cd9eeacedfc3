//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and the run it belongs to. Spans
//! are kept in memory and written out once, at the end of the run, as JSON
//! lines followed by a per-name self-time summary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `bc.kernels`.
    pub name: &'static str,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one run.
    pub run: u64,
}

/// Handle of an open span; close it with [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// The recorder. When disabled, `open`/`close` record nothing.
pub struct Tracer {
    enabled: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder for run `run`; records only when `enabled`.
    pub fn new(enabled: bool, run: u64) -> Self {
        Tracer { enabled, run, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.origin.elapsed();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent, run: self.run });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, open: Open) {
        if let Some(i) = open.0 {
            self.spans[i].end = self.origin.elapsed();
            if let Some(pos) = self.stack.iter().rposition(|&s| s == i) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Records an already-measured interval (client-thread requests are
    /// timed on their own threads and added after they join).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.push(Span { name, start: at(start), end: at(end), parent, run: self.run });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total time, total self time). A span's self
    /// time is its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            // Children may overlap (concurrent client threads): subtract the
            // union of their intervals.
            kids.sort();
            let (mut covered, mut reach) = (Duration::ZERO, Duration::ZERO);
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let d = s.end.saturating_sub(s.start);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON line, then one summary line per name.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.run,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        for (name, (count, total, own)) in self.self_times() {
            writeln!(
                w,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{},\"self_ms\":{}}}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 7);
        let outer = t.open("outer");
        let inner = t.open("inner");
        std::thread::sleep(Duration::from_millis(5));
        t.close(inner);
        t.close(outer);
        let st = t.self_times();
        let (_, outer_total, outer_self) = st["outer"];
        let (_, inner_total, _) = st["inner"];
        assert_eq!(outer_self, outer_total - inner_total);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.run == 7));
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::new(true, 1);
        let parent = t.open("p");
        let now = Instant::now();
        t.record("c", now, now + Duration::from_millis(4));
        t.record("c", now + Duration::from_millis(2), now + Duration::from_millis(6));
        std::thread::sleep(Duration::from_millis(8));
        t.close(parent);
        let (_, total, own) = t.self_times()["p"];
        assert_eq!(own, total - Duration::from_millis(6));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let s = t.open("x");
        t.close(s);
        assert!(t.spans().is_empty());
    }
}
