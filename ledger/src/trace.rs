//! Spans recorded from the benchmark's own code at every boundary it can
//! see: `batch` (parent; id = thread, batch#) → `pin`, one span per op with
//! its kind and outcome, `unpin`. Spans go to preallocated per-thread
//! buffers and are written out after the workers stop. Spans *inside*
//! `cdrc`/`smr` are a later change (ROADMAP item 3).

use std::io::{self, Write};

use crate::gen::OpKind;
use crate::hist::Histogram;

/// What a span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanKind {
    /// One guard batch: pin, its ops, unpin, and the driver's own work.
    #[default]
    Batch,
    /// `pin()`.
    Pin,
    /// One structure operation.
    Op(OpKind),
    /// Guard drop.
    Unpin,
}

/// One recorded interval, in nanoseconds since the trial's start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Start offset.
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u32,
    /// Batch number on its thread; children share their parent's.
    pub batch: u32,
    /// What was bracketed.
    pub kind: SpanKind,
    /// Useful outcome (hit / inserted / removed / dequeued something).
    pub ok: bool,
    /// Part of the thread-private witness probe.
    pub witness: bool,
}

/// Spans per thread and traced trial; recording stops (whole batches only)
/// when the buffer is full, the trial goes on.
pub const SPAN_CAP: usize = 1 << 21;

/// Batches per thread and trial written to the trace file.
const BATCHES_WRITTEN: u32 = 16;

/// A zero-filled (so already faulted-in) span buffer.
pub fn span_buffer() -> Vec<Span> {
    let mut v = vec![Span::default(); SPAN_CAP];
    v.clear();
    v
}

/// Per-cell aggregates over the traced trials' spans.
#[derive(Debug, Default)]
pub struct SpanStats {
    /// Durations per op kind (get, put, del).
    pub ops: [Histogram; 3],
    /// `pin` + `unpin` per batch.
    pub pin: Histogram,
    /// Σ batch durations.
    pub batch_ns: u64,
    /// Σ batch self time: duration minus what its children cover.
    pub self_ns: u64,
    /// Batches recorded.
    pub batches: u64,
    /// Batches the full buffer left out.
    pub dropped_batches: u64,
}

impl SpanStats {
    /// Folds one thread's spans of one trial in. Spans of a batch are
    /// contiguous, parent first.
    pub fn absorb(&mut self, spans: &[Span]) {
        let mut i = 0;
        while i < spans.len() {
            let parent = spans[i];
            debug_assert_eq!(parent.kind, SpanKind::Batch);
            let mut children = 0u64;
            let mut pin = 0u64;
            i += 1;
            while i < spans.len() && spans[i].kind != SpanKind::Batch {
                let s = spans[i];
                children += s.dur_ns as u64;
                match s.kind {
                    SpanKind::Op(k) => self.ops[k as usize].record(s.dur_ns as u64),
                    _ => pin += s.dur_ns as u64,
                }
                i += 1;
            }
            self.pin.record(pin);
            self.batch_ns += parent.dur_ns as u64;
            self.self_ns += (parent.dur_ns as u64).saturating_sub(children);
            self.batches += 1;
        }
    }

    /// Driver self time as a share of batch time.
    pub fn self_share(&self) -> f64 {
        if self.batch_ns == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.batch_ns as f64
        }
    }
}

/// Appends the first batches of one thread's trial to the trace file, one
/// JSON object per span. `op_names` are the workload's names for
/// get / put / del.
pub fn write_spans(
    out: &mut impl Write,
    cell: &str,
    round: usize,
    thread: usize,
    op_names: [&str; 3],
    spans: &[Span],
) -> io::Result<()> {
    for s in spans.iter().take_while(|s| s.batch < BATCHES_WRITTEN) {
        let (name, parent) = match s.kind {
            SpanKind::Batch => ("batch", "null"),
            SpanKind::Pin => ("pin", "\"batch\""),
            SpanKind::Unpin => ("unpin", "\"batch\""),
            SpanKind::Op(k) => (op_names[k as usize], "\"batch\""),
        };
        writeln!(
            out,
            "{{\"cell\":\"{cell}\",\"round\":{round},\"thread\":{thread},\"batch\":{},\
             \"name\":\"{name}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\
             \"ok\":{},\"witness\":{}}}",
            s.batch,
            s.start_ns,
            s.start_ns + s.dur_ns as u64,
            s.ok,
            s.witness
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, dur: u32) -> Span {
        Span {
            start_ns: start,
            dur_ns: dur,
            batch: 0,
            kind,
            ok: true,
            witness: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(SpanKind::Batch, 0, 100),
            span(SpanKind::Pin, 5, 10),
            span(SpanKind::Op(OpKind::Get), 20, 30),
            span(SpanKind::Op(OpKind::Del), 55, 20),
            span(SpanKind::Unpin, 80, 10),
        ];
        let mut st = SpanStats::default();
        st.absorb(&spans);
        assert_eq!((st.batch_ns, st.self_ns, st.batches), (100, 30, 1));
        assert_eq!(st.ops[0].count(), 1);
        assert_eq!(st.ops[1].count(), 0);
        assert_eq!(st.pin.count(), 1);
        assert!((st.self_share() - 0.3).abs() < 1e-12);
        let mut buf = Vec::new();
        write_spans(&mut buf, "rc_ebr", 0, 1, ["get", "put", "del"], &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(
            text.contains("\"name\":\"del\",\"parent\":\"batch\",\"start_ns\":55,\"end_ns\":75")
        );
    }
}
