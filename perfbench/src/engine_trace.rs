//! Reads the engine's own flight-recorder export (Chrome trace-event JSON
//! from `TraceSummary::chrome_json`) and splits each machine's time into the
//! self time of its `chain`, `park` and `backpressure` spans.

use std::collections::BTreeMap;

/// Self time (span minus nested spans) per machine track, in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineSpans {
    pub chain_s: f64,
    pub park_s: f64,
    pub backpressure_s: f64,
    /// Self time of any other span kind (e.g. an injected `fault_delay`).
    pub other_s: f64,
}

impl MachineSpans {
    pub fn attributed_s(&self) -> f64 {
        self.chain_s + self.park_s + self.backpressure_s + self.other_s
    }
}

struct XEvent {
    name: String,
    ts: u64,
    dur: u64,
}

/// The value after `"key":` in `event`, up to the next `,` or `}`.
fn field<'a>(event: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = event.find(&pat)? + pat.len();
    let rest = &event[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// Per-machine span self times, keyed by the track's pid (the machine id).
/// The run-level track (pid `u32::MAX`) carries instants only and is
/// skipped. Returns `None` if the export is not in the expected shape.
pub fn machine_spans(chrome_json: &str) -> Option<BTreeMap<u32, MachineSpans>> {
    let mut tracks: BTreeMap<u32, Vec<XEvent>> = BTreeMap::new();
    for piece in chrome_json.split("{\"ph\":").skip(1) {
        if !piece.starts_with("\"X\"") {
            continue;
        }
        let name = field(piece, "name")?.trim_matches('"').to_string();
        let pid: u32 = field(piece, "pid")?.parse().ok()?;
        let ts: u64 = field(piece, "ts")?.parse().ok()?;
        let dur: u64 = field(piece, "dur")?.parse().ok()?;
        if pid == u32::MAX {
            continue;
        }
        tracks
            .entry(pid)
            .or_default()
            .push(XEvent { name, ts, dur });
    }
    let mut out = BTreeMap::new();
    for (pid, mut events) in tracks {
        // Spans on one track nest (the recorder pairs them in stack order):
        // sorting by start, longest first, puts every parent before its
        // children.
        events.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.dur.cmp(&a.dur)));
        let mut child = vec![0u64; events.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..events.len() {
            while let Some(&top) = stack.last() {
                if events[top].ts + events[top].dur <= events[i].ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child[parent] += events[i].dur;
            }
            stack.push(i);
        }
        let mut m = MachineSpans::default();
        for (e, c) in events.iter().zip(child) {
            let own = e.dur.saturating_sub(c) as f64 / 1e6;
            match e.name.as_str() {
                "chain" => m.chain_s += own,
                "park" => m.park_s += own,
                "backpressure" => m.backpressure_s += own,
                _ => m.other_s += own,
            }
        }
        out.insert(pid, m);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_count_once() {
        let json = concat!(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"machine-0\"}},",
            "{\"ph\":\"X\",\"name\":\"chain\",\"pid\":0,\"tid\":0,\"ts\":100,\"dur\":1000,\"args\":{\"segment\":0}},",
            "{\"ph\":\"X\",\"name\":\"backpressure\",\"pid\":0,\"tid\":0,\"ts\":200,\"dur\":300},",
            "{\"ph\":\"X\",\"name\":\"park\",\"pid\":0,\"tid\":0,\"ts\":1200,\"dur\":50},",
            "{\"ph\":\"X\",\"name\":\"chain\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":10},",
            "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"cancelled\",\"pid\":4294967295,\"tid\":2,\"ts\":5}",
            "]}"
        );
        let spans = machine_spans(json).unwrap();
        let m0 = &spans[&0];
        assert!((m0.chain_s - 700e-6).abs() < 1e-12);
        assert!((m0.backpressure_s - 300e-6).abs() < 1e-12);
        assert!((m0.park_s - 50e-6).abs() < 1e-12);
        assert!((m0.attributed_s() - 1050e-6).abs() < 1e-12);
        assert!((spans[&1].chain_s - 10e-6).abs() < 1e-12);
    }
}
