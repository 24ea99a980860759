//! The traced run's span recorder: spans around the benchmark's own calls
//! into each layer, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time of one layer, summed over its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub self_s: f64,
    /// Share of the wall of all `step` spans spent in this layer's own
    /// code (0 for spans outside steps).
    pub step_share: f64,
}

/// In-memory recorder. Spans are recorded only while `on`; a closed loop
/// has one caller, so spans never overlap except by nesting.
pub struct Spans {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

/// Name of the root span around one timed step.
pub const STEP: &str = "step";

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
        }
    }

    /// Record (or stop recording) spans from here on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns `None` while recording is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Self time per span name: a span's duration minus the time its
    /// children cover.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// The spans and per-layer self times as JSON.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        let layers: Vec<String> = self
            .layers()
            .iter()
            .map(|(name, l)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"self_s\":{},\"step_share\":{}}}",
                    l.count, l.self_s, l.step_share
                )
            })
            .collect();
        format!(
            "{{\"spans\":[{}],\"layers\":{{{}}}}}\n",
            rows.join(",\n"),
            layers.join(",\n")
        )
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    // The step root each span belongs to, if any.
    let mut in_step = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_step[i] = s.name == STEP || s.parent.is_some_and(|p| in_step[p]);
    }
    let step_wall: u64 = spans
        .iter()
        .filter(|s| s.name == STEP)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.self_s += secs(own);
        if in_step[i] && step_wall > 0 {
            l.step_share += own as f64 / step_wall as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_shares_sum_to_one() {
        let spans = vec![
            span(STEP, None, 0, 100),
            span("call", Some(0), 10, 70),
            span("check", Some(0), 70, 90),
            span("probe", None, 200, 250),
        ];
        let l = layer_times(&spans);
        assert_eq!(l[STEP].self_s, secs(20));
        assert_eq!(l["call"].self_s, secs(60));
        assert_eq!(l["probe"].step_share, 0.0);
        let share: f64 = ["step", "call", "check"]
            .iter()
            .map(|n| l[n].step_share)
            .sum();
        assert!((share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let mut s = Spans::new();
        let id = s.begin("x", None);
        s.end(id);
        assert!(id.is_none() && s.layers().is_empty());
        s.set_on(true);
        let id = s.begin("x", None);
        s.end(id);
        assert_eq!(s.layers()["x"].count, 1);
    }
}
