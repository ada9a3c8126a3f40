//! The traced run's span recorder and self-time accounting.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a crate's public API (`accparse::compile`, `uhacc_core::compile_region`,
//! `AccRunner::bind_*`/`run`/`run_region`, `uhacc::driver::*`). The
//! runtime's existing `accrt::RunnerObs` hook adds its per-region phase
//! spans (`h2d`, `launch`, `d2h`, `codegen`) on the same clock; the daemon
//! exports its own spans at `GET /trace`. Everything stays in memory until
//! the run ends.

use std::collections::BTreeMap;
use std::sync::Arc;

/// One completed span. `job` groups the spans of one job or request.
#[derive(Debug, Clone)]
pub struct Span {
    pub job: u64,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Span recorder. When off it never reads a clock, so untraced runs pay
/// nothing for the instrumentation points.
pub struct Tr {
    clock: Option<Arc<uhobs::Clock>>,
    tracer: Option<Arc<uhobs::Tracer>>,
    spans: Vec<Span>,
    open: Vec<(String, u64)>,
    job: u64,
}

impl Tr {
    pub fn off() -> Tr {
        Tr {
            clock: None,
            tracer: None,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    pub fn on() -> Tr {
        let clock = Arc::new(uhobs::Clock::monotonic());
        let tracer = Arc::new(uhobs::Tracer::with_capacity(
            Arc::clone(&clock),
            "perfbench",
            1 << 22,
        ));
        Tr {
            clock: Some(clock),
            tracer: Some(tracer),
            ..Tr::off()
        }
    }

    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// The runtime hook for the current job, when tracing.
    pub fn runner_obs(&self) -> Option<accrt::RunnerObs> {
        self.tracer.as_ref().map(|t| accrt::RunnerObs {
            tracer: Arc::clone(t),
            trace_id: self.job,
            compile_hist: None,
        })
    }

    pub fn begin(&mut self, name: &str) {
        if let Some(c) = &self.clock {
            self.open.push((name.to_string(), c.now_us()));
        }
    }

    pub fn end(&mut self) {
        if let Some(c) = &self.clock {
            let (name, start_us) = self.open.pop().expect("span begin/end balanced");
            self.spans.push(Span {
                job: self.job,
                name,
                start_us,
                end_us: c.now_us(),
            });
        }
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let v = f();
        self.end();
        v
    }

    /// All spans: the benchmark's own plus the runtime hook's, renamed to
    /// their layers.
    pub fn finish(self) -> Result<Vec<Span>, String> {
        let mut spans = self.spans;
        if let Some(t) = &self.tracer {
            for s in chrome_spans(&t.to_chrome_trace())? {
                if let Some(name) = runner_layer(&s.name) {
                    spans.push(Span {
                        name: name.to_string(),
                        ..s
                    });
                }
            }
        }
        Ok(spans)
    }
}

/// Layer name of an `accrt::RunnerObs` phase span (`h2d.region0`, ...).
fn runner_layer(name: &str) -> Option<&'static str> {
    match name.split('.').next()? {
        "codegen" => Some("core.codegen"),
        "h2d" => Some("accrt.h2d"),
        "launch" => Some("gpsim.launch"),
        "d2h" => Some("accrt.d2h"),
        _ => None,
    }
}

/// Request-track spans of a Chrome-trace export (`uhobs::Tracer`).
/// `cache.lookup` spans get their hit flag folded into the name
/// (`cache.lookup.hit` / `cache.lookup.miss`).
pub fn chrome_spans(text: &str) -> Result<Vec<Span>, String> {
    let doc = uhaccd::json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("trace has no traceEvents array")?;
    let mut out = Vec::new();
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) != Some("X")
            || e.get("pid").and_then(|p| p.as_f64()) != Some(f64::from(uhobs::trace::REQUEST_PID))
        {
            continue;
        }
        let num = |k: &str| e.get(k).and_then(|v| v.as_f64()).map(|v| v as u64);
        let (Some(ts), Some(dur), Some(tid)) = (num("ts"), num("dur"), num("tid")) else {
            return Err("span event without ts/dur/tid".into());
        };
        let mut name = e
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("span event without a name")?
            .to_string();
        if name == "cache.lookup" {
            let hit = e
                .get("args")
                .and_then(|a| a.get("hit"))
                .and_then(|h| h.as_str());
            name.push_str(if hit == Some("true") { ".hit" } else { ".miss" });
        }
        out.push(Span {
            job: tid,
            name,
            start_us: ts,
            end_us: ts + dur,
        });
    }
    Ok(out)
}

/// Self time per span name, summed over jobs, plus the part of each root
/// span no child covers.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub jobs: usize,
    pub wall_us: u64,
    pub unattributed_us: u64,
    pub self_us: BTreeMap<String, u64>,
    pub calls: BTreeMap<String, u64>,
}

impl Breakdown {
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0) as f64 / 1000.0
    }

    /// Self time of every span whose name is `layer` or starts with
    /// `layer.`.
    pub fn layer_ms(&self, layer: &str) -> f64 {
        let dotted = format!("{layer}.");
        self.self_us
            .iter()
            .filter(|(k, _)| *k == layer || k.starts_with(&dotted))
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
            / 1000.0
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Nest each job's spans by containment and charge every span its
/// duration minus its direct children's. The span named `root` is the
/// job's wall time; its own self time is the unattributed remainder.
pub fn breakdown(spans: &[Span], root: &str) -> Breakdown {
    let mut by_job: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_job.entry(s.job).or_default().push(i);
    }
    let mut b = Breakdown::default();
    for idx in by_job.values_mut() {
        idx.sort_by_key(|&i| (spans[i].start_us, std::cmp::Reverse(spans[i].end_us), i));
        let mut child_us = vec![0u64; idx.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (k, &i) in idx.iter().enumerate() {
            let s = &spans[i];
            while let Some(&top) = stack.last() {
                if spans[idx[top]].end_us >= s.end_us {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_us[parent] += s.end_us - s.start_us;
            }
            stack.push(k);
        }
        for (k, &i) in idx.iter().enumerate() {
            let s = &spans[i];
            let own = (s.end_us - s.start_us).saturating_sub(child_us[k]);
            *b.calls.entry(s.name.clone()).or_default() += 1;
            if s.name == root {
                b.jobs += 1;
                b.wall_us += s.end_us - s.start_us;
                b.unattributed_us += own;
            } else {
                *b.self_us.entry(s.name.clone()).or_default() += own;
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(job: u64, name: &str, a: u64, b: u64) -> Span {
        Span {
            job,
            name: name.into(),
            start_us: a,
            end_us: b,
        }
    }

    #[test]
    fn self_times_sum_to_wall() {
        let spans = vec![
            sp(1, "job", 0, 100),
            sp(1, "accparse", 0, 10),
            sp(1, "accrt.run", 20, 90),
            sp(1, "gpsim.launch", 30, 80),
            sp(2, "job", 200, 250),
            sp(2, "core", 210, 240),
        ];
        let b = breakdown(&spans, "job");
        assert_eq!(b.jobs, 2);
        assert_eq!(b.wall_us, 150);
        assert_eq!(b.self_ms("gpsim.launch"), 0.050);
        assert_eq!(b.self_ms("accrt.run"), 0.020);
        assert_eq!(b.layer_ms("accrt"), 0.020);
        assert_eq!(b.unattributed_us, 20 + 20);
        let attributed: u64 = b.self_us.values().sum();
        assert_eq!(attributed + b.unattributed_us, b.wall_us);
    }
}
