//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and the run's metrics, printed last on stdout.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("sustained_rps", "1/s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("accparse.calls", "count"),
    ("accparse.busy_ms", "ms"),
    ("accparse.src_bytes", "bytes"),
    ("core.compiles", "count"),
    ("core.busy_ms", "ms"),
    ("core.kernel_insts", "count"),
    ("core.finalize_kernels", "count"),
    ("accrt.busy_ms", "ms"),
    ("accrt.bind_ms", "ms"),
    ("accrt.h2d_ms", "ms"),
    ("accrt.d2h_ms", "ms"),
    ("accrt.bytes_h2d", "bytes"),
    ("accrt.bytes_d2h", "bytes"),
    ("accrt.h2d_gbps", "GB/s"),
    ("gpsim.launch_ms", "ms"),
    ("gpsim.launches", "count"),
    ("gpsim.ms_per_launch", "ms"),
    ("gpsim.lane_insts", "count"),
    ("gpsim.warp_insts", "count"),
    ("gpsim.avg_active_lanes", "lanes"),
    ("gpsim.transactions_per_access", "ratio"),
    ("gpsim.conflict_ways_per_access", "ratio"),
    ("gpsim.barriers", "count"),
    ("gpsim.kernel_cycles", "cycles"),
    ("gpsim.transfer_cycles", "cycles"),
    ("gpsim.device_gbps", "model_GB/s"),
    ("device_ms", "model_ms"),
    ("driver.render_ms", "ms"),
    ("uhaccd.busy_ms", "ms"),
    ("uhaccd.server_p50_ms", "ms"),
    ("uhaccd.queue_wait_p50_ms", "ms"),
    ("uhaccd.queue_wait_tail_ms", "ms"),
    ("uhaccd.client_overhead_ms", "ms"),
    ("uhaccd.program_hit_ratio", "ratio"),
    ("uhaccd.region_hit_ratio", "ratio"),
    ("uhaccd.parses", "count"),
    ("uhaccd.region_compiles", "count"),
    ("uhaccd.compile_p50_ms", "ms"),
    ("uhaccd.non2xx", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.late_ms", "ms"),
    ("uhobs.overhead_pct", "%"),
    ("trace.unattributed_ms", "ms"),
    ("trace.job_wall_ms", "ms"),
    ("error_ratio", "ratio"),
];

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Count one checked job or request.
    pub fn tally(&mut self, error: Option<&str>, what: &str) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            println!("# FAIL {what}: {e}");
        }
    }

    pub fn error_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line for this mode's metric set.
    pub fn json(&self, traced: bool) -> String {
        let set = if traced { PER_LAYER } else { END_TO_END };
        // A value that is not a finite number is never printed as one:
        // it reads `null` and the run is not correct, so a broken run can
        // never pass for a fast one.
        let mut finite = true;
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                finite &= v.is_finite();
                let v = if v.is_finite() {
                    v.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_value_is_null_and_not_correct() {
        let mut r = Report::default();
        r.tally(None, "job");
        for (name, _) in END_TO_END {
            r.put(name, 1.5);
        }
        assert!(r.json(false).starts_with("{\"correct\":true,"));
        r.put("latency_tail_ms", f64::INFINITY);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
        assert!(
            line.contains("\"latency_tail_ms\":{\"value\":null,"),
            "{line}"
        );
    }
}
