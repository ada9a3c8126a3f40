//! The closed-loop workloads (`kernels`, `bulk`, `iterative`): one client
//! runs the workload's job list in whole rounds until the run time is
//! used, so every run sees the same job mix.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::jobs::{run_job, JobKind, Outcome};
use crate::report::Report;
use crate::stats::{mean, median, peak_rss_mb, tail};
use crate::trace::{breakdown, Breakdown, Tr};

/// A closed-loop workload: its job kinds (one round) and the warm-up jobs
/// that make up its set-up.
pub struct Closed {
    pub name: &'static str,
    pub jobs: Vec<JobKind>,
    pub warmup: Vec<usize>,
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

struct Sample {
    kind: usize,
    traced: bool,
    cold: bool,
    out: Outcome,
}

/// One job or request in `COLD_EVERY` gets a never-seen key (see
/// [`run_job`]'s `tag`), spread evenly over the run: a 25% cold share.
pub const COLD_EVERY: usize = 4;

/// Run `w` for about `seconds` (whole rounds, at least two) and report.
/// With `trace`, rounds alternate untraced / traced and the report holds
/// the per-layer metrics; otherwise every round is untraced and the
/// report holds the end-to-end metrics.
pub fn run(w: &Closed, seconds: f64, trace: bool, host_threads: u32) -> Report {
    let mut rep = Report::default();
    let mut off = Tr::off();

    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for &i in &w.warmup {
            let o = run_job(&w.jobs[i], None, host_threads, &mut off);
            rep.tally(o.error.as_deref(), &format!("warm-up {}", w.jobs[i].name));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    rep.put("setup_s", median(&setups));

    let mut tr = if trace { Tr::on() } else { Tr::off() };
    let mut samples: Vec<Sample> = Vec::new();
    let mut seen = vec![false; w.jobs.len()];
    for &i in &w.warmup {
        seen[i] = true;
    }
    let t0 = Instant::now();
    let mut round = 0;
    // Whole rounds, at least two, while the next one (at the mean round
    // time so far) still fits in `seconds`: runs end near `seconds`
    // rather than up to a round past it.
    while round < 2 || t0.elapsed().as_secs_f64() * (round + 1) as f64 / round as f64 <= seconds {
        let traced = trace && round % 2 == 1;
        for (kind, k) in w.jobs.iter().enumerate() {
            let tag = ((round + kind) % COLD_EVERY == 0)
                .then(|| format!("perfbench cold key r{round} j{kind}"));
            let cold = tag.is_some() || !seen[kind];
            seen[kind] |= tag.is_none();
            let t = if traced { &mut tr } else { &mut off };
            t.set_job(samples.len() as u64 + 1);
            let out = run_job(k, tag.as_deref(), host_threads, t);
            rep.tally(out.error.as_deref(), &k.name);
            samples.push(Sample {
                kind,
                traced,
                cold,
                out,
            });
        }
        round += 1;
    }
    println!(
        "# {}: {} job kinds x {round} rounds, {} jobs, host_threads {host_threads}, nproc {}",
        w.name,
        w.jobs.len(),
        samples.len(),
        crate::nproc()
    );

    let untraced: Vec<&Sample> = samples.iter().filter(|s| !s.traced).collect();
    end_to_end(&mut rep, &untraced, &w.jobs);
    if trace {
        let traced: Vec<&Sample> = samples.iter().filter(|s| s.traced).collect();
        let spans = match tr.finish() {
            Ok(s) => s,
            Err(e) => {
                rep.tally(Some(&e), "trace export");
                Vec::new()
            }
        };
        let b = breakdown(&spans, "job");
        per_layer(&mut rep, &traced, &b);
        rep.put("uhobs.overhead_pct", overhead_pct(&untraced, &traced));
        rep.put("loadgen.sent", samples.len() as f64);
        print_layers(w.name, &rep, &b);
    }
    rep.put("error_ratio", rep.error_ratio());
    println!(
        "# error_ratio = {} ({} failed of {} attempted)",
        rep.error_ratio(),
        rep.failed,
        rep.attempted
    );
    rep
}

fn end_to_end(rep: &mut Report, s: &[&Sample], jobs: &[JobKind]) {
    let walls: Vec<f64> = s.iter().map(|x| x.out.wall_s * 1e3).collect();
    // Per job kind: the median wall time of its jobs. Every kind runs
    // once per round, so the mix-weighted mean of the kinds' medians is
    // their plain mean: it responds to a change in any one kind, where a
    // pooled median or a median over kinds would not.
    let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for x in s {
        by_kind.entry(x.kind).or_default().push(x.out.wall_s * 1e3);
    }
    let kind_p50: BTreeMap<usize, f64> = by_kind.iter().map(|(k, v)| (*k, median(v))).collect();
    let all: Vec<f64> = kind_p50.values().copied().collect();
    let p50 = mean(&all);
    // Cold and warm jobs: each job's wall time relative to its kind's
    // median, pooled over kinds (a few cold jobs per kind are too few for
    // a median of their own), scaled back by the mix mean. Which kinds
    // drew the cold keys in a run cannot move them.
    let split = |cold: bool| {
        let rel: Vec<f64> = s
            .iter()
            .filter(|x| x.cold == cold)
            .map(|x| x.out.wall_s * 1e3 / kind_p50[&x.kind])
            .collect();
        p50 * median(&rel)
    };
    let ok_share =
        s.iter().filter(|x| x.out.error.is_none()).count() as f64 / s.len().max(1) as f64;
    let n_cold = s.iter().filter(|x| x.cold).count();
    let lane: f64 = s.iter().map(|x| x.out.stats.totals.lane_insts as f64).sum();
    let run_s: f64 = s.iter().map(|x| x.out.run_s).sum();
    let t = tail(&walls);
    // Correct jobs per second of a round run at every kind's median.
    let jobs_per_s = ok_share * all.len() as f64 / (all.iter().sum::<f64>() / 1e3).max(1e-9);
    rep.put("jobs_per_s", jobs_per_s);
    rep.put("latency_p50_ms", p50);
    rep.put("latency_tail_ms", t.value);
    rep.put("cold_p50_ms", split(true));
    rep.put("warm_p50_ms", split(false));
    // A single closed-loop client is never ahead of the system: the rate
    // it sustains is its completion rate.
    rep.put("sustained_rps", jobs_per_s);
    rep.put("sim_minsts_per_s", lane / run_s.max(1e-9) / 1e6);
    rep.put("peak_rss_mb", peak_rss_mb());
    let device_ms = s.iter().map(|x| x.out.device_ms).sum::<f64>() / s.len().max(1) as f64;
    rep.put("device_ms", device_ms);
    println!(
        "# latency_tail_ms is p{:.2} of {} samples; cold = never-seen key ({n_cold} jobs), warm = repeated key ({} jobs); latency_p50_ms is the mean over job kinds of per-kind medians, cold/warm scale it by the median of jobs relative to their kind's median",
        t.pct,
        t.n,
        s.len() - n_cold
    );
    println!(
        "# device_ms = {device_ms} modelled ms per job (modelled, unvalidated against hardware)"
    );
    let per_kind: Vec<String> = by_kind
        .iter()
        .map(|(k, v)| format!("{} {:.3} (n {})", jobs[*k].name, kind_p50[k], v.len()))
        .collect();
    println!("# p50 ms per job kind: {}", per_kind.join(", "));
}

fn per_layer(rep: &mut Report, s: &[&Sample], b: &Breakdown) {
    let n = s.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Outcome) -> f64| s.iter().map(|x| f(&x.out)).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs = b.jobs.max(1) as f64;

    rep.put("accparse.calls", b.calls("accparse") as f64 / jobs);
    rep.put("accparse.busy_ms", b.layer_ms("accparse") / jobs);
    rep.put("accparse.src_bytes", sum(&|o| o.src_bytes as f64) / n);
    rep.put("core.compiles", sum(&|o| o.compiles as f64) / n);
    rep.put("core.busy_ms", b.layer_ms("core") / jobs);
    rep.put("core.kernel_insts", sum(&|o| o.kernel_insts as f64) / n);
    rep.put(
        "core.finalize_kernels",
        sum(&|o| o.finalize_kernels as f64) / n,
    );

    let h2d_ms = b.self_ms("accrt.h2d");
    let bytes_h2d = sum(&|o| o.stats.bytes_h2d as f64);
    rep.put("accrt.busy_ms", b.layer_ms("accrt") / jobs);
    rep.put("accrt.bind_ms", b.self_ms("accrt.bind") / jobs);
    rep.put("accrt.h2d_ms", h2d_ms / jobs);
    rep.put("accrt.d2h_ms", b.self_ms("accrt.d2h") / jobs);
    rep.put("accrt.bytes_h2d", bytes_h2d / n);
    rep.put("accrt.bytes_d2h", sum(&|o| o.stats.bytes_d2h as f64) / n);
    rep.put("accrt.h2d_gbps", ratio(bytes_h2d, h2d_ms * 1e6));

    let launch_ms = b.self_ms("gpsim.launch");
    let launches = sum(&|o| o.stats.launches as f64);
    let lane = sum(&|o| o.stats.totals.lane_insts as f64);
    let warp = sum(&|o| o.stats.totals.warp_insts as f64);
    rep.put("gpsim.launch_ms", launch_ms / jobs);
    rep.put("gpsim.launches", launches / n);
    rep.put("gpsim.ms_per_launch", ratio(launch_ms, launches));
    rep.put("gpsim.lane_insts", lane / n);
    rep.put("gpsim.warp_insts", warp / n);
    rep.put("gpsim.avg_active_lanes", ratio(lane, warp));
    rep.put(
        "gpsim.transactions_per_access",
        ratio(
            sum(&|o| o.stats.totals.global_transactions as f64),
            sum(&|o| o.stats.totals.global_accesses as f64),
        ),
    );
    rep.put(
        "gpsim.conflict_ways_per_access",
        ratio(
            sum(&|o| o.stats.totals.shared_ways as f64),
            sum(&|o| o.stats.totals.shared_accesses as f64),
        ),
    );
    rep.put(
        "gpsim.barriers",
        sum(&|o| o.stats.totals.barriers as f64) / n,
    );
    rep.put(
        "gpsim.kernel_cycles",
        sum(&|o| o.stats.kernel_cycles as f64) / n,
    );
    rep.put(
        "gpsim.transfer_cycles",
        sum(&|o| o.stats.transfer_cycles as f64) / n,
    );
    let moved = sum(&|o| (o.stats.totals.global_transactions * o.segment_bytes) as f64);
    let kernel_s = sum(&|o| o.stats.kernel_cycles as f64 / o.clock_hz.max(1.0));
    rep.put("gpsim.device_gbps", ratio(moved, kernel_s * 1e9));
    rep.put("device_ms", sum(&|o| o.device_ms) / n);
    rep.put("driver.render_ms", b.layer_ms("driver") / jobs);
    rep.put(
        "trace.unattributed_ms",
        b.unattributed_us as f64 / 1e3 / jobs,
    );
    rep.put("trace.job_wall_ms", b.wall_us as f64 / 1e3 / jobs);
}

/// Traced vs untraced job wall time, per job kind (median each), summed
/// over the kinds both sides ran.
fn overhead_pct(untraced: &[&Sample], traced: &[&Sample]) -> f64 {
    let by_kind = |s: &[&Sample]| {
        let mut m: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for x in s {
            m.entry(x.kind).or_default().push(x.out.wall_s);
        }
        m
    };
    let (u, t) = (by_kind(untraced), by_kind(traced));
    let (mut su, mut st) = (0.0, 0.0);
    for (k, tv) in &t {
        if let Some(uv) = u.get(k) {
            su += median(uv);
            st += median(tv);
        }
    }
    if su > 0.0 {
        (st / su - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Layer self times per job, summing to job wall time, and the
/// workload's prediction checked against them.
fn print_layers(workload: &str, rep: &Report, b: &Breakdown) {
    let jobs = b.jobs.max(1) as f64;
    let wall = b.wall_us as f64 / 1e3 / jobs;
    let rows = [
        ("accparse", b.layer_ms("accparse") / jobs),
        ("core", b.layer_ms("core") / jobs),
        ("accrt.bind", b.self_ms("accrt.bind") / jobs),
        ("accrt.h2d", b.self_ms("accrt.h2d") / jobs),
        ("accrt.d2h", b.self_ms("accrt.d2h") / jobs),
        (
            "accrt.other",
            (b.layer_ms("accrt")
                - b.self_ms("accrt.bind")
                - b.self_ms("accrt.h2d")
                - b.self_ms("accrt.d2h"))
                / jobs,
        ),
        ("gpsim.launch", b.layer_ms("gpsim") / jobs),
        ("driver", b.layer_ms("driver") / jobs),
        ("unattributed", b.unattributed_us as f64 / 1e3 / jobs),
    ];
    print_table(&rows, wall, b.jobs);
    let share = |ms: f64| if wall > 0.0 { ms / wall } else { 0.0 };
    let dominant = rows
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |r| r.0);
    let host_path = share(rows[2].1 + rows[3].1);
    let launch_share = share(rows[6].1);
    let (claim, holds) = match workload {
        "kernels" => (
            "gpsim.launch is the largest self time; bind+h2d is a small share".to_string(),
            dominant == "gpsim.launch" && host_path < 0.10,
        ),
        "bulk" => (
            "accrt.bind + accrt.h2d is a large share (>= 25% of job wall)".to_string(),
            host_path >= 0.25,
        ),
        _ => (
            format!(
                "per-launch cost dominates: gpsim.launch largest, {:.0} launches/job at {:.3} ms each",
                rep.get("gpsim.launches"),
                rep.get("gpsim.ms_per_launch")
            ),
            dominant == "gpsim.launch",
        ),
    };
    println!(
        "# dominant layer: {dominant} ({:.1}% of wall); bind+h2d share {:.1}%; launch share {:.1}%",
        share(rows.iter().find(|r| r.0 == dominant).map_or(0.0, |r| r.1)) * 100.0,
        host_path * 100.0,
        launch_share * 100.0
    );
    println!(
        "# prediction [{workload}]: {claim} -> {}",
        if holds { "found" } else { "NOT found" }
    );
}

pub fn print_table(rows: &[(&str, f64)], wall_ms: f64, jobs: usize) {
    println!("# layer self time per job (ms), {jobs} traced jobs:");
    let mut total = 0.0;
    for (name, ms) in rows {
        total += ms;
        let pct = if wall_ms > 0.0 {
            ms / wall_ms * 100.0
        } else {
            0.0
        };
        println!("#   {name:<16} {ms:>12.4} {pct:>6.1}%");
    }
    println!("#   {:<16} {total:>12.4} (job wall {wall_ms:.4})", "sum");
}
