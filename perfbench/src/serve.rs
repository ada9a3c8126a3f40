//! The `serve` workload: an open loop against an in-process `uhaccd`
//! daemon on 127.0.0.1:0. Arrivals follow a seeded schedule at a few
//! fixed offered rates; each request is timed from its due time.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use acc_baselines::Compiler;
use acc_testsuite::cases::{case_source, Position};
use accparse::ast::{CType, RedOp};
use gpsim::Device;
use uhacc_core::LaunchDims;
use uhaccd::json::{parse, Json};
use uhaccd::DaemonConfig;

use crate::closed::COLD_EVERY;
use crate::jobs::{self, app_source, check_scalars_json, compiler_flag, Want};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{mean, median, peak_rss_mb, quantile, tail};
use crate::trace::{breakdown, chrome_spans};

/// Offered rates (requests/s), one phase each, lowest first. Fixed: never
/// derived from a run's measured capacity. `BENCHMARK.json` states them.
/// The top rate is set well above the daemon's capacity as measured on a
/// 2-vCPU host (160-215 req/s for this mix, see `NOTES.md`), so its
/// phase misses the limit and measures throughput at saturation. The
/// lower two stay below a third of capacity, where latency is mostly
/// service time rather than queueing, which host-speed drift would
/// amplify.
pub const RATES: [f64; 3] = [30.0, 60.0, 300.0];
/// Latency limit on the tail percentile, timed from each request's due
/// time. A failed or refused request counts as missing it.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Distinct warm keys, each sent once during set-up. Below the daemon's
/// default program-cache capacity (64), so repeats stay cache hits while
/// cold keys pass through.
const WARM_KEYS: usize = 48;
/// Endpoint mix (weights).
const MIX: [(&str, u32); 6] = [
    ("/compile", 30),
    ("/lint", 15),
    ("/analyze", 15),
    ("/certify", 10),
    ("/run", 20),
    ("/profile", 10),
];
const DIMS: [[u32; 3]; 2] = [[8, 2, 32], [4, 4, 64]];
/// How long before a request's due time a client thread stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_millis(2);
/// Simulator host threads per `/run` / `/profile` request.
const REQ_HOST_THREADS: u32 = 1;

/// A base program of the key universe.
struct Prog {
    name: String,
    src: String,
    compiler: Compiler,
    /// Problem size for `/run` and `/profile` (the daemon's binder).
    n: u64,
}

/// One request of the schedule.
#[derive(Clone)]
struct Req {
    endpoint: &'static str,
    prog: usize,
    dims: usize,
    /// `Some(tag)`: a never-seen key (the tag is spliced into the source).
    cold: Option<String>,
    /// Index into the warm pool, for warm requests.
    warm: Option<usize>,
}

struct Rec {
    req: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    status: u16,
    body: String,
}

/// Several Table-2 cases as one program, one region per case: each
/// case's names get a `_<i>` suffix so they do not clash, and its
/// declarations and host assignments move ahead of the first region.
fn bundle(cells: &[(Position, RedOp, CType)]) -> String {
    const NAMES: [&str; 10] = [
        "NK", "NJ", "NI", "N", "sum", "input", "temp", "out", "j_sum", "i_sum",
    ];
    let (mut head, mut body) = (String::new(), String::new());
    for (i, &(pos, op, ty)) in cells.iter().enumerate() {
        let mut renamed = String::new();
        let mut ident = String::new();
        for ch in case_source(pos, op, ty)
            .chars()
            .chain(std::iter::once('\n'))
        {
            if ch.is_ascii_alphanumeric() || ch == '_' {
                ident.push(ch);
                continue;
            }
            if NAMES.contains(&ident.as_str()) {
                ident.push_str(&format!("_{i}"));
            }
            renamed.push_str(&ident);
            ident.clear();
            renamed.push(ch);
        }
        let split = renamed.find("#pragma").unwrap_or(renamed.len());
        head.push_str(&renamed[..split]);
        body.push_str(&renamed[split..]);
    }
    head + &body
}

/// Regions per Table-2 program: requests carry realistic multi-kernel
/// programs, so per-request work is milliseconds of front end, codegen,
/// verification or simulation rather than a few hundred microseconds.
const BUNDLE: usize = 4;

fn universe() -> Vec<Prog> {
    let mut cells = Vec::new();
    for pos in Position::all() {
        for op in [RedOp::Add, RedOp::Mul] {
            for ty in [CType::Int, CType::Double] {
                cells.push((pos, op, ty));
            }
        }
    }
    let mut progs = Vec::new();
    for b in 0..cells.len() {
        let members: Vec<_> = (0..BUNDLE)
            .map(|k| cells[(b + k * cells.len() / BUNDLE) % cells.len()])
            .collect();
        let src = bundle(&members);
        for c in Compiler::all() {
            progs.push(Prog {
                name: format!("{}/table2-bundle{b}", compiler_flag(c)),
                src: src.clone(),
                compiler: c,
                n: 12,
            });
        }
    }
    for (name, n) in [
        ("heat2d", 32),
        ("matmul", 16),
        ("matmul-seq-k", 16),
        ("pi", 4096),
    ] {
        progs.push(Prog {
            name: format!("openuh/app/{name}"),
            src: app_source(name).into(),
            compiler: Compiler::OpenUH,
            n,
        });
    }
    for (name, src, n) in [
        ("grid.c", jobs::GRID_SRC, 12),
        ("pi.c", jobs::PI_EXAMPLE_SRC, 4096),
        ("ok_mean_variance.c", jobs::MEAN_VARIANCE_SRC, 4096),
        ("ok_max_normalize.c", jobs::MAX_NORMALIZE_SRC, 4096),
    ] {
        progs.push(Prog {
            name: format!("openuh/examples/{name}"),
            src: src.into(),
            compiler: Compiler::OpenUH,
            n,
        });
    }
    progs
}

fn source_of(progs: &[Prog], r: &Req) -> String {
    match &r.cold {
        Some(tag) => format!("// {tag}\n{}", progs[r.prog].src),
        None => progs[r.prog].src.clone(),
    }
}

fn body_of(progs: &[Prog], r: &Req, host_threads: u32) -> String {
    let p = &progs[r.prog];
    let src = Json::Str(source_of(progs, r)).to_string();
    let c = compiler_flag(p.compiler);
    let [g, w, v] = DIMS[r.dims];
    match r.endpoint {
        "/lint" => format!("{{\"source\":{src}}}"),
        "/analyze" | "/certify" => format!("{{\"source\":{src},\"compiler\":\"{c}\"}}"),
        "/compile" => format!("{{\"source\":{src},\"compiler\":\"{c}\",\"dims\":[{g},{w},{v}],\"verify\":true}}"),
        _ => format!(
            "{{\"source\":{src},\"compiler\":\"{c}\",\"dims\":[{g},{w},{v}],\"n\":{},\"host_threads\":{host_threads}}}",
            p.n
        ),
    }
}

/// The response without its per-request `cache` report: what repeats of
/// a key must reproduce byte for byte.
fn canonical(body: &str) -> &str {
    // Every endpoint that reports `cache` puts it last.
    body.rfind(",\"cache\":").map_or(body, |i| &body[..i])
}

/// Everything built from the seed before set-up: the warm pool, the
/// schedule of every phase, and the references.
struct Plan {
    progs: Vec<Prog>,
    warm: Vec<Req>,
    phases: Vec<(f64, Vec<(Duration, Req)>)>,
    /// `/run` references per program: scalars from the CPU interpreter
    /// on the daemon's own binder inputs.
    want: HashMap<usize, Vec<Want>>,
    /// Simulated lane-instructions per `(prog, dims)` (deterministic).
    lane_insts: HashMap<(usize, usize), u64>,
}

fn plan(seed: u64, seconds: f64, rates: &[f64]) -> Plan {
    let progs = universe();
    let mut rng = Rng::new(seed, 10);
    // The warm pool is the same for every seed: programs spread evenly
    // over the universe, endpoints dealt by the mix weights.
    let deal: Vec<&'static str> = MIX
        .iter()
        .flat_map(|(ep, w)| std::iter::repeat_n(*ep, (*w as usize * WARM_KEYS).div_ceil(100)))
        .collect();
    let warm: Vec<Req> = (0..WARM_KEYS)
        .map(|i| Req {
            endpoint: deal[i * deal.len() / WARM_KEYS],
            prog: i * progs.len() / WARM_KEYS,
            dims: i % DIMS.len(),
            cold: None,
            warm: Some(i),
        })
        .collect();
    let phase_s = seconds / rates.len() as f64;
    let mut phases = Vec::new();
    let mut cold_id = 0;
    for (pi, &rate) in rates.iter().enumerate() {
        // Exactly rate x phase_s arrivals with exponential gaps scaled to
        // span the phase: bursty like Poisson, same count every run. The
        // phase's request multiset is fixed (every COLD_EVERY-th a cold key
        // dealt round-robin over endpoints and programs, the rest cycling
        // through the warm pool); the seed shuffles its order and times.
        let count = (rate * phase_s).round().max(1.0) as usize;
        let gaps: Vec<f64> = (0..count).map(|_| -(1.0 - rng.unit()).ln()).collect();
        let scale = phase_s / gaps.iter().sum::<f64>();
        let mut reqs: Vec<Req> = (0..count)
            .map(|k| {
                if k % COLD_EVERY == 0 {
                    cold_id += 1;
                    Req {
                        endpoint: deal[cold_id % deal.len()],
                        prog: (cold_id * 37) % progs.len(),
                        dims: cold_id % DIMS.len(),
                        cold: Some(format!("perfbench cold key {seed}-{pi}-{cold_id}")),
                        warm: None,
                    }
                } else {
                    warm[k % warm.len()].clone()
                }
            })
            .collect();
        for i in (1..reqs.len()).rev() {
            reqs.swap(i, rng.below(i + 1));
        }
        let mut t = 0.0;
        let mut timed = Vec::new();
        for (gap, req) in gaps.into_iter().zip(reqs) {
            timed.push((Duration::from_secs_f64(t), req));
            t += gap * scale;
        }
        phases.push((rate, timed));
    }
    let mut p = Plan {
        progs,
        warm,
        phases,
        want: HashMap::new(),
        lane_insts: HashMap::new(),
    };
    let runs: Vec<Req> = p
        .warm
        .iter()
        .chain(p.phases.iter().flat_map(|(_, r)| r.iter().map(|x| &x.1)))
        .filter(|r| matches!(r.endpoint, "/run" | "/profile"))
        .cloned()
        .collect();
    for r in runs {
        let prog = &p.progs[r.prog];
        p.want.entry(r.prog).or_insert_with(|| {
            jobs::run_path_job(&prog.name, &prog.src, prog.n, LaunchDims::paper()).want
        });
        p.lane_insts.entry((r.prog, r.dims)).or_insert_with(|| {
            let [g, w, v] = DIMS[r.dims];
            let dims = LaunchDims {
                gangs: g,
                workers: w,
                vector: v,
            };
            let mut s = accrt::AccRunner::with_options(
                &prog.src,
                prog.compiler.base_options(),
                dims,
                Device::default(),
            )
            .expect("benchmark sources compile");
            s.set_host_threads(1);
            s.bind_deterministic_inputs(prog.n).expect("binder inputs");
            s.run().expect("reference simulation");
            s.device().stats().totals.lane_insts
        });
    }
    p
}

/// Per warm key: its first response without the `cache` report, and the
/// raw bodies already checked against it.
#[derive(Default)]
struct Canon {
    first: HashMap<usize, String>,
    checked: HashMap<usize, Vec<String>>,
}

/// Check one response: 2xx, well-formed, endpoint-specific content, `/run`
/// scalars against the CPU reference, and warm repeats byte-identical to
/// the key's first response.
fn check(p: &Plan, r: &Req, status: u16, body: &str, canon: &mut Canon) -> Result<(), String> {
    if let Some(w) = r.warm {
        if status == 200
            && canon
                .checked
                .get(&w)
                .is_some_and(|bodies| bodies.iter().any(|b| b == body))
        {
            // Byte-identical to a response of this key already checked.
            return Ok(());
        }
    }
    if !(200..300).contains(&status) {
        return Err(format!(
            "HTTP {status}: {}",
            body.chars().take(200).collect::<String>()
        ));
    }
    // Bodies are checked by their fixed field layout rather than parsed
    // whole: `uhaccd::json::parse` re-validates the rest of the document
    // for every string character, which takes seconds on the large
    // `/compile` and `/profile` bodies. `/run` results are small and
    // parsed.
    let openuh = p.progs[r.prog].compiler == Compiler::OpenUH;
    let has = |k: &str| {
        body.contains(&format!("\"{k}\":"))
            .then_some(())
            .ok_or(format!("response has no `{k}`"))
    };
    if !(body.starts_with('{') && body.ends_with('}')) {
        return Err("response is not a JSON object".into());
    }
    match r.endpoint {
        "/compile" => {
            has("text")?;
            if openuh && !body.contains("\"verify_errors\":0,") {
                return Err("OpenUH kernel has verify errors".into());
            }
        }
        "/lint" => has("diagnostics")?,
        "/analyze" => has("analysis")?,
        "/certify" => {
            if openuh && !body.starts_with("{\"ok\":true") {
                return Err("OpenUH kernel refuted by the certifier".into());
            }
        }
        "/run" => {
            let results = canonical(body)
                .strip_prefix("{\"results\":")
                .ok_or("response has no `results`")?;
            let doc = parse(results).map_err(|e| format!("bad results JSON: {e}"))?;
            check_scalars_json(&p.want[&r.prog], &doc)?;
        }
        _ => has("profile")?,
    }
    if let Some(w) = r.warm {
        let c = canonical(body).to_string();
        match canon.first.get(&w) {
            Some(first) if *first != c => {
                return Err(format!("warm key {w} ({}) response changed", r.endpoint))
            }
            Some(_) => {}
            None => {
                canon.first.insert(w, c);
            }
        }
        canon.checked.entry(w).or_default().push(body.to_string());
    }
    Ok(())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    uhaccd::http::post(addr, path, body).unwrap_or_else(|e| (0, format!("request failed: {e}")))
}

fn scrape(addr: SocketAddr) -> Result<Vec<uhobs::metrics::Sample>, String> {
    let (status, text) = uhaccd::http::get(addr, "/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    uhobs::metrics::parse_exposition(&text)
}

fn is_mix(s: &uhobs::metrics::Sample) -> bool {
    s.label("endpoint")
        .is_some_and(|e| MIX.iter().any(|m| m.0 == e))
}

/// Sum of a series over the mix endpoints (or all series when the name
/// has no endpoint label).
fn total(samples: &[uhobs::metrics::Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && (s.label("endpoint").is_none() || is_mix(s)))
        .map(|s| s.value)
        .sum()
}

/// Cumulative histogram buckets `(le, count)` of `name`, merged over the
/// mix endpoints, minus the same at `before`.
fn buckets(
    after: &[uhobs::metrics::Sample],
    before: &[uhobs::metrics::Sample],
    name: &str,
) -> Vec<(f64, f64)> {
    let bucket = format!("{name}_bucket");
    let mut m: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
    for (samples, sign) in [(after, 1.0), (before, -1.0)] {
        for s in samples
            .iter()
            .filter(|s| s.name == bucket && (s.label("endpoint").is_none() || is_mix(s)))
        {
            let le = match s.label("le") {
                Some("+Inf") => f64::INFINITY,
                Some(x) => x.parse().unwrap_or(f64::INFINITY),
                None => continue,
            };
            let e = m.entry(le.to_bits()).or_insert((le, 0.0));
            e.1 += sign * s.value;
        }
    }
    let mut v: Vec<(f64, f64)> = m.into_values().collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v
}

/// Quantile of merged cumulative buckets (linear within a bucket; the
/// last finite bound for the overflow bucket).
fn bucket_quantile(b: &[(f64, f64)], q: f64) -> f64 {
    let Some(&(_, n)) = b.last() else { return 0.0 };
    if n <= 0.0 {
        return 0.0;
    }
    let target = q * n;
    let (mut lo, mut prev) = (0.0, 0.0);
    for &(le, cum) in b {
        if cum >= target {
            if le.is_infinite() {
                return lo;
            }
            let frac = if cum > prev {
                (target - prev) / (cum - prev)
            } else {
                1.0
            };
            return lo + frac * (le - lo);
        }
        lo = if le.is_finite() { le } else { lo };
        prev = cum;
    }
    lo
}

/// One daemon set-up: spawn, first healthy `/health`, then every warm key
/// once. Returns the address, the time taken and the requests sent.
fn setup(
    p: &Plan,
    workers: usize,
    rep: &mut Report,
    canon: &mut Canon,
) -> Option<(SocketAddr, f64, usize)> {
    let t = Instant::now();
    let cfg = DaemonConfig {
        workers,
        ..DaemonConfig::default()
    };
    let (addr, _daemon) = match uhaccd::spawn(cfg, "127.0.0.1:0") {
        Ok(x) => x,
        Err(e) => {
            rep.tally(Some(&e.to_string()), "daemon spawn");
            return None;
        }
    };
    let mut sent = 0;
    loop {
        sent += 1;
        if let Ok((200, _)) = uhaccd::http::get(addr, "/health") {
            break;
        }
        if t.elapsed() > Duration::from_secs(30) {
            rep.tally(Some("no healthy /health reply in 30 s"), "daemon spawn");
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for r in &p.warm {
        let (status, body) = post(addr, r.endpoint, &body_of(&p.progs, r, REQ_HOST_THREADS));
        sent += 1;
        let err = check(p, r, status, &body, canon).err();
        rep.tally(
            err.as_deref(),
            &format!("warm-up {} {}", r.endpoint, p.progs[r.prog].name),
        );
    }
    Some((addr, t.elapsed().as_secs_f64(), sent))
}

/// Send one phase's schedule from `nproc` client threads.
fn phase(
    addr: SocketAddr,
    p: &Plan,
    reqs: &[(Duration, Req)],
    threads: usize,
) -> (Instant, Vec<Rec>) {
    let bodies: Vec<String> = reqs
        .iter()
        .map(|(_, r)| body_of(&p.progs, r, REQ_HOST_THREADS))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let recs = Mutex::new(Vec::with_capacity(reqs.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= reqs.len() {
                    break;
                }
                let due = start + reqs[i].0;
                // Sleep to within SPIN of the due time, then spin: a
                // sleeping sender's wake-up latency would otherwise be
                // counted as server latency.
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let sent = Instant::now();
                let (status, body) = post(addr, reqs[i].1.endpoint, &bodies[i]);
                let done = Instant::now();
                recs.lock().expect("recorder lock").push(Rec {
                    req: i,
                    due,
                    sent,
                    done,
                    status,
                    body,
                });
            });
        }
    });
    let mut recs = recs.into_inner().expect("recorder lock");
    recs.sort_by_key(|r| r.req);
    (start, recs)
}

/// Run the `serve` workload at the offered `rates` (lowest first; the
/// benchmark of record uses [`RATES`]) for about `seconds` and report.
pub fn run(seed: u64, seconds: f64, trace: bool, rates: &[f64]) -> Report {
    let mut rep = Report::default();
    let nproc = crate::nproc() as usize;
    let t = Instant::now();
    let p = plan(seed, seconds, rates);
    println!(
        "# inputs + references for seed {seed}: {:.3} s (not part of setup_s); {} programs, {} warm keys",
        t.elapsed().as_secs_f64(),
        p.progs.len(),
        p.warm.len()
    );

    // The measured daemon is the first set-up; the others follow the
    // timed phases. `uhaccd::spawn` has no shutdown, so a set-up daemon
    // lives until the process ends: spawning the rest later keeps them
    // out of the phases and out of `peak_rss_mb`.
    let mut canon = Canon::default();
    let mut setups = Vec::new();
    let Some((addr, setup_s, pre_sent)) = setup(&p, nproc, &mut rep, &mut canon) else {
        rep.put("setup_s", f64::NAN);
        return rep;
    };
    setups.push(setup_s);

    let before = scrape(addr).unwrap_or_else(|e| {
        rep.tally(Some(&e), "/metrics scrape");
        Vec::new()
    });
    // Every timed request: (endpoint, cold, latency from due time in ms,
    // correct). Latency statistics use the phases below the top rate
    // (`latency_phases`); the top phase probes capacity.
    let mut done: Vec<(&'static str, bool, f64, bool)> = Vec::new();
    let latency_phases = rates.len().saturating_sub(1).max(1);
    let mut late = Vec::new();
    let (mut sent, mut service_s, mut saturated) = (0usize, 0.0, 0.0);
    let mut lanes = 0u64;
    let mut sustained = 0.0;
    let mut all_pass = true;
    for (pi, (rate, reqs)) in p.phases.iter().enumerate() {
        let (start, recs) = phase(addr, &p, reqs, nproc);
        let phase_s = seconds / rates.len() as f64;
        let end = recs.iter().map(|r| r.done).max().unwrap_or(start);
        let span_s = (end - start).as_secs_f64();
        let mut lat = Vec::new();
        let mut phase_late = Vec::new();
        let mut phase_ok = 0;
        for rec in &recs {
            let r = &reqs[rec.req].1;
            let err = check(&p, r, rec.status, &rec.body, &mut canon).err();
            rep.tally(
                err.as_deref(),
                &format!("{} {}", r.endpoint, p.progs[r.prog].name),
            );
            let ms = (rec.done - rec.due).as_secs_f64() * 1e3;
            phase_late.push((rec.sent - rec.due).as_secs_f64() * 1e3);
            service_s += (rec.done - rec.sent).as_secs_f64();
            if pi < latency_phases {
                done.push((r.endpoint, r.cold.is_some(), ms, err.is_none()));
            }
            if err.is_none() {
                phase_ok += 1;
                lat.push(ms);
                if matches!(r.endpoint, "/run" | "/profile") {
                    lanes += p.lane_insts[&(r.prog, r.dims)];
                }
            } else {
                // A failed or refused request misses the limit.
                lat.push(f64::INFINITY);
            }
        }
        sent += recs.len();
        // The top phase runs above capacity: its achieved rate is the
        // daemon's throughput at saturation.
        saturated = phase_ok as f64 / span_s.max(1e-9);
        let t = tail(&lat);
        let backlog_ok = span_s <= phase_s + LATENCY_LIMIT_MS / 1e3;
        let pass = t.value <= LATENCY_LIMIT_MS && backlog_ok;
        all_pass &= pass;
        if pass && all_pass {
            sustained = phase_ok as f64 / span_s;
        }
        println!(
            "# phase {} offered {rate} req/s: {} sent, {phase_ok} ok, {:.1} req/s achieved, p50 {:.2} ms, p{:.2} {:.2} ms, sender late p50 {:.3} ms, done in {span_s:.3} s of {phase_s:.3} s -> {}{}",
            pi + 1,
            recs.len(),
            phase_ok as f64 / span_s.max(1e-9),
            median(&lat),
            t.pct,
            t.value,
            median(&phase_late),
            if pass { "PASS (meets limit)" } else { "FAIL (misses limit)" },
            if pi < latency_phases { "" } else { "; capacity probe, not in the latency metrics" }
        );
        if pi < latency_phases {
            late.extend(phase_late);
        }
    }
    rep.put("peak_rss_mb", peak_rss_mb());
    let after = scrape(addr).unwrap_or_else(|e| {
        rep.tally(Some(&e), "/metrics scrape");
        Vec::new()
    });
    let served = total(&after, "uhaccd_requests_total") - total(&before, "uhaccd_requests_total");
    rep.tally(
        (served != sent as f64)
            .then(|| format!("server counted {served} requests, loadgen sent {sent}"))
            .as_deref(),
        "/metrics request count",
    );

    // A failed request counts at the limit or the slowest latency seen,
    // whichever is larger, so failures can only make the metrics worse.
    let worst = done
        .iter()
        .filter(|d| d.3)
        .map(|d| d.2)
        .fold(LATENCY_LIMIT_MS, f64::max);
    let ms_of = |d: &(&str, bool, f64, bool)| if d.3 { d.2 } else { worst };
    // The p50 metrics are the mix-weighted mean of each endpoint's median:
    // the endpoints' latencies form separate clusters (a pooled median
    // jumps between them), and a mean over all endpoints responds to a
    // change in any one of them.
    let weighted_p50 = |keep: &dyn Fn(bool) -> bool| {
        let (mut sum, mut weight) = (0.0, 0.0);
        for (ep, w) in MIX {
            let v: Vec<f64> = done
                .iter()
                .filter(|d| d.0 == ep && keep(d.1))
                .map(ms_of)
                .collect();
            if !v.is_empty() {
                sum += w as f64 * median(&v);
                weight += w as f64;
            }
        }
        if weight > 0.0 {
            sum / weight
        } else {
            f64::NAN
        }
    };
    let lat_all: Vec<f64> = done.iter().map(ms_of).collect();
    let t = tail(&lat_all);
    rep.put("jobs_per_s", saturated);
    rep.put("latency_p50_ms", weighted_p50(&|_| true));
    rep.put("latency_tail_ms", t.value);
    rep.put("cold_p50_ms", weighted_p50(&|cold| cold));
    rep.put("warm_p50_ms", weighted_p50(&|cold| !cold));
    let per_ep: Vec<String> = MIX
        .iter()
        .map(|(e, _)| {
            let v: Vec<f64> = done.iter().filter(|d| d.0 == *e).map(ms_of).collect();
            format!("{e} {:.3}", median(&v))
        })
        .collect();
    println!("# p50 ms per endpoint: {}", per_ep.join(", "));
    rep.put("sustained_rps", sustained);
    let run_dur_s = (total(&after, "uhaccd_request_duration_us_sum")
        - total(&before, "uhaccd_request_duration_us_sum"))
        / 1e6;
    let sim_s = ["/run", "/profile"]
        .iter()
        .map(|e| {
            let f = |s: &[uhobs::metrics::Sample]| {
                s.iter()
                    .filter(|x| {
                        x.name == "uhaccd_request_duration_us_sum" && x.label("endpoint") == Some(e)
                    })
                    .map(|x| x.value)
                    .sum::<f64>()
            };
            (f(&after) - f(&before)) / 1e6
        })
        .sum::<f64>();
    rep.put("sim_minsts_per_s", lanes as f64 / sim_s.max(1e-9) / 1e6);
    println!(
        "# serve: workers {nproc}, client threads {nproc}, request host_threads {REQ_HOST_THREADS}, latency limit {LATENCY_LIMIT_MS} ms, cold share 1/{COLD_EVERY}"
    );
    println!(
        "# latency metrics over phases 1-{latency_phases}: latency_tail_ms is p{:.2} of {} requests; {} cold, {} warm; p50 metrics are mix-weighted means of per-endpoint medians; sustained_rps is the achieved rate at the highest offered rate meeting the limit; jobs_per_s is correct replies per second in the top (saturating) phase",
        t.pct,
        t.n,
        done.iter().filter(|d| d.1).count(),
        done.iter().filter(|d| !d.1).count()
    );

    if trace {
        let delta = |name: &str| total(&after, name) - total(&before, name);
        let (ph, pm) = (
            delta("uhaccd_program_cache_hits_total"),
            delta("uhaccd_program_cache_misses_total"),
        );
        let (rh, rm) = (
            delta("uhaccd_region_cache_hits_total"),
            delta("uhaccd_region_cache_misses_total"),
        );
        let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        let non2xx: f64 = after
            .iter()
            .filter(|s| {
                s.name == "uhaccd_requests_total"
                    && is_mix(s)
                    && !s.label("code").unwrap_or("").starts_with('2')
            })
            .map(|s| s.value)
            .sum::<f64>()
            - before
                .iter()
                .filter(|s| {
                    s.name == "uhaccd_requests_total"
                        && is_mix(s)
                        && !s.label("code").unwrap_or("").starts_with('2')
                })
                .map(|s| s.value)
                .sum::<f64>();
        let req_b = buckets(&after, &before, "uhaccd_request_duration_us");
        let wait_b = buckets(&after, &before, "uhaccd_queue_wait_us");
        let comp_b = buckets(&after, &before, "uhaccd_compile_duration_us");
        let wait_n = wait_b.last().map_or(0.0, |b| b.1);
        let wait_pct = if wait_n > 0.0 {
            ((1.0 - 10.0 / wait_n) * 100.0).clamp(50.0, 99.0).floor()
        } else {
            50.0
        };
        rep.put("uhaccd.server_p50_ms", bucket_quantile(&req_b, 0.5) / 1e3);
        rep.put(
            "uhaccd.queue_wait_p50_ms",
            bucket_quantile(&wait_b, 0.5) / 1e3,
        );
        rep.put(
            "uhaccd.queue_wait_tail_ms",
            bucket_quantile(&wait_b, wait_pct / 100.0) / 1e3,
        );
        rep.put(
            "uhaccd.client_overhead_ms",
            (service_s - run_dur_s) * 1e3 / sent.max(1) as f64,
        );
        rep.put("uhaccd.program_hit_ratio", ratio(ph, pm));
        rep.put("uhaccd.region_hit_ratio", ratio(rh, rm));
        rep.put("uhaccd.parses", delta("uhaccd_program_parses_total"));
        rep.put(
            "uhaccd.region_compiles",
            delta("uhaccd_region_compiles_total"),
        );
        rep.put("uhaccd.compile_p50_ms", bucket_quantile(&comp_b, 0.5) / 1e3);
        rep.put("uhaccd.non2xx", non2xx);
        rep.put("loadgen.sent", sent as f64);
        rep.put("loadgen.late_ms", mean(&late));
        println!(
            "# loadgen: {sent} sent, lateness p50 {:.3} ms, max {:.3} ms; queue wait tail is p{wait_pct}",
            quantile(&late, 0.5),
            quantile(&late, 1.0)
        );
        server_layers(&mut rep, addr, pre_sent, sent, service_s);
    }
    for _ in 1..crate::closed::SETUP_REPS {
        if let Some((_, s, _)) = setup(&p, nproc, &mut rep, &mut canon) {
            setups.push(s);
        }
    }
    rep.put("setup_s", median(&setups));
    rep.put("error_ratio", rep.error_ratio());
    println!(
        "# error_ratio = {} ({} failed of {} attempted)",
        rep.error_ratio(),
        rep.failed,
        rep.attempted
    );
    rep
}

/// Per-layer self times from the daemon's own `/trace` spans for the
/// timed requests (trace ids after the set-up's), plus the client's share
/// of each request's latency.
fn server_layers(rep: &mut Report, addr: SocketAddr, pre_sent: usize, sent: usize, service_s: f64) {
    let text = match uhaccd::http::get(addr, "/trace") {
        Ok((200, t)) => t,
        other => {
            rep.tally(
                Some(&format!("/trace: {:?}", other.map(|x| x.0))),
                "/trace export",
            );
            return;
        }
    };
    let spans = match chrome_spans(&text) {
        Ok(s) => s,
        Err(e) => {
            rep.tally(Some(&e), "/trace export");
            return;
        }
    };
    // Set-up sent `pre_sent` requests to this daemon and the /metrics
    // scrape one more; the timed requests follow, in arrival order.
    let first = pre_sent as u64 + 2;
    let timed: Vec<_> = spans
        .into_iter()
        .filter(|s| s.job >= first && s.job < first + sent as u64)
        .map(|mut s| {
            s.name = match s.name.split('.').next().unwrap_or("") {
                "queue" => "uhaccd.queue_wait".into(),
                "http" => "uhaccd.http_parse".into(),
                "render" => "uhaccd.respond".into(),
                "exec" => "accrt.exec".into(),
                "codegen" => "core.codegen".into(),
                "h2d" => "accrt.h2d".into(),
                "launch" => "gpsim.launch".into(),
                "d2h" => "accrt.d2h".into(),
                "cache" if s.name.ends_with(".miss") => "accparse.parse".into(),
                "cache" => "uhaccd.cache_hit".into(),
                _ => s.name,
            };
            s
        })
        .collect();
    let b = breakdown(&timed, "request");
    let jobs = b.jobs.max(1) as f64;
    let server_ms = b.wall_us as f64 / 1e3 / jobs;
    let client_ms = (service_s * 1e3 / sent.max(1) as f64 - server_ms).max(0.0);
    let wall = server_ms + client_ms;
    rep.put("accparse.calls", b.calls("accparse.parse") as f64 / jobs);
    rep.put("accparse.busy_ms", b.layer_ms("accparse") / jobs);
    rep.put("core.busy_ms", b.layer_ms("core") / jobs);
    rep.put("core.compiles", b.calls("core.codegen") as f64 / jobs);
    rep.put("accrt.busy_ms", b.layer_ms("accrt") / jobs);
    rep.put("accrt.h2d_ms", b.self_ms("accrt.h2d") / jobs);
    rep.put("accrt.d2h_ms", b.self_ms("accrt.d2h") / jobs);
    rep.put("gpsim.launch_ms", b.layer_ms("gpsim") / jobs);
    rep.put("uhaccd.busy_ms", b.layer_ms("uhaccd") / jobs + client_ms);
    rep.put(
        "trace.unattributed_ms",
        b.unattributed_us as f64 / 1e3 / jobs,
    );
    rep.put("trace.job_wall_ms", wall);
    let rows = [
        ("uhaccd.queue_wait", b.self_ms("uhaccd.queue_wait") / jobs),
        (
            "uhaccd.http+resp",
            (b.self_ms("uhaccd.http_parse")
                + b.self_ms("uhaccd.respond")
                + b.self_ms("uhaccd.cache_hit"))
                / jobs,
        ),
        ("uhaccd.client", client_ms),
        ("accparse", b.layer_ms("accparse") / jobs),
        ("core.codegen", b.layer_ms("core") / jobs),
        ("accrt", b.layer_ms("accrt") / jobs),
        ("gpsim.launch", b.layer_ms("gpsim") / jobs),
        ("unattributed", b.unattributed_us as f64 / 1e3 / jobs),
    ];
    crate::closed::print_table(&rows, wall, b.jobs);
    println!("#   (unattributed = handler work inside `request` that no daemon span covers: lint, redflow, certify, compile_text)");
    let dominant = rows
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |r| r.0);
    let front = rows[0].1 + rows[3].1 + rows[4].1;
    let holds = matches!(dominant, "uhaccd.queue_wait" | "accparse" | "core.codegen")
        || front >= 0.5 * wall;
    println!(
        "# dominant layer: {dominant}; accparse + core + queue wait = {:.1}% of request latency",
        if wall > 0.0 {
            front / wall * 100.0
        } else {
            0.0
        }
    );
    println!(
        "# prediction [serve]: accparse + core + uhaccd queue wait dominate -> {}",
        if holds { "found" } else { "NOT found" }
    );
}

/// The exact counts of a `serve` request sequence: one client sends the
/// warm keys, then the first `requests` scheduled requests, one at a
/// time, to a fresh daemon; returns `(uhaccd_program_parses_total,
/// uhaccd_region_compiles_total)`. Used by the self-tests.
pub fn sequential_counts(
    seed: u64,
    requests: usize,
    host_threads: u32,
) -> Result<(u64, u64), String> {
    let p = plan(seed, 3.0, &RATES);
    let cfg = DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    };
    let (addr, _daemon) = uhaccd::spawn(cfg, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut canon = Canon::default();
    let reqs = p.warm.iter().chain(
        p.phases
            .iter()
            .flat_map(|(_, r)| r.iter().map(|x| &x.1))
            .take(requests),
    );
    for r in reqs {
        let (status, body) = post(addr, r.endpoint, &body_of(&p.progs, r, host_threads));
        check(&p, r, status, &body, &mut canon)?;
    }
    let m = scrape(addr)?;
    Ok((
        total(&m, "uhaccd_program_parses_total") as u64,
        total(&m, "uhaccd_region_compiles_total") as u64,
    ))
}
