//! Closed-loop jobs: one job builds a fresh session from source, binds
//! seeded inputs, runs, and is checked against an independent reference
//! computed during preparation.

use std::sync::Arc;
use std::time::Instant;

use acc_baselines::{Compiler, CpuExec, ReductionCase};
use acc_testsuite::cases::{case_source, extents, Position};
use accparse::ast::{CType, RedOp};
use accparse::hir::AnalyzedProgram;
use accrt::{AccError, AccRunner, HostBuffer, RegionCache, RegionKey};
use gpsim::{Device, SessionStats, Value};
use uhacc_core::{CompilerOptions, LaunchDims};

use crate::rng::Rng;
use crate::trace::Tr;

pub const GRID_SRC: &str = include_str!("../../examples/grid.c");
pub const PI_EXAMPLE_SRC: &str = include_str!("../../examples/pi.c");
pub const MEAN_VARIANCE_SRC: &str = include_str!("../../examples/redflow/ok_mean_variance.c");
pub const MAX_NORMALIZE_SRC: &str = include_str!("../../examples/redflow/ok_max_normalize.c");

/// Unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// Directive source of an `acc_apps` application.
pub fn app_source(name: &str) -> &'static str {
    acc_apps::all_sources()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s)
        .expect("known acc_apps source")
}

/// Table-2 cells a personality passes, as EXPERIMENTS.md reports them
/// for `{+,*} x {int,double}`: PGI-like fails the `+` worker / vector /
/// gang-worker rows and rejects gang-worker-vector `+` and the float `*`
/// one; CAPS-like fails the `+` gang-worker / worker-vector /
/// gang-worker-vector rows. OpenUH passes everything.
pub fn passes(c: Compiler, pos: Position, op: RedOp, ty: CType) -> bool {
    use Position::*;
    let add = op == RedOp::Add;
    match c {
        Compiler::OpenUH => true,
        Compiler::PgiLike => {
            !(add && matches!(pos, Worker | Vector | GangWorker | GangWorkerVector)
                || pos == GangWorkerVector && ty != CType::Int)
        }
        Compiler::CapsLike => !(add && matches!(pos, GangWorker | WorkerVector | GangWorkerVector)),
    }
}

/// The daemon's name for a personality (`"compiler"` request field).
pub fn compiler_flag(c: Compiler) -> &'static str {
    match c {
        Compiler::OpenUH => "openuh",
        Compiler::PgiLike => "pgi",
        Compiler::CapsLike => "caps",
    }
}

#[derive(Clone)]
pub enum Arr {
    I32(Vec<i32>),
    F64(Vec<f64>),
}

impl Arr {
    fn buffer(&self) -> HostBuffer {
        match self {
            Arr::I32(v) => HostBuffer::from_i32(v),
            Arr::F64(v) => HostBuffer::from_f64(v),
        }
    }

    fn abs_sum(&self) -> f64 {
        match self {
            Arr::I32(v) => v.iter().map(|x| f64::from(*x).abs()).sum(),
            Arr::F64(v) => v.iter().map(|x| x.abs()).sum(),
        }
    }
}

/// An expected scalar or array and the largest difference accepted per
/// element (0 for integers, which must match exactly).
#[derive(Clone, Debug)]
pub struct Want {
    pub name: String,
    pub array: bool,
    pub values: Vec<Value>,
    pub tol: f64,
}

#[derive(Clone)]
pub enum Body {
    /// Library path: seeded arrays via `HostBuffer::from_*` +
    /// `bind_array`, then `reps` whole-program runs in one session with
    /// the `resets` scalars rebound before each.
    Lib {
        ints: Vec<(String, i64)>,
        arrays: Vec<(String, Arr)>,
        resets: Vec<(String, f64)>,
        reps: usize,
    },
    /// The exact `uhacc-cc --run` / `POST /run` path:
    /// `bind_deterministic_inputs(n)` -> `run` -> `driver::results_json`.
    Run { n: u64 },
    /// heat2d with both grids device-resident (`enter_data`) for `iters`
    /// stencil + max-error steps.
    Heat {
        n: usize,
        iters: usize,
        grid: Vec<f64>,
    },
}

pub struct JobKind {
    pub name: String,
    pub src: String,
    pub opts: CompilerOptions,
    pub dims: LaunchDims,
    pub body: Body,
    pub want: Vec<Want>,
}

/// What one job did, as measured from outside the crates.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Job wall time: the calls into the system, not the oracle check.
    pub wall_s: f64,
    /// Host time inside `AccRunner::run` / `run_region` (transfers and
    /// launches).
    pub run_s: f64,
    pub stats: SessionStats,
    pub device_ms: f64,
    pub compiles: u64,
    pub kernel_insts: u64,
    pub finalize_kernels: u64,
    pub src_bytes: u64,
    pub segment_bytes: u64,
    pub clock_hz: f64,
    pub error: Option<String>,
}

/// Session results read after the job's wall clock stops.
struct Done {
    r: AccRunner,
    rep_scalars: Vec<Vec<(String, Value)>>,
    results_json: Option<String>,
    heat_errors: Vec<f64>,
}

/// Run one job and check it. A `tag` is spliced into the source as a
/// comment, giving the job a `(source, options)` key never seen before
/// (a cold key) with unchanged semantics.
pub fn run_job(k: &JobKind, tag: Option<&str>, host_threads: u32, tr: &mut Tr) -> Outcome {
    let mut out = Outcome::default();
    let tagged;
    let src = match tag {
        Some(t) => {
            tagged = format!("// {t}\n{}", k.src);
            &tagged
        }
        None => &k.src,
    };
    let t0 = Instant::now();
    tr.begin("job");
    let done = exec(k, src, host_threads, tr, &mut out);
    tr.end();
    out.wall_s = t0.elapsed().as_secs_f64();
    out.error = match done {
        Ok(d) => check(k, &d).err(),
        Err(e) => Some(e),
    };
    out
}

fn acc(e: AccError) -> String {
    e.to_string()
}

fn exec(
    k: &JobKind,
    src: &str,
    host_threads: u32,
    tr: &mut Tr,
    out: &mut Outcome,
) -> Result<Done, String> {
    out.src_bytes = src.len() as u64;
    let prog = tr
        .span("accparse", || accparse::compile(src))
        .map_err(|d| d.render(src))?;
    let prog = Arc::new(prog);
    tr.begin("accrt.session");
    let mut r =
        AccRunner::from_shared(Arc::clone(&prog), k.opts.clone(), k.dims, Device::default());
    r.set_host_threads(host_threads);
    if let Some(obs) = tr.runner_obs() {
        r.set_obs(obs);
    }
    tr.end();
    let mut done = Done {
        r,
        rep_scalars: Vec::new(),
        results_json: None,
        heat_errors: Vec::new(),
    };
    let r = &mut done.r;
    match &k.body {
        Body::Lib {
            ints,
            arrays,
            resets,
            reps,
        } => {
            tr.span("accrt.bind", || -> Result<(), AccError> {
                for (name, v) in ints {
                    r.bind_int(name, *v)?;
                }
                for (name, a) in arrays {
                    r.bind_array(name, a.buffer())?;
                }
                Ok(())
            })
            .map_err(acc)?;
            precompile(r, k, src, &prog, tr, out)?;
            for _ in 0..*reps {
                tr.span("accrt.bind", || -> Result<(), AccError> {
                    for (name, v) in resets {
                        r.bind_float(name, *v)?;
                    }
                    Ok(())
                })
                .map_err(acc)?;
                let t = Instant::now();
                tr.span("accrt.run", || r.run()).map_err(acc)?;
                out.run_s += t.elapsed().as_secs_f64();
                let scalars = prog
                    .hosts
                    .iter()
                    .map(|h| (h.name.clone(), r.scalar(&h.name).expect("declared scalar")))
                    .collect();
                done.rep_scalars.push(scalars);
            }
        }
        Body::Run { n } => {
            tr.span("accrt.bind", || r.bind_deterministic_inputs(*n))
                .map_err(acc)?;
            precompile(r, k, src, &prog, tr, out)?;
            let t = Instant::now();
            tr.span("accrt.run", || r.run()).map_err(acc)?;
            out.run_s += t.elapsed().as_secs_f64();
            done.results_json = Some(tr.span("driver", || uhacc::driver::results_json(r)));
        }
        Body::Heat { n, iters, grid } => {
            tr.span("accrt.bind", || -> Result<(), AccError> {
                r.bind_int("ni", *n as i64)?;
                r.bind_int("nj", *n as i64)?;
                r.bind_array("temp1", HostBuffer::from_f64(grid))?;
                r.bind_array("temp2", HostBuffer::from_f64(grid))
            })
            .map_err(acc)?;
            precompile(r, k, src, &prog, tr, out)?;
            tr.span("accrt.data", || -> Result<(), AccError> {
                r.enter_data("temp1")?;
                r.enter_data("temp2")
            })
            .map_err(acc)?;
            for _ in 0..*iters {
                let t = Instant::now();
                tr.span("accrt.run", || r.run_region(0)).map_err(acc)?;
                tr.span("accrt.bind", || r.bind_float("error", 0.0))
                    .map_err(acc)?;
                tr.span("accrt.run", || r.run_region(1)).map_err(acc)?;
                out.run_s += t.elapsed().as_secs_f64();
                done.heat_errors
                    .push(r.scalar("error").map_err(acc)?.as_f64());
                tr.span("accrt.data", || r.swap_arrays("temp1", "temp2"))
                    .map_err(acc)?;
            }
            tr.span("accrt.data", || -> Result<(), AccError> {
                r.exit_data("temp1")?;
                r.exit_data("temp2")
            })
            .map_err(acc)?;
        }
    }
    out.stats = *r.device().stats();
    out.device_ms = r.elapsed_ms();
    out.compiles += r.compiles();
    out.segment_bytes = r.device().config().segment_bytes;
    out.clock_hz = r.device().config().clock_hz;
    Ok(done)
}

/// Compile every region through `uhacc_core::compile_region` (the `core`
/// layer, timed on its own) into a per-job artifact cache the session
/// then runs from. Every job still compiles from scratch.
fn precompile(
    r: &mut AccRunner,
    k: &JobKind,
    src: &str,
    prog: &Arc<AnalyzedProgram>,
    tr: &mut Tr,
    out: &mut Outcome,
) -> Result<(), String> {
    tr.span("accrt.bind", || r.run_host_assigns())
        .map_err(acc)?;
    let key = uhacc_core::program_key(src, &k.opts);
    let cache = Arc::new(RegionCache::new(prog.regions.len().max(1)));
    for region in 0..prog.regions.len() {
        let dims = r.resolve_dims(region).map_err(acc)?;
        let c = tr
            .span("core", || {
                cache.get_or_compile(
                    RegionKey {
                        program: key,
                        region,
                        dims,
                    },
                    || uhacc_core::compile_region(prog, region, dims, &k.opts),
                )
            })
            .map_err(|d| d.render(src))?;
        out.compiles += 1;
        out.finalize_kernels += c.finalize.len() as u64;
        out.kernel_insts += (c.main.insts.len()
            + c.finalize
                .iter()
                .map(|f| f.kernel.insts.len())
                .sum::<usize>()) as u64;
    }
    r.set_region_cache(cache, key);
    Ok(())
}

fn close(got: Value, want: Value, tol: f64) -> bool {
    match want {
        Value::F32(_) | Value::F64(_) => {
            let (g, w) = (got.as_f64(), want.as_f64());
            (g.is_nan() && w.is_nan()) || (g - w).abs() <= tol
        }
        _ => got.as_i64() == want.as_i64(),
    }
}

fn check(k: &JobKind, d: &Done) -> Result<(), String> {
    for w in k.want.iter().filter(|w| w.array) {
        let got = d.r.array(&w.name).map_err(acc)?;
        if got.len() != w.values.len() {
            return Err(format!(
                "{}: {} elements, want {}",
                w.name,
                got.len(),
                w.values.len()
            ));
        }
        for (i, want) in w.values.iter().enumerate() {
            if !close(got.get(i), *want, w.tol) {
                return Err(format!("{}[{i}]: got {}, want {want}", w.name, got.get(i)));
            }
        }
    }
    let scalars: Vec<&Want> = k.want.iter().filter(|w| !w.array).collect();
    match &k.body {
        Body::Lib { .. } => {
            for (rep, got) in d.rep_scalars.iter().enumerate() {
                for w in &scalars {
                    let g = got.iter().find(|(n, _)| *n == w.name).map(|(_, v)| *v);
                    match g {
                        Some(g) if close(g, w.values[0], w.tol) => {}
                        _ => {
                            return Err(format!(
                                "{} (run {rep}): got {g:?}, want {}",
                                w.name, w.values[0]
                            ))
                        }
                    }
                }
            }
        }
        Body::Run { .. } => {
            let text = d.results_json.as_deref().unwrap_or("");
            let doc = uhaccd::json::parse(text).map_err(|e| format!("results_json: {e}"))?;
            check_scalars_json(&k.want, &doc)?;
        }
        Body::Heat { .. } => {
            let w = scalars.first().ok_or("heat job without error reference")?;
            if d.heat_errors.len() != w.values.len() {
                return Err(format!(
                    "{} iterations, want {}",
                    d.heat_errors.len(),
                    w.values.len()
                ));
            }
            for (i, (g, want)) in d.heat_errors.iter().zip(&w.values).enumerate() {
                if !close(Value::F64(*g), *want, w.tol) {
                    return Err(format!("error at iteration {i}: got {g}, want {want}"));
                }
            }
        }
    }
    Ok(())
}

/// Check the `scalars` object of a `driver::results_json` document
/// (the `--run` output and the `/run` response's `results`).
pub fn check_scalars_json(want: &[Want], doc: &uhaccd::json::Json) -> Result<(), String> {
    for w in want.iter().filter(|w| !w.array) {
        let g = doc
            .get("scalars")
            .and_then(|s| s.get(&w.name))
            .and_then(|v| v.as_f64());
        let ok = match (g, w.values[0]) {
            (Some(g), Value::F32(_) | Value::F64(_)) => (g - w.values[0].as_f64()).abs() <= w.tol,
            (Some(g), want) => g == want.as_i64() as f64,
            (None, _) => false,
        };
        if !ok {
            return Err(format!("{}: got {g:?}, want {}", w.name, w.values[0]));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Workload construction (inputs and references; not part of set-up).
// ---------------------------------------------------------------------

/// Sizes of the library workloads. `full()` is the benchmark;
/// `small()` keeps the same job shapes for the self-tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub red_n: usize,
    pub matmul_n: usize,
    pub pi_n: usize,
    pub cube_n: usize,
    pub heat_n: usize,
    pub heat_iters: usize,
    pub chain_n: usize,
    pub chain_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            red_n: 2048,
            matmul_n: 128,
            pi_n: 1 << 21,
            cube_n: 128,
            heat_n: 48,
            heat_iters: 40,
            chain_n: 1 << 14,
            chain_reps: 10,
        }
    }

    pub fn small() -> Sizes {
        Sizes {
            red_n: 64,
            matmul_n: 16,
            pi_n: 1 << 12,
            cube_n: 12,
            heat_n: 12,
            heat_iters: 4,
            chain_n: 1 << 10,
            chain_reps: 2,
        }
    }
}

/// Reference run of `src` on the sequential CPU interpreter.
fn cpu_run(src: &str, ints: &[(String, i64)], arrays: &[(String, HostBuffer)]) -> CpuExec {
    let mut cpu = CpuExec::new(src).expect("benchmark sources compile");
    for (n, v) in ints {
        cpu.bind_int(n, *v).expect("reference scalar");
    }
    for (n, b) in arrays {
        cpu.bind_array(n, b.clone()).expect("reference array");
    }
    cpu.run().expect("reference run");
    cpu
}

fn scalar_want(name: &str, v: Value, tol: f64) -> Want {
    Want {
        name: name.into(),
        array: false,
        values: vec![v],
        tol,
    }
}

fn array_want(name: &str, b: &HostBuffer, tol: f64) -> Want {
    Want {
        name: name.into(),
        array: true,
        values: (0..b.len()).map(|i| b.get(i)).collect(),
        tol,
    }
}

/// Reassociation bound for a `+` reduction of `n` terms whose magnitudes
/// sum to `abs_sum`: any two summation orders differ by at most
/// `2 (n-1) u sum|x|` (first order).
fn sum_tol(n: usize, abs_sum: f64) -> f64 {
    2.0 * n as f64 * U * abs_sum
}

/// Seeded Table-2 input values for `(op, type)`.
fn t2_values(op: RedOp, ty: CType, n: usize, rng: &mut Rng) -> Arr {
    // Odd multiplicands never wrap an int product to 0.
    const ODD: [i32; 8] = [1, -1, 1, -1, 3, 1, -3, 5];
    match (op, ty) {
        (RedOp::Mul, CType::Int) => Arr::I32((0..n).map(|_| ODD[rng.below(8)]).collect()),
        (RedOp::Mul, _) => Arr::F64((0..n).map(|_| 1.0 + rng.range(-1e-6, 1e-6)).collect()),
        (_, CType::Int) => Arr::I32((0..n).map(|_| rng.int(-50, 50) as i32).collect()),
        _ => Arr::F64((0..n).map(|_| rng.range(-1.0, 1.0)).collect()),
    }
}

fn t2_label(pos: Position, op: RedOp, ty: CType) -> String {
    format!(
        "{}/{}/{}",
        pos.label().replace(' ', "-"),
        op.clause_token(),
        ty
    )
}

/// One Table-2 cell on seeded inputs, with its CPU reference; the
/// personalities that pass the cell share it.
fn table2_cell(
    pos: Position,
    op: RedOp,
    ty: CType,
    red_n: usize,
    seed: u64,
    dims: LaunchDims,
) -> JobKind {
    let src = case_source(pos, op, ty);
    let (nk, nj, ni) = extents(pos, red_n);
    let total = nk * nj * ni;
    let stream = (pos as u64) * 16 + (op == RedOp::Mul) as u64 * 2 + (ty == CType::Double) as u64;
    let input = t2_values(op, ty, total, &mut Rng::new(seed, 100 + stream));
    let ints: Vec<(String, i64)> = if pos == Position::SameLineGwv {
        vec![("N".into(), nk as i64)]
    } else {
        vec![
            ("NK".into(), nk as i64),
            ("NJ".into(), nj as i64),
            ("NI".into(), ni as i64),
        ]
    };
    let out_len = match pos {
        Position::Worker | Position::WorkerVector => Some(nk),
        Position::Vector => Some(nk * nj),
        _ => None,
    };
    let temp = matches!(
        pos,
        Position::Gang | Position::Worker | Position::GangWorker
    );
    let mut ref_arrays = vec![("input".to_string(), input.buffer())];
    if temp {
        ref_arrays.push(("temp".into(), HostBuffer::new(ty, total)));
    }
    let mut arrays = vec![("input".to_string(), input.clone())];
    if let Some(n) = out_len {
        ref_arrays.push(("out".into(), HostBuffer::new(ty, n)));
        arrays.push((
            "out".into(),
            if ty == CType::Int {
                Arr::I32(vec![0; n])
            } else {
                Arr::F64(vec![0.0; n])
            },
        ));
    }
    let cpu = cpu_run(&src, &ints, &ref_arrays);
    let tol = |want: f64| match (op, ty) {
        (_, CType::Int) => 0.0,
        (RedOp::Mul, _) => 2.0 * total as f64 * U * want.abs(),
        _ => sum_tol(total, input.abs_sum()),
    };
    let mut want = Vec::new();
    match out_len {
        Some(_) => {
            let out = cpu.array("out").expect("reference out");
            let big = (0..out.len())
                .map(|i| out.get(i).as_f64().abs())
                .fold(0.0, f64::max);
            want.push(array_want("out", out, tol(big)));
        }
        None => {
            let v = cpu.scalar("sum").expect("reference sum");
            want.push(scalar_want("sum", v, tol(v.as_f64())));
        }
    }
    JobKind {
        name: t2_label(pos, op, ty),
        src,
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Lib {
            ints,
            arrays,
            resets: Vec::new(),
            reps: 1,
        },
        want,
    }
}

fn matmul_job(n: usize, seed: u64) -> JobKind {
    let mut rng = Rng::new(seed, 1);
    let a: Vec<f64> = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
    let c = acc_apps::matmul::cpu_matmul(&a, &b, n);
    let cfg = acc_apps::MatmulConfig::default();
    JobKind {
        name: format!("openuh/matmul/n{n}"),
        src: app_source("matmul").into(),
        opts: CompilerOptions::openuh(),
        dims: cfg.dims,
        body: Body::Lib {
            ints: vec![("n".into(), n as i64)],
            arrays: vec![
                ("A".into(), Arr::F64(a)),
                ("B".into(), Arr::F64(b)),
                ("C".into(), Arr::F64(vec![0.0; n * n])),
            ],
            resets: Vec::new(),
            reps: 1,
        },
        // |a|,|b| < 1: each entry sums n products below 1 in magnitude.
        want: vec![array_want(
            "C",
            &HostBuffer::from_f64(&c),
            sum_tol(n, n as f64),
        )],
    }
}

/// `kernels`: every Table-2 cell for `{+,*} x {int,double}` under each
/// personality that passes it, plus matmul.
pub fn kernels(seed: u64, s: Sizes) -> Vec<JobKind> {
    let dims = LaunchDims::paper();
    let mut jobs = Vec::new();
    for pos in Position::all() {
        for op in [RedOp::Add, RedOp::Mul] {
            for ty in [CType::Int, CType::Double] {
                let cell = table2_cell(pos, op, ty, s.red_n, seed, dims);
                let case = ReductionCase::new(pos.levels(), pos.same_loop(), op, ty);
                for c in Compiler::all()
                    .into_iter()
                    .filter(|c| passes(*c, pos, op, ty))
                {
                    jobs.push(JobKind {
                        name: format!("{}/{}", compiler_flag(c), cell.name),
                        src: cell.src.clone(),
                        opts: c
                            .options_for_case(&case)
                            .expect("only passing cells are benchmarked"),
                        dims,
                        body: cell.body.clone(),
                        want: cell.want.clone(),
                    });
                }
            }
        }
    }
    jobs.push(matmul_job(s.matmul_n, seed));
    jobs
}

/// A `/run`-path job: inputs from the runtime's own deterministic binder,
/// reference from the CPU interpreter on exactly those inputs.
pub fn run_path_job(name: &str, src: &str, n: u64, dims: LaunchDims) -> JobKind {
    let mut r = AccRunner::with_options(src, CompilerOptions::openuh(), dims, Device::default())
        .expect("benchmark sources compile");
    r.bind_deterministic_inputs(n).expect("binder inputs");
    let prog = r.program_shared();
    let ints: Vec<(String, i64)> = prog
        .hosts
        .iter()
        .filter(|h| !h.ty.is_float())
        .map(|h| (h.name.clone(), r.scalar(&h.name).expect("bound").as_i64()))
        .collect();
    let arrays: Vec<(String, HostBuffer)> = prog
        .arrays
        .iter()
        .map(|a| (a.name.clone(), r.array(&a.name).expect("bound").clone()))
        .collect();
    let mut cpu = CpuExec::new(src).expect("benchmark sources compile");
    for h in prog.hosts.iter().filter(|h| h.ty.is_float()) {
        cpu.bind_scalar(&h.name, Value::F64(0.0))
            .expect("reference scalar");
    }
    for (n, v) in &ints {
        cpu.bind_int(n, *v).expect("reference scalar");
    }
    for (n, b) in &arrays {
        cpu.bind_array(n, b.clone()).expect("reference array");
    }
    cpu.run().expect("reference run");
    let elems: usize = arrays.iter().map(|(_, b)| b.len()).max().unwrap_or(1);
    let abs_sum: f64 = arrays
        .iter()
        .map(|(_, b)| (0..b.len()).map(|i| b.get(i).as_f64().abs()).sum::<f64>())
        .sum();
    let want = prog
        .hosts
        .iter()
        .map(|h| {
            let v = cpu.scalar(&h.name).expect("declared scalar");
            let tol = if h.ty.is_float() {
                sum_tol(elems, abs_sum.max(v.as_f64().abs()))
            } else {
                0.0
            };
            scalar_want(&h.name, v, tol)
        })
        .collect();
    JobKind {
        name: format!("run/{name}/n{n}"),
        src: src.into(),
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Run { n },
        want,
    }
}

/// `bulk`: one launch per job over 2^21 elements with little arithmetic
/// per element, each program once on the library path and once on the
/// `/run` path.
pub fn bulk(seed: u64, s: Sizes) -> Vec<JobKind> {
    let dims = LaunchDims::paper();
    let cube = s.cube_n;
    let mut jobs = Vec::new();

    // pi: points uniform in [-1,1]^2, about pi/4 of them inside.
    let mut rng = Rng::new(seed, 2);
    let xs: Vec<f64> = (0..s.pi_n).map(|_| rng.range(-1.0, 1.0)).collect();
    let ys: Vec<f64> = (0..s.pi_n).map(|_| rng.range(-1.0, 1.0)).collect();
    let hits = acc_apps::pi::cpu_hits(&xs, &ys);
    jobs.push(JobKind {
        name: format!("lib/pi/n{}", s.pi_n),
        src: PI_EXAMPLE_SRC.into(),
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Lib {
            ints: vec![("n".into(), s.pi_n as i64)],
            arrays: vec![("x".into(), Arr::F64(xs)), ("y".into(), Arr::F64(ys))],
            resets: Vec::new(),
            reps: 1,
        },
        want: vec![scalar_want("m", Value::I32(hits as i32), 0.0)],
    });
    jobs.push(run_path_job("pi", PI_EXAMPLE_SRC, s.pi_n as u64, dims));

    // Gang-worker-vector double sum over a cube.
    let sum_src = case_source(Position::GangWorkerVector, RedOp::Add, CType::Double);
    let total = cube * cube * cube;
    let mut rng = Rng::new(seed, 3);
    let input = Arr::F64((0..total).map(|_| rng.range(-1.0, 1.0)).collect());
    let ints: Vec<(String, i64)> = ["NK", "NJ", "NI"]
        .iter()
        .map(|d| (d.to_string(), cube as i64))
        .collect();
    let cpu = cpu_run(&sum_src, &ints, &[("input".into(), input.buffer())]);
    let sum = cpu.scalar("sum").expect("reference sum");
    jobs.push(JobKind {
        name: format!("lib/sum_double/n{cube}"),
        src: sum_src.clone(),
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Lib {
            ints: ints.clone(),
            arrays: vec![("input".into(), input.clone())],
            resets: Vec::new(),
            reps: 1,
        },
        want: vec![scalar_want("sum", sum, sum_tol(total, input.abs_sum()))],
    });
    jobs.push(run_path_job("sum_double", &sum_src, cube as u64, dims));

    // examples/grid.c: vector-position int sums over a cube.
    let mut rng = Rng::new(seed, 4);
    let grid_in = Arr::I32((0..total).map(|_| rng.int(-50, 50) as i32).collect());
    let cpu = cpu_run(
        GRID_SRC,
        &ints,
        &[
            ("input".into(), grid_in.buffer()),
            ("out".into(), HostBuffer::new(CType::Int, cube * cube)),
        ],
    );
    let out = cpu.array("out").expect("reference out");
    jobs.push(JobKind {
        name: format!("lib/grid/n{cube}"),
        src: GRID_SRC.into(),
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Lib {
            ints,
            arrays: vec![
                ("input".into(), grid_in),
                ("out".into(), Arr::I32(vec![0; cube * cube])),
            ],
            resets: Vec::new(),
            reps: 1,
        },
        want: vec![array_want("out", out, 0.0)],
    });
    jobs.push(run_path_job("grid", GRID_SRC, cube as u64, dims));
    jobs
}

/// `iterative`: many small launches per job — heat2d with resident
/// grids, and the two cascaded-region chains run repeatedly in one
/// session.
pub fn iterative(seed: u64, s: Sizes) -> Vec<JobKind> {
    let n = s.heat_n;
    let mut rng = Rng::new(seed, 5);
    let grid: Vec<f64> = (0..n * n).map(|_| rng.range(0.0, 100.0)).collect();
    let (mut t1, mut t2) = (grid.clone(), grid.clone());
    let mut errors = Vec::new();
    for _ in 0..s.heat_iters {
        errors.push(Value::F64(acc_apps::heat2d::cpu_step(&t1, &mut t2, n)));
        std::mem::swap(&mut t1, &mut t2);
    }
    // The stencil and the max are evaluated in the same order on both
    // sides; allow a few ulps of contraction differences.
    let heat_tol = 8.0 * U * 100.0;
    let heat = JobKind {
        name: format!("heat2d/n{n}/it{}", s.heat_iters),
        src: app_source("heat2d").into(),
        opts: CompilerOptions::openuh(),
        dims: acc_apps::HeatConfig::default().dims,
        body: Body::Heat {
            n,
            iters: s.heat_iters,
            grid,
        },
        want: vec![
            Want {
                name: "error".into(),
                array: false,
                values: errors,
                tol: heat_tol,
            },
            array_want("temp1", &HostBuffer::from_f64(&t1), heat_tol),
        ],
    };

    let dims = LaunchDims {
        gangs: 64,
        workers: 1,
        vector: 128,
    };
    let cn = s.chain_n;
    let ints = vec![("N".to_string(), cn as i64)];
    let mut rng = Rng::new(seed, 6);
    let a: Vec<f64> = (0..cn).map(|_| rng.range(-1.0, 1.0)).collect();
    let cpu = cpu_run(
        MEAN_VARIANCE_SRC,
        &ints,
        &[("a".into(), HostBuffer::from_f64(&a))],
    );
    let abs_sum: f64 = a.iter().map(|x| x.abs()).sum();
    let (s_ref, v_ref) = (cpu.scalar("s").expect("s"), cpu.scalar("v").expect("v"));
    let mean_var = JobKind {
        name: format!("mean_variance/n{cn}/x{}", s.chain_reps),
        src: MEAN_VARIANCE_SRC.into(),
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Lib {
            ints: ints.clone(),
            arrays: vec![("a".into(), Arr::F64(a))],
            resets: vec![("s".into(), 0.0), ("v".into(), 0.0)],
            reps: s.chain_reps,
        },
        want: vec![
            scalar_want("s", s_ref, sum_tol(cn, abs_sum)),
            // The consumer sums squares around a mean that is itself
            // within the bound above.
            scalar_want(
                "v",
                v_ref,
                sum_tol(cn, v_ref.as_f64()) + 4.0 * sum_tol(cn, abs_sum),
            ),
        ],
    };

    let mut rng = Rng::new(seed, 7);
    let a: Vec<f64> = (0..cn).map(|_| rng.range(0.5, 1.5)).collect();
    let cpu = cpu_run(
        MAX_NORMALIZE_SRC,
        &ints,
        &[
            ("a".into(), HostBuffer::from_f64(&a)),
            ("b".into(), HostBuffer::new(CType::Double, cn)),
        ],
    );
    let max_norm = JobKind {
        name: format!("max_normalize/n{cn}/x{}", s.chain_reps),
        src: MAX_NORMALIZE_SRC.into(),
        opts: CompilerOptions::openuh(),
        dims,
        body: Body::Lib {
            ints,
            arrays: vec![
                ("a".into(), Arr::F64(a)),
                ("b".into(), Arr::F64(vec![0.0; cn])),
            ],
            resets: vec![("m".into(), 0.0)],
            reps: s.chain_reps,
        },
        want: vec![
            scalar_want("m", cpu.scalar("m").expect("m"), 0.0),
            array_want("b", cpu.array("b").expect("b"), 4.0 * U),
        ],
    };
    vec![heat, mean_var, max_norm]
}
