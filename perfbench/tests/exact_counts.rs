//! The benchmark's exact counters must repeat exactly: across two runs at
//! one seed, and across simulator `host_threads` 1 and `nproc`. Wall-clock
//! metrics are free to vary; these are not.

use perfbench::jobs::{self, run_job, JobKind, Sizes};
use perfbench::trace::Tr;
use perfbench::{nproc, serve};

/// `(job, device_ms bits, lane_insts, launches, kernel_cycles,
/// bytes_h2d, compiles)` for every job of a workload.
type Counts = Vec<(String, u64, u64, u64, u64, u64, u64)>;

fn counts(jobs: &[JobKind], host_threads: u32) -> Counts {
    jobs.iter()
        .map(|k| {
            let o = run_job(k, None, host_threads, &mut Tr::off());
            assert_eq!(o.error, None, "{} failed its oracle", k.name);
            (
                k.name.clone(),
                o.device_ms.to_bits(),
                o.stats.totals.lane_insts,
                o.stats.launches,
                o.stats.kernel_cycles,
                o.stats.bytes_h2d,
                o.compiles,
            )
        })
        .collect()
}

fn assert_exact(build: impl Fn(u64, Sizes) -> Vec<JobKind>) {
    let seed = 7;
    let first = counts(&build(seed, Sizes::small()), 1);
    assert!(
        first.iter().all(|c| c.3 > 0 && c.2 > 0),
        "every job launches"
    );
    assert_eq!(
        first,
        counts(&build(seed, Sizes::small()), 1),
        "two runs at one seed"
    );
    assert_eq!(
        first,
        counts(&build(seed, Sizes::small()), nproc().max(2)),
        "host_threads 1 vs nproc"
    );
}

#[test]
fn kernels_counts_repeat_exactly() {
    assert_exact(jobs::kernels);
}

#[test]
fn bulk_counts_repeat_exactly() {
    assert_exact(jobs::bulk);
}

#[test]
fn iterative_counts_repeat_exactly() {
    assert_exact(jobs::iterative);
}

#[test]
fn traced_jobs_count_the_same_as_untraced() {
    let jobs = jobs::iterative(3, Sizes::small());
    let mut tr = Tr::on();
    for (i, k) in jobs.iter().enumerate() {
        tr.set_job(i as u64 + 1);
        let traced = run_job(k, Some("traced"), 1, &mut tr);
        let plain = run_job(k, None, 1, &mut Tr::off());
        assert_eq!(traced.error, None);
        assert_eq!(traced.stats, plain.stats, "{}", k.name);
        assert_eq!(traced.device_ms.to_bits(), plain.device_ms.to_bits());
    }
    let spans = tr.finish().expect("runtime hook trace parses");
    let b = perfbench::trace::breakdown(&spans, "job");
    assert_eq!(b.jobs, jobs.len());
    assert!(b.calls("gpsim.launch") > 0, "runtime hook spans imported");
    let attributed: u64 = b.self_us.values().sum();
    assert_eq!(attributed + b.unattributed_us, b.wall_us);
}

#[test]
fn serve_counts_repeat_exactly() {
    let a = serve::sequential_counts(5, 60, 1).expect("serve sequence");
    assert!(a.0 > 0 && a.1 > 0, "cold keys parse and compile: {a:?}");
    assert_eq!(
        a,
        serve::sequential_counts(5, 60, 1).expect("serve sequence")
    );
    assert_eq!(
        a,
        serve::sequential_counts(5, 60, nproc().max(2)).expect("serve sequence")
    );
}
