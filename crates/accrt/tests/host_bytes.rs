//! The host data path is raw little-endian bytes end to end: buffers
//! built from typed slices, the deterministic input binder, and every
//! device-to-host copy must produce exactly the bytes the per-element
//! `HostBuffer::set(i, Value)` path produces.

use accparse::CType;
use accrt::{AccRunner, HostBuffer};
use gpsim::{Device, Value};
use uhacc_core::{CompilerOptions, LaunchDims};

/// The same array written one `Value` at a time through `set`.
fn via_set(ty: CType, vals: &[Value]) -> HostBuffer {
    let mut b = HostBuffer::new(ty, vals.len());
    for (i, v) in vals.iter().enumerate() {
        b.set(i, *v);
    }
    b
}

#[test]
fn from_slices_match_per_element_set() {
    let ints = [0, 1, -1, i32::MIN, i32::MAX, 0x1234_5678];
    let b = HostBuffer::from_i32(&ints);
    let want = via_set(CType::Int, &ints.map(Value::I32));
    assert_eq!(b.bytes(), want.bytes());
    assert_eq!(b.bytes().len(), ints.len() * 4);

    let longs = [0, 1, -1, i64::MIN, i64::MAX, 1 << 40];
    let b = HostBuffer::from_i64(&longs);
    assert_eq!(
        b.bytes(),
        via_set(CType::Long, &longs.map(Value::I64)).bytes()
    );

    // Quiet NaNs with payloads, signed zeros, infinities and subnormals.
    let doubles = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(0x7ff8_0000_dead_beef),
        f64::from_bits(0xfff8_0000_0000_0001),
        f64::from_bits(0x7ff0_0000_0000_0001), // signalling
        f64::MIN_POSITIVE / 2.0,
        -1.5,
    ];
    let b = HostBuffer::from_f64(&doubles);
    assert_eq!(
        b.bytes(),
        via_set(CType::Double, &doubles.map(Value::F64)).bytes()
    );

    let floats = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffc0_0001),
        f32::MIN_POSITIVE / 2.0,
        0.25,
    ];
    let b = HostBuffer::from_f32(&floats);
    assert_eq!(
        b.bytes(),
        via_set(CType::Float, &floats.map(Value::F32)).bytes()
    );
}

#[test]
fn from_slices_keep_every_bit() {
    // The per-element path widens `f32` through `f64`, which may quiet a
    // signalling NaN; the byte path stores the caller's bits unchanged.
    let floats = [
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_0001),
        -0.0,
    ];
    let b = HostBuffer::from_f32(&floats);
    let want: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
    assert_eq!(b.bytes(), &want[..]);
    assert_eq!(b.len(), 3);
    assert!(HostBuffer::from_f64(&[]).is_empty());
}

/// 64-bit FNV-1a, to pin a byte stream in one constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn deterministic_inputs_are_pinned_over_one_period() {
    let src = r#"
        int N;
        int a[N]; long b[N]; float c[N]; double d[N];
        #pragma acc parallel loop gang vector copy(a, b, c, d)
        for (int i = 0; i < N; i++) { a[i] = a[i]; }
    "#;
    let mut r = AccRunner::new(src).unwrap();
    r.bind_deterministic_inputs(101).unwrap();
    let pattern = |i: usize| (i as i64 * 7 + 3) % 101 - 50;
    for (name, ty, hash) in [
        ("a", CType::Int, 0x5c3f_c066_7fb4_da5f_u64),
        ("b", CType::Long, 0x760b_1faa_3494_b067),
        ("c", CType::Float, 0xd6fd_9cbd_2be6_9a0d),
        ("d", CType::Double, 0xbb21_ad0b_798d_4619),
    ] {
        let got = r.array(name).unwrap();
        assert_eq!((got.ty(), got.len()), (ty, 101), "{name}");
        let vals: Vec<Value> = (0..101)
            .map(|i| match ty {
                CType::Int | CType::Long => Value::I64(pattern(i)),
                CType::Float | CType::Double => Value::F64(pattern(i) as f64 / 101.0),
            })
            .collect();
        assert_eq!(got.bytes(), via_set(ty, &vals).bytes(), "{name}");
        assert_eq!(
            fnv1a(got.bytes()),
            hash,
            "{name}: {:#x}",
            fnv1a(got.bytes())
        );
    }
    // One period covers every value in -50..=50 exactly once.
    let mut ks = r.array("b").unwrap().to_i64_vec();
    ks.sort_unstable();
    assert_eq!(ks, (-50..=50).collect::<Vec<i64>>());
}

fn small(src: &str) -> AccRunner {
    AccRunner::with_options(
        src,
        CompilerOptions::openuh(),
        LaunchDims {
            gangs: 2,
            workers: 1,
            vector: 32,
        },
        Device::default(),
    )
    .unwrap()
}

const N: usize = 40;

/// `b[i] = 3i - 7` for every element.
fn assert_written(r: &AccRunner, name: &str) {
    let b = r.array(name).unwrap();
    let want: Vec<i64> = (0..N as i64).map(|i| 3 * i - 7).collect();
    assert_eq!(b.to_i64_vec(), want, "{name}");
}

#[test]
fn copyout_lands_in_bound_and_runtime_created_buffers() {
    // Region-level copyout into a caller-allocated (bound) buffer.
    let mut r = small(
        r#"
        int N;
        int b[N];
        #pragma acc parallel loop gang vector copyout(b)
        for (int i = 0; i < N; i++) { b[i] = 3 * i - 7; }
    "#,
    );
    r.bind_int("N", N as i64).unwrap();
    r.bind_array("b", HostBuffer::from_i32(&[99; N])).unwrap();
    r.run().unwrap();
    assert_written(&r, "b");

    // Data-scope copyout of a never-bound array: the runtime creates the
    // host buffer when the scope ends.
    let mut r = small(
        r#"
        int N;
        int b[N];
        #pragma acc data copyout(b)
        {
            #pragma acc parallel loop gang vector
            for (int i = 0; i < N; i++) { b[i] = 3 * i - 7; }
        }
    "#,
    );
    r.bind_int("N", N as i64).unwrap();
    assert!(r.array("b").is_err(), "never bound");
    r.run().unwrap();
    assert_written(&r, "b");
    assert_eq!(r.device().stats().bytes_d2h, (N * 4) as u64);
}

#[test]
fn update_host_lands_in_bound_and_runtime_created_buffers() {
    let src = r#"
        int N;
        int b[N];
        #pragma acc parallel loop gang vector create(b)
        for (int i = 0; i < N; i++) { b[i] = 3 * i - 7; }
    "#;
    for bound in [true, false] {
        let mut r = small(src);
        r.bind_int("N", N as i64).unwrap();
        if bound {
            r.bind_array("b", HostBuffer::from_i32(&[99; N])).unwrap();
        }
        r.run().unwrap();
        assert_eq!(r.device().stats().bytes_d2h, 0, "create moves nothing");
        r.update_host("b").unwrap();
        assert_written(&r, "b");
        assert_eq!(r.device().stats().bytes_d2h, (N * 4) as u64);
    }
}

#[test]
fn exit_data_lands_in_the_bound_buffer() {
    let mut r = small(
        r#"
        int N;
        int b[N];
        #pragma acc parallel loop gang vector copy(b)
        for (int i = 0; i < N; i++) { b[i] = b[i] + 3 * i - 7; }
    "#,
    );
    r.bind_int("N", N as i64).unwrap();
    r.bind_array("b", HostBuffer::from_i32(&[0; N])).unwrap();
    r.enter_data("b").unwrap();
    r.run().unwrap();
    // Resident: the region moved nothing back and the host still holds 0s.
    assert_eq!(r.array("b").unwrap().to_i64_vec(), vec![0; N]);
    r.exit_data("b").unwrap();
    assert_written(&r, "b");
    let s = r.device().stats();
    assert_eq!((s.bytes_h2d, s.bytes_d2h), ((N * 4) as u64, (N * 4) as u64));
}
