//! Criterion micro-benchmarks of the DSM substrate: DistArray access
//! paths, write-back buffers, the wire codec, and histogram-balanced
//! partitioning — the per-element costs behind the runtime's throughput.
//!
//! Besides the criterion timings, the binary runs two head-to-head
//! comparisons:
//!
//! - hot access paths and the dense-run codec against the seed
//!   implementations they replaced (allocating per-access index
//!   translation; `BTreeMap` sparse storage; one `Element::encode` /
//!   `decode` call per value), written to `results/BENCH_dsm.json`: one
//!   record per path with `seed_ns`, `new_ns` (per operation, an
//!   operation being one element for the codec rows) and the `speedup`;
//! - the reassociating reduction kernels run through their dispatchers
//!   under `MathMode::Exact` and `MathMode::FastMath`, written to
//!   `results/BENCH_simd.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use orion_bench::{results_dir, write_report, KernelReport, KernelRow};
use orion_dsm::{
    checkpoint, codec, kernels, DistArray, DistArrayBuffer, MathMode, RangePartition, Storage,
};

fn bench_dense_access(c: &mut Criterion) {
    let mut a: DistArray<f32> = DistArray::dense("a", vec![1000, 16]);
    c.bench_function("dense_point_get", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..1000i64 {
                acc += a.get(black_box(&[i, 3])).copied().unwrap_or(0.0);
            }
            acc
        });
    });
    c.bench_function("dense_point_get_flat", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..1000i64 {
                let flat = a.flat_of(black_box(&[i, 3])).unwrap();
                acc += a.get_flat(flat).copied().unwrap_or(0.0);
            }
            acc
        });
    });
    c.bench_function("dense_row_slice_mut_update", |b| {
        b.iter(|| {
            for i in 0..1000i64 {
                for v in a.row_slice_mut(black_box(i)) {
                    *v += 1.0;
                }
            }
        });
    });
}

fn bench_sparse_access(c: &mut Criterion) {
    let a: DistArray<f32> = DistArray::sparse_from(
        "s",
        vec![100_000],
        (0..10_000).map(|i| (vec![i * 7 % 100_000], i as f32)),
    );
    c.bench_function("sparse_iter_10k", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for (_, &v) in a.iter_flat() {
                acc += v;
            }
            black_box(acc)
        });
    });
    c.bench_function("sparse_point_query_10k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in 0..10_000u64 {
                if a.get_flat(black_box(k * 13 % 100_000)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
}

fn bench_buffer(c: &mut Criterion) {
    c.bench_function("buffer_write_drain_4k", |b| {
        let shape = orion_dsm::Shape::new(vec![100_000]);
        b.iter(|| {
            let mut buf: DistArrayBuffer<f32> = DistArrayBuffer::additive(shape.clone());
            for i in 0..4_000i64 {
                buf.write(black_box(&[(i * 13) % 100_000]), 0.5);
            }
            black_box(buf.drain().len())
        });
    });
}

fn bench_codec(c: &mut Criterion) {
    let updates: Vec<(u64, f32)> = (0..10_000).map(|i| (i * 3, i as f32 * 0.5)).collect();
    c.bench_function("codec_encode_decode_10k_updates", |b| {
        b.iter(|| {
            let wire = codec::encode_updates(black_box(&updates));
            black_box(codec::decode_updates::<f32>(wire).len())
        });
    });
}

fn bench_partition(c: &mut Criterion) {
    let weights: Vec<u64> = (0..100_000).map(|i| (i % 97) + 1).collect();
    c.bench_function("balanced_partition_100k_384", |b| {
        b.iter(|| RangePartition::balanced(0, black_box(&weights), 384));
    });
}

/// The access-path and codec implementations the library replaced,
/// reproduced here so the comparison holds still as the library moves
/// on.
mod seed {
    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use orion_dsm::{DistArray, Element, Storage};
    use std::collections::BTreeMap;

    /// Seed dense point read: translate the global index to a local one
    /// by materializing a fresh `Vec<i64>`, then flatten it in a second
    /// pass — one heap allocation and two coordinate walks per access.
    pub fn dense_get<'a, T>(
        values: &'a [T],
        dims: &[u64],
        strides: &[u64],
        origin: &[i64],
        index: &[i64],
    ) -> Option<&'a T> {
        if index.len() != dims.len() {
            return None;
        }
        let local: Vec<i64> = index.iter().zip(origin).map(|(&i, &o)| i - o).collect();
        let mut flat = 0u64;
        for ((&l, &d), &s) in local.iter().zip(dims).zip(strides) {
            if l < 0 || (l as u64) >= d {
                return None;
            }
            flat += l as u64 * s;
        }
        values.get(flat as usize)
    }

    /// Seed sparse storage: an ordered node-based map, point queries by
    /// tree descent, iteration by pointer-chasing leaves.
    pub type SeedSparse<T> = BTreeMap<u64, T>;

    /// Seed coordinate recovery during iteration: `iter()` yielded a
    /// freshly allocated global-index `Vec<i64>` for every element.
    pub fn unflatten(strides: &[u64], mut flat: u64) -> Vec<i64> {
        let mut idx = Vec::with_capacity(strides.len());
        for &s in strides {
            idx.push((flat / s) as i64);
            flat %= s;
        }
        idx
    }

    /// Seed dense-run encode: one `Element::encode` call per value
    /// through `BufMut`.
    pub fn encode_dense_run<T: Element>(base: u64, values: &[T]) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + values.len() * T::WIRE_BYTES);
        buf.put_u64_le(base);
        buf.put_u64_le(values.len() as u64);
        for v in values {
            v.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Seed dense-run decode: one `Element::decode` call per value
    /// through `Buf`.
    pub fn decode_dense_run<T: Element>(mut wire: Bytes) -> (u64, Vec<T>) {
        let base = wire.get_u64_le();
        let n = wire.get_u64_le() as usize;
        let values = (0..n).map(|_| T::decode(&mut wire)).collect();
        (base, values)
    }

    /// Seed checkpoint image of a dense array: the header in a growing
    /// buffer, then the encoded run copied in after it.
    pub fn to_bytes<T: Element>(array: &DistArray<T>) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0x4F52_4E43);
        buf.put_u32_le(T::WIRE_BYTES as u32);
        let name = array.name().as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        let dims = array.shape().dims();
        buf.put_u32_le(dims.len() as u32);
        for &d in dims {
            buf.put_u64_le(d);
        }
        for &o in array.origin() {
            buf.put_i64_le(o);
        }
        let Storage::Dense(values) = array.storage() else {
            panic!("dense fixture")
        };
        buf.put_u8(0);
        buf.put_slice(&encode_dense_run(0, values));
        buf.freeze()
    }

    /// Seed checkpoint decode of a dense image (the header checks are
    /// the library's, so only the payload path differs).
    pub fn from_bytes<T: Element>(mut wire: Bytes) -> DistArray<T> {
        let (_magic, _elem) = (wire.get_u32_le(), wire.get_u32_le());
        let name_len = wire.get_u32_le() as usize;
        let name = String::from_utf8(wire.copy_to_bytes(name_len).to_vec()).expect("utf-8 name");
        let ndims = wire.get_u32_le() as usize;
        let dims: Vec<u64> = (0..ndims).map(|_| wire.get_u64_le()).collect();
        let origin: Vec<i64> = (0..ndims).map(|_| wire.get_i64_le()).collect();
        assert_eq!(wire.get_u8(), 0, "dense tag");
        let (_base, values) = decode_dense_run(wire);
        DistArray::dense_from_vec(name, dims, values).with_origin(origin)
    }
}

/// Medians one closure's wall time over `rounds` runs (after a warmup).
fn median_ns<R>(rounds: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = std::time::Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[rounds / 2]
}

struct Comparison {
    name: &'static str,
    ops: u64,
    seed_ns: f64,
    new_ns: f64,
}

fn compare_dense_point_get() -> Comparison {
    const ROWS: i64 = 2000;
    const COLS: i64 = 16;
    let a: DistArray<f32> = DistArray::dense_from_fn("d", vec![ROWS as u64, COLS as u64], |i| {
        (i[0] * 31 + i[1]) as f32
    });
    let dims = a.shape().dims().to_vec();
    let strides = a.shape().strides().to_vec();
    let origin = vec![0i64; 2];
    let values: Vec<f32> = (0..ROWS * COLS).map(|i| i as f32).collect();
    let ops = (ROWS * COLS) as u64;
    let seed_ns = median_ns(9, || {
        let mut acc = 0.0f32;
        for r in 0..ROWS {
            for c in 0..COLS {
                acc += seed::dense_get(&values, &dims, &strides, &origin, black_box(&[r, c]))
                    .copied()
                    .unwrap_or(0.0);
            }
        }
        acc
    });
    let new_ns = median_ns(9, || {
        let mut acc = 0.0f32;
        for r in 0..ROWS {
            for c in 0..COLS {
                let flat = a.flat_of(black_box(&[r, c])).unwrap();
                acc += a.get_flat(flat).copied().unwrap_or(0.0);
            }
        }
        acc
    });
    Comparison {
        name: "dense_point_get",
        ops,
        seed_ns,
        new_ns,
    }
}

fn sparse_fixture() -> (seed::SeedSparse<f32>, DistArray<f32>) {
    const SPACE: u64 = 1_000_000;
    const NNZ: u64 = 100_000;
    let pairs: Vec<(u64, f32)> = (0..NNZ).map(|i| (i * 97 % SPACE, i as f32)).collect();
    let map: seed::SeedSparse<f32> = pairs.iter().copied().collect();
    // A 1000×1000 2-D space, like the token/rating matrices whose bulk
    // scans (histograms, likelihoods) this path serves.
    let arr: DistArray<f32> = DistArray::sparse_from_flat("s", vec![1000, 1000], pairs);
    (map, arr)
}

fn compare_sparse_iteration() -> Comparison {
    // Coordinate-yielding iteration, as every bulk consumer uses it:
    // the seed walked the tree and allocated a global-index Vec per
    // element; the frozen path scans two flat arrays and projects
    // coordinates arithmetically.
    let (map, arr) = sparse_fixture();
    let strides = arr.shape().strides().to_vec();
    let shape = arr.shape().clone();
    let origin = vec![0i64; 2];
    let ops = map.len() as u64;
    let seed_ns = median_ns(9, || {
        // The seed's `iter()`: a boxed dyn iterator yielding an
        // origin-adjusted coordinate Vec per element.
        let it: Box<dyn Iterator<Item = (Vec<i64>, f32)> + '_> =
            Box::new(black_box(&map).iter().map(|(&k, &v)| {
                let mut idx = seed::unflatten(&strides, k);
                for (x, &o) in idx.iter_mut().zip(&origin) {
                    *x += o;
                }
                (idx, v)
            }));
        let mut acc = 0.0f32;
        for (idx, v) in it {
            acc += (idx[0] + idx[1]) as f32 + v;
        }
        acc
    });
    let new_ns = median_ns(9, || {
        let mut acc = 0.0f32;
        for (flat, &v) in black_box(&arr).iter_flat() {
            let (r, c) = (shape.coord_of(flat, 0), shape.coord_of(flat, 1));
            acc += (r + c) as f32 + v;
        }
        acc
    });
    Comparison {
        name: "sparse_iteration",
        ops,
        seed_ns,
        new_ns,
    }
}

fn compare_sparse_point_query() -> Comparison {
    let (map, arr) = sparse_fixture();
    const QUERIES: u64 = 100_000;
    // A hit/miss mix over the whole keyspace.
    let keys: Vec<u64> = (0..QUERIES).map(|i| i * 31 % 1_000_000).collect();
    let seed_ns = median_ns(9, || {
        let mut hits = 0usize;
        for &k in &keys {
            if black_box(&map).get(&k).is_some() {
                hits += 1;
            }
        }
        hits
    });
    let new_ns = median_ns(9, || {
        let mut hits = 0usize;
        for &k in &keys {
            if black_box(&arr).get_flat(k).is_some() {
                hits += 1;
            }
        }
        hits
    });
    Comparison {
        name: "sparse_point_query",
        ops: QUERIES,
        seed_ns,
        new_ns,
    }
}

/// A rotated MF time partition at benchmark size: 6000 rows of rank 32
/// (0.77 MB of `f32`), with a non-zero origin like a real split.
fn partition_fixture() -> DistArray<f32> {
    DistArray::dense_from_fn("H", vec![6000, 32], |i| {
        (i[0] * 32 + i[1]) as f32 * 0.37 - 9.0
    })
    .with_origin(vec![6000, 0])
}

fn partition_values(part: &DistArray<f32>) -> &[f32] {
    let Storage::Dense(values) = part.storage() else {
        panic!("dense fixture")
    };
    values
}

fn compare_dense_run_encode() -> Comparison {
    let part = partition_fixture();
    let values = partition_values(&part);
    Comparison {
        name: "dense_run_encode",
        ops: values.len() as u64,
        seed_ns: median_ns(15, || seed::encode_dense_run(0, black_box(values))),
        new_ns: median_ns(15, || codec::encode_dense_run(0, black_box(values))),
    }
}

fn compare_dense_run_decode() -> Comparison {
    let part = partition_fixture();
    let values = partition_values(&part);
    let wire = codec::encode_dense_run(0, values);
    assert_eq!(
        seed::encode_dense_run(0, values),
        wire,
        "seed encodes the same bytes"
    );
    assert_eq!(seed::decode_dense_run::<f32>(wire.clone()).1, values);
    Comparison {
        name: "dense_run_decode",
        ops: values.len() as u64,
        seed_ns: median_ns(15, || {
            seed::decode_dense_run::<f32>(black_box(wire.clone()))
        }),
        new_ns: median_ns(15, || {
            codec::decode_dense_run::<f32>(black_box(wire.clone()))
        }),
    }
}

fn compare_checkpoint_roundtrip() -> Comparison {
    let part = partition_fixture();
    assert_eq!(
        seed::to_bytes(&part),
        checkpoint::to_bytes(&part),
        "same image"
    );
    assert_eq!(seed::from_bytes::<f32>(checkpoint::to_bytes(&part)), part);
    Comparison {
        name: "checkpoint_roundtrip",
        ops: partition_values(&part).len() as u64,
        seed_ns: median_ns(15, || {
            seed::from_bytes::<f32>(seed::to_bytes(black_box(&part)))
        }),
        new_ns: median_ns(15, || {
            checkpoint::from_bytes::<f32>(checkpoint::to_bytes(black_box(&part)))
                .expect("own image decodes")
        }),
    }
}

fn run_head_to_head() {
    let comparisons = [
        compare_dense_point_get(),
        compare_sparse_iteration(),
        compare_sparse_point_query(),
        compare_dense_run_encode(),
        compare_dense_run_decode(),
        compare_checkpoint_roundtrip(),
    ];
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"micro_dsm\",\n  \"host_parallelism\": {host},\n  \"comparisons\": [\n"
    );
    for (i, c) in comparisons.iter().enumerate() {
        let per_op_seed = c.seed_ns / c.ops as f64;
        let per_op_new = c.new_ns / c.ops as f64;
        let speedup = c.seed_ns / c.new_ns;
        println!(
            "{:<22} seed {:>8.2} ns/op   new {:>8.2} ns/op   speedup {:.2}x",
            c.name, per_op_seed, per_op_new, speedup
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops\": {}, \"seed_ns\": {:.2}, \"new_ns\": {:.2}, \
             \"speedup\": {:.3}}}{}\n",
            c.name,
            c.ops,
            per_op_seed,
            per_op_new,
            speedup,
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = results_dir().join("BENCH_dsm.json");
    std::fs::write(&path, &json).expect("write BENCH_dsm.json");
    println!("wrote {}", path.display());
}

/// Rank/length of the dense kernel fixtures — the regime of the MF
/// benchmarks at their largest configured rank.
const KLEN: usize = 512;
/// Timed closure repetitions per median sample.
const KREPS: usize = 2_000;

fn kernel_fixture(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32 / 1000.0)
        .collect()
}

/// Times one kernel under each [`MathMode`] and returns the per-op
/// comparison row.
fn kernel_row(name: &'static str, ops: u64, mut run: impl FnMut(MathMode)) -> KernelRow {
    let exact_ns = median_ns(9, || run(MathMode::Exact)) / ops as f64;
    let fastmath_ns = median_ns(9, || run(MathMode::FastMath)) / ops as f64;
    KernelRow {
        name,
        ops,
        exact_ns,
        fastmath_ns,
    }
}

/// Exact vs FastMath for the reductions `MathMode` switches. Per-op
/// numbers divide by the *elements* each closure touches, so rows are
/// comparable across kernels.
fn run_kernel_head_to_head() {
    let ops = (KREPS * KLEN) as u64;
    let a = kernel_fixture(KLEN, 1);
    let b = kernel_fixture(KLEN, 2);

    // Dense dot: Exact is a loop-carried FP add chain, FastMath runs
    // LANES independent accumulators.
    let dense_dot = kernel_row("dense_dot", ops, |mode| {
        let mut acc = 0.0f32;
        for _ in 0..KREPS {
            acc += kernels::dot(black_box(&a), black_box(&b), mode);
        }
        black_box(acc);
    });

    // The full sgd_mf cell (predict + paired update), the operation the
    // app runs once per rating: only the prediction dot reassociates.
    let row_update = kernel_row("row_update", ops, |mode| {
        let (mut w, mut h) = (a.clone(), b.clone());
        for _ in 0..KREPS {
            black_box(kernels::mf_row_update(
                black_box(&mut w),
                black_box(&mut h),
                0.5f32,
                1e-4,
                mode,
            ));
        }
    });

    // SLR margin: a gather feeding a reduction chain.
    let table = kernel_fixture(4096, 3);
    let idx: Vec<u32> = (0..KLEN as u32)
        .map(|x| x.wrapping_mul(997) % 4096)
        .collect();
    let gather_sum = kernel_row("gather_sum", ops, |mode| {
        let mut acc = 0.0f32;
        for _ in 0..KREPS {
            acc += kernels::gather_sum(black_box(&idx), |f| table[f as usize], mode);
        }
        black_box(acc);
    });

    let report = KernelReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows: vec![dense_dot, row_update, gather_sum],
    };
    write_report("BENCH_simd.json", &report);
    assert_eq!(
        kernels::dot(&a, &b, MathMode::Exact).to_bits(),
        kernels::dot_serial(&a, &b).to_bits(),
        "Exact dot must match the serial order bitwise"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dense_access, bench_sparse_access, bench_buffer, bench_codec, bench_partition
}

fn main() {
    benches();
    run_head_to_head();
    run_kernel_head_to_head();
}
