//! Property tests of the DSM substrate: index arithmetic, split/merge,
//! partition tiling and balance, buffer-vs-serial equivalence, codec and
//! checkpoint round trips, and the kernel and MathMode contracts.

use orion::dsm::kernels::{self, MathMode, LANES};
use orion::dsm::{checkpoint, codec, DistArray, DistArrayBuffer, RangePartition, Shape};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..8, 1..4)
}

/// An origin vector matching `rank`: each coordinate in [-16, 16].
fn arb_origin(rank: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-16i64..=16, rank)
}

fn arb_dense_array() -> impl Strategy<Value = DistArray<f32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        (
            proptest::collection::vec(any::<f32>(), volume as usize),
            arb_origin(dims.len()),
        )
            .prop_map(move |(values, origin)| {
                DistArray::dense_from_vec("d", d.clone(), values).with_origin(origin)
            })
    })
}

fn arb_sparse_array() -> impl Strategy<Value = DistArray<f32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        proptest::collection::btree_set(0..volume, 0..volume.min(32) as usize).prop_map(
            move |flats| {
                let shape = Shape::new(d.clone());
                DistArray::sparse_from(
                    "a",
                    d.clone(),
                    flats.iter().map(|&f| (shape.unflatten(f), f as f32 + 0.5)),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flatten_unflatten_bijection(dims in arb_dims()) {
        let shape = Shape::new(dims);
        for f in 0..shape.volume() {
            let idx = shape.unflatten(f);
            prop_assert!(shape.contains(&idx));
            prop_assert_eq!(shape.flatten(&idx), Some(f));
        }
    }

    #[test]
    fn uniform_partition_tiles_exactly(extent in 1u64..200, parts in 1usize..16) {
        prop_assume!(parts as u64 <= extent);
        let p = RangePartition::uniform(0, extent, parts);
        prop_assert_eq!(p.extent(), extent);
        // Every coordinate belongs to exactly one part and sizes differ
        // by at most one.
        let mut counts = vec![0u64; parts];
        for c in 0..extent {
            counts[p.part_of(c)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "uniform sizes {counts:?}");
    }

    #[test]
    fn balanced_partition_never_worse_than_uniform(
        weights in proptest::collection::vec(0u64..50, 4..64),
        parts in 2usize..8,
    ) {
        prop_assume!(parts <= weights.len());
        let load = |p: &RangePartition| -> u64 {
            p.ranges
                .iter()
                .map(|r| weights[r.start as usize..r.end as usize].iter().sum())
                .max()
                .unwrap()
        };
        let balanced = RangePartition::balanced(0, &weights, parts);
        let uniform = RangePartition::uniform(0, weights.len() as u64, parts);
        prop_assert_eq!(balanced.extent(), weights.len() as u64);
        prop_assert!(
            load(&balanced) <= load(&uniform),
            "balanced {} vs uniform {}",
            load(&balanced),
            load(&uniform)
        );
    }

    #[test]
    fn split_merge_is_identity(a in arb_sparse_array(), parts in 1usize..5) {
        let dims = a.shape().dims().to_vec();
        let dim = dims.iter().enumerate().max_by_key(|(_, &e)| e).map(|(i, _)| i).unwrap();
        prop_assume!(parts as u64 <= dims[dim]);
        let p = RangePartition::uniform(dim, dims[dim], parts);
        let split = a.clone().split_along(dim, &p.ranges);
        prop_assert_eq!(split.len(), parts);
        let merged = DistArray::merge_along(dim, split);
        prop_assert_eq!(merged, a);
    }

    #[test]
    fn buffered_writes_equal_serial_application(
        writes in proptest::collection::vec((0i64..16, -10.0f32..10.0), 0..64)
    ) {
        // Applying buffered (combined) writes must equal applying each
        // write serially, for an associative-commutative apply UDF.
        let mut direct: DistArray<f32> = DistArray::dense("d", vec![16]);
        let mut via_buffer: DistArray<f32> = DistArray::dense("b", vec![16]);
        let mut buf = DistArrayBuffer::additive(via_buffer.shape().clone());
        for &(i, v) in &writes {
            direct.update(&[i], |x| *x += v);
            buf.write(&[i], v);
        }
        buf.apply_to(&mut via_buffer, |x, d| *x += d);
        for i in 0..16i64 {
            let a = direct.get(&[i]).unwrap();
            let b = via_buffer.get(&[i]).unwrap();
            prop_assert!((a - b).abs() < 1e-4, "slot {i}: {a} vs {b}");
        }
    }

    #[test]
    fn codec_updates_roundtrip(updates in proptest::collection::vec((0u64..1_000_000, any::<f32>()), 0..64)) {
        let wire = codec::encode_updates(&updates);
        prop_assert_eq!(wire.len() as u64, codec::updates_wire_bytes::<f32>(updates.len() as u64));
        let decoded = codec::decode_updates::<f32>(wire);
        prop_assert_eq!(decoded.len(), updates.len());
        for ((i1, v1), (i2, v2)) in decoded.iter().zip(&updates) {
            prop_assert_eq!(i1, i2);
            prop_assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn codec_dense_run_roundtrips_every_f32_bit_pattern(
        base in any::<u64>(),
        values in proptest::collection::vec(any::<u32>().prop_map(f32::from_bits), 0..64),
    ) {
        let wire = codec::encode_dense_run(base, &values);
        prop_assert_eq!(wire.len() as u64, codec::dense_run_wire_bytes::<f32>(values.len() as u64));
        let (back_base, decoded) = codec::decode_dense_run::<f32>(wire);
        prop_assert_eq!(back_base, base);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&decoded), bits(&values));
    }

    #[test]
    fn checkpoint_roundtrip_sparse(a in arb_sparse_array()) {
        let b = checkpoint::from_bytes::<f32>(checkpoint::to_bytes(&a)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_roundtrip_dense_any_shape_and_origin(a in arb_dense_array()) {
        // `any::<f32>()` includes NaN, so compare the re-encoding (exact
        // value bits + name + dims + origin) rather than `==`.
        let wire = checkpoint::to_bytes(&a);
        let b = checkpoint::from_bytes::<f32>(wire.clone()).unwrap();
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.origin(), b.origin());
        prop_assert_eq!(wire.to_vec(), checkpoint::to_bytes(&b).to_vec());
    }

    #[test]
    fn checkpoint_roundtrip_sparse_with_origin(
        a in arb_sparse_array(),
        origin in arb_origin(3),
    ) {
        let rank = a.shape().ndims();
        let a = a.with_origin(origin[..rank].to_vec());
        let b = checkpoint::from_bytes::<f32>(checkpoint::to_bytes(&a)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn truncated_checkpoint_is_corrupt_never_panic(
        a in arb_dense_array(),
        cut_permille in 0u32..1000,
    ) {
        // A crash can leave a strict prefix of a checkpoint on disk (the
        // atomic tmp+rename path prevents this for `save`, but readers
        // must still refuse gracefully). Every strict prefix decodes to
        // `Corrupt`, never a panic or a silently wrong array.
        let wire = checkpoint::to_bytes(&a);
        let cut = (wire.len() as u64 * cut_permille as u64 / 1000) as usize;
        prop_assume!(cut < wire.len());
        let truncated = orion::dsm::codec::Bytes::from(wire[..cut].to_vec());
        match checkpoint::from_bytes::<f32>(truncated) {
            Err(checkpoint::CheckpointError::Corrupt(_)) => {}
            other => prop_assert!(false, "expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn extended_checkpoint_is_corrupt(a in arb_sparse_array(), junk in 1usize..16) {
        // Trailing garbage (e.g. a torn concatenated write) is rejected
        // too: the payload length must match the header exactly.
        let wire = checkpoint::to_bytes(&a);
        let mut v = wire.to_vec();
        v.extend(std::iter::repeat_n(0xAAu8, junk));
        match checkpoint::from_bytes::<f32>(orion::dsm::codec::Bytes::from(v)) {
            Err(checkpoint::CheckpointError::Corrupt(_)) => {}
            other => prop_assert!(false, "expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn histogram_sums_to_nnz(a in arb_sparse_array()) {
        for dim in 0..a.shape().ndims() {
            let h = a.histogram_along(dim);
            prop_assert_eq!(h.iter().sum::<u64>(), a.nnz());
        }
    }

    #[test]
    fn randomize_preserves_value_multiset(a in arb_sparse_array(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut b = a.clone();
        let dims: Vec<usize> = (0..a.shape().ndims()).collect();
        b.randomize(&dims, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(a.nnz(), b.nnz());
        let mut va: Vec<u32> = a.iter().map(|(_, v)| v.to_bits()).collect();
        let mut vb: Vec<u32> = b.iter().map(|(_, v)| v.to_bits()).collect();
        va.sort_unstable();
        vb.sort_unstable();
        prop_assert_eq!(va, vb);
    }
}

// ---------------------------------------------------------------------------
// Kernel contracts: the kernels the apps call are bit-identical to the
// serial loops they replaced, and the reduction dispatchers honor the
// MathMode contract for every length class `len % LANES ∈ 0..LANES`
// (including the pure-scalar `len < LANES` degenerate).
// ---------------------------------------------------------------------------

/// Lengths covering every remainder class mod [`LANES`] at 0–3 full
/// chunks, so each proptest exercises the lane reductions' chunked body,
/// their scalar remainder peel, and both empty edges.
fn arb_kernel_len() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..LANES).prop_map(|(chunks, rem)| chunks * LANES + rem)
}

fn arb_kvec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, n)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn order_preserving_dispatchers_match_serial_reference(
        wh in (arb_kernel_len(), arb_kernel_len())
            .prop_flat_map(|(nw, nh)| (arb_kvec(nw), arb_kvec(nh))),
        v in -4.0f32..4.0,
        step in 0.0f32..0.1,
    ) {
        // The sgd_mf cell under Exact must equal the seed's inline loop
        // bit for bit (lengths drawn independently: truncate-to-shorter
        // semantics too) — the invariant the threaded, TCP and chaos
        // conformance suites lean on.
        let (w, h) = wh;
        let (mut w1, mut h1) = (w.clone(), h.clone());
        let pred: f32 = w1.iter().zip(&h1).map(|(x, y)| x * y).sum();
        let diff = v - pred;
        let coef = step * 2.0 * diff;
        for (wx, hx) in w1.iter_mut().zip(h1.iter_mut()) {
            let (w0, h0) = (*wx, *hx);
            *wx = w0 + coef * h0;
            *hx = h0 + coef * w0;
        }
        let (mut w2, mut h2) = (w, h);
        let sq = kernels::mf_row_update(&mut w2, &mut h2, v, step, MathMode::Exact);
        prop_assert_eq!(bits(&w1), bits(&w2));
        prop_assert_eq!(bits(&h1), bits(&h2));
        prop_assert_eq!(sq.to_bits(), (diff as f64).powi(2).to_bits());
    }

    #[test]
    fn reduction_dispatch_honors_math_mode(
        ab in arb_kernel_len().prop_flat_map(|n| (arb_kvec(n), arb_kvec(n))),
        idx in proptest::collection::vec(0u32..64, 0..40),
    ) {
        let (a, b) = ab;
        // Exact is the serial fold and FastMath the lane fold, bit for
        // bit, in every build.
        let exact = kernels::dot(&a, &b, MathMode::Exact);
        prop_assert_eq!(exact.to_bits(), kernels::dot_serial(&a, &b).to_bits());
        let fast = kernels::dot(&a, &b, MathMode::FastMath);
        prop_assert_eq!(fast.to_bits(), kernels::dot_lanes(&a, &b).to_bits());

        let get = |f: u32| (f as f32) * 0.125 - 2.0;
        let gexact = kernels::gather_sum(&idx, get, MathMode::Exact);
        prop_assert_eq!(gexact.to_bits(), kernels::gather_sum_serial(&idx, get).to_bits());
        let gfast = kernels::gather_sum(&idx, get, MathMode::FastMath);
        prop_assert_eq!(gfast.to_bits(), kernels::gather_sum_lanes(&idx, get).to_bits());
    }

    #[test]
    fn reassociated_reductions_near_serial(
        ab in (1usize..4, 0usize..LANES).prop_flat_map(|(c, r)| {
            let n = c * LANES + r;
            (arb_kvec(n), arb_kvec(n))
        }),
    ) {
        let (a, b) = ab;
        // The lane fold reassociates but must stay numerically close —
        // this bounds the drift FastMath can introduce per reduction.
        let n = a.len() as f64;
        let tol = 1e-4 * n.max(1.0);
        let (ds, dl) = (kernels::dot_serial(&a, &b) as f64, kernels::dot_lanes(&a, &b) as f64);
        prop_assert!((ds - dl).abs() <= tol * ds.abs().max(1.0), "dot {ds} vs {dl}");
        let idx: Vec<u32> = (0..a.len() as u32).collect();
        let get = |f: u32| a[f as usize];
        let (gs, gl) = (
            kernels::gather_sum_serial(&idx, get) as f64,
            kernels::gather_sum_lanes(&idx, get) as f64,
        );
        prop_assert!((gs - gl).abs() <= tol * gs.abs().max(1.0), "gather_sum {gs} vs {gl}");
    }
}
