//! DistArray checkpointing (paper §4.3, "Fault tolerance").
//!
//! "An Orion driver program can checkpoint a DistArray by writing it to
//! disk, which is eagerly evaluated. For ML training, a common approach
//! is to checkpoint the parameter DistArrays every N data passes."
//!
//! The on-disk format reuses the wire codec: a small header (magic,
//! name, density, shape, origin) followed by either a dense run or
//! sparse updates.

use std::io::{Read as _, Write as _};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes};

use crate::array::{DistArray, Storage};
use crate::codec;
use crate::element::Element;

const MAGIC: u32 = 0x4F52_4E43; // "ORNC"

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a valid checkpoint (bad magic, truncated, or an
    /// element-size mismatch against the requested type).
    Corrupt(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serializes an array to its checkpoint byte representation.
///
/// The header and the payload are written into one buffer sized up
/// front, so each element is copied once, by the codec's slice path for
/// dense arrays.
pub fn to_bytes<T: Element>(array: &DistArray<T>) -> Bytes {
    let name = array.name().as_bytes();
    let dims = array.shape().dims();
    // Magic, element width, name length and name; ndims, then dims and
    // origin; the storage tag.
    let header = 12 + name.len() + 4 + dims.len() * 16 + 1;
    let payload = match array.storage() {
        Storage::Dense(values) => codec::dense_run_wire_bytes::<T>(values.len() as u64),
        Storage::Sparse(store) => codec::updates_wire_bytes::<T>(store.len() as u64),
    };
    let mut buf = Vec::with_capacity(header + payload as usize);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(T::WIRE_BYTES as u32);
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u32_le(dims.len() as u32);
    for &d in dims {
        buf.put_u64_le(d);
    }
    for &o in array.origin() {
        buf.put_i64_le(o);
    }
    match array.storage() {
        Storage::Dense(values) => {
            buf.put_u8(0);
            codec::put_dense_run(&mut buf, 0, values);
        }
        Storage::Sparse(store) => {
            buf.put_u8(1);
            codec::put_updates(&mut buf, store.iter());
        }
    }
    debug_assert_eq!(buf.len(), header + payload as usize, "checkpoint size");
    Bytes::from(buf)
}

/// Deserializes a checkpoint produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`CheckpointError::Corrupt`] on malformed input or an element
/// type whose wire size differs from the checkpoint's.
pub fn from_bytes<T: Element>(mut wire: Bytes) -> Result<DistArray<T>, CheckpointError> {
    let need = |n: usize, wire: &Bytes| -> Result<(), CheckpointError> {
        if wire.remaining() < n {
            Err(CheckpointError::Corrupt("truncated".into()))
        } else {
            Ok(())
        }
    };
    need(12, &wire)?;
    if wire.get_u32_le() != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let elem = wire.get_u32_le() as usize;
    if elem != T::WIRE_BYTES {
        return Err(CheckpointError::Corrupt(format!(
            "element size {elem} does not match requested type ({})",
            T::WIRE_BYTES
        )));
    }
    let name_len = wire.get_u32_le() as usize;
    need(name_len, &wire)?;
    let name = String::from_utf8(wire.copy_to_bytes(name_len).to_vec())
        .map_err(|_| CheckpointError::Corrupt("bad name".into()))?;
    need(4, &wire)?;
    let ndims = wire.get_u32_le() as usize;
    if ndims == 0 || ndims > 16 {
        return Err(CheckpointError::Corrupt(format!("ndims {ndims}")));
    }
    need(ndims * 16 + 1, &wire)?;
    let dims: Vec<u64> = (0..ndims).map(|_| wire.get_u64_le()).collect();
    let origin: Vec<i64> = (0..ndims).map(|_| wire.get_i64_le()).collect();
    let volume: u64 = dims.iter().product();
    let tag = wire.get_u8();
    // The payload is validated here rather than by `codec`'s decoders:
    // those are wire-path helpers that panic on malformed buffers, while
    // a checkpoint file can be truncated by a crash and must come back
    // as `Corrupt`. Lengths are validated exactly, before any
    // allocation; a dense payload is then decoded by the same slice path
    // as `codec::decode_dense_run`.
    match tag {
        0 => {
            need(16, &wire)?;
            let base = wire.get_u64_le();
            if base != 0 {
                return Err(CheckpointError::Corrupt("dense base must be 0".into()));
            }
            let n = wire.get_u64_le();
            if n != volume {
                return Err(CheckpointError::Corrupt(format!(
                    "dense payload {n} != volume {volume}"
                )));
            }
            let payload = n
                .checked_mul(T::WIRE_BYTES as u64)
                .ok_or_else(|| CheckpointError::Corrupt(format!("dense count {n} overflows")))?;
            if wire.remaining() as u64 != payload {
                return Err(CheckpointError::Corrupt(format!(
                    "dense payload holds {} of {payload} bytes",
                    wire.remaining()
                )));
            }
            let values = T::decode_slice(&wire);
            Ok(DistArray::dense_from_vec(name, dims, values).with_origin(origin))
        }
        1 => {
            need(8, &wire)?;
            let n = wire.get_u64_le();
            let payload = n
                .checked_mul(8 + T::WIRE_BYTES as u64)
                .ok_or_else(|| CheckpointError::Corrupt(format!("update count {n} overflows")))?;
            if wire.remaining() as u64 != payload {
                return Err(CheckpointError::Corrupt(format!(
                    "sparse payload holds {} of {payload} bytes",
                    wire.remaining()
                )));
            }
            let mut updates = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let flat = wire.get_u64_le();
                if flat >= volume {
                    return Err(CheckpointError::Corrupt(format!(
                        "index {flat} out of bounds {volume}"
                    )));
                }
                updates.push((flat, T::decode(&mut wire)));
            }
            Ok(DistArray::sparse_from_flat(name, dims, updates).with_origin(origin))
        }
        other => Err(CheckpointError::Corrupt(format!("bad storage tag {other}"))),
    }
}

/// Writes an array checkpoint to `path` (eagerly, like `Orion`'s
/// checkpoint operation) and returns the bytes written.
///
/// The write is atomic: the payload goes to a `<path>.tmp` sibling,
/// is fsynced, then renamed over `path`. A crash mid-checkpoint leaves
/// either the previous complete checkpoint or a stray `.tmp` — never a
/// torn file at `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save<T: Element>(
    array: &DistArray<T>,
    path: impl AsRef<Path>,
) -> Result<u64, CheckpointError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let bytes = to_bytes(array);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Loads an array checkpoint from `path`.
///
/// # Errors
///
/// Propagates filesystem errors and corrupt-checkpoint failures.
pub fn load<T: Element>(path: impl AsRef<Path>) -> Result<DistArray<T>, CheckpointError> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    from_bytes(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("orion_ckpt_{}_{}", std::process::id(), name))
    }

    #[test]
    fn dense_roundtrip() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("W", vec![6, 4], |i| (i[0] * 4 + i[1]) as f32);
        let b = from_bytes::<f32>(to_bytes(&a)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.name(), "W");
    }

    #[test]
    fn sparse_roundtrip() {
        let a: DistArray<u32> = DistArray::sparse_from(
            "tokens",
            vec![100, 50],
            vec![(vec![3, 4], 7), (vec![99, 49], 1)],
        );
        let b = from_bytes::<u32>(to_bytes(&a)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let path = tmp("file");
        let a: DistArray<f64> = DistArray::dense_from_fn("H", vec![3, 3], |i| i[0] as f64 / 3.0);
        save(&a, &path).unwrap();
        let b = load::<f64>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_origin_roundtrips() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("Wpart", vec![4, 3], |i| (i[0] - i[1]) as f32)
                .with_origin(vec![8, -2]);
        let b = from_bytes::<f32>(to_bytes(&a)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.origin(), &[8, -2]);
    }

    #[test]
    fn save_is_atomic_and_reports_bytes() {
        let path = tmp("atomic");
        let a: DistArray<f32> = DistArray::dense_from_fn("W", vec![4, 4], |i| i[0] as f32);
        let n = save(&a, &path).unwrap();
        assert_eq!(n, to_bytes(&a).len() as u64);
        let mut tmp_path = path.as_os_str().to_os_string();
        tmp_path.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp_path).exists(),
            "temp file must be renamed away"
        );
        // Overwriting an existing checkpoint also goes through the
        // temp file, replacing the old content wholesale.
        let newer: DistArray<f32> = DistArray::dense_from_fn("W", vec![4, 4], |i| i[1] as f32);
        save(&newer, &path).unwrap();
        let back = load::<f32>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, newer);
    }

    #[test]
    fn every_strict_prefix_is_corrupt_not_panic() {
        let dense: DistArray<f32> = DistArray::dense_from_fn("W", vec![3, 2], |i| i[0] as f32);
        let sparse: DistArray<u64> =
            DistArray::sparse_from("S", vec![9, 9], vec![(vec![1, 2], 3), (vec![8, 8], 4)]);
        for bytes in [to_bytes(&dense), to_bytes(&sparse)] {
            for cut in 0..bytes.len() {
                let err = from_bytes::<f32>(bytes.slice(0..cut)).unwrap_err();
                assert!(matches!(err, CheckpointError::Corrupt(_)), "prefix {cut}");
            }
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let mut extended = to_bytes(&a).to_vec();
        extended.extend_from_slice(&[0xAB; 3]);
        let err = from_bytes::<f32>(Bytes::from(extended)).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn wrong_element_type_rejected() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let err = from_bytes::<f64>(to_bytes(&a)).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn truncated_rejected() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let bytes = to_bytes(&a);
        let cut = bytes.slice(0..bytes.len() / 2);
        assert!(from_bytes::<f32>(cut).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes::<f32>(Bytes::from_static(&[0u8; 64])).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load::<f32>(tmp("does_not_exist")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    /// The format pinned byte for byte: each dense run and checkpoint
    /// image must equal hand-built little-endian bytes, so an encoder and
    /// decoder that changed the format together still fail here.
    /// `le` is the value's `to_le_bytes`, i.e. its bit pattern.
    fn golden<T: Element + Copy>(values: [T; 8], le: fn(T) -> Vec<u8>) {
        let payload: Vec<u8> = values.iter().flat_map(|&v| le(v)).collect();
        let mut run = Vec::new();
        run.extend_from_slice(&5u64.to_le_bytes()); // base
        run.extend_from_slice(&8u64.to_le_bytes()); // count
        run.extend_from_slice(&payload);
        let wire = codec::encode_dense_run(5, &values);
        assert_eq!(&wire[..], &run[..], "dense run bytes");
        let (base, back) = codec::decode_dense_run::<T>(wire);
        assert_eq!(base, 5);
        let back_bits: Vec<Vec<u8>> = back.iter().map(|&v| le(v)).collect();
        let bits: Vec<Vec<u8>> = values.iter().map(|&v| le(v)).collect();
        assert_eq!(back_bits, bits, "dense run decode bits");

        let mut image = vec![0x43, 0x4E, 0x52, 0x4F]; // "ORNC" as a little-endian u32
        image.extend_from_slice(&(T::WIRE_BYTES as u32).to_le_bytes());
        image.extend_from_slice(&2u32.to_le_bytes()); // name length
        image.extend_from_slice(b"Gx");
        image.extend_from_slice(&2u32.to_le_bytes()); // ndims
        image.extend_from_slice(&2u64.to_le_bytes()); // dims
        image.extend_from_slice(&4u64.to_le_bytes());
        image.extend_from_slice(&3i64.to_le_bytes()); // origin
        image.extend_from_slice(&(-1i64).to_le_bytes());
        image.push(0); // dense tag
        image.extend_from_slice(&0u64.to_le_bytes()); // base
        image.extend_from_slice(&8u64.to_le_bytes()); // count
        image.extend_from_slice(&payload);
        let array =
            DistArray::dense_from_vec("Gx", vec![2, 4], values.to_vec()).with_origin(vec![3, -1]);
        let wire = to_bytes(&array);
        assert_eq!(&wire[..], &image[..], "checkpoint bytes");
        let back = from_bytes::<T>(wire).unwrap();
        assert_eq!(back.origin(), &[3, -1]);
        let Storage::Dense(back) = back.storage() else {
            panic!("dense checkpoint decodes dense")
        };
        let back_bits: Vec<Vec<u8>> = back.iter().map(|&v| le(v)).collect();
        assert_eq!(back_bits, bits, "checkpoint decode bits");
    }

    #[test]
    fn golden_f32() {
        golden(
            [
                f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
                f32::from_bits(0xFF80_0001), // negative signalling NaN
                -0.0,
                f32::from_bits(1), // smallest subnormal
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                1.5,
            ],
            |v| v.to_le_bytes().to_vec(),
        );
        // One value spelled out: 1.5f32 is 0x3FC0_0000.
        assert_eq!(
            &codec::encode_dense_run(0, &[1.5f32])[16..],
            &[0x00, 0x00, 0xC0, 0x3F]
        );
    }

    #[test]
    fn golden_f64() {
        golden(
            [
                f64::from_bits(0x7FF8_0000_DEAD_BEEF),
                f64::from_bits(0xFFF0_0000_0000_0001),
                -0.0,
                f64::from_bits(1),
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                -2.25,
            ],
            |v| v.to_le_bytes().to_vec(),
        );
    }

    #[test]
    fn golden_u32() {
        let values = [
            0,
            1,
            u32::MAX,
            0x8000_0000,
            0x0102_0304,
            7,
            u32::MAX - 1,
            42,
        ];
        golden(values, |v| v.to_le_bytes().to_vec());
    }

    #[test]
    fn golden_u64() {
        let values = [
            0,
            1,
            u64::MAX,
            1 << 63,
            0x0102_0304_0506_0708,
            7,
            u64::MAX - 1,
            42,
        ];
        golden(values, |v| v.to_le_bytes().to_vec());
    }

    #[test]
    fn golden_i32() {
        let values = [i32::MIN, i32::MAX, 0, -1, 1, -0x0102_0304, i32::MIN + 1, 42];
        golden(values, |v| v.to_le_bytes().to_vec());
    }

    #[test]
    fn golden_i64() {
        let values = [
            i64::MIN,
            i64::MAX,
            0,
            -1,
            1,
            -0x0102_0304_0506_0708,
            i64::MIN + 1,
            42,
        ];
        golden(values, |v| v.to_le_bytes().to_vec());
    }
}
