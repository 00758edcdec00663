//! Wire encoding of DSM traffic.
//!
//! The runtime serializes rotated partitions and parameter-server
//! messages through these helpers; the simulator charges marshalling CPU
//! time and network bytes based on the exact encoded sizes. (STRADS's
//! intra-machine "pointer swapping" optimization — §6.4 — shows up as
//! *skipping* this codec for same-machine transfers.)

/// The wire byte buffer (re-exported so callers can build and inspect
/// encoded payloads without naming the underlying crate).
pub use bytes::Bytes;
use bytes::{Buf, BufMut};

use crate::element::Element;

/// Encodes sparse updates (`flat index`, value) pairs.
///
/// Layout: `u64` count, then per item a `u64` index and the element.
///
/// # Examples
///
/// ```
/// use orion_dsm::codec;
/// let updates = vec![(3u64, 1.5f32), (7, -2.0)];
/// let wire = codec::encode_updates(&updates);
/// assert_eq!(wire.len() as u64, codec::updates_wire_bytes::<f32>(2));
/// assert_eq!(codec::decode_updates::<f32>(wire), updates);
/// ```
pub fn encode_updates<T: Element>(updates: &[(u64, T)]) -> Bytes {
    let mut buf = Vec::with_capacity(updates_wire_bytes::<T>(updates.len() as u64) as usize);
    put_updates(&mut buf, updates.iter().map(|(idx, v)| (*idx, v)));
    Bytes::from(buf)
}

/// Appends the [`encode_updates`] layout of `updates` to `buf`.
pub(crate) fn put_updates<'a, T: Element>(
    buf: &mut Vec<u8>,
    updates: impl ExactSizeIterator<Item = (u64, &'a T)>,
) {
    buf.put_u64_le(updates.len() as u64);
    for (idx, v) in updates {
        buf.put_u64_le(idx);
        v.encode(buf);
    }
}

/// Decodes the output of [`encode_updates`].
///
/// # Panics
///
/// Panics on a truncated or malformed buffer, including a count that
/// claims more items than the buffer holds (checked before anything is
/// allocated for them).
pub fn decode_updates<T: Element>(mut wire: Bytes) -> Vec<(u64, T)> {
    let n = checked_count(
        wire.get_u64_le(),
        8 + T::WIRE_BYTES,
        wire.remaining(),
        "update",
    );
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = wire.get_u64_le();
        out.push((idx, T::decode(&mut wire)));
    }
    assert!(!wire.has_remaining(), "trailing bytes after updates");
    out
}

/// Wire size of `n` sparse updates without encoding them.
pub fn updates_wire_bytes<T: Element>(n: u64) -> u64 {
    8 + n * (8 + T::WIRE_BYTES as u64)
}

/// Encodes a dense run of values starting at a base flat index.
///
/// Layout: `u64` base, `u64` count, then the elements back to back. The
/// values are written in one pass over the slice
/// ([`Element::encode_slice`]).
pub fn encode_dense_run<T: Element>(base: u64, values: &[T]) -> Bytes {
    let mut buf = Vec::with_capacity(dense_run_wire_bytes::<T>(values.len() as u64) as usize);
    put_dense_run(&mut buf, base, values);
    Bytes::from(buf)
}

/// Appends the [`encode_dense_run`] layout of `values` to `buf`.
pub(crate) fn put_dense_run<T: Element>(buf: &mut Vec<u8>, base: u64, values: &[T]) {
    buf.put_u64_le(base);
    buf.put_u64_le(values.len() as u64);
    let start = buf.len();
    buf.resize(start + values.len() * T::WIRE_BYTES, 0);
    T::encode_slice(values, &mut buf[start..]);
}

/// Decodes the output of [`encode_dense_run`].
///
/// # Panics
///
/// Panics on a truncated or malformed buffer, including a count that
/// claims more values than the buffer holds (checked before anything is
/// allocated for them).
pub fn decode_dense_run<T: Element>(mut wire: Bytes) -> (u64, Vec<T>) {
    let base = wire.get_u64_le();
    let n = checked_count(
        wire.get_u64_le(),
        T::WIRE_BYTES,
        wire.remaining(),
        "dense run",
    );
    assert!(
        wire.len() == n * T::WIRE_BYTES,
        "trailing bytes after dense run"
    );
    (base, T::decode_slice(&wire))
}

/// Wire size of a dense run of `n` values without encoding it.
pub fn dense_run_wire_bytes<T: Element>(n: u64) -> u64 {
    16 + n * T::WIRE_BYTES as u64
}

/// Returns `count` as a length once `count` items of `item_bytes` each
/// are known to fit in the `remaining` bytes of the buffer, so a garbled
/// count panics instead of forcing a huge allocation.
fn checked_count(count: u64, item_bytes: usize, remaining: usize, what: &str) -> usize {
    let fits = count
        .checked_mul(item_bytes as u64)
        .is_some_and(|bytes| bytes <= remaining as u64);
    assert!(
        fits,
        "{what} count {count} exceeds the {remaining} bytes remaining"
    );
    count as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    /// A buffer holding `prefix` then `count` and `present` zero bytes.
    fn with_count(prefix: &[u8], count: u64, present: usize) -> Bytes {
        let mut wire = BytesMut::new();
        wire.put_slice(prefix);
        wire.put_u64_le(count);
        wire.put_slice(&vec![0u8; present]);
        wire.freeze()
    }

    #[test]
    fn updates_roundtrip() {
        let updates: Vec<(u64, f64)> = (0..100).map(|i| (i * 3, i as f64 * 0.5)).collect();
        let wire = encode_updates(&updates);
        assert_eq!(wire.len() as u64, updates_wire_bytes::<f64>(100));
        assert_eq!(decode_updates::<f64>(wire), updates);
    }

    #[test]
    fn empty_updates_roundtrip() {
        let wire = encode_updates::<f32>(&[]);
        assert_eq!(wire.len(), 8);
        assert!(decode_updates::<f32>(wire).is_empty());
    }

    #[test]
    fn dense_run_roundtrip() {
        let values: Vec<u32> = (0..17).collect();
        let wire = encode_dense_run(42, &values);
        assert_eq!(wire.len() as u64, dense_run_wire_bytes::<u32>(17));
        let (base, decoded) = decode_dense_run::<u32>(wire);
        assert_eq!(base, 42);
        assert_eq!(decoded, values);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_rejected() {
        let mut wire = BytesMut::new();
        wire.put_u64_le(0);
        wire.put_u8(0xFF);
        let _ = decode_updates::<f32>(wire.freeze());
    }

    #[test]
    #[should_panic(expected = "update count 18446744073709551615 exceeds")]
    fn updates_count_overflowing_the_byte_size_panics() {
        let _ = decode_updates::<f32>(with_count(&[], u64::MAX, 24));
    }

    #[test]
    #[should_panic(expected = "update count 3 exceeds the 24 bytes remaining")]
    fn updates_count_past_the_bytes_present_panics() {
        // 24 bytes hold two f32 updates; the count claims one more.
        let _ = decode_updates::<f32>(with_count(&[], 3, 24));
    }

    #[test]
    #[should_panic(expected = "dense run count 18446744073709551615 exceeds")]
    fn dense_run_count_overflowing_the_byte_size_panics() {
        let _ = decode_dense_run::<f64>(with_count(&7u64.to_le_bytes(), u64::MAX, 16));
    }

    #[test]
    #[should_panic(expected = "dense run count 3 exceeds the 16 bytes remaining")]
    fn dense_run_count_past_the_bytes_present_panics() {
        // 16 bytes hold two f64 values; the count claims one more.
        let _ = decode_dense_run::<f64>(with_count(&7u64.to_le_bytes(), 3, 16));
    }

    #[test]
    #[should_panic(expected = "trailing bytes after dense run")]
    fn dense_run_trailing_bytes_rejected() {
        let _ = decode_dense_run::<u32>(with_count(&0u64.to_le_bytes(), 1, 5));
    }
}
