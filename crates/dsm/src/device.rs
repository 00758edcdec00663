//! The storage/device layer behind [`DistArray`](crate::DistArray).
//!
//! A [`Device`] owns the raw buffers a DistArray's dense payloads (and the
//! frozen key/value columns of a sparse store) live in, and hands kernels
//! contiguous slices to run over. The design follows the dfdx idiom: the
//! device is a cheap handle type carrying a generic-associated storage
//! type per element, so `DistArray<T, D>` is dtype-generic end to end
//! while `DistArray<f32>` (the common case) stays spelled exactly as
//! before via the `D = CpuDevice` default.
//!
//! Invariants every implementation must uphold:
//!
//! - **Contiguity** — `as_slice`/`as_mut_slice` expose the *entire*
//!   buffer as one contiguous region in row-major order; kernels index it
//!   with the flat offsets computed by [`Shape`](crate::Shape).
//! - **Round-trip fidelity** — `from_vec(v).into_vec() == v` bit-for-bit;
//!   storage never reorders, pads visibly, or re-encodes elements.
//! - **Alignment** — buffers are at least element-aligned; the lane
//!   kernels in [`kernels`](crate::kernels) make no stronger assumption
//!   (they peel remainders rather than require 32-byte alignment), so any
//!   allocator-aligned buffer is dispatchable.

use crate::element::Element;

/// A contiguous, growable buffer of elements owned by a device.
///
/// This is the storage half of the device abstraction: `Vec<E>`-shaped on
/// the CPU, and the seam where a future non-CPU backend would substitute
/// its own allocation (plus explicit host transfer in `from_vec` /
/// `into_vec`).
pub trait DenseStorage<E: Element>:
    Clone + Default + Send + Sync + PartialEq + core::fmt::Debug + 'static
{
    /// Wraps host values into device storage (bit-preserving).
    fn from_vec(values: Vec<E>) -> Self;

    /// Unwraps device storage back into host values (bit-preserving).
    fn into_vec(self) -> Vec<E>;

    /// The whole buffer as one contiguous slice.
    fn as_slice(&self) -> &[E];

    /// The whole buffer as one contiguous mutable slice.
    fn as_mut_slice(&mut self) -> &mut [E];

    /// Number of elements stored.
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the buffer holds no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one element.
    fn push(&mut self, value: E);

    /// Reserves room for `additional` more elements.
    fn reserve(&mut self, additional: usize);
}

impl<E: Element> DenseStorage<E> for Vec<E> {
    fn from_vec(values: Vec<E>) -> Self {
        values
    }

    fn into_vec(self) -> Vec<E> {
        self
    }

    fn as_slice(&self) -> &[E] {
        self
    }

    fn as_mut_slice(&mut self) -> &mut [E] {
        self
    }

    fn push(&mut self, value: E) {
        Vec::push(self, value);
    }

    fn reserve(&mut self, additional: usize) {
        Vec::reserve(self, additional);
    }
}

/// A compute device: the handle [`DistArray`](crate::DistArray) is
/// parameterized over.
///
/// Devices are zero-or-cheap handles (`Default + Clone`) so arrays can be
/// built without threading an allocator through every call site.
pub trait Device: Clone + Default + Send + Sync + PartialEq + core::fmt::Debug + 'static {
    /// Human-readable device name (surfaced in array metadata and
    /// diagnostics).
    const NAME: &'static str;

    /// The dense buffer type this device stores a given element in.
    type Dense<E: Element>: DenseStorage<E>;

    /// Allocates a zero-initialized (i.e. `E::default()`) buffer.
    fn alloc<E: Element>(len: usize) -> Self::Dense<E> {
        Self::Dense::from_vec(vec![E::default(); len])
    }

    /// Moves host values into device storage.
    fn upload<E: Element>(values: Vec<E>) -> Self::Dense<E> {
        Self::Dense::from_vec(values)
    }
}

/// The host CPU: buffers are plain `Vec`s, and the
/// [`kernels`](crate::kernels) run directly on them.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CpuDevice;

impl Device for CpuDevice {
    const NAME: &'static str = "cpu";

    type Dense<E: Element> = Vec<E>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_roundtrip_is_bit_exact() {
        let v = vec![1.5f32, -0.0, f32::NAN, 3.25];
        let d = <CpuDevice as Device>::upload(v.clone());
        assert_eq!(d.len(), 4);
        let back = d.into_vec();
        for (a, b) in back.iter().zip(&v) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn alloc_is_default_filled() {
        let d = <CpuDevice as Device>::alloc::<u32>(5);
        assert_eq!(d.as_slice(), &[0, 0, 0, 0, 0]);
        assert_eq!(CpuDevice::NAME, "cpu");
    }
}
