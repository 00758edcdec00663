//! Distributed shared memory for Orion: DistArrays and their supporting
//! machinery (paper §3).
//!
//! - [`DistArray`] — dense/sparse N-dimensional tensors with point and
//!   set queries, in-place updates, `map`, `group_by` and `randomize`;
//!   splittable into per-worker partitions that keep answering global
//!   indices.
//! - [`LazyArray`] — deferred creation (`text_file`, `map`) with operator
//!   fusion at materialization (§3.1).
//! - [`RangePartition`] / [`GridPartition`] — uniform and
//!   histogram-balanced range partitioning, and the 2-D space × time grid
//!   used by dependence-aware schedules (§4.3).
//! - [`DistArrayBuffer`] — write-back buffers with user-defined atomic
//!   apply logic, the escape hatch that turns dependence violations into
//!   explicit data parallelism (§3.3).
//! - [`Accumulator`] — per-worker reduction variables (§3.4).
//! - [`codec`] — the wire format used to account (and pay for)
//!   serialization of rotated partitions and parameter-server traffic.
//! - [`checkpoint`] — eager DistArray checkpointing to disk (§4.3
//!   fault tolerance).
//! - [`AccessValidator`] — runtime verification that a loop body's
//!   actual accesses are covered by its declared [`orion_ir::LoopSpec`].
//! - [`Device`] / [`CpuDevice`] — the storage layer DistArray buffers
//!   live behind, making `DistArray<T, D>` dtype- and device-generic.
//! - [`kernels`] — explicit-width SIMD implementations of the five
//!   applications' inner loops, with scalar fallbacks (`simd` feature)
//!   and an opt-in [`MathMode::FastMath`] for reassociating reductions
//!   (`fast-math` feature).
//!
//! # Invariants the wire layer relies on
//!
//! The socket runtime (`orion-net`) moves DistArray state between
//! processes as bytes produced here, so two properties are load-bearing:
//!
//! - **Bit-exact round trips** — [`checkpoint::to_bytes`] /
//!   [`checkpoint::from_bytes`] and [`codec::encode_updates`] /
//!   [`codec::decode_updates`] reproduce every element *bit for bit*
//!   (`f32`/`f64` travel as raw IEEE-754 bits, never re-parsed text), so
//!   a partition that crosses the wire is indistinguishable from one
//!   that stayed local. Dense runs are encoded and decoded a whole
//!   slice at a time ([`Element::encode_slice`] /
//!   [`Element::decode_slice`]), writing the same little-endian bytes as
//!   the per-value [`Element::encode`]; golden tests in `checkpoint.rs`
//!   pin those bytes for every element type, so the format cannot
//!   change with the encoder and decoder changing together.
//! - **Origin-preserving partitions** — a partition made by
//!   [`DistArray::split_along`] keeps its global origin and answers the
//!   same global indices after serialization, so remote executors index
//!   received partitions exactly as the local engines do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod array;
mod buffer;
pub mod checkpoint;
pub mod codec;
mod device;
mod element;
mod index;
pub mod kernels;
mod lazy;
mod partition;
mod sparse;
mod validator;

pub use accumulator::Accumulator;
pub use array::{DistArray, FlatIter, Storage};
pub use buffer::DistArrayBuffer;
pub use device::{CpuDevice, DenseStorage, Device};
pub use element::{Element, Float, Rating};
pub use index::Shape;
pub use kernels::MathMode;
pub use lazy::{group_by, LazyArray};
pub use partition::{GridPartition, RangePartition};
pub use sparse::{SparseIter, SparseStore};
pub use validator::{AccessValidator, AccessViolation};
