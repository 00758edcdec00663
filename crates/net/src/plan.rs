//! Structural fingerprinting of compiled plans.
//!
//! Node processes never receive the plan over the wire — they recompile
//! it locally from the same seeds and configuration (loop bodies cannot
//! cross process boundaries). The fingerprint is how the cluster proves
//! all `N + 1` processes compiled the *same* schedule before any state
//! moves: each node hashes its plan and sends the digest in its `Hello`;
//! the coordinator rejects any mismatch during the handshake.

use orion_runtime::{HbEvent, ThreadedPlan};

/// FNV-1a, 64-bit. Deliberately simple: this detects configuration
/// divergence, not adversaries.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes everything execution order depends on: each worker's
/// program (every `Recv`/`Exec`/`Send` step in order), the item
/// positions of every block it executes, and the partitions it holds at
/// pass start. Two plans with equal fingerprints run the same blocks in
/// the same order and rotate the same partitions along the same edges.
pub fn plan_fingerprint(plan: &ThreadedPlan) -> u64 {
    let mut h = Fnv::new();
    h.u64(plan.n_workers() as u64);
    h.u64(plan.n_parts() as u64);
    for (w, program) in plan.programs().iter().enumerate() {
        h.u64(0xe0);
        for &ev in program {
            let (tag, a, b) = ev.to_wire();
            h.u64(u64::from(tag));
            h.u64(a);
            h.u64(b);
            if let HbEvent::Exec { block, .. } = ev {
                for &pos in plan.blocks().items(block as usize) {
                    h.u64(u64::from(pos));
                }
            }
        }
        h.u64(0xf1);
        for &tp in plan.initial_of(w) {
            h.u64(tp as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::Strategy;
    use orion_runtime::build_schedule;

    /// A sparse `m × n` grid, so balanced blocks differ per dimension.
    fn indices(m: i64, n: i64) -> Vec<Vec<i64>> {
        (0..m)
            .flat_map(|i| (0..n).map(move |j| vec![i, j]))
            .filter(|ij| (ij[0] * 7 + ij[1] * 3) % 5 != 0)
            .collect()
    }

    fn fingerprint(strategy: &Strategy, workers: usize) -> u64 {
        let idx = indices(12, 9);
        let schedule = build_schedule(strategy, &idx, &[12, 9], workers);
        plan_fingerprint(&ThreadedPlan::compile(&schedule))
    }

    const GRID: Strategy = Strategy::TwoD {
        space: 0,
        time: 1,
        ordered: false,
    };

    #[test]
    fn independent_compilations_agree() {
        assert_eq!(fingerprint(&GRID, 3), fingerprint(&GRID, 3));
        let one_d = Strategy::OneD { dim: 0 };
        assert_eq!(fingerprint(&one_d, 4), fingerprint(&one_d, 4));
    }

    #[test]
    fn a_different_worker_count_changes_the_fingerprint() {
        assert_ne!(fingerprint(&GRID, 3), fingerprint(&GRID, 4));
        let one_d = Strategy::OneD { dim: 0 };
        assert_ne!(fingerprint(&one_d, 2), fingerprint(&one_d, 3));
    }

    #[test]
    fn swapping_space_and_time_changes_the_fingerprint() {
        let swapped = Strategy::TwoD {
            space: 1,
            time: 0,
            ordered: false,
        };
        assert_ne!(fingerprint(&GRID, 3), fingerprint(&swapped, 3));
    }
}
