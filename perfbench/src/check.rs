//! Output checks, run outside the timed regions: trained models must
//! be bit-identical to the virtual-time sim oracle on the same seed,
//! and served answers must match the brute-force oracles.

use std::panic::{catch_unwind, AssertUnwindSafe};

use orion_apps::serve::{oracle_mf_predict, oracle_mf_recommend, MfAnswer, MfQuery};
use orion_apps::sgd_mf::MfModel;
use orion_apps::slr::SlrModel;

/// Bitwise equality of two float slices (`NaN`s and signed zeros
/// compared by their bits, unlike `==`).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Both factor matrices bit-identical.
pub fn mf_identical(a: &MfModel, b: &MfModel) -> bool {
    same_bits(a.w.dense_values(), b.w.dense_values())
        && same_bits(a.h.dense_values(), b.h.dense_values())
}

/// The weight vector bit-identical.
pub fn slr_identical(a: &SlrModel, b: &SlrModel) -> bool {
    same_bits(a.weights.dense_values(), b.weights.dense_values())
}

/// Whether a served answer equals the oracle's answer on `model`.
pub fn mf_answer_ok(model: &MfModel, query: &MfQuery, answer: &MfAnswer) -> bool {
    match (query, answer) {
        (MfQuery::Predict { user, item }, MfAnswer::Score(s)) => {
            oracle_mf_predict(model, *user, *item).to_bits() == s.to_bits()
        }
        (MfQuery::Recommend { user, k }, MfAnswer::TopK(got)) => {
            let want = oracle_mf_recommend(model, *user, *k);
            want.len() == got.len()
                && want
                    .iter()
                    .zip(got)
                    .all(|(w, g)| w.0 == g.0 && w.1.to_bits() == g.1.to_bits())
        }
        _ => false,
    }
}

/// Runs `f`, turning a panic into `None` so one failed operation is
/// counted instead of aborting the run.
pub fn caught<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}
