//! Statistics, the metric registry and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports in an untraced run, with
/// their units. `BENCHMARK.json` lists the same names in the same order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("speedup_vs_1w", "x"),
    ("step_ms_p50", "ms"),
    ("final_loss", "loss"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports in a traced run. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analysis.analyze_ms", "ms"),
    ("runtime.schedule_build_ms", "ms"),
    ("runtime.plan_compile_ms", "ms"),
    ("runtime.worker_compute_ms", "ms"),
    ("runtime.blocks_per_pass", "count"),
    ("runtime.rotation_wait_ms", "ms"),
    ("runtime.idle_share", "ratio"),
    ("runtime.load_imbalance", "ratio"),
    ("dsm.mf_kernel_ns_per_item", "ns"),
    ("dsm.gather_ns_per_sample", "ns"),
    ("dsm.buffer_write_ns_per_item", "ns"),
    ("dsm.buffer_apply_ms", "ms"),
    ("dsm.buffer_bytes_per_pass", "B"),
    ("dsm.snapshot_clone_ms", "ms"),
    ("dsm.split_merge_ms", "ms"),
    ("dsm.checkpoint_save_ms", "ms"),
    ("dsm.checkpoint_bytes", "B"),
    ("dsm.codec_mb_per_s", "MB/s"),
    ("apps.loss_eval_ms", "ms"),
    ("net.node_compute_ms", "ms"),
    ("net.node_rotation_ms", "ms"),
    ("net.barrier_wait_ms", "ms"),
    ("net.wire_bytes_per_epoch", "B"),
    ("net.messages_per_epoch", "count"),
    ("net.first_epoch_ms", "ms"),
    ("net.epoch_ms_p90", "ms"),
    ("net.spawn_handshake_s", "s"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rows_per_query", "count"),
    ("serve.predict_us_p50", "us"),
    ("serve.scanned_elems_per_query", "count"),
    ("serve.recommend_us_p50", "us"),
    ("serve.query_us_p99", "us"),
    ("trace.overhead_pct", "%"),
    ("sim.pass_error_pct", "%"),
];

/// Quartile-style quantile with linear interpolation between order
/// statistics (the "inclusive" method). `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The sample median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, or 0 for an empty sample (every measured call failed).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Nearest-rank percentile of nanosecond durations, in the same unit.
/// Used for large latency samples, where interpolation adds nothing.
pub fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations attempted and failed in one run. A failure is an oracle
/// mismatch, a panic, a node fault or a typed error.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed over attempted (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one run measured: metric values by name plus the tally.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Checked operations.
    pub tally: Tally,
}

impl Outcome {
    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for `registry`: every registered metric with its
    /// unit. A registered metric the workload did not measure reads 0;
    /// a non-finite value makes the run incorrect.
    pub fn json_line(&self, registry: &[(&str, &str)]) -> String {
        let mut finite = true;
        let metrics: Vec<String> = registry
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                finite &= v.is_finite();
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_inclusive_method() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.9), 1.9);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 0.5), 50.0);
        assert_eq!(percentile_ns(&v, 0.99), 99.0);
    }
}
