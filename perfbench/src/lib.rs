//! The benchmark of record: one wall-clock command per workload across
//! the threaded, TCP and serving engines, with output checks and a
//! separate traced run for per-layer metrics. See `README.md` in this
//! package for how to run it and what each workload is for.

use std::cell::Cell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod check;
pub mod measure;
pub mod serve;
pub mod spans;
pub mod tcp;
pub mod threaded;

use measure::Outcome;
use spans::Recorder;

/// The workloads of record, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["mf_grid_threads", "mf_rotation_tcp", "mf_serve_closed"];

/// Workloads that run like the others but are left out of
/// `BENCHMARK.json`: their figures drift with the host by more than the
/// benchmark's bounds allow (see `README.md`).
pub const UNSTEADY_WORKLOADS: &[&str] = &["slr_buffered_threads"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`] or [`UNSTEADY_WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the package's own tests.
    pub smoke: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
///
/// # Errors
///
/// Returns a usage message for unknown flags, missing values or an
/// unknown workload.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS
        .iter()
        .chain(UNSTEADY_WORKLOADS)
        .any(|w| *w == args.workload)
    {
        return Err(format!(
            "--workload must be one of {}, {}, not {:?}",
            WORKLOADS.join(", "),
            UNSTEADY_WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Per-run context shared by the workloads.
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// Tiny inputs.
    pub smoke: bool,
    /// Worker threads, node processes or client threads under load:
    /// the host's available parallelism.
    pub nproc: usize,
    /// Length of the measurement loop.
    pub budget: Duration,
    /// End of the measurement loop, fixed when it starts.
    deadline: Cell<Option<Instant>>,
    /// The span recorder of a traced run; `None` in untraced runs.
    pub rec: Option<Recorder>,
}

impl Ctx {
    /// Runs `f` inside a span when tracing, plainly otherwise.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.rec {
            Some(rec) => rec.span(layer, name, f),
            None => f(),
        }
    }

    /// Whether the measurement loop should start another round: always
    /// until `min_rounds` are done, then until `budget` has passed since
    /// the loop's first call. Input generation and oracle runs come
    /// before the loop and are not part of the budget.
    pub fn more(&self, rounds_done: usize, min_rounds: usize) -> bool {
        let deadline = self.deadline.get().unwrap_or_else(|| {
            let d = Instant::now() + self.budget;
            self.deadline.set(Some(d));
            d
        });
        rounds_done < min_rounds || Instant::now() < deadline
    }
}

/// Where the benchmark writes its artifacts (trace files, TCP
/// checkpoints): `out/` inside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload and returns what it measured. Human-readable
/// tables go to standard output as the run proceeds.
pub fn run(args: &Args) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        nproc,
        budget: Duration::from_secs_f64(args.seconds),
        deadline: Cell::new(None),
        rec: args.trace.then(Recorder::new),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {nproc}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " [smoke]" } else { "" }
    );
    let mut out = match args.workload.as_str() {
        "mf_grid_threads" => threaded::run(&threaded::Mf::generate(&ctx), &ctx),
        "slr_buffered_threads" => threaded::run(&threaded::Slr::generate(&ctx), &ctx),
        "mf_rotation_tcp" => tcp::run(&ctx),
        "mf_serve_closed" => serve::run(&ctx),
        other => unreachable!("workload {other} passed argument validation"),
    };
    out.set("peak_rss_mb", measure::peak_rss_mb());
    if let Some(rec) = &ctx.rec {
        let run_ns = rec.now_ns();
        println!("\nper-layer self time (spans around the benchmark's calls):");
        print!("{}", rec.layer_table(run_ns));
        let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match rec.write_perfetto(&path) {
            Ok(()) => println!("perfetto trace: {}", path.display()),
            Err(e) => eprintln!("perfetto trace not written: {e}"),
        }
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    );
    out
}

/// Prints the metrics of `registry` as a `name value unit` table.
pub fn print_metrics(out: &Outcome, registry: &[(&str, &str)]) {
    println!();
    for (name, unit) in registry {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<32} {v:>16.6} {unit}");
    }
}
