//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]`
//!
//! Prints human-readable tables, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use perfbench::measure::{END_TO_END, PER_LAYER};

fn main() {
    // The TCP workload re-executes this binary as its node processes;
    // a child diverts into the node runtime here and never returns.
    orion_apps::distributed::maybe_node();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]",
                perfbench::WORKLOADS
                    .iter()
                    .chain(perfbench::UNSTEADY_WORKLOADS)
                    .copied()
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let out = perfbench::run(&args);
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    perfbench::print_metrics(&out, registry);
    println!("{}", out.json_line(registry));
}
