//! `icn <experiment> [flags]`: one subcommand per table, figure and sweep
//! (see the `icn_bench` crate docs). Exits 2 on a malformed or unknown
//! option or an output file that cannot be created, 1 when the experiment
//! fails.

use icn_bench::{RunOpts, Telemetry};
use std::io::{self, Write};

fn main() {
    let opts = RunOpts::from_env().unwrap_or_else(|e| usage_error(e));
    let telemetry = Telemetry::new(&opts).unwrap_or_else(|e| usage_error(e));
    let mut out = io::BufWriter::new(io::stdout());
    let result = icn_bench::run(&opts, &telemetry, &mut out).and_then(|()| out.flush());
    let finished = telemetry.finish();
    if let Err(e) = result.and(finished) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Exits 2 with a one-line message.
fn usage_error(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}
