//! `icn <experiment> [flags]`: one subcommand per table, figure and sweep
//! (see the `icn_bench` crate docs). Exits 2 on a malformed or unknown
//! option, 1 when the experiment fails.

use icn_bench::{RunOpts, Telemetry};
use std::io::{self, Write};

fn main() {
    let opts = RunOpts::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    eprintln!("[icn] manifest {}", opts.manifest().to_json());
    let telemetry = Telemetry::new(&opts);
    let mut out = io::BufWriter::new(io::stdout());
    let result = icn_bench::run(&opts, &telemetry, &mut out).and_then(|()| out.flush());
    let finished = telemetry.finish();
    if let Err(e) = result.and(finished) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
