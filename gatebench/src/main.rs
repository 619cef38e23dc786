//! `gatebench` — the gateway's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path gatebench/Cargo.toml -- \
//!     --workload <webaccel|sessions|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the gateway (server → emulated wireless link → client) from the
//! repository's sources, sets it up several times, drives the chosen
//! workload as a closed loop for `--seconds`, checks every delivered
//! message, and prints one JSON object as the last line of standard
//! output: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are end to end (latency, throughput, set-up
//! time); `--trace 1` switches the server's telemetry and the link-boundary
//! stamps on and reports per-layer metrics instead. `--seed` fixes the
//! generated inputs.

mod drive;
mod rig;
mod stats;
mod workloads;

/// Command-line options.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let usage = format!(
        "usage: gatebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::NAMES.join("|")
    );
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gatebench: {e}\n{usage}");
            std::process::exit(2);
        }
    };
    let Some(report) = workloads::run(&args) else {
        eprintln!("gatebench: unknown workload `{}`\n{usage}", args.workload);
        std::process::exit(2);
    };
    println!("{}", report.to_json());
}
