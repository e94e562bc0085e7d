//! The repo benchmark. One command runs the named workloads against
//! `mx-serve` and `mx-sweep` from outside, checks outputs against a
//! never-served reference, prints every metric with its unit, and writes
//! `out/results.json` plus one trace file per workload. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat N]
//! ```

mod env;
mod gen;
mod json;
mod kit;
mod layers;
mod metrics;
mod procfs;
mod run;
mod serve;
mod stats;
mod sweep;
mod trace;
mod workload;

use run::Options;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str =
    "usage: mx-benchmark [--workload dense_sync|dense_burst|dense_shed|gpt_mixed|sweep_qsnr|all] \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat N]
  --workload  one workload (the driver's mode) or all of them, rounds interleaved (default: all)
  --seed      seeds weights, payloads, lengths, tenant choice and format cycle (default: 1)
  --seconds   measured seconds per workload, split into up to 5 rounds (default: 25)
  --trace     1 adds a traced round per workload and the layer probes, and prints the per-layer
              metrics (default: 1 for all workloads, 0 for one)
  --quick     smoke test: 1 round of 1 s per workload, traced
  --repeat    run the whole set N times and report the set-to-set spread against each bound";

struct Cli {
    opts: Options,
    repeat: usize,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut workloads = Workload::ALL.to_vec();
    let (mut seed, mut seconds, mut trace, mut repeat) = (1u64, 25.0f64, None, 1usize);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workloads = match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    one => {
                        vec![Workload::from_name(one).ok_or(format!("unknown workload {one:?}"))?]
                    }
                };
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--quick" => {
                seconds = 1.0;
                trace = Some(true);
            }
            "--repeat" => {
                repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&repeat) {
                    return Err("--repeat must be between 1 and 100".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let trace = trace.unwrap_or(workloads.len() > 1);
    Ok(Cli {
        opts: Options {
            workloads,
            seed,
            seconds,
            trace,
        },
        repeat,
    })
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = env::Environment::probe();
    env.print();
    let names: Vec<&str> = cli.opts.workloads.iter().map(|w| w.name()).collect();
    println!(
        "# run: workloads {} | seed {} | {} s per workload | trace {} | repeat {}",
        names.join(","),
        cli.opts.seed,
        cli.opts.seconds,
        u8::from(cli.opts.trace),
        cli.repeat
    );

    let mut runs = Vec::with_capacity(cli.repeat);
    for i in 0..cli.repeat {
        if cli.repeat > 1 {
            eprintln!("set {}/{}", i + 1, cli.repeat);
        }
        runs.push(run::run_set(&cli.opts));
    }
    let report = if cli.repeat > 1 {
        run::repeat_report(&runs)
    } else {
        String::new()
    };
    run::write_results(&env, &cli.opts, &runs, &report);

    let last = runs.last().expect("repeat is at least 1");
    run::print_results(last, cli.opts.trace);
    print!("{report}");
    println!("# files: {}", run::out_dir().display());
    println!("{}", run::result_line(last, cli.opts.trace));

    // A wrong reply or an unexpected error anywhere, in any run of the set,
    // fails the command.
    if runs.iter().flatten().all(run::WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line() {
        let c = cli(&[
            "--workload",
            "dense_shed",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.opts.workloads, vec![Workload::DenseShed]);
        assert_eq!(
            (c.opts.seed, c.opts.seconds, c.opts.trace, c.repeat),
            (7, 15.0, true, 1)
        );
        // One workload is untraced unless asked; the whole set is traced.
        assert!(!cli(&["--workload", "gpt_mixed"]).unwrap().opts.trace);
        let all = cli(&[]).unwrap();
        assert_eq!(all.opts.workloads.len(), 5);
        assert!(all.opts.trace);
        let quick = cli(&["--quick"]).unwrap();
        assert_eq!((quick.opts.seconds, quick.opts.trace), (1.0, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--seconds"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
