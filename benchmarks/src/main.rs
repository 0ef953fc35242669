//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! sccg-benchmarks --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! sccg-benchmarks run   --seed <n> [--seconds <s>] [--out <dir>]   every workload, tracing off
//! sccg-benchmarks trace --seed <n> [--seconds <s>] [--out <dir>]   every workload, traced
//! sccg-benchmarks agree <dirA> <dirB>                              do two sets of runs agree?
//! ```

mod drive;
mod host;
mod inputs;
mod report;
mod span;
mod stats;
mod trace;
mod workloads;

use host::Environment;
use inputs::{Workload, WORKLOADS};
use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The measured phase when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut seen_seed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(inputs::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                parsed.seed = value.parse().map_err(|_| bad())?;
                seen_seed = true;
            }
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_seed {
        return Err("--seed is required: every input is generated from it".into());
    }
    Ok(parsed)
}

/// One workload in this process — the form the benchmark contract calls.
fn run_one(workload: &'static Workload, args: &Args) -> ExitCode {
    let env = Environment::capture();
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} | {} | commit {} | load {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env.nproc,
        env.rustc,
        env.commit,
        env.load_at_start.map_or("?".into(), |l| format!("{l:.2}")),
    );
    println!("why: {}", workload.why);
    let inputs = inputs::generate(workload, args.seed);
    println!(
        "inputs: {} tiles x {} polygons x {} variant(s), {:.1} MB of text; datagen {:.2} s, \
         oracle {:.2} s (harness, outside setup_s)",
        workload.tiles,
        workload.polygons_per_tile,
        workload.variants,
        inputs.pairs.iter().map(|p| p.text_bytes()).sum::<usize>() as f64 / 1e6,
        inputs.datagen_seconds,
        inputs.oracle_seconds,
    );

    let mut metrics = Metrics::default();
    let (defs, attempted, failed): (&[_], _, _) = if args.trace {
        let traced = trace::run(&inputs, args.seconds, &mut metrics);
        if let Some(dir) = &args.out {
            let path = dir.join(format!("spans-{}.tsv", workload.name));
            write_or_warn(&path, traced.spans.write(&path));
        }
        (&PER_LAYER, traced.attempted, traced.failed)
    } else {
        let run = workloads::run(&inputs, args.seconds);
        metrics.set("setup_s", run.setup_s());
        metrics.set("tiles_per_s", run.tiles_per_s());
        metrics.set("answer_p50_ms", run.answer_ms(0.5));
        metrics.set("cpu_ms_per_tile", run.cpu_ms_per_tile());
        metrics.set("peak_rss_mb", run.peak_rss_mb);
        println!(
            "answers {} (p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, ungated beyond the median); \
             {} windows/rounds, rate cv {:.4}; set-ups {:?} s",
            run.answer_latencies_ms().len(),
            run.answer_ms(0.5),
            run.answer_ms(0.9),
            run.answer_ms(0.99),
            run.rates.len(),
            stats::coefficient_of_variation(&run.rates),
            run.setup_seconds,
        );
        let rates: Vec<String> = run.rates.iter().map(|r| format!("{r:.0}")).collect();
        println!("tiles/s per window or round: {}", rates.join(" "));
        if let Some(service) = &run.service {
            println!(
                "serve: shards per engine {:?}, peak in flight {}, redispatches {}",
                service.shards_per_engine, service.peak_in_flight, service.redispatches
            );
        }
        if let Some(storage) = &run.storage {
            println!(
                "store: {} disk slides, pager hit rate {:.3} ({} hits, {} misses, {} coalesced)",
                storage.disk_slides,
                storage.pager_hit_rate,
                storage.pager_hits,
                storage.pager_misses,
                storage.coalesced_faults
            );
        }
        (&END_TO_END, run.attempted(), run.failed())
    };

    println!(
        "ops_attempted {attempted} ops_failed {failed} | load at end {}",
        host::load_average().map_or("?".into(), |l| format!("{l:.2}"))
    );
    for def in defs {
        if let Some(value) = metrics.get(def.name) {
            let better = match def.better {
                report::Better::Lower => "lower is better",
                report::Better::Higher => "higher is better",
            };
            println!("{:<36} {value:>16.4} {:<6} ({better})", def.name, def.unit);
        }
    }
    if let Some(dir) = &args.out {
        let record = dir.join(format!("{}.tsv", workload.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| report::write_record(&record, workload.name, defs, &metrics));
        write_or_warn(&record, written);
    }
    println!("{}", report::result_line(defs, &metrics, attempted, failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_or_warn(path: &Path, result: std::io::Result<()>) {
    if let Err(error) = result {
        eprintln!("warning: could not write {}: {error}", path.display());
    }
}

/// Every workload, each in a child process of this one so `peak_rss_mb` and
/// `cpu_ms_per_tile` are per workload.
fn run_all(trace: bool, args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = Vec::new();
    for workload in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        // `status` waits for the child; its output goes straight through.
        match child.status() {
            Ok(status) if status.success() => {}
            _ => failed.push(workload.name),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\n\
         usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n\
         \x20      run|trace --seed <n> [--seconds <s>] [--out <dir>]\n\
         \x20      agree <dirA> <dirB>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("agree") => match &args[1..] {
            [a, b] => match report::agree(Path::new(a), Path::new(b)) {
                Ok((table, agreed)) => {
                    print!("{table}");
                    if agreed {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(error) => usage(&format!("agree: {error}")),
            },
            _ => usage("agree takes two directories"),
        },
        Some(all @ ("run" | "trace")) => match parse_flags(&args[1..]) {
            Ok(parsed) => run_all(all == "trace", &parsed),
            Err(problem) => usage(&problem),
        },
        _ => match parse_flags(&args) {
            Ok(parsed) => match parsed.workload {
                Some(workload) => run_one(workload, &parsed),
                None => usage("--workload is required"),
            },
            Err(problem) => usage(&problem),
        },
    }
}
