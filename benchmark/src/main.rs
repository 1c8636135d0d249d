//! `daisbench` command line.
//!
//! ```text
//! daisbench                         all six workloads, one after another
//! daisbench --workload fed_scan     one workload (what the driver runs)
//! daisbench --trace 1               per-layer metrics + out/trace-<w>.json
//! daisbench --repeat 10             ten sets, seeds s..s+9: spread vs bound
//! ```
//!
//! Every workload runs in a process of its own (a child of this one
//! unless `--workload` names it), so peak RSS is per workload and one
//! workload's allocator state cannot colour the next.

use daisbench::contract::{self, Contract};
use daisbench::json::Json;
use daisbench::run::{self, Config, DEFAULT_SEED};
use daisbench::{idle, stats, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: daisbench::alloc::Counting = daisbench::alloc::Counting;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(contract: &Contract) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: contract.run_seconds,
        trace: false,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.repeat.is_some_and(|n| n < 2) {
        return Err("--repeat needs at least 2 sets to have a spread".into());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Contract mode: run one workload here and print its result line last.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(spec) = workloads::find(name) else {
        let known: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        eprintln!("daisbench: no workload '{name}'; the workloads are {known:?}");
        return ExitCode::from(2);
    };
    let config = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: 1.0,
        idle_guard: true,
    };
    let outcome = run::run(spec, &config);
    for failure in &outcome.failures {
        eprintln!("daisbench: {name}: {failure}");
    }
    if let Some(document) = &outcome.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, document.render()));
        match written {
            Ok(()) => eprintln!("daisbench: wrote {}", path.display()),
            Err(e) => eprintln!("daisbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", Json::obj([("diagnostics", outcome.diagnostics.clone())]).render());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "daisbench: {name}: {} of {} ops failed or mismatched the oracle",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(name: &str, seed: u64, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("the {name} run printed nothing"))?;
    let doc = Json::parse(line).map_err(|e| format!("the {name} run's result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(metric, v)| {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or_default().to_string();
            (metric.clone(), value, unit)
        })
        .collect();
    Ok(ChildResult {
        correct: output.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    workloads::ALL
        .iter()
        .map(|s| s.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// All six workloads, each in a child process; every metric by name.
fn run_all(args: &Args) -> ExitCode {
    let mut all_correct = true;
    for name in selected(args) {
        match run_child(name, args.seed, args) {
            Ok(result) => {
                all_correct &= result.correct;
                println!("{name}{}", if result.correct { "" } else { "  ** FAILED **" });
                for (metric, value, unit) in &result.metrics {
                    println!("  {metric:<28} {value:>16.4} {unit}");
                }
            }
            Err(e) => {
                all_correct = false;
                eprintln!("daisbench: {e}");
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Self-agreement: `sets` full sets on consecutive seeds (as the driver
/// runs them), then each gated metric's interquartile spread, as a share
/// of its median, against its bound.
fn repeat(sets: usize, args: &Args, contract: &Contract) -> ExitCode {
    let names = selected(args);
    // values[workload][metric] = one value per set
    let mut values: Vec<Vec<(String, Vec<f64>)>> = names.iter().map(|_| Vec::new()).collect();
    let mut ok = true;
    for set in 0..sets {
        for (w, name) in names.iter().enumerate() {
            eprintln!("daisbench: set {}/{sets}, {name}", set + 1);
            match run_child(name, args.seed + set as u64, args) {
                Ok(result) => {
                    ok &= result.correct;
                    for (metric, value, _) in result.metrics {
                        match values[w].iter_mut().find(|(m, _)| *m == metric) {
                            Some((_, v)) => v.push(value),
                            None => values[w].push((metric, vec![value])),
                        }
                    }
                }
                Err(e) => {
                    ok = false;
                    eprintln!("daisbench: {e}");
                }
            }
        }
    }
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (w, name) in names.iter().enumerate() {
        for (metric, v) in &values[w] {
            if v.len() < 2 {
                continue;
            }
            let (q1, q2, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            let bound =
                contract.end_to_end.iter().find(|m| m.name == *metric).and_then(|m| m.bound);
            // Set-up time is gated on its median only: its spread is
            // reported, not judged (a cold first set-up is real).
            let over = metric != "setup_s" && bound.is_some_and(|b| spread > b);
            ok &= !over;
            println!(
                "{name:<16} {metric:<26} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {:>6}{}",
                bound.map_or("-".to_string(), |b| b.to_string()),
                if over { "  ** over bound **" } else { "" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(idle::SPIN_FLAG) {
        idle::spin();
        return ExitCode::SUCCESS;
    }
    let contract = contract::load();
    let args = match parse_args(&contract) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("daisbench: {e}");
            eprintln!(
                "usage: daisbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]"
            );
            return ExitCode::from(2);
        }
    };
    match (&args.repeat, &args.workload) {
        (Some(sets), _) => repeat(*sets, &args, &contract),
        (None, Some(name)) => run_one(name, &args),
        (None, None) => run_all(&args),
    }
}
