//! Seeded end-to-end benchmark of troll-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads: `serve_churn`,
//! `serve_read_mix`, `durable_repl` (served over loopback TCP by an
//! in-process `troll serve`) and `animate_wide` (the engine alone);
//! `BENCHMARK.json` lists all but `durable_repl` (see [`served`]). Each
//! run sets up, warms up, measures for `--seconds`, and checks every
//! answer against an oracle. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics of `BENCHMARK.json` with `--trace 0`, its
//! per-layer metrics with `--trace 1`. Lines before it record the
//! conditions of the run. With `--trace 1` the run's spans are written
//! to `.perfbench_out/`; durable worlds live under `.perfbench_tmp/`
//! while the run lasts.

mod animate;
mod gen;
mod oracle;
mod report;
mod sched;
mod served;
mod spans;
mod stats;

use report::Report;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use troll_runtime::SharedModel;

/// The specification every workload animates: the paper's DEPT class.
pub const SPEC: &str = include_str!("../../specs/dept.troll");

const WORKLOADS: [&str; 4] = [
    "serve_churn",
    "serve_read_mix",
    "durable_repl",
    "animate_wide",
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` wants a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}` (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Parses and analyzes the spec and compiles its rules once.
pub fn shared_model() -> Result<SharedModel, String> {
    let parsed = troll_lang::parse(SPEC).map_err(|e| e.to_string())?;
    let model = troll_lang::analyze(&parsed).map_err(|e| e.to_string())?;
    Ok(SharedModel::new(model))
}

/// Median time of `troll_lang::parse` + `analyze` over a few rounds, in
/// milliseconds.
pub fn compile_ms() -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        let parsed = troll_lang::parse(SPEC).map_err(|e| e.to_string())?;
        let model = troll_lang::analyze(&parsed).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(model);
    }
    Ok(stats::median(&times))
}

/// Writes a traced run's spans to `.perfbench_out/`.
pub fn write_spans(args: &Args, parts: Vec<Spans>) -> Result<(), String> {
    let mut parts = parts.into_iter();
    let Some(mut all) = parts.next() else {
        return Ok(());
    };
    for part in parts {
        all.merge(part);
    }
    let path = PathBuf::from(".perfbench_out").join(format!(
        "{}-seed{}-{}.spans.jsonl",
        args.workload,
        args.seed,
        std::process::id()
    ));
    all.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The file-system type holding `path`, from the mount table.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best = (0, "unknown".to_string());
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

fn run(args: &Args) -> Result<String, String> {
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    report::check_declarations(&declared)?;

    let tmp = PathBuf::from(".perfbench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        std::process::id(),
        args.seed
    ));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.note("scratch_fs", fs_type(&tmp));
    let place = sched::placement().map_err(|e| format!("reading the CPU affinity: {e}"))?;
    sched::pin(place.client).map_err(|e| format!("pinning to CPU {}: {e}", place.client))?;
    report.note("client_cpu", place.client);
    report.note("server_cpu", place.server);
    let outcome = match args.workload.as_str() {
        "serve_churn" => served::run(served::Kind::Churn, args, &tmp, place.server, &mut report),
        "serve_read_mix" => {
            served::run(served::Kind::ReadMix, args, &tmp, place.server, &mut report)
        }
        "durable_repl" => served::run(served::Kind::Durable, args, &tmp, place.server, &mut report),
        _ => animate::run(args, &mut report),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    outcome?;
    for problem in &report.problems {
        eprintln!("perfbench: {problem}");
    }
    let declared = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let line = report.render(declared)?;
    let mut out = String::new();
    for (key, value) in &report.info {
        out.push_str(&format!("# {key} = {value}\n"));
    }
    out.push_str(&line);
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
