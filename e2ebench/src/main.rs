//! `ifaq_e2ebench gen|run --workload <name> --seed <n> …` — see
//! README.md. `run.py` is the usual entry point.

use ifaq_e2ebench::report::{END_TO_END, PER_LAYER};
use ifaq_e2ebench::trace::Tracer;
use ifaq_e2ebench::workloads::{self, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Environment settings that change what the program does; `run.py`
/// pins them and the benchmark refuses to measure without them.
const PINNED: &[(&str, &str)] = &[
    ("IFAQ_THREADS", "1"),
    ("IFAQ_CHUNK_ROWS", "2048"),
    ("IFAQ_VERIFY", "on"),
    ("GLIBC_TUNABLES", MALLOC_TUNABLES),
];

/// The allocator settings `run.py` pins: freed memory stays with the
/// process instead of going back to the kernel, so a run's page faults
/// do not depend on how the allocator's trimming happened to fall.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.trim_threshold=4294967295:glibc.malloc.mmap_threshold=33554432";

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    results: Option<PathBuf>,
    /// When the process was started, in nanoseconds since the Unix epoch.
    started_ns: Option<u128>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("expected `gen` or `run`")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        data: PathBuf::new(),
        results: None,
        started_ns: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--data" => args.data = value.into(),
            "--results" => args.results = Some(value.into()),
            "--started-ns" => args.started_ns = Some(value.parse().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if args.data.as_os_str().is_empty() {
        return Err("--data is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn measure(args: Args, t0: Instant, main_ns: u128) -> Result<String, String> {
    for (var, want) in PINNED {
        if std::env::var(var).ok().as_deref() != Some(*want) {
            return Err(format!("{var} must be set to {want} (run.py sets it)"));
        }
    }
    // The time between the process's start and the top of `main`
    // (loading and runtime start-up) counts toward set-up.
    let launch_s = args
        .started_ns
        .map_or(0.0, |s| main_ns.saturating_sub(s) as f64 / 1e9);
    let mut ctx = Ctx {
        t0,
        launch_s,
        seed: args.seed,
        seconds: args.seconds,
        data: args.data,
        tracer: args.trace.then(Tracer::new),
    };
    let outcome = workloads::run(&args.workload, &mut ctx)?;
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let line = if args.trace {
        outcome.render(PER_LAYER, false)
    } else {
        outcome.render(END_TO_END, true)
    };
    if let (Some(path), Some(tracer)) = (&args.results, &ctx.tracer) {
        let body = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"result\": {},\n  \"reference\": {},\n  \"spans\": {}\n}}\n",
            args.workload,
            args.seed,
            args.seconds,
            ifaq_e2ebench::sys::nproc(),
            line,
            outcome.notes_json(),
            tracer.to_json()
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(line)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let main_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "gen" => ifaq_e2ebench::data::write(&args.workload, args.seed, &args.data).map(|()| None),
        "run" => measure(args, t0, main_ns).map(Some),
        other => Err(format!(
            "unknown command `{other}`; expected `gen` or `run`"
        )),
    });
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ifaq_e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
