//! The CausalIoT benchmark: end-to-end and per-layer metrics for serving
//! (`serve_fleet`, `serve_durable`) and onboarding (`fit_fleet`).
//!
//! ```text
//! perfbench --workload <serve_fleet|serve_durable|fit_fleet> --seed <n>
//!           --seconds <n> --trace <0|1> --tail-pct <p>
//!           --rate <workload>=<events/s>,... --wal-events <n>
//!           --wal-ms <n> --held-out-seed <n> [--size <full|tiny>]
//! ```
//!
//! Every setting but `--size` is required: the benchmark's fixed settings
//! live in the `command` of `BENCHMARK.json` and nowhere else.
//!
//! Inputs are generated from `--seed` before anything is timed. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with `--trace
//! 0`, per-layer metrics with `--trace 1`); the line before it records
//! the host fingerprint, the seeds and the run's context. Scratch files
//! live under `.bench_out/` in the working directory.

mod check;
mod inputs;
mod probe;
mod report;
mod serve;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use causaliot::telemetry::json::JsonValue;

use crate::inputs::Size;
use crate::workloads::Opts;

const WORKLOADS: [&str; 3] = ["serve_fleet", "serve_durable", "fit_fleet"];

struct Args {
    workload: String,
    held_out_seed: u64,
    opts: Opts,
}

fn parse(args: &[String], started: Instant) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |v: Option<String>, flag: &str| -> Result<f64, String> {
        let s = v.ok_or(format!("{flag} is required"))?;
        s.parse()
            .map_err(|_| format!("{flag} takes a number, got {s:?}"))
    };
    let flag = |name: &str| num(get(name), name);
    let seed = flag("--seed")? as u64;
    let seconds = flag("--seconds")?;
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let mut rate = None;
    for pair in get("--rate").ok_or("--rate is required")?.split(',') {
        let (name, value) = pair
            .split_once('=')
            .ok_or(format!("--rate takes workload=rate pairs, got {pair:?}"))?;
        if name == workload {
            rate = Some(num(Some(value.to_string()), "--rate")?);
        }
    }
    let size = match get("--size").as_deref() {
        None | Some("full") => Size::full(),
        Some("tiny") => Size::tiny(),
        Some(other) => return Err(format!("--size takes full or tiny, got {other:?}")),
    };
    let work = PathBuf::from(".bench_out").join(format!(
        "{workload}-{seed}-t{}-{}",
        u8::from(trace),
        std::process::id()
    ));
    Ok(Args {
        held_out_seed: flag("--held-out-seed")? as u64,
        opts: Opts {
            seed,
            seconds,
            trace,
            tail_pct: flag("--tail-pct")?,
            // fit_fleet has no open loop; serving workloads must be given
            // their offered rate.
            rate: match rate {
                Some(r) => r,
                None if workload == "fit_fleet" => 0.0,
                None => return Err(format!("--rate has no entry for {workload}")),
            },
            wal_events: flag("--wal-events")? as u64,
            wal_ms: flag("--wal-ms")? as u64,
            size,
            work,
            started,
        },
        workload,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--durable-child") {
        workloads::durable_child(&argv[1..]);
    }
    let args = match parse(&argv, started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let o = &args.opts;
    if let Err(e) = util::fresh_dir(&o.work) {
        eprintln!("perfbench: cannot create {}: {e}", o.work.display());
        return ExitCode::from(2);
    }
    let host = util::host_fingerprint(&o.work);
    let steal_before = util::steal_jiffies();
    let outcome = match args.workload.as_str() {
        "serve_fleet" => workloads::serve_fleet(o),
        "serve_durable" => workloads::serve_durable(o),
        _ => workloads::fit_fleet(o),
    };

    let steal_after = util::steal_jiffies();
    let steal = (steal_after.0 - steal_before.0) as f64;
    let total = (steal_after.1 - steal_before.1).max(1) as f64;
    let mut record = JsonValue::object();
    record
        .push("workload", args.workload.as_str())
        .push("seed", o.seed)
        .push("held_out_seed", args.held_out_seed)
        .push("trace", o.trace)
        .push("seconds", o.seconds)
        .push("tail_pct", o.tail_pct);
    let mut host_json = JsonValue::object();
    for (k, v) in host {
        host_json.push(k, v);
    }
    record.push("host", host_json);
    // CPU time the hypervisor took while this run measured: a noisy
    // neighbour shows here, not in the program.
    record.push("host_steal_share", steal / total);
    let mut notes = JsonValue::object();
    for (k, v) in &outcome.notes {
        notes.push(k, v.clone());
    }
    record.push("notes", notes);
    if o.trace {
        record.push("end_to_end_untraced", outcome.e2e.to_json());
    }
    let record = record.render();
    let results = PathBuf::from(".bench_out").join("results");
    let _ = std::fs::create_dir_all(&results).and_then(|()| {
        std::fs::write(
            results.join(format!(
                "{}-seed{}-trace{}.json",
                args.workload,
                o.seed,
                u8::from(o.trace)
            )),
            format!("{record}\n{}\n", outcome.result_line(o.trace)),
        )
    });
    let _ = std::fs::remove_dir_all(&o.work);
    println!("{record}");
    println!("{}", outcome.result_line(o.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked units failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
