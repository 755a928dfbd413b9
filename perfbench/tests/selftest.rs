//! Runs the benchmark binary at its tiny input size, once per workload
//! and tracing mode, and checks that the run's correctness gate passed
//! and that its result line names exactly the metrics BENCHMARK.json
//! lists for that mode, each with its unit (the check `run.py` makes on
//! every run).

use std::fs;
use std::io::Write as _;
use std::process::{Command, Stdio};

fn run(workload: &str, trace: bool) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    fs::create_dir_all(&dir).expect("scratch directory");
    let trace_arg = if trace { "1" } else { "0" };
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", trace_arg, "--size", "tiny"])
        // The tiny fleet has too few open-loop batches per window for a
        // 90th percentile; its offered rate suits its size.
        .args(["--tail-pct", "50"])
        .args(["--rate", "serve_fleet=20000,serve_durable=20000"])
        .args(["--wal-events", "32768", "--wal-ms", "2000"])
        .args(["--held-out-seed", "918273"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{last}");

    let script = format!(
        "import sys; sys.dont_write_bytecode = True; sys.path.insert(0, {dir:?}); import run; run.check(sys.stdin.read(), {trace})",
        dir = env!("CARGO_MANIFEST_DIR"),
        trace = if trace { "True" } else { "False" },
    );
    let mut check = Command::new("python3")
        .args(["-c", &script])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run the result check");
    check
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(last.as_bytes())
        .expect("write the result line");
    let checked = check.wait_with_output().expect("result check ends");
    assert!(
        checked.status.success(),
        "{workload} trace={trace}: {}",
        String::from_utf8_lossy(&checked.stderr)
    );
}

#[test]
fn serve_fleet_emits_every_metric() {
    run("serve_fleet", false);
    run("serve_fleet", true);
}

#[test]
fn serve_durable_emits_every_metric() {
    run("serve_durable", false);
    run("serve_durable", true);
}

#[test]
fn fit_fleet_emits_every_metric() {
    run("fit_fleet", false);
    run("fit_fleet", true);
}
