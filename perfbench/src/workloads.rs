//! The three workloads: serve_fleet, serve_durable and fit_fleet.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use causaliot::fleet::ModelStore;
use causaliot::serve::{Hub, HubConfig, SUBMIT_CHUNK};
use causaliot::telemetry::TelemetryHandle;
use causaliot::{CausalIot, FitPipeline, FittedModel, IngestPolicy};
use iot_model::BinaryEvent;
use iot_stats::metrics::ConfusionMatrix;

use crate::check::{self, Gate};
use crate::inputs::{self, binarize, serve_inputs, ServeInputs, Size};
use crate::probe::{self, ProbeHome};
use crate::report::{Metrics, Outcome};
use crate::serve::{
    boot, open_ranges, schedule, serve_rep, Fleet, RepOutcome, QUEUE_CAPACITY, SETUP_TRIALS, TICK,
};
use crate::trace::Tracer;
use crate::util::{
    copy_tree, flush_filesystems, fresh_dir, median, peak_rss_mb, quiet, reset_peak_rss, secs,
    tail, StealClock, REP_QUIET, WINDOW_QUIET,
};

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Percentile reported as `lat_tail_ms`.
    pub tail_pct: f64,
    /// Open-loop offered rate, events per second.
    pub rate: f64,
    /// Group commit: fsync every `wal_events` events or `wal_ms` ms.
    pub wal_events: u64,
    pub wal_ms: u64,
    pub size: Size,
    /// Scratch directory for this run (inside the checkout).
    pub work: PathBuf,
    /// When the process started: `--seconds` budgets the whole run.
    pub started: Instant,
}

/// Fewest serving repetitions (per tracing mode) a run makes, whatever
/// `--seconds` says.
const MIN_REPS: usize = 4;
const MIN_TRACED_REPS: usize = 2;
/// serve_fleet's checkpoint-only restarts after each repetition.
const RECOVERIES_PER_REP: usize = 4;
/// Share of `--seconds` a traced run spends on repetitions or passes; its
/// per-layer probes take the rest.
const TRACED_SHARE: f64 = 0.6;
/// One home in this many gets its verdicts replayed directly each
/// repetition (a different residue class each time).
const VERDICT_SAMPLE_STRIDE: usize = 12;
/// fit_fleet's setup and restart samples per pass, and the fewest passes
/// a run makes.
const FIT_SETUP_REPS: usize = 3;
const MIN_FIT_PASSES: usize = 4;
/// Offered rate (events/s) when fit_fleet's traced run serves the fitted
/// fleet's held-out streams to price the hub layers.
const FIT_PROBE_RATE: f64 = 200_000.0;

fn ingest_policy(inputs: &ServeInputs) -> IngestPolicy {
    IngestPolicy {
        reorder_window: inputs.chaos.reorder_window,
        max_skew: inputs.chaos.max_skew,
        ..IngestPolicy::default()
    }
}

/// Saves every home's checkpoint (its site's model) and assembles the
/// fleet the program receives.
fn write_fleet(
    inputs: &ServeInputs,
    dir: &Path,
    stream: impl Fn(&inputs::ServeHome) -> Vec<BinaryEvent>,
) -> Fleet {
    let ckpt = dir.join("ckpt");
    fs::create_dir_all(&ckpt).expect("checkpoint directory");
    let mut fleet = Fleet {
        names: Vec::new(),
        checkpoints: Vec::new(),
        streams: Vec::new(),
    };
    for home in &inputs.homes {
        let path = ckpt.join(format!("{}.ckpt", home.name));
        inputs.sites[home.site]
            .model
            .save_to_path(&path)
            .expect("write checkpoint");
        fleet.names.push(home.name.clone());
        fleet.checkpoints.push(path);
        fleet.streams.push(stream(home));
    }
    fleet
}

/// Adds the end-to-end latency pair over the open-loop windows of every
/// repetition that ran quietly, by each window's own steal share: the
/// median over those windows of each window's median and tail percentile.
/// Returns the kept windows' count.
fn put_latency(m: &mut Metrics, reps: &[RepOutcome], tail_pct: f64) -> Result<usize, String> {
    let mut windows: Vec<&[f64]> = Vec::new();
    let mut steal = Vec::new();
    for r in reps {
        let o = &r.open;
        for (w, &first) in o.window_starts.iter().enumerate() {
            let end = o
                .window_starts
                .get(w + 1)
                .copied()
                .unwrap_or(o.lat_ms.len());
            windows.push(&o.lat_ms[first..end]);
            steal.push(o.window_steal[w]);
        }
    }
    let kept = quiet(&steal, &WINDOW_QUIET);
    let p50: Vec<f64> = kept.iter().map(|&w| median(windows[w])).collect();
    let tails = kept
        .iter()
        .map(|&w| tail(windows[w], tail_pct))
        .collect::<Result<Vec<f64>, String>>()?;
    m.put("lat_p50_ms", "ms", median(&p50));
    m.put("lat_tail_ms", "ms", median(&tails));
    Ok(kept.len())
}

/// Served-alarm detection over a fleet's verdicts: (F1, contextual
/// alarms, collective alarms).
fn detection(inputs: &ServeInputs, verdicts: &[&[causaliot::Verdict]]) -> (f64, u64, u64) {
    let mut confusion = ConfusionMatrix::new();
    let (mut ctx, mut coll) = (0, 0);
    for (home, v) in inputs.homes.iter().zip(verdicts) {
        let alarms = check::alarm_positions(v);
        check::add_confusion(&mut confusion, &home.anomalous, &alarms, home.clean.len());
        let (c, k) = check::alarm_counts(v);
        ctx += c;
        coll += k;
    }
    (confusion.f1(), ctx, coll)
}

/// Checks that detection repeats exactly across repetitions.
fn same_detection(gate: &mut Gate, first: &mut Option<(f64, u64, u64)>, now: (f64, u64, u64)) {
    match first {
        None => *first = Some(now),
        Some(f) => gate.unit(
            if f.0.to_bits() == now.0.to_bits() && f.1 == now.1 && f.2 == now.2 {
                Ok(())
            } else {
                Err(format!(
                    "detection {now:?} differs from the first repetition's {f:?}"
                ))
            },
        ),
    }
}

/// Per-layer numbers from the traced serving repetitions: the closed
/// loop's outside-in ledger plus the hub-facing metrics.
fn serve_layers(
    m: &mut Metrics,
    untraced: &[RepOutcome],
    traced: &[(RepOutcome, SpanTimes)],
    homes: usize,
) -> f64 {
    let per_event = |r: &RepOutcome| r.closed_s * 1e9 / r.closed_events as f64;
    let base_ns = median(&untraced.iter().map(per_event).collect::<Vec<_>>());
    let pick = |name: &str| -> Vec<f64> {
        traced
            .iter()
            .map(|(r, spans)| spans.get(name).map_or(0.0, |s| s.0) * 1e9 / r.closed_events as f64)
            .collect()
    };
    // Per event: every span's self time under the closed loop (`all`),
    // and the same without the loop's own residual (`layers`), which is
    // the generator's time outside any call into the program.
    let per_event_sum = |keep: fn(&str) -> bool| -> Vec<f64> {
        traced
            .iter()
            .map(|(r, spans)| {
                spans
                    .iter()
                    .filter(|(name, _)| keep(name))
                    .map(|(_, s)| s.0)
                    .sum::<f64>()
                    * 1e9
                    / r.closed_events as f64
            })
            .collect()
    };
    let all = per_event_sum(|_| true);
    let layers = per_event_sum(|name| name != "closed_loop");
    let traced_reps: Vec<&RepOutcome> = traced.iter().map(|(r, _)| r).collect();
    let whole = |r: &RepOutcome| r.setup_s.iter().sum::<f64>() + r.closed_s + r.open.secs;
    m.put("hub.submit_ns_per_event", "ns", median(&pick("hub.submit")));
    m.put(
        "hub.drain_ms",
        "ms",
        median(&pick("hub.drain")) * traced_reps[0].closed_events as f64 / 1e6,
    );
    m.put(
        "hub.queue_full_retries",
        "count",
        median(
            &traced_reps
                .iter()
                .map(|r| (r.closed_retries + r.open.queue_full_retries) as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "hub.queue_depth_max",
        "count",
        traced_reps
            .iter()
            .map(|r| r.closed_depth_max.max(r.open.depth_max))
            .max()
            .unwrap_or(0) as f64,
    );
    m.put(
        "hub.register_us_per_home",
        "us",
        median(
            &traced_reps
                .iter()
                .map(|r| r.register_s * 1e6 / homes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "hub.verdict_rss_mb_per_mevent",
        "MB/Mevent",
        median(
            &traced_reps
                .iter()
                .map(|r| {
                    let served = r.closed_events as f64 + r.open_events as f64;
                    (r.rss_after_mb - r.rss_before_mb) / (served / 1e6)
                })
                .collect::<Vec<_>>(),
        ),
    );
    m.put(
        "generator.lag_ms_max",
        "ms",
        traced_reps
            .iter()
            .map(|r| r.open.lag_ms_max)
            .fold(0.0, f64::max),
    );
    m.put(
        "generator.late_batches",
        "count",
        traced_reps.iter().map(|r| r.open.late_batches).sum::<u64>() as f64,
    );
    m.put(
        "generator.self_share",
        "ratio",
        median(&pick("closed_loop")) / median(&all),
    );
    m.put(
        "trace.overhead_ratio",
        "ratio",
        median(&traced_reps.iter().map(|r| whole(r)).collect::<Vec<_>>())
            / median(&untraced.iter().map(whole).collect::<Vec<_>>()),
    );
    m.put("ledger.sum_ratio", "ratio", median(&layers) / base_ns);
    base_ns
}

/// Per span name, summed self time (s) and count.
type SpanTimes = BTreeMap<String, (f64, u64)>;

/// Whether another repetition (or pass), at the mean pace of the `done`
/// made since `first` started, still ends within the run's budget.
fn another_fits(o: &Opts, first: Instant, done: usize) -> bool {
    let pace = secs(first) / done as f64;
    let budget = o.seconds * if o.trace { TRACED_SHARE } else { 1.0 };
    secs(o.started) + pace <= budget
}

/// Runs serving repetitions while another fits in the run's budget, with
/// minimum counts per tracing mode. `one(rep, tracing)` serves once.
fn serving_reps(
    o: &Opts,
    warm_up: bool,
    mut one: impl FnMut(usize, bool) -> (RepOutcome, SpanTimes),
) -> (Vec<RepOutcome>, Vec<(RepOutcome, SpanTimes)>) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let first = Instant::now();
    // An in-process first repetition warms the process (allocator, page
    // cache, the host's scheduler after input generation); it is checked
    // but not measured.
    if warm_up {
        let _ = one(0, false);
    }
    let mut r = 1;
    loop {
        let tracing = o.trace && r % 2 == 0;
        let (rep, spans) = one(r, tracing);
        if tracing {
            traced.push((rep, spans));
        } else {
            untraced.push(rep);
        }
        r += 1;
        let enough = if o.trace {
            untraced.len() >= MIN_TRACED_REPS && traced.len() >= MIN_TRACED_REPS
        } else {
            untraced.len() >= MIN_REPS
        };
        if enough && !another_fits(o, first, r - usize::from(!warm_up)) {
            return (untraced, traced);
        }
    }
}

/// serve_fleet: the in-memory production scoring path with the ingest
/// guard armed against disordered streams.
pub fn serve_fleet(o: &Opts) -> Outcome {
    let inputs = serve_inputs(o.seed, &o.size);
    let fleet = write_fleet(&inputs, &o.work, |h| h.chaotic.clone());
    let policy = ingest_policy(&inputs);
    let config = || {
        HubConfig::builder()
            .workers(1)
            .queue_capacity(QUEUE_CAPACITY)
            .record_verdicts(true)
            .ingest(policy)
            .try_build()
            .expect("the benchmark's hub config is valid")
    };
    let sched = schedule(&fleet.streams, &open_ranges(&fleet), o.rate, TICK);
    let mut out = Outcome::default();
    let mut gate = Gate::default();
    let mut detect = None;
    let (untraced, traced) = serving_reps(o, true, |r, tracing| {
        let clock = StealClock::start();
        reset_peak_rss();
        let mut tracer = Tracer::new(tracing);
        let (hub, mut rep) = serve_rep(|_| config(), &fleet, &sched, &mut tracer);
        if tracing {
            let _ = tracer.write(&o.work.join("trace-spans.jsonl"));
        }
        let reports = hub.shutdown();
        for (h, report) in reports.iter().enumerate() {
            let home = &inputs.homes[h];
            let mut res = check::dead_letters_match(
                &home.name,
                &report.dead_letter_causes,
                &home.expected_dead,
            );
            if res.is_ok() && h % VERDICT_SAMPLE_STRIDE == r % VERDICT_SAMPLE_STRIDE {
                let model = &inputs.sites[home.site].model;
                let (reference, _) = check::guarded_replay(
                    model.clone().into_monitor(),
                    policy,
                    model.num_devices(),
                    &home.chaotic,
                );
                res = check::verdicts_match(&home.name, &report.verdicts, &reference);
            } else if res.is_ok() && report.verdicts.len() != home.clean.len() {
                res = Err(format!(
                    "{}: {} verdicts for {} in-model events",
                    home.name,
                    report.verdicts.len(),
                    home.clean.len()
                ));
            }
            gate.unit(res);
        }
        let verdicts: Vec<&[causaliot::Verdict]> =
            reports.iter().map(|r| r.verdicts.as_slice()).collect();
        same_detection(&mut gate, &mut detect, detection(&inputs, &verdicts));
        drop(reports);
        for _ in 0..RECOVERIES_PER_REP {
            let started = Instant::now();
            let (hub, _, _) = boot(config(), &fleet, &mut Tracer::new(false));
            hub.drain();
            rep.recover_s.push(secs(started));
            drop(hub);
        }
        rep.steal = clock.share();
        rep.peak_rss_mb = peak_rss_mb();
        (rep, tracer.self_times_under("closed_loop"))
    });
    let (f1, ctx, coll) = detect.expect("at least one repetition");
    finish_serve(o, &mut out, &untraced, f1, gate);
    out.note("contextual_alarms", ctx);
    out.note("collective_alarms", coll);
    if o.trace {
        let base_ns = serve_layers(&mut out.layers, &untraced, &traced, fleet.names.len());
        let homes: Vec<ProbeHome<'_>> = inputs
            .homes
            .iter()
            .map(|h| ProbeHome {
                model: &inputs.sites[h.site].model,
                delivered: &h.chaotic,
                clean: &h.clean,
            })
            .collect();
        common_probes(o, &mut out.layers, &inputs, &homes, policy, None);
        let explained = out.layers.get("ingest.offer_ns_per_event").unwrap_or(0.0)
            + out
                .layers
                .get("monitor.observe_ns_per_event")
                .unwrap_or(0.0);
        out.layers.put(
            "ledger.worker_explained_ratio",
            "ratio",
            explained / base_ns,
        );
    }
    out
}

/// The probes every serving workload's traced run makes on its inputs.
fn common_probes(
    o: &Opts,
    m: &mut Metrics,
    inputs: &ServeInputs,
    homes: &[ProbeHome<'_>],
    policy: IngestPolicy,
    crash_image: Option<&Path>,
) {
    probe::ingest_and_monitor(m, homes, policy);
    probe::wal(m, homes, &o.work.join("probe-wal"));
    let image = probe::durable(
        m,
        homes,
        &o.work.join("probe-durable"),
        o.wal_events,
        o.wal_ms,
    );
    let config = |dir: &Path| {
        probe::durable_config(dir, o.wal_events, o.wal_ms, probe::shipped_snapshot_every())
    };
    probe::recover_split(m, crash_image.unwrap_or(&image), &o.work, config);
    let _ = fs::remove_dir_all(&image);
    let models: Vec<&FittedModel> = inputs.sites.iter().map(|s| &s.model).collect();
    probe::checkpoint(m, &models);
    let logs: Vec<_> = inputs
        .sites
        .iter()
        .map(|s| (s.raw.profile.registry(), &s.raw.train_log))
        .collect();
    probe::fit_layers(m, &inputs::serve_detector(), &logs);
    let home_model: Vec<usize> = inputs.homes.iter().map(|h| h.site).collect();
    probe::store_and_bulk_load(m, &models, &home_model, &o.work.join("probe-store"));
}

/// Fills the serving end-to-end metrics from the quiet repetitions
/// (ranked by steal share).
fn finish_serve(o: &Opts, out: &mut Outcome, all: &[RepOutcome], f1: f64, gate: Gate) {
    let steal: Vec<f64> = all.iter().map(|r| r.steal).collect();
    let reps: Vec<&RepOutcome> = quiet(&steal, &REP_QUIET)
        .into_iter()
        .map(|i| &all[i])
        .collect();
    let recover_s: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.recover_s.iter().copied())
        .collect();
    let m = &mut out.e2e;
    m.put(
        "setup_s",
        "s",
        median(
            &reps
                .iter()
                .flat_map(|r| r.setup_s.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.closed_events as f64 / r.closed_s)
        .collect();
    m.put("peak_rate", "1/s", median(&rates));
    let mut gate = gate;
    let windows = put_latency(m, all, o.tail_pct);
    let windows_kept = *windows.as_ref().unwrap_or(&0);
    gate.unit(windows.map(|_| ()));
    m.put("recover_s", "s", median(&recover_s));
    m.put("detection_f1", "ratio", f1);
    m.put("ok_ratio", "ratio", gate.ok_ratio());
    m.put(
        "peak_rss_mb",
        "MB",
        median(&reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
    );
    out.attempted = gate.attempted;
    out.failed = gate.failed;
    out.note("repetitions", all.len());
    out.note("repetitions_kept", reps.len());
    out.note("steal_share_per_rep", steal);
    out.note("recoveries_kept", recover_s.len());
    out.note("latency_windows_kept", windows_kept);
    out.note(
        "latency_windows",
        all.iter()
            .map(|r| r.open.window_starts.len())
            .sum::<usize>(),
    );
    out.note(
        "generator_lag_ms_max",
        all.iter().map(|r| r.open.lag_ms_max).fold(0.0, f64::max),
    );
    out.note(
        "generator_late_batches",
        all.iter().map(|r| r.open.late_batches).sum::<u64>(),
    );
    out.note(
        "open_loop_batches",
        all.iter().map(|r| r.open.batches).sum::<u64>(),
    );
    out.note("offered_rate", o.rate);
    out.note(
        "peak_rate_per_rep",
        all.iter()
            .map(|r| r.closed_events as f64 / r.closed_s)
            .collect::<Vec<_>>(),
    );
}

/// serve_durable: the batched worker path with the WAL and snapshots
/// armed; serving runs in a child process that dies after `drain`, and
/// the parent times `Hub::recover` on copies of the crash image.
pub fn serve_durable(o: &Opts) -> Outcome {
    let inputs = serve_inputs(o.seed, &o.size);
    let fleet_dir = o.work.join("fleet");
    let fleet = write_fleet(&inputs, &fleet_dir, |h| h.clean.clone());
    let streams: Vec<&[BinaryEvent]> = fleet.streams.iter().map(Vec::as_slice).collect();
    inputs::write_streams(&fleet_dir.join("streams.bin"), &streams).expect("write streams");
    fs::write(fleet_dir.join("names.txt"), fleet.names.join("\n")).expect("write names");
    let config = |dir: &Path| {
        probe::durable_config(dir, o.wal_events, o.wal_ms, probe::shipped_snapshot_every())
    };
    let mut out = Outcome::default();
    let mut gate = Gate::default();
    let mut detect = None;
    let mut last_image = None;
    let (untraced, traced) = serving_reps(o, false, |r, tracing| {
        if let Some(old) = last_image.take() {
            let _ = fs::remove_dir_all(old);
        }
        let image = o.work.join(format!("image-{r}"));
        let _ = fs::remove_dir_all(&image);
        // Start every repetition with no dirty pages from the last one, so
        // its fsyncs pay only for its own writes.
        flush_filesystems();
        let clock = StealClock::start();
        reset_peak_rss();
        let (mut rep, spans) = run_child(
            o,
            &fleet_dir,
            &image,
            probe::shipped_snapshot_every(),
            tracing,
        );
        let copy = o.work.join("recover");
        let _ = fs::remove_dir_all(&copy);
        copy_tree(&image, &copy).expect("copy crash image");
        let started = Instant::now();
        let (hub, report) = Hub::recover(config(&copy)).expect("the crash image recovers");
        hub.drain();
        rep.recover_s.push(secs(started));
        for (h, home) in report.homes.iter().enumerate() {
            gate.unit(check::durable_count_matches(
                &home.name,
                home.durable_events,
                fleet.streams[h].len() as u64,
            ));
        }
        // Verdicts come only from `shutdown` (after the timed span; it also
        // writes every home's final snapshot). One home in twelve, a
        // different residue class each repetition, is replayed directly.
        let reports = hub.shutdown();
        for (h, report) in reports.iter().enumerate() {
            if h % VERDICT_SAMPLE_STRIDE != r % VERDICT_SAMPLE_STRIDE {
                continue;
            }
            let model = &inputs.sites[inputs.homes[h].site].model;
            let mut monitor = model.clone().into_monitor();
            let mut reference = Vec::new();
            for chunk in fleet.streams[h].chunks(SUBMIT_CHUNK) {
                monitor.observe_batch_into(chunk, &mut reference);
            }
            gate.unit(check::verdicts_match(
                &report.name,
                &report.verdicts,
                &reference,
            ));
        }
        let verdicts: Vec<&[causaliot::Verdict]> =
            reports.iter().map(|r| r.verdicts.as_slice()).collect();
        same_detection(&mut gate, &mut detect, detection(&inputs, &verdicts));
        drop(reports);
        let _ = fs::remove_dir_all(&copy);
        last_image = Some(image);
        rep.steal = clock.share();
        // The serving child's peak, or the parent's while recovering.
        rep.peak_rss_mb = rep.peak_rss_mb.max(peak_rss_mb());
        (rep, spans)
    });
    let (f1, ctx, coll) = detect.expect("at least one repetition");
    finish_serve(o, &mut out, &untraced, f1, gate);
    out.note("contextual_alarms", ctx);
    out.note("collective_alarms", coll);
    if o.trace {
        let base_ns = serve_layers(&mut out.layers, &untraced, &traced, fleet.names.len());
        let homes: Vec<ProbeHome<'_>> = inputs
            .homes
            .iter()
            .map(|h| ProbeHome {
                model: &inputs.sites[h.site].model,
                delivered: &h.clean,
                clean: &h.clean,
            })
            .collect();
        let image = last_image.clone().expect("a crash image");
        common_probes(
            o,
            &mut out.layers,
            &inputs,
            &homes,
            IngestPolicy::default(),
            Some(&image),
        );
        let explained = out.layers.get("monitor.batch_ns_per_event").unwrap_or(0.0)
            + out.layers.get("wal.append_ns_per_event").unwrap_or(0.0)
            + out
                .layers
                .get("durable.snapshot_ns_per_event")
                .unwrap_or(0.0);
        out.layers.put(
            "ledger.worker_explained_ratio",
            "ratio",
            explained / base_ns,
        );
    }
    if let Some(image) = last_image {
        let _ = fs::remove_dir_all(image);
    }
    out
}

/// Serves the fleet in `fleet_dir` from a re-executed child of this
/// binary, which exits right after `Hub::drain` without `shutdown`,
/// leaving its crash image in `image`.
fn run_child(
    o: &Opts,
    fleet_dir: &Path,
    image: &Path,
    snapshot_every: u64,
    trace: bool,
) -> (RepOutcome, SpanTimes) {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .arg("--durable-child")
        .arg(fleet_dir)
        .arg(image)
        .args([
            o.rate.to_string(),
            o.wal_events.to_string(),
            o.wal_ms.to_string(),
            snapshot_every.to_string(),
            u8::from(trace).to_string(),
        ])
        .output()
        .expect("spawn the serving child");
    assert!(
        output.status.success(),
        "serving child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    parse_child(&String::from_utf8_lossy(&output.stdout))
}

/// The serving child: load the fleet, serve it once, print what was
/// measured, and exit without shutting the hub down.
pub fn durable_child(args: &[String]) -> ! {
    let [fleet_dir, image, rate, wal_events, wal_ms, snapshot_every, trace] = args else {
        eprintln!("usage: --durable-child <fleet> <image> <rate> <wal-events> <wal-ms> <snapshot-every> <trace>");
        std::process::exit(2);
    };
    let num = |s: &str| -> f64 { s.parse().expect("numeric child argument") };
    let fleet_dir = PathBuf::from(fleet_dir);
    let streams = inputs::read_streams(&fleet_dir.join("streams.bin")).expect("read streams");
    let names: Vec<String> = fs::read_to_string(fleet_dir.join("names.txt"))
        .expect("read names")
        .lines()
        .map(str::to_string)
        .collect();
    let checkpoints = names
        .iter()
        .map(|n| fleet_dir.join("ckpt").join(format!("{n}.ckpt")))
        .collect();
    let fleet = Fleet {
        names,
        checkpoints,
        streams,
    };
    // Set-up trials before the last one get directories of their own.
    let config = |trial: usize| {
        let dir = if trial + 1 == SETUP_TRIALS {
            PathBuf::from(image)
        } else {
            PathBuf::from(format!("{image}.trial{trial}"))
        };
        probe::durable_config(
            &dir,
            num(wal_events) as u64,
            num(wal_ms) as u64,
            num(snapshot_every) as u64,
        )
    };
    let sched = schedule(&fleet.streams, &open_ranges(&fleet), num(rate), TICK);
    let mut tracer = Tracer::new(trace == "1");
    let (hub, rep) = serve_rep(config, &fleet, &sched, &mut tracer);
    if tracer.enabled() {
        let _ = tracer.write(&Path::new(image).with_extension("spans.jsonl"));
    }
    let mut text = String::new();
    text.push_str("setup_s");
    for s in &rep.setup_s {
        let _ = write!(text, " {s}");
    }
    text.push('\n');
    let _ = writeln!(text, "register_s {}", rep.register_s);
    let _ = writeln!(text, "closed_events {}", rep.closed_events);
    let _ = writeln!(text, "open_events {}", rep.open_events);
    let _ = writeln!(text, "closed_s {}", rep.closed_s);
    let _ = writeln!(text, "closed_retries {}", rep.closed_retries);
    let _ = writeln!(text, "closed_depth_max {}", rep.closed_depth_max);
    let _ = writeln!(text, "open_secs {}", rep.open.secs);
    let _ = writeln!(text, "lag_ms_max {}", rep.open.lag_ms_max);
    let _ = writeln!(text, "late_batches {}", rep.open.late_batches);
    let _ = writeln!(text, "batches {}", rep.open.batches);
    let _ = writeln!(text, "open_retries {}", rep.open.queue_full_retries);
    let _ = writeln!(text, "open_depth_max {}", rep.open.depth_max);
    let _ = writeln!(text, "rss_before_mb {}", rep.rss_before_mb);
    let _ = writeln!(text, "rss_after_mb {}", rep.rss_after_mb);
    let _ = writeln!(text, "peak_rss_mb {}", peak_rss_mb());
    text.push_str("lat_ms");
    for l in &rep.open.lat_ms {
        let _ = write!(text, " {l}");
    }
    text.push_str("\nwindow_starts");
    for w in &rep.open.window_starts {
        let _ = write!(text, " {w}");
    }
    text.push_str("\nwindow_steal");
    for w in &rep.open.window_steal {
        let _ = write!(text, " {w}");
    }
    text.push('\n');
    for (name, (s, n)) in tracer.self_times_under("closed_loop") {
        let _ = writeln!(text, "span {name} {s} {n}");
    }
    print!("{text}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // The process ends here with the hub still live: no shutdown, no
    // final snapshots — the crash image recovery is measured on.
    std::mem::forget(hub);
    std::process::exit(0);
}

fn parse_child(text: &str) -> (RepOutcome, SpanTimes) {
    let mut rep = RepOutcome::default();
    let mut spans = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(key) = parts.next() else { continue };
        let rest: Vec<&str> = parts.collect();
        let f = |i: usize| -> f64 { rest[i].parse().expect("numeric child field") };
        match key {
            "setup_s" => rep.setup_s = (0..rest.len()).map(f).collect(),
            "register_s" => rep.register_s = f(0),
            "closed_events" => rep.closed_events = f(0) as usize,
            "open_events" => rep.open_events = f(0) as usize,
            "closed_s" => rep.closed_s = f(0),
            "closed_retries" => rep.closed_retries = f(0) as u64,
            "closed_depth_max" => rep.closed_depth_max = f(0) as usize,
            "open_secs" => rep.open.secs = f(0),
            "lag_ms_max" => rep.open.lag_ms_max = f(0),
            "late_batches" => rep.open.late_batches = f(0) as u64,
            "batches" => rep.open.batches = f(0) as u64,
            "open_retries" => rep.open.queue_full_retries = f(0) as u64,
            "open_depth_max" => rep.open.depth_max = f(0) as usize,
            "rss_before_mb" => rep.rss_before_mb = f(0),
            "rss_after_mb" => rep.rss_after_mb = f(0),
            "peak_rss_mb" => rep.peak_rss_mb = f(0),
            "lat_ms" => rep.open.lat_ms = (0..rest.len()).map(f).collect(),
            "window_starts" => {
                rep.open.window_starts = (0..rest.len()).map(|i| f(i) as usize).collect();
            }
            "window_steal" => rep.open.window_steal = (0..rest.len()).map(f).collect(),
            "span" => {
                let s: f64 = rest[1].parse().expect("span seconds");
                let n: u64 = rest[2].parse().expect("span count");
                spans.insert(rest[0].to_string(), (s, n));
            }
            _ => {}
        }
    }
    assert!(
        rep.closed_events > 0,
        "serving child printed no result:\n{text}"
    );
    (rep, spans)
}

/// What one fit_fleet pass measured: its setup samples, the pass, its
/// restarts, and the steal share they ran under.
#[derive(Default)]
struct FitPass {
    setup_s: Vec<f64>,
    secs: f64,
    lat_ms: Vec<f64>,
    recover_s: Vec<f64>,
    steal: f64,
    peak_rss_mb: f64,
}

/// One onboarded home.
struct Onboarded {
    model: FittedModel,
    hash: u32,
    stages: probe::FitStages,
}

/// Onboards one home: staged fit, then `put` and `commit`.
fn onboard(
    pipeline: &FitPipeline,
    home: &inputs::FitHome,
    store: &ModelStore,
    tracer: &mut Tracer,
    idx: u32,
) -> Onboarded {
    let (model, stages) = probe::staged_fit(
        pipeline,
        home.raw.profile.registry(),
        &home.raw.train_log,
        tracer,
        idx,
    );
    let hash = tracer.time("store.put", Some(idx), || {
        store.put(&model).expect("store put")
    });
    tracer.time("store.commit", Some(idx), || {
        store.commit(&home.name, hash).expect("store commit")
    });
    Onboarded {
        model,
        hash: hash.value(),
        stages,
    }
}

/// fit_fleet: onboarding homes one at a time into a model store, then
/// restarting the store-backed fleet.
pub fn fit_fleet(o: &Opts) -> Outcome {
    let mut homes = inputs::fit_inputs(o.seed, o.size.fit_homes + 1);
    let warm = homes.pop().expect("a warm-up home");
    let pipeline = FitPipeline::new(
        CausalIot::builder().build().config().clone(),
        TelemetryHandle::disabled(),
    )
    .expect("the shipped defaults are valid");
    let mut out = Outcome::default();
    let mut gate = Gate::default();
    let off = &mut Tracer::new(false);

    let names: Vec<&str> = homes.iter().map(|h| h.name.as_str()).collect();
    let start = Instant::now();
    let mut passes: Vec<FitPass> = Vec::new();
    let mut traced_pass: Vec<(f64, Tracer)> = Vec::new();
    let mut bulk_ms = Vec::new();
    let mut resolve_us = Vec::new();
    let mut get_us = Vec::new();
    let mut last: Vec<Onboarded>;
    let root = o.work.join("store");
    let mut p = 0;
    loop {
        flush_filesystems();
        let clock = StealClock::start();
        reset_peak_rss();
        let tracing = o.trace && p % 2 == 1;
        let mut pass = FitPass::default();
        for _ in 0..FIT_SETUP_REPS {
            let root = fresh_dir(&o.work.join("store-setup")).expect("store directory");
            let started = Instant::now();
            let store = ModelStore::open(&root).expect("open store");
            let done = onboard(&pipeline, &warm, &store, off, 0);
            pass.setup_s.push(secs(started));
            std::hint::black_box(done.hash);
        }

        let mut tracer = Tracer::new(tracing);
        fresh_dir(&root).expect("store directory");
        let store = ModelStore::open(&root).expect("open store");
        let started = Instant::now();
        tracer.enter("onboard_pass", None);
        let mut done = Vec::with_capacity(homes.len());
        for (h, home) in homes.iter().enumerate() {
            let t = Instant::now();
            done.push(onboard(&pipeline, home, &store, &mut tracer, h as u32));
            pass.lat_ms.push(secs(t) * 1e3);
        }
        tracer.exit();
        pass.secs = secs(started);
        for (home, d) in homes.iter().zip(&done) {
            let res = store
                .resolve(&home.name)
                .map_err(|e| e.to_string())
                .and_then(|head| {
                    let (_, hash) = head.ok_or_else(|| format!("{}: no lineage", home.name))?;
                    check::hash_round_trips(&home.name, d.hash, hash.value())?;
                    let back = store.get(hash).map_err(|e| e.to_string())?;
                    check::hash_round_trips(&home.name, d.hash, back.content_hash())
                });
            gate.unit(res);
        }
        drop(store);

        // Restart the store-backed fleet: reopen, resolve and get every
        // home, bulk-load a fresh hub.
        for _ in 0..FIT_SETUP_REPS {
            let started = Instant::now();
            let store = ModelStore::open(&root).expect("reopen store");
            let mut fetched = Vec::with_capacity(names.len());
            for name in &names {
                let t = Instant::now();
                let head = store.resolve(name).expect("resolve");
                resolve_us.push(secs(t) * 1e6);
                let (_, hash) = head.expect("committed home");
                let t = Instant::now();
                fetched.push((
                    hash.value(),
                    store.get(hash).expect("store get").content_hash(),
                ));
                get_us.push(secs(t) * 1e6);
            }
            let mut hub = Hub::new(HubConfig::builder().workers(1).build());
            let t = Instant::now();
            hub.bulk_load(&store, &names)
                .expect("bulk load the committed fleet");
            hub.drain();
            bulk_ms.push(secs(t) * 1e3);
            pass.recover_s.push(secs(started));
            drop(hub);
            for (name, (committed, fetched)) in names.iter().zip(fetched) {
                gate.unit(check::hash_round_trips(name, committed, fetched));
            }
        }
        pass.steal = clock.share();
        pass.peak_rss_mb = peak_rss_mb();
        if tracing {
            traced_pass.push((pass.secs, tracer));
        } else {
            passes.push(pass);
        }
        last = done;
        p += 1;
        let enough = if o.trace {
            !passes.is_empty() && !traced_pass.is_empty()
        } else {
            passes.len() >= MIN_FIT_PASSES
        };
        if enough && !another_fits(o, start, p) {
            break;
        }
    }

    // Detection: each fitted model on its home's held-out stream with
    // injected contextual anomalies, through a direct monitor.
    let mut confusion = ConfusionMatrix::new();
    let mut held_out = Vec::with_capacity(homes.len());
    let (mut ctx, mut coll) = (0u64, 0u64);
    for (home, d) in homes.iter().zip(&last) {
        let clean = binarize(&d.model, &home.raw.test_log);
        let injected = inputs::inject(
            &home.raw.profile,
            &home.raw.rules,
            &clean,
            d.model.final_train_state(),
            false,
            home.seed,
        );
        let mut monitor = d.model.clone().into_monitor();
        let verdicts: Vec<causaliot::Verdict> = injected
            .events
            .iter()
            .map(|e| monitor.observe(*e))
            .collect();
        let alarms = check::alarm_positions(&verdicts);
        check::add_confusion(
            &mut confusion,
            &injected.anomalous,
            &alarms,
            injected.events.len(),
        );
        let (c, k) = check::alarm_counts(&verdicts);
        ctx += c;
        coll += k;
        held_out.push(injected.events);
    }

    let steal: Vec<f64> = passes.iter().map(|p| p.steal).collect();
    let kept: Vec<&FitPass> = quiet(&steal, &REP_QUIET)
        .into_iter()
        .map(|i| &passes[i])
        .collect();
    let flat = |f: fn(&FitPass) -> &[f64]| -> Vec<f64> {
        kept.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    // lat_p50_ms: the median over homes of each home's fastest
    // onboarding in the run. The host slows everything by about 1.6x in
    // bursts of 1-2 s (seen in process CPU time as much as in wall time,
    // with no steal), and those bursts took 10-60 % of a pass, so the
    // median of all onboardings fell into or out of them from run to run.
    // lat_tail_ms: the tail of every onboarding in the kept passes, which
    // sits inside those bursts in every phase seen.
    let best_ms: Vec<f64> = (0..homes.len())
        .map(|h| {
            passes
                .iter()
                .map(|p| p.lat_ms[h])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let lat_ms = flat(|p| &p.lat_ms);
    let m = &mut out.e2e;
    m.put("setup_s", "s", median(&flat(|p| &p.setup_s)));
    m.put(
        "peak_rate",
        "1/s",
        median(
            &kept
                .iter()
                .map(|p| homes.len() as f64 / p.secs)
                .collect::<Vec<_>>(),
        ),
    );
    m.put("lat_p50_ms", "ms", median(&best_ms));
    let lat_tail = tail(&lat_ms, o.tail_pct).map(|t| m.put("lat_tail_ms", "ms", t));
    if !o.trace {
        // A traced run keeps one untraced pass: too few samples for the
        // tail, which only the untraced run reports.
        gate.unit(lat_tail);
    }
    m.put("recover_s", "s", median(&flat(|p| &p.recover_s)));
    m.put("detection_f1", "ratio", confusion.f1());
    m.put("ok_ratio", "ratio", gate.ok_ratio());
    m.put(
        "peak_rss_mb",
        "MB",
        median(&kept.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
    );
    out.attempted = gate.attempted;
    out.failed = gate.failed;
    out.note("passes", passes.len());
    out.note("passes_kept", kept.len());
    out.note("steal_share_per_pass", steal);
    out.note("latency_samples_kept", lat_ms.len());
    out.note("latency_p50_homes", best_ms.len());
    out.note("contextual_alarms", ctx);
    out.note("collective_alarms", coll);

    if o.trace {
        fit_layers(
            o,
            &mut out.layers,
            &homes,
            &last,
            &held_out,
            &passes.iter().map(|p| p.secs).collect::<Vec<_>>(),
            &traced_pass,
        );
        let l = &mut out.layers;
        l.put("hub.bulk_load_ms", "ms", median(&bulk_ms));
        l.put("store.resolve_us", "us", median(&resolve_us));
        l.put("store.get_us", "us", median(&get_us));
    }
    out
}

/// fit_fleet's per-layer numbers: the onboarding ledger from the traced
/// pass, then the serving-side layers priced on the fitted fleet's
/// held-out streams.
fn fit_layers(
    o: &Opts,
    m: &mut Metrics,
    homes: &[inputs::FitHome],
    last: &[Onboarded],
    held_out: &[Vec<BinaryEvent>],
    untraced_pass_s: &[f64],
    traced_pass: &[(f64, Tracer)],
) {
    let n = homes.len() as f64;
    let (traced_s, tracer) = &traced_pass[0];
    let _ = tracer.write(&o.work.join("trace-spans.jsonl"));
    let selfs = tracer.self_times_under("onboard_pass");
    let total: f64 = selfs.values().map(|s| s.0).sum();
    // Every layer's self time, without the pass's own residual (the
    // benchmark's loop), and the fitting stages alone (without the store).
    let layer_sum = |keep: fn(&str) -> bool| -> f64 {
        selfs
            .iter()
            .filter(|(name, _)| name.as_str() != "onboard_pass" && keep(name))
            .map(|(_, s)| s.0)
            .sum()
    };
    let layers = layer_sum(|_| true);
    let fitting = layer_sum(|name| !name.starts_with("store."));
    let base = median(untraced_pass_s);
    let stages: Vec<probe::FitStages> = last.iter().map(|d| d.stages.clone()).collect();
    probe::fit_metrics(m, &stages);
    // The traced pass's spans are the stage times the ledger adds up.
    let per_home_ms = |name: &str| selfs.get(name).map_or(0.0, |s| s.0) * 1e3 / n;
    m.put("preprocess.ms_per_home", "ms", per_home_ms("preprocess"));
    m.put(
        "pipeline.snapshot_ms_per_home",
        "ms",
        per_home_ms("pipeline.snapshot"),
    );
    m.put(
        "pipeline.calibrate_ms_per_home",
        "ms",
        per_home_ms("pipeline.calibrate"),
    );
    m.put("miner.mine_ms_per_home", "ms", per_home_ms("miner.mine"));
    m.put("store.put_ms", "ms", per_home_ms("store.put"));
    m.put("store.commit_ms", "ms", per_home_ms("store.commit"));
    m.put(
        "generator.self_share",
        "ratio",
        selfs.get("onboard_pass").map_or(0.0, |s| s.0) / total,
    );
    m.put("trace.overhead_ratio", "ratio", traced_s / base);
    m.put("ledger.sum_ratio", "ratio", layers / base);
    m.put("ledger.worker_explained_ratio", "ratio", fitting / base);

    // Serve the fitted fleet's held-out streams to price the hub layers.
    let dir = fresh_dir(&o.work.join("fit-serve")).expect("fit serving directory");
    let mut fleet = Fleet {
        names: Vec::new(),
        checkpoints: Vec::new(),
        streams: held_out.to_vec(),
    };
    for (home, d) in homes.iter().zip(last) {
        let path = dir.join(format!("{}.ckpt", home.name));
        d.model.save_to_path(&path).expect("write checkpoint");
        fleet.names.push(home.name.clone());
        fleet.checkpoints.push(path);
    }
    let config = || {
        HubConfig::builder()
            .workers(1)
            .queue_capacity(QUEUE_CAPACITY)
            .build()
    };
    let sched = schedule(&fleet.streams, &open_ranges(&fleet), FIT_PROBE_RATE, TICK);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for r in 0..2 * MIN_TRACED_REPS {
        let mut tracer = Tracer::new(r % 2 == 1);
        let (hub, rep) = serve_rep(|_| config(), &fleet, &sched, &mut tracer);
        drop(hub);
        if tracer.enabled() {
            traced.push((rep, tracer.self_times_under("closed_loop")));
        } else {
            untraced.push(rep);
        }
    }
    let mut hub_layers = Metrics::default();
    serve_layers(&mut hub_layers, &untraced, &traced, homes.len());
    for (name, unit, value) in hub_layers.iter() {
        if name.starts_with("hub.") || name.starts_with("generator.l") {
            m.put(name, unit, value);
        }
    }
    let probe_homes: Vec<ProbeHome<'_>> = last
        .iter()
        .zip(held_out)
        .map(|(d, s)| ProbeHome {
            model: &d.model,
            delivered: s,
            clean: s,
        })
        .collect();
    probe::ingest_and_monitor(m, &probe_homes, IngestPolicy::default());
    probe::wal(m, &probe_homes, &o.work.join("probe-wal"));
    let image = probe::durable(
        m,
        &probe_homes,
        &o.work.join("probe-durable"),
        o.wal_events,
        o.wal_ms,
    );
    let config = |dir: &Path| {
        probe::durable_config(dir, o.wal_events, o.wal_ms, probe::shipped_snapshot_every())
    };
    probe::recover_split(m, &image, &o.work, config);
    let models: Vec<&FittedModel> = last.iter().map(|d| &d.model).collect();
    probe::checkpoint(m, &models);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(o.work.join("probe-durable"));
}
