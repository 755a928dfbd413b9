//! Per-layer prices for the traced run, each measured from outside by
//! timing calls into one layer on the workload's own inputs.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use causaliot::fleet::ModelStore;
use causaliot::serve::wal::{replay_segment, SegmentWriter};
use causaliot::serve::{DurabilityConfig, DurabilityPolicy, Hub, HubConfig, SUBMIT_CHUNK};
use causaliot::telemetry::TelemetryHandle;
use causaliot::{
    CausalIot, FitPipeline, FittedModel, IngestGuard, IngestPolicy, OwnedMonitor, RawEvents,
};
use iot_model::{BinaryEvent, DeviceRegistry, EventLog};
use iot_stats::percentile::percentile;

use crate::report::Metrics;
use crate::serve::{CLOSED_BATCH, QUEUE_CAPACITY};
use crate::util::{copy_tree, dir_bytes, fresh_dir, median, secs, tail};

/// Homes the in-process durability probe serves.
const DURABLE_PROBE_HOMES: usize = 48;
/// Events between fsyncs in the WAL probe.
const WAL_PROBE_SYNC_EVERY: usize = 2048;
/// The shipped snapshot cadence, from `DurabilityConfig::at`.
pub fn shipped_snapshot_every() -> u64 {
    DurabilityConfig::at(".").snapshot_every
}

/// One served home as the probes see it.
pub struct ProbeHome<'a> {
    pub model: &'a FittedModel,
    /// The delivery-ordered stream (possibly disordered, with events
    /// the ingest guard must refuse).
    pub delivered: &'a [BinaryEvent],
    /// The same stream in order, every event in-model.
    pub clean: &'a [BinaryEvent],
}

/// Prices the ingest guard, then the monitor on what the guard releases
/// (per-event and batched), over every home's delivered stream.
pub fn ingest_and_monitor(m: &mut Metrics, homes: &[ProbeHome<'_>], policy: IngestPolicy) {
    let mut offer_s = 0.0;
    let mut offered = 0usize;
    let mut dead = 0u64;
    let mut buffered_max = 0usize;
    let mut released: Vec<Vec<BinaryEvent>> = Vec::with_capacity(homes.len());
    for home in homes {
        let mut guard: IngestGuard<BinaryEvent> =
            IngestGuard::new(policy, home.model.num_devices());
        let mut out = Vec::with_capacity(home.delivered.len());
        let started = Instant::now();
        for &event in home.delivered {
            let step = guard.offer(event);
            buffered_max = buffered_max.max(guard.buffered());
            out.extend(step.ready);
        }
        out.extend(guard.flush());
        offer_s += secs(started);
        offered += home.delivered.len();
        dead += guard.counts().total();
        released.push(out);
    }
    m.put(
        "ingest.offer_ns_per_event",
        "ns",
        offer_s * 1e9 / offered as f64,
    );
    m.put("ingest.dead_letters", "count", dead as f64);
    m.put("ingest.buffered_max", "count", buffered_max as f64);

    let events: usize = released.iter().map(Vec::len).sum();
    let mut observe_s = 0.0;
    let mut batch_s = 0.0;
    let (mut ctx, mut coll, mut track) = (0u64, 0u64, 0u64);
    let mut sink = 0usize;
    let mut out = Vec::with_capacity(SUBMIT_CHUNK);
    for (home, stream) in homes.iter().zip(&released) {
        let mut monitor: OwnedMonitor = home.model.clone().into_monitor();
        let started = Instant::now();
        for &event in stream {
            sink += usize::from(monitor.observe(event).exceeds_threshold);
        }
        observe_s += secs(started);
        let report = monitor.report();
        ctx += report.contextual_alarms;
        coll += report.collective_alarms;
        track = track.max(report.max_tracking_len);

        let mut monitor: OwnedMonitor = home.model.clone().into_monitor();
        let started = Instant::now();
        for chunk in stream.chunks(SUBMIT_CHUNK) {
            out.clear();
            monitor.observe_batch_into(chunk, &mut out);
            sink += out.len();
        }
        batch_s += secs(started);
    }
    std::hint::black_box(sink);
    m.put(
        "monitor.observe_ns_per_event",
        "ns",
        observe_s * 1e9 / events as f64,
    );
    m.put(
        "monitor.batch_ns_per_event",
        "ns",
        batch_s * 1e9 / events as f64,
    );
    m.put("monitor.contextual_alarms", "count", ctx as f64);
    m.put("monitor.collective_alarms", "count", coll as f64);
    m.put("monitor.max_tracking_len", "count", track as f64);
}

/// Prices WAL append, fsync and replay by writing every home's stream to
/// its own segment in `dir`.
pub fn wal(m: &mut Metrics, homes: &[ProbeHome<'_>], dir: &Path) {
    fresh_dir(dir).expect("WAL probe directory");
    let mut append_s = 0.0;
    let mut replay_s = 0.0;
    let mut syncs_us = Vec::new();
    let mut events = 0usize;
    let mut bytes = 0u64;
    for (h, home) in homes.iter().enumerate() {
        let path = dir.join(format!("home-{h}.log"));
        let mut writer = SegmentWriter::create(&path).expect("create WAL segment");
        let mut since_sync = 0usize;
        for chunk in home.clean.chunks(CLOSED_BATCH) {
            let started = Instant::now();
            writer.append_events(chunk).expect("WAL append");
            append_s += secs(started);
            since_sync += chunk.len();
            if since_sync >= WAL_PROBE_SYNC_EVERY {
                let started = Instant::now();
                writer.sync().expect("WAL fsync");
                syncs_us.push(secs(started) * 1e6);
                since_sync = 0;
            }
        }
        let started = Instant::now();
        writer.sync().expect("WAL fsync");
        syncs_us.push(secs(started) * 1e6);
        drop(writer);
        events += home.clean.len();
        bytes += fs::metadata(&path).map_or(0, |md| md.len());
        let started = Instant::now();
        let replay = replay_segment(&path).expect("replay WAL segment");
        replay_s += secs(started);
        assert_eq!(
            replay.events.as_slice(),
            home.clean,
            "WAL replay round-trips"
        );
    }
    let _ = fs::remove_dir_all(dir);
    m.put(
        "wal.append_ns_per_event",
        "ns",
        append_s * 1e9 / events as f64,
    );
    m.put("wal.sync_us_p50", "us", median(&syncs_us));
    m.put(
        "wal.sync_us_tail",
        "us",
        tail(&syncs_us, 95.0).unwrap_or_else(|_| percentile(&syncs_us, 100.0)),
    );
    m.put("wal.bytes_per_event", "B", bytes as f64 / events as f64);
    m.put(
        "wal.replay_ns_per_event",
        "ns",
        replay_s * 1e9 / events as f64,
    );
}

/// The hub configuration with durability armed under `dir`.
pub fn durable_config(dir: &Path, wal_events: u64, wal_ms: u64, snapshot_every: u64) -> HubConfig {
    HubConfig::builder()
        .workers(1)
        .queue_capacity(QUEUE_CAPACITY)
        .record_verdicts(true)
        .durability(DurabilityConfig {
            dir: dir.to_path_buf(),
            policy: DurabilityPolicy::Interval {
                events: wal_events,
                max_delay: Duration::from_millis(wal_ms),
            },
            snapshot_every,
        })
        .try_build()
        .expect("the benchmark's durable hub config is valid")
}

/// Serves `homes` on a durable in-process hub closed-loop and drains it;
/// returns the serving seconds. Dropping the hub without `shutdown`
/// leaves a crash image (no final snapshots) under `dir`.
fn durable_pass(homes: &[ProbeHome<'_>], config: HubConfig) -> f64 {
    let mut hub = Hub::new(config);
    let ids: Vec<_> = homes
        .iter()
        .enumerate()
        .map(|(h, home)| hub.register(&format!("probe-{h:04}"), home.model))
        .collect();
    hub.drain();
    let started = Instant::now();
    let mut cursor = vec![0usize; homes.len()];
    let mut live = true;
    while live {
        live = false;
        for (h, home) in homes.iter().enumerate() {
            let a = cursor[h];
            let b = (a + CLOSED_BATCH).min(home.clean.len());
            if a >= b {
                continue;
            }
            live = true;
            let mut off = a;
            while off < b {
                let outcome = hub
                    .submit_batch(ids[h], &home.clean[off..b])
                    .expect("registered home");
                off += outcome.accepted;
                if off < b {
                    std::thread::yield_now();
                }
            }
            cursor[h] = b;
        }
    }
    hub.drain();
    let elapsed = secs(started);
    drop(hub);
    elapsed
}

/// Prices snapshots subtractively (the shipped cadence against snapshots
/// pushed past the run), their size, and the runtime-state codec, on up
/// to [`DURABLE_PROBE_HOMES`] homes. Streams too short to reach the
/// shipped cadence (fit_fleet's held-out streams) snapshot every half
/// of the shortest stream instead, so a snapshot is always priced.
/// Returns the shipped pass's crash image for the recovery split.
pub fn durable(
    m: &mut Metrics,
    homes: &[ProbeHome<'_>],
    dir: &Path,
    wal_events: u64,
    wal_ms: u64,
) -> PathBuf {
    let homes = &homes[..homes.len().min(DURABLE_PROBE_HOMES)];
    let events: usize = homes.iter().map(|h| h.clean.len()).sum();
    let image = fresh_dir(&dir.join("shipped")).expect("durable probe directory");
    let shortest = homes.iter().map(|h| h.clean.len()).min().unwrap_or(0) as u64;
    let cadence = shipped_snapshot_every().min((shortest / 2).max(1));
    let shipped = durable_pass(homes, durable_config(&image, wal_events, wal_ms, cadence));
    let unsnapped = fresh_dir(&dir.join("past-run")).expect("durable probe directory");
    let past = durable_pass(
        homes,
        durable_config(&unsnapped, wal_events, wal_ms, u64::MAX / 2),
    );
    let _ = fs::remove_dir_all(&unsnapped);
    m.put(
        "durable.snapshot_ns_per_event",
        "ns",
        (shipped - past) * 1e9 / events as f64,
    );
    let mut snap_bytes = 0u64;
    for h in 0..homes.len() {
        snap_bytes += dir_bytes(&image.join(format!("home-{h}")), |n| n == "state.snap")
            .expect("read durable home directory");
    }
    m.put(
        "durable.snapshot_bytes_per_home",
        "B",
        snap_bytes as f64 / homes.len() as f64,
    );

    let mut export_s = 0.0;
    let mut restore_s = 0.0;
    for home in homes {
        let mut monitor = home.model.clone().into_monitor();
        let mut out = Vec::new();
        for chunk in home.clean.chunks(SUBMIT_CHUNK) {
            out.clear();
            monitor.observe_batch_into(chunk, &mut out);
        }
        let started = Instant::now();
        let doc = monitor.export_runtime_state();
        export_s += secs(started);
        let mut fresh = home.model.clone().into_monitor();
        let started = Instant::now();
        fresh
            .restore_runtime_state(&doc)
            .expect("runtime state round-trips");
        restore_s += secs(started);
    }
    m.put(
        "runtime_state.export_us_per_home",
        "us",
        export_s * 1e6 / homes.len() as f64,
    );
    m.put(
        "runtime_state.restore_us_per_home",
        "us",
        restore_s * 1e6 / homes.len() as f64,
    );
    image
}

/// Splits `Hub::recover` on a copy of a crash image into checkpoint
/// loading, WAL replay and re-scoring (each timed by calling that layer
/// directly on the image's files); the rest of `recover_s` is reported as
/// unattributed.
pub fn recover_split(
    m: &mut Metrics,
    image: &Path,
    scratch: &Path,
    config: impl Fn(&Path) -> HubConfig,
) {
    let timed = scratch.join("recover-timed");
    let parts = scratch.join("recover-parts");
    let _ = fs::remove_dir_all(&timed);
    let _ = fs::remove_dir_all(&parts);
    copy_tree(image, &timed).expect("copy crash image");
    copy_tree(image, &parts).expect("copy crash image");
    let started = Instant::now();
    let (hub, report) = Hub::recover(config(&timed)).expect("crash image recovers");
    hub.drain();
    let recover_s = secs(started);
    drop(hub);

    let mut ckpt_s = 0.0;
    let mut replay_s = 0.0;
    let mut rescore_s = 0.0;
    let mut dirs: Vec<PathBuf> = fs::read_dir(&parts)
        .expect("read crash image")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let mut out = Vec::new();
    for dir in dirs {
        let started = Instant::now();
        let model = FittedModel::load_from_path(dir.join("model.ckpt")).expect("image checkpoint");
        ckpt_s += secs(started);
        let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
            .expect("read home directory")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .collect();
        segments.sort();
        let mut monitor = model.into_monitor();
        for seg in segments {
            let started = Instant::now();
            let replay = replay_segment(&seg).expect("image WAL segment");
            replay_s += secs(started);
            let started = Instant::now();
            out.clear();
            monitor.observe_batch_into(&replay.events, &mut out);
            rescore_s += secs(started);
        }
    }
    let _ = fs::remove_dir_all(&timed);
    let _ = fs::remove_dir_all(&parts);
    m.put("recover.checkpoint_load_ms", "ms", ckpt_s * 1e3);
    m.put("recover.wal_replay_ms", "ms", replay_s * 1e3);
    m.put("recover.rescore_ms", "ms", rescore_s * 1e3);
    m.put(
        "recover.unattributed_ms",
        "ms",
        (recover_s - ckpt_s - replay_s - rescore_s) * 1e3,
    );
    m.put(
        "recover.replayed_events",
        "count",
        report.total_replayed() as f64,
    );
}

/// Prices the checkpoint codec over `models`.
pub fn checkpoint(m: &mut Metrics, models: &[&FittedModel]) {
    let mut save_us = Vec::new();
    let mut load_us = Vec::new();
    let mut bytes = 0usize;
    for model in models {
        let started = Instant::now();
        let text = model.save();
        save_us.push(secs(started) * 1e6);
        bytes += text.len();
        let started = Instant::now();
        let back = FittedModel::load(&text).expect("checkpoint round-trips");
        load_us.push(secs(started) * 1e6);
        assert_eq!(back.content_hash(), model.content_hash());
    }
    m.put("checkpoint.save_us", "us", median(&save_us));
    m.put("checkpoint.load_us", "us", median(&load_us));
    m.put("checkpoint.bytes", "B", bytes as f64 / models.len() as f64);
}

/// Per-home stage times and counts of one staged fit.
#[derive(Debug, Default, Clone)]
pub struct FitStages {
    pub preprocess_s: f64,
    pub snapshot_s: f64,
    pub mine_s: f64,
    pub calibrate_s: f64,
    pub events_in: u64,
    pub events_out: u64,
    pub ci_tests: u64,
    pub edges_considered: u64,
    pub edges_pruned: u64,
}

/// Fits through the staged pipeline, timing each stage from outside.
pub fn staged_fit(
    pipeline: &FitPipeline,
    registry: &DeviceRegistry,
    log: &EventLog,
    tracer: &mut crate::trace::Tracer,
    home: u32,
) -> (FittedModel, FitStages) {
    let mut st = FitStages::default();
    let mut t = Instant::now();
    let pre = tracer.time("preprocess", Some(home), || {
        pipeline.preprocess(RawEvents::new(registry, log))
    });
    let pre = pre.expect("a simulated training log preprocesses");
    st.preprocess_s = secs(t);
    st.events_in = pre.stats().events_in;
    st.events_out = pre.stats().events_out;
    t = Instant::now();
    let snap = tracer
        .time("pipeline.snapshot", Some(home), || pipeline.snapshot(pre))
        .expect("enough preprocessed events");
    st.snapshot_s = secs(t);
    t = Instant::now();
    let mined = tracer.time("miner.mine", Some(home), || pipeline.mine(snap));
    st.mine_s = secs(t);
    let stats = mined.mining_stats();
    st.ci_tests = stats.ci_tests_total;
    st.edges_considered = stats.edges_considered;
    st.edges_pruned = stats.edges_pruned;
    t = Instant::now();
    let model = tracer
        .time("pipeline.calibrate", Some(home), || {
            pipeline.calibrate(mined)
        })
        .into_model();
    st.calibrate_s = secs(t);
    (model, st)
}

/// Reports fit-stage metrics from per-home stage records.
pub fn fit_metrics(m: &mut Metrics, stages: &[FitStages]) {
    let n = stages.len() as f64;
    let sum = |f: fn(&FitStages) -> f64| stages.iter().map(f).sum::<f64>();
    let events_in = sum(|s| s.events_in as f64);
    let events_out = sum(|s| s.events_out as f64);
    let ci = sum(|s| s.ci_tests as f64);
    let considered = sum(|s| s.edges_considered as f64);
    let pruned = sum(|s| s.edges_pruned as f64);
    m.put(
        "preprocess.ms_per_home",
        "ms",
        sum(|s| s.preprocess_s) * 1e3 / n,
    );
    m.put("preprocess.events_in", "count", events_in);
    m.put("preprocess.events_out", "count", events_out);
    m.put("preprocess.keep_ratio", "ratio", events_out / events_in);
    m.put(
        "pipeline.snapshot_ms_per_home",
        "ms",
        sum(|s| s.snapshot_s) * 1e3 / n,
    );
    m.put(
        "pipeline.calibrate_ms_per_home",
        "ms",
        sum(|s| s.calibrate_s) * 1e3 / n,
    );
    m.put("miner.mine_ms_per_home", "ms", sum(|s| s.mine_s) * 1e3 / n);
    m.put("miner.ci_tests", "count", ci);
    m.put(
        "miner.ns_per_ci_test",
        "ns",
        sum(|s| s.mine_s) * 1e9 / ci.max(1.0),
    );
    m.put(
        "miner.edge_keep_ratio",
        "ratio",
        if considered > 0.0 {
            1.0 - pruned / considered
        } else {
            0.0
        },
    );
}

/// Refits `logs` through the staged pipeline with `detector`'s config to
/// price the fit layers on a serving workload's sites.
pub fn fit_layers(m: &mut Metrics, detector: &CausalIot, logs: &[(&DeviceRegistry, &EventLog)]) {
    let pipeline = FitPipeline::new(detector.config().clone(), TelemetryHandle::disabled())
        .expect("valid detector config");
    let mut tracer = crate::trace::Tracer::new(false);
    let stages: Vec<FitStages> = logs
        .iter()
        .enumerate()
        .map(|(i, (reg, log))| staged_fit(&pipeline, reg, log, &mut tracer, i as u32).1)
        .collect();
    fit_metrics(m, &stages);
}

/// Prices the model store (put, commit, resolve, get) and `Hub::bulk_load`
/// for a fleet whose homes map onto `models`.
pub fn store_and_bulk_load(
    m: &mut Metrics,
    models: &[&FittedModel],
    home_model: &[usize],
    dir: &Path,
) {
    let root = fresh_dir(dir).expect("store probe directory");
    let store = ModelStore::open(&root).expect("open store");
    let mut put_ms = Vec::new();
    let hashes: Vec<_> = models
        .iter()
        .map(|model| {
            let started = Instant::now();
            let hash = store.put(model).expect("store put");
            put_ms.push(secs(started) * 1e3);
            hash
        })
        .collect();
    let names: Vec<String> = (0..home_model.len())
        .map(|h| format!("home-{h:04}"))
        .collect();
    let mut commit_ms = Vec::new();
    for (name, &model) in names.iter().zip(home_model) {
        let started = Instant::now();
        store.commit(name, hashes[model]).expect("store commit");
        commit_ms.push(secs(started) * 1e3);
    }
    let mut resolve_us = Vec::new();
    let mut get_us = Vec::new();
    for name in &names {
        let started = Instant::now();
        let (_, hash) = store
            .resolve(name)
            .expect("resolve")
            .expect("committed home");
        resolve_us.push(secs(started) * 1e6);
        let started = Instant::now();
        let _ = store.get(hash).expect("store get");
        get_us.push(secs(started) * 1e6);
    }
    let mut hub = Hub::new(HubConfig::builder().workers(1).build());
    let started = Instant::now();
    hub.bulk_load(&store, &names).expect("bulk load");
    hub.drain();
    let bulk_ms = secs(started) * 1e3;
    drop(hub);
    let _ = fs::remove_dir_all(&root);
    m.put("store.put_ms", "ms", median(&put_ms));
    m.put("store.commit_ms", "ms", median(&commit_ms));
    m.put("store.resolve_us", "us", median(&resolve_us));
    m.put("store.get_us", "us", median(&get_us));
    m.put("hub.bulk_load_ms", "ms", bulk_ms);
}
