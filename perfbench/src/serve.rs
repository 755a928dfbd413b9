//! The serving workloads: a warmed hub driven closed-loop for peak rate,
//! then open-loop at a fixed offered rate for latency.
//!
//! One generator thread (this one) feeds a hub with one worker. Every
//! call into the hub is timed from outside: `register`, `submit_batch`,
//! the backpressure wait after a partial acceptance, and `drain`.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use causaliot::serve::{HomeId, Hub, HubConfig, SUBMIT_CHUNK};
use causaliot::FittedModel;
use iot_model::BinaryEvent;

use crate::trace::Tracer;
use crate::util::{rss_mb, secs, StealClock};

/// Events per home per submission in the closed loop.
pub const CLOSED_BATCH: usize = 256;
/// Share of each stream served as warm-up (inside `setup_s`), and the
/// share served closed-loop; the rest is the open-loop phase.
pub const WARM_SHARE: f64 = 0.05;
pub const CLOSED_SHARE: f64 = 0.55;
/// The open-loop generator's tick: events due within one tick are
/// submitted as one batch per home.
pub const TICK: Duration = Duration::from_millis(5);
/// Open-loop ticks per latency window. The steal share is read at every
/// window boundary, so each window's latencies carry the host noise they
/// ran under.
pub const WINDOW_TICKS: u64 = 20;
/// A batch submitted more than this after its due time counts as late.
pub const LATE: Duration = Duration::from_millis(2);
/// Set-ups per serving repetition: each is one `setup_s` sample, and all
/// but the last are dropped again (a durable one with its directory).
pub const SETUP_TRIALS: usize = 3;
/// Jobs a shard queue holds before `submit_batch` pushes back.
pub const QUEUE_CAPACITY: usize = 4096;
/// Longest the generator waits for outstanding open-loop batches.
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the open-loop generator backs off after a partial
/// acceptance. Otherwise it busy-polls: a generator that sleeps between
/// polls leaves its virtual CPU idle, and that CPU's wake-ups (slow and
/// erratic on a shared host) were charged to every batch's latency.
const BACKOFF: Duration = Duration::from_micros(200);

/// The served fleet as the program receives it: one checkpoint file and
/// one delivery-ordered stream per home.
pub struct Fleet {
    pub names: Vec<String>,
    pub checkpoints: Vec<PathBuf>,
    pub streams: Vec<Vec<BinaryEvent>>,
}

impl Fleet {
    /// `(warm-up end, closed-loop end)` index of home `h`'s stream.
    pub fn phase_ends(&self, h: usize) -> (usize, usize) {
        let n = self.streams[h].len();
        let warm = (n as f64 * WARM_SHARE) as usize;
        let closed = (n as f64 * (WARM_SHARE + CLOSED_SHARE)) as usize;
        (warm, closed)
    }
}

/// Where a hub's submissions go; abstracted so the open-loop accounting
/// can be checked against a deliberately slow consumer.
pub trait Target {
    /// Offers `events` for `home`; returns how many leading events were
    /// accepted and how many queue jobs they became.
    fn submit(&mut self, home: usize, events: &[BinaryEvent]) -> (usize, u64);
    /// Jobs accepted but not yet fully processed.
    fn pending_jobs(&self) -> usize;
}

pub struct HubTarget<'a> {
    pub hub: &'a Hub,
    pub ids: &'a [HomeId],
}

impl Target for HubTarget<'_> {
    fn submit(&mut self, home: usize, events: &[BinaryEvent]) -> (usize, u64) {
        let outcome = self
            .hub
            .submit_batch(self.ids[home], events)
            .expect("the benchmark's homes are registered and never quarantined");
        let jobs = outcome.accepted.div_ceil(SUBMIT_CHUNK) as u64;
        (outcome.accepted, jobs)
    }

    fn pending_jobs(&self) -> usize {
        self.hub.queue_depth(0)
    }
}

/// A home's event range `(home, start, end)` due in one tick.
pub type Batch = (usize, usize, usize);

/// The open-loop schedule: for each tick that has work, the per-home
/// event ranges due in it.
pub struct Schedule {
    pub tick_s: f64,
    pub ticks: Vec<(u64, Vec<Batch>)>,
    pub events: usize,
}

/// Replays each home's `[start, end)` range on its own timestamps, scaled
/// so the whole fleet offers `rate` events per second on average: every
/// home's range is stretched over the same wall duration, so activity
/// bursts survive. Disordered deliveries keep their delivery order (due
/// times follow the running maximum timestamp).
pub fn schedule(
    streams: &[Vec<BinaryEvent>],
    ranges: &[(usize, usize)],
    rate: f64,
    tick: Duration,
) -> Schedule {
    let events: usize = ranges.iter().map(|(a, b)| b - a).sum();
    let duration = events as f64 / rate;
    let tick_s = tick.as_secs_f64();
    let mut by_tick: std::collections::BTreeMap<u64, Vec<Batch>> =
        std::collections::BTreeMap::new();
    for (h, &(a, b)) in ranges.iter().enumerate() {
        if a >= b {
            continue;
        }
        let stream = &streams[h][a..b];
        let t0 = stream[0].time.as_millis();
        let t1 = stream
            .iter()
            .map(|e| e.time.as_millis())
            .max()
            .expect("non-empty");
        let span = (t1 - t0).max(1) as f64;
        let mut running = t0;
        let mut run_start = a;
        let mut run_tick = None;
        for (i, e) in stream.iter().enumerate() {
            running = running.max(e.time.as_millis());
            let due = (running - t0) as f64 / span * duration;
            let k = (due / tick_s).ceil() as u64;
            match run_tick {
                Some(current) if current == k => {}
                Some(current) => {
                    by_tick
                        .entry(current)
                        .or_default()
                        .push((h, run_start, a + i));
                    run_start = a + i;
                    run_tick = Some(k);
                }
                None => run_tick = Some(k),
            }
        }
        if let Some(current) = run_tick {
            by_tick.entry(current).or_default().push((h, run_start, b));
        }
    }
    Schedule {
        tick_s,
        ticks: by_tick.into_iter().collect(),
        events,
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct OpenOutcome {
    /// Per batch, in due order: due time to completion, in ms.
    pub lat_ms: Vec<f64>,
    /// Per window of [`WINDOW_TICKS`] ticks: the index in `lat_ms` of its
    /// first batch, and the steal share from its first due time to the
    /// next window's.
    pub window_starts: Vec<usize>,
    pub window_steal: Vec<f64>,
    /// Worst lateness of a batch's submission behind its due time, in ms.
    pub lag_ms_max: f64,
    pub late_batches: u64,
    pub batches: u64,
    pub queue_full_retries: u64,
    pub depth_max: usize,
    pub secs: f64,
}

/// Runs an open-loop schedule against `target`. Each batch is timed from
/// its due time to the moment the target's queue shows it processed
/// (the generator polls the queue without pause between submissions), so
/// a stall charges the wait to every batch behind it; the generator's
/// own lateness is reported separately.
pub fn run_open_loop(
    target: &mut impl Target,
    streams: &[Vec<BinaryEvent>],
    sched: &Schedule,
) -> OpenOutcome {
    let mut out = OpenOutcome::default();
    let mut pending: VecDeque<(f64, u64)> = VecDeque::new();
    let mut submitted_jobs = 0u64;
    let start = Instant::now();
    let late_s = LATE.as_secs_f64();
    let complete = |depth: usize,
                    submitted_jobs: u64,
                    pending: &mut VecDeque<(f64, u64)>,
                    out: &mut OpenOutcome| {
        out.depth_max = out.depth_max.max(depth);
        let done = submitted_jobs - depth as u64;
        let now = secs(start);
        while let Some(&(due, end)) = pending.front() {
            if end > done {
                break;
            }
            out.lat_ms.push((now - due) * 1e3);
            pending.pop_front();
        }
    };
    let mut window: Option<(u64, StealClock)> = None;
    for (k, batches) in &sched.ticks {
        let due = *k as f64 * sched.tick_s;
        loop {
            complete(
                target.pending_jobs(),
                submitted_jobs,
                &mut pending,
                &mut out,
            );
            let wait = due - secs(start);
            if wait <= 0.0 {
                break;
            }
            std::hint::spin_loop();
        }
        let w = k / WINDOW_TICKS;
        if window.as_ref().is_none_or(|(current, _)| *current != w) {
            if let Some((_, clock)) = window.replace((w, StealClock::start())) {
                out.window_steal.push(clock.share());
            }
            out.window_starts.push(out.batches as usize);
        }
        for &(home, a, b) in batches {
            let lag = secs(start) - due;
            out.lag_ms_max = out.lag_ms_max.max(lag * 1e3);
            if lag > late_s {
                out.late_batches += 1;
            }
            let mut off = a;
            while off < b {
                let (accepted, jobs) = target.submit(home, &streams[home][off..b]);
                off += accepted;
                submitted_jobs += jobs;
                if off < b {
                    out.queue_full_retries += 1;
                    complete(
                        target.pending_jobs(),
                        submitted_jobs,
                        &mut pending,
                        &mut out,
                    );
                    std::thread::sleep(BACKOFF);
                }
            }
            out.batches += 1;
            pending.push_back((due, submitted_jobs));
        }
    }
    let waited = Instant::now();
    while !pending.is_empty() {
        complete(
            target.pending_jobs(),
            submitted_jobs,
            &mut pending,
            &mut out,
        );
        assert!(
            waited.elapsed() < COMPLETION_TIMEOUT,
            "open-loop batches never completed"
        );
        std::hint::spin_loop();
    }
    if let Some((_, clock)) = window {
        out.window_steal.push(clock.share());
    }
    out.secs = secs(start);
    out
}

/// Submits all of `events` for one home, retrying on backpressure.
/// Returns the number of partial acceptances (queue-full retries).
fn submit_all(
    hub: &Hub,
    id: HomeId,
    events: &[BinaryEvent],
    tracer: &mut Tracer,
    home: usize,
) -> u64 {
    let mut retries = 0;
    let mut off = 0;
    while off < events.len() {
        let outcome = tracer.time("hub.submit", Some(home as u32), || {
            hub.submit_batch(id, &events[off..])
                .expect("the benchmark's homes are registered and never quarantined")
        });
        off += outcome.accepted;
        if off < events.len() {
            retries += 1;
            tracer.time(
                "hub.backpressure",
                Some(home as u32),
                std::thread::yield_now,
            );
        }
    }
    retries
}

/// What one serving repetition measured.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// One sample per set-up trial.
    pub setup_s: Vec<f64>,
    /// `register` of every home, in the last set-up trial.
    pub register_s: f64,
    pub closed_events: usize,
    pub open_events: usize,
    pub closed_s: f64,
    pub closed_retries: u64,
    pub closed_depth_max: usize,
    pub open: OpenOutcome,
    pub rss_before_mb: f64,
    pub rss_after_mb: f64,
    /// Peak RSS during the repetition: the serving process's and, for
    /// serve_durable, the parent's while it recovers the crash image.
    pub peak_rss_mb: f64,
    /// Recovery times measured right after this repetition.
    pub recover_s: Vec<f64>,
    /// Steal share over the repetition and its recoveries.
    pub steal: f64,
}

/// Loads every home's checkpoint and registers it on a fresh hub.
pub fn boot(config: HubConfig, fleet: &Fleet, tracer: &mut Tracer) -> (Hub, Vec<HomeId>, f64) {
    let models: Vec<FittedModel> = fleet
        .checkpoints
        .iter()
        .enumerate()
        .map(|(h, path)| {
            tracer.time("checkpoint.load", Some(h as u32), || {
                FittedModel::load_from_path(path).expect("the benchmark wrote a valid checkpoint")
            })
        })
        .collect();
    let mut hub = tracer.time("hub.new", None, || Hub::new(config));
    let started = Instant::now();
    let ids = fleet
        .names
        .iter()
        .zip(&models)
        .enumerate()
        .map(|(h, (name, model))| {
            tracer.time("hub.register", Some(h as u32), || hub.register(name, model))
        })
        .collect();
    (hub, ids, secs(started))
}

/// Sets up a warmed hub: boot, then serve every stream's warm-up share
/// and drain. Returns the hub, its home ids and the `register` time.
fn warmed_hub(config: HubConfig, fleet: &Fleet, tracer: &mut Tracer) -> (Hub, Vec<HomeId>, f64) {
    tracer.enter("setup", None);
    let (hub, ids, register_s) = boot(config, fleet, tracer);
    for (h, stream) in fleet.streams.iter().enumerate() {
        let (warm, _) = fleet.phase_ends(h);
        submit_all(&hub, ids[h], &stream[..warm], tracer, h);
    }
    tracer.time("hub.drain", None, || hub.drain());
    tracer.exit();
    (hub, ids, register_s)
}

/// One repetition: set up a warmed hub [`SETUP_TRIALS`] times (each timed
/// as a `setup_s` sample; `config(trial)` gives each trial's config),
/// drive the closed-loop share of every stream on the last one for the
/// peak rate, then the open-loop share at the offered rate. Returns the
/// drained hub.
pub fn serve_rep(
    config: impl Fn(usize) -> HubConfig,
    fleet: &Fleet,
    sched: &Schedule,
    tracer: &mut Tracer,
) -> (Hub, RepOutcome) {
    let mut out = RepOutcome::default();
    for trial in 0..SETUP_TRIALS - 1 {
        let config = config(trial);
        let dir = config.durability.as_ref().map(|d| d.dir.clone());
        let setup = Instant::now();
        let (hub, _, _) = warmed_hub(config, fleet, tracer);
        out.setup_s.push(secs(setup));
        drop(hub);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).expect("remove a set-up trial's durable directory");
        }
    }
    let setup = Instant::now();
    let (hub, ids, register_s) = warmed_hub(config(SETUP_TRIALS - 1), fleet, tracer);
    out.setup_s.push(secs(setup));
    out.register_s = register_s;

    out.rss_before_mb = rss_mb();
    let mut cursor: Vec<usize> = (0..fleet.streams.len())
        .map(|h| fleet.phase_ends(h).0)
        .collect();
    let ends: Vec<usize> = (0..fleet.streams.len())
        .map(|h| fleet.phase_ends(h).1)
        .collect();
    out.closed_events = cursor.iter().zip(&ends).map(|(a, b)| b - a).sum();
    let closed = Instant::now();
    tracer.enter("closed_loop", None);
    let mut live = true;
    while live {
        live = false;
        for (h, stream) in fleet.streams.iter().enumerate() {
            let a = cursor[h];
            let b = (a + CLOSED_BATCH).min(ends[h]);
            if a >= b {
                continue;
            }
            live = true;
            out.closed_retries += submit_all(&hub, ids[h], &stream[a..b], tracer, h);
            cursor[h] = b;
            out.closed_depth_max = out.closed_depth_max.max(hub.queue_depth(0));
        }
    }
    tracer.time("hub.drain", None, || hub.drain());
    tracer.exit();
    out.closed_s = secs(closed);

    out.open_events = sched.events;
    let mut target = HubTarget {
        hub: &hub,
        ids: &ids,
    };
    out.open = tracer.time("open_loop", None, || {
        run_open_loop(&mut target, &fleet.streams, sched)
    });
    tracer.time("hub.drain", None, || hub.drain());
    out.rss_after_mb = rss_mb();
    (hub, out)
}

/// The open-loop ranges of every home (after the closed-loop share).
pub fn open_ranges(fleet: &Fleet) -> Vec<(usize, usize)> {
    (0..fleet.streams.len())
        .map(|h| (fleet.phase_ends(h).1, fleet.streams[h].len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_model::{DeviceId, Timestamp};

    /// A consumer that completes each job a fixed service time after the
    /// previous one, and whose submission itself costs `submit_cost` —
    /// deliberately slower than the schedule's tick.
    struct SlowTarget {
        submit_cost: Duration,
        service: Duration,
        finish_at: VecDeque<Instant>,
    }

    impl Target for SlowTarget {
        fn submit(&mut self, _home: usize, _events: &[BinaryEvent]) -> (usize, u64) {
            std::thread::sleep(self.submit_cost);
            let now = Instant::now();
            let prev = self.finish_at.back().copied().unwrap_or(now).max(now);
            self.finish_at.push_back(prev + self.service);
            (_events.len(), 1)
        }

        fn pending_jobs(&self) -> usize {
            let now = Instant::now();
            self.finish_at.iter().filter(|t| **t > now).count()
        }
    }

    fn stream(n: usize, gap_ms: u64) -> Vec<BinaryEvent> {
        (0..n)
            .map(|i| {
                BinaryEvent::new(
                    Timestamp::from_millis(i as u64 * gap_ms),
                    DeviceId::from_index(0),
                    i % 2 == 0,
                )
            })
            .collect()
    }

    #[test]
    fn schedule_keeps_order_and_offered_rate() {
        let streams = vec![stream(1000, 1000), stream(500, 3000)];
        let sched = schedule(&streams, &[(0, 1000), (100, 500)], 10_000.0, TICK);
        assert_eq!(sched.events, 1400);
        let mut next = [0usize, 100];
        for (_, batches) in &sched.ticks {
            for &(h, a, b) in batches {
                assert_eq!(a, next[h], "ranges are contiguous and in order");
                next[h] = b;
            }
        }
        assert_eq!(next, [1000, 500]);
        let last = sched.ticks.last().unwrap().0 as f64 * sched.tick_s;
        assert!(
            (last - 0.14).abs() <= sched.tick_s,
            "1400 events at 10k/s span 0.14 s"
        );
    }

    #[test]
    fn lateness_is_charged_against_a_slow_consumer() {
        // 40 batches due 10 ms apart; every submission costs 25 ms, so the
        // generator falls further behind at each one.
        let streams = vec![stream(40, 1000)];
        let sched = schedule(&streams, &[(0, 40)], 100.0, TICK);
        assert_eq!(sched.ticks.len(), 40);
        let mut slow = SlowTarget {
            submit_cost: Duration::from_millis(25),
            service: Duration::from_millis(1),
            finish_at: VecDeque::new(),
        };
        let out = run_open_loop(&mut slow, &streams, &sched);
        assert_eq!(out.batches, 40);
        assert_eq!(out.lat_ms.len(), 40);
        // Batch i starts ~15 ms × i behind schedule.
        assert!(
            out.lag_ms_max >= 39.0 * 15.0 * 0.9,
            "lag {}",
            out.lag_ms_max
        );
        assert!(out.late_batches >= 38, "late {}", out.late_batches);
        // Latency runs from the due time, so it includes the lateness.
        let worst = out.lat_ms.iter().copied().fold(0.0, f64::max);
        assert!(worst >= out.lag_ms_max, "{worst} < {}", out.lag_ms_max);

        // The same schedule against a prompt consumer is on time.
        let mut prompt = SlowTarget {
            submit_cost: Duration::ZERO,
            service: Duration::from_micros(100),
            finish_at: VecDeque::new(),
        };
        let on_time = run_open_loop(&mut prompt, &streams, &sched);
        assert!(
            on_time.lag_ms_max < out.lag_ms_max / 10.0,
            "prompt lag {} vs slow {}",
            on_time.lag_ms_max,
            out.lag_ms_max
        );
        assert!(crate::util::median(&on_time.lat_ms) < 20.0);
    }
}
