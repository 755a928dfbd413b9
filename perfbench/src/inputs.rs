//! Workload inputs, generated from the workload seed before anything is
//! timed. The program under test only ever sees what this module builds.

use std::collections::HashSet;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::time::Duration;

use causaliot::graph::UnseenContext;
use causaliot::{CausalIot, FittedModel};
use iot_model::{BinaryEvent, DeviceId, EventLog, SystemState, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use testbed::inject::{
    corrupt_stream, inject_collective, inject_contextual, ChaosCounts, ChaosSpec, CollectiveCase,
    ContextualCase,
};
use testbed::{
    casas_profile, contextact_profile, generate_rules, inject_automation, simulate, HomeProfile,
    Rule, SimConfig,
};

use crate::util::derive_seed;

/// How big each workload's inputs are. `full` is the benchmark; `tiny`
/// exists for the self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Distinct fitted homes the serving fleet is drawn from.
    pub sites: usize,
    /// Homes served.
    pub homes: usize,
    /// In-order events per served home before anomalies are injected:
    /// `events_min` plus a share of `events_span` that grows with the
    /// home's index. Fixed lengths put every home's snapshot points in
    /// the same phase of a repetition (see `serve_durable`), and the
    /// stagger keeps the fleet from snapshotting in lock-step.
    pub events_min: usize,
    pub events_span: usize,
    /// Homes onboarded per fit pass.
    pub fit_homes: usize,
}

impl Size {
    pub fn full() -> Self {
        Size {
            sites: 16,
            homes: 192,
            events_min: 6_950,
            events_span: 1_000,
            fit_homes: 160,
        }
    }

    pub fn tiny() -> Self {
        Size {
            sites: 2,
            homes: 4,
            events_min: 1_500,
            events_span: 200,
            fit_homes: 12,
        }
    }
}

/// Training trace length for every fitted home, in simulated days, and
/// the share of it used for training (the rest is held out).
const TRAIN_DAYS: f64 = 21.0;
const TRAIN_FRACTION: f64 = 0.8;
/// Automation rules injected per home.
const RULES: usize = 12;
/// Injected contextual anomalies per event of the stream, and injected
/// collective chains per event.
const CONTEXTUAL_RATE: f64 = 0.01;
const CHAIN_RATE: f64 = 0.002;
/// Longest tracked chain for serving monitors (and injected chains).
pub const SERVE_K_MAX: usize = 3;

/// Which testbed profile a home follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ContextAct,
    Casas,
}

impl Kind {
    pub fn profile(self) -> HomeProfile {
        match self {
            Kind::ContextAct => contextact_profile(),
            Kind::Casas => casas_profile(),
        }
    }
}

/// One simulated home's raw training log with automation rules injected.
pub struct RawHome {
    pub kind: Kind,
    pub profile: HomeProfile,
    pub rules: Vec<Rule>,
    pub train_log: EventLog,
    pub test_log: EventLog,
}

/// Simulates `days` of a `kind` home with its own automation rules.
pub fn raw_home(kind: Kind, days: f64, seed: u64) -> RawHome {
    let profile = kind.profile();
    let sim = simulate(
        &profile,
        &SimConfig {
            days,
            seed,
            ..SimConfig::default()
        },
    );
    let rules = generate_rules(&profile, RULES, derive_seed(seed, 1));
    let automation = inject_automation(&profile, &sim.log, &rules, derive_seed(seed, 2));
    let (train_log, test_log) = automation.log.split_at_fraction(TRAIN_FRACTION);
    RawHome {
        kind,
        profile,
        rules,
        train_log,
        test_log,
    }
}

/// The detector configuration the serving fleet's sites are fitted with:
/// the paper's parameters (τ = 2, α = 0.001, q = 99) with a held-out
/// calibration tail, and k-sequence tracking up to [`SERVE_K_MAX`].
pub fn serve_detector() -> CausalIot {
    CausalIot::builder()
        .tau(2)
        .alpha(0.001)
        .q(99.0)
        .k_max(SERVE_K_MAX)
        .unseen(UnseenContext::MaxAnomaly)
        .calibration_fraction(0.25)
        .build()
}

/// Binarises a raw log through a fitted model's preprocessor, dropping
/// extreme readings and state no-ops, starting from the model's
/// end-of-training state.
pub fn binarize(model: &FittedModel, log: &EventLog) -> Vec<BinaryEvent> {
    let pre = model.preprocessor().expect("fitted on a raw log");
    let mut state = model.final_train_state().clone();
    let mut out = Vec::with_capacity(log.len() / 4);
    for event in log {
        if pre.sanitizer().is_extreme(event) {
            continue;
        }
        let bin = pre.binarize_event(event);
        if state.get(bin.device) != bin.value {
            state.set(bin.device, bin.value);
            out.push(bin);
        }
    }
    out
}

/// A binary stream with injected anomalies and their positions.
pub struct Injected {
    pub events: Vec<BinaryEvent>,
    /// Positions of every injected anomalous event (contextual and
    /// collective-chain members).
    pub anomalous: HashSet<usize>,
}

/// Pieces a stream is cut into for injection. The testbed's position
/// sampler keeps the first `count` of `3 × count` sorted draws, which
/// packs a stream's injections into its first third; injecting piece by
/// piece spreads them over the whole stream.
const INJECT_PIECES: usize = 16;

/// Injects contextual anomalies and then collective chains into `clean`,
/// piece by piece, carrying the device state across pieces.
pub fn inject(
    profile: &HomeProfile,
    rules: &[Rule],
    clean: &[BinaryEvent],
    initial: &SystemState,
    chains: bool,
    seed: u64,
) -> Injected {
    let mut out = Injected {
        events: Vec::with_capacity(clean.len() * 103 / 100),
        anomalous: HashSet::new(),
    };
    let mut state = initial.clone();
    let n = clean.len();
    for p in 0..INJECT_PIECES {
        let piece = &clean[n * p / INJECT_PIECES..n * (p + 1) / INJECT_PIECES];
        if piece.is_empty() {
            continue;
        }
        let part = inject_piece(
            profile,
            rules,
            piece,
            &state,
            chains,
            derive_seed(seed, 10 + p as u64),
        );
        let offset = out.events.len();
        out.anomalous
            .extend(part.anomalous.iter().map(|i| i + offset));
        for e in &part.events {
            state.set(e.device, e.value);
        }
        out.events.extend(part.events);
    }
    out
}

/// Injects contextual anomalies and then collective chains into one piece.
fn inject_piece(
    profile: &HomeProfile,
    rules: &[Rule],
    clean: &[BinaryEvent],
    initial: &SystemState,
    chains: bool,
    seed: u64,
) -> Injected {
    // CASAS-profile homes have no actuators to ghost-operate.
    let has_switch = profile
        .registry()
        .iter()
        .any(|d| d.attribute() == iot_model::Attribute::Switch);
    let case = if has_switch && seed % 2 == 1 {
        ContextualCase::RemoteControl
    } else {
        ContextualCase::BurglarIntrusion
    };
    let count = ((clean.len() as f64 * CONTEXTUAL_RATE) as usize).max(1);
    let ctx = inject_contextual(profile, clean, initial, case, count, derive_seed(seed, 3));
    if !chains {
        return Injected {
            events: ctx.events,
            anomalous: ctx.injected_positions,
        };
    }
    let num_chains = ((ctx.events.len() as f64 * CHAIN_RATE) as usize).max(1);
    let coll = inject_collective(
        profile,
        &ctx.events,
        initial,
        CollectiveCase::BurglarWandering,
        num_chains,
        SERVE_K_MAX,
        rules,
        derive_seed(seed, 4),
    );
    // Chain events are inserted, so earlier positions shift: output
    // positions outside every chain map in order onto input positions.
    let in_chain: HashSet<usize> = coll
        .chains
        .iter()
        .flat_map(|c| c.positions.clone())
        .collect();
    let mut anomalous = in_chain.clone();
    let mut input_pos = 0usize;
    for out_pos in 0..coll.events.len() {
        if in_chain.contains(&out_pos) {
            continue;
        }
        if ctx.injected_positions.contains(&input_pos) {
            anomalous.insert(out_pos);
        }
        input_pos += 1;
    }
    Injected {
        events: coll.events,
        anomalous,
    }
}

/// A distinct fitted home the serving fleet is drawn from.
pub struct Site {
    pub raw: RawHome,
    pub model: FittedModel,
}

/// One served home.
pub struct ServeHome {
    pub name: String,
    pub site: usize,
    /// The in-order stream with injected anomalies.
    pub clean: Vec<BinaryEvent>,
    pub anomalous: HashSet<usize>,
    /// `clean` disordered by `corrupt_stream` (in-window swaps,
    /// stragglers, clock regressions, unknown devices).
    pub chaotic: Vec<BinaryEvent>,
    pub expected_dead: ChaosCounts,
}

pub struct ServeInputs {
    pub sites: Vec<Site>,
    pub homes: Vec<ServeHome>,
    pub chaos: ChaosSpec,
}

/// The disorder injected into serve_fleet's streams, scaled to a stream
/// of `len` events. The ingest guard is armed with the same window and
/// skew.
fn chaos_spec(len: usize) -> ChaosSpec {
    ChaosSpec {
        swaps: len / 100,
        stragglers: len / 2000 + 1,
        regressions: len / 2000 + 1,
        unknown_devices: len / 2000 + 1,
        reorder_window: Duration::from_secs(30),
        max_skew: Duration::from_secs(300),
    }
}

/// Site `i`'s profile: ContextAct for even sites, CASAS for odd.
fn site_kind(i: usize) -> Kind {
    if i.is_multiple_of(2) {
        Kind::ContextAct
    } else {
        Kind::Casas
    }
}

/// Builds the serving fleet: `size.sites` fitted homes, then
/// `size.homes` served homes, each with its own simulated stream from its
/// site's profile and rules, binarised by the site's model, with injected
/// anomalies and a chaotic copy. Uses two threads.
pub fn serve_inputs(seed: u64, size: &Size) -> ServeInputs {
    let sites: Vec<Site> = parallel_map(size.sites, |i| {
        let raw = raw_home(site_kind(i), TRAIN_DAYS, derive_seed(seed, 100 + i as u64));
        let model = serve_detector()
            .fit(raw.profile.registry(), &raw.train_log)
            .expect("a 21-day trace is enough to fit");
        Site { raw, model }
    });
    let homes = parallel_map(size.homes, |h| {
        let site_idx = h % sites.len();
        let site = &sites[site_idx];
        let home_seed = derive_seed(seed, 10_000 + h as u64);
        // Simulated days per stream event (ContextAct-profile homes log
        // ~280 state changes a day, CASAS-profile ones ~145), with margin.
        let days_per_event = match site.raw.kind {
            Kind::ContextAct => 1.0 / 200.0,
            Kind::Casas => 1.0 / 100.0,
        };
        let events = size.events_min + size.events_span * h / size.homes;
        let days = events as f64 * days_per_event;
        let profile = &site.raw.profile;
        let sim = simulate(
            profile,
            &SimConfig {
                days,
                seed: home_seed,
                ..SimConfig::default()
            },
        );
        let automation = inject_automation(
            profile,
            &sim.log,
            &site.raw.rules,
            derive_seed(home_seed, 2),
        );
        let mut clean = binarize(&site.model, &automation.log);
        assert!(
            clean.len() >= events,
            "{days} simulated days gave {} events, fewer than {events}",
            clean.len()
        );
        clean.truncate(events);
        let injected = inject(
            profile,
            &site.raw.rules,
            &clean,
            site.model.final_train_state(),
            true,
            home_seed,
        );
        let spec = chaos_spec(injected.events.len());
        let mut rng = StdRng::seed_from_u64(derive_seed(home_seed, 5));
        let chaos = corrupt_stream(&injected.events, site.model.num_devices(), &spec, &mut rng);
        ServeHome {
            name: format!("home-{h:04}"),
            site: site_idx,
            clean: injected.events,
            anomalous: injected.anomalous,
            chaotic: chaos.events,
            expected_dead: chaos.expected_dead,
        }
    });
    ServeInputs {
        sites,
        homes,
        chaos: chaos_spec(0),
    }
}

/// One home to onboard in fit_fleet.
pub struct FitHome {
    pub name: String,
    pub raw: RawHome,
    pub seed: u64,
}

/// fit_fleet's homes: three ContextAct-profile homes for every CASAS one,
/// each with its own seed, rules, and 21-day trace.
pub fn fit_inputs(seed: u64, homes: usize) -> Vec<FitHome> {
    parallel_map(homes, |h| {
        let kind = if h % 4 == 3 {
            Kind::Casas
        } else {
            Kind::ContextAct
        };
        let home_seed = derive_seed(seed, 50_000 + h as u64);
        FitHome {
            name: format!("fit-{h:04}"),
            raw: raw_home(kind, TRAIN_DAYS, home_seed),
            seed: home_seed,
        }
    })
}

/// `f(0..n)` on two threads, results in index order.
pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(move || (0..n).skip(1).step_by(2).map(f).collect::<Vec<T>>());
        let even: Vec<T> = (0..n).step_by(2).map(f).collect();
        (even, odd.join().expect("input generation thread panicked"))
    });
    let mut out = Vec::with_capacity(n);
    let mut even = even.into_iter();
    let mut odd = odd.into_iter();
    for i in 0..n {
        out.push(if i % 2 == 0 { even.next() } else { odd.next() }.expect("one result per index"));
    }
    out
}

/// Writes per-home event streams as `[u32 count]` then 13-byte records
/// (`millis u64`, `device u32`, `value u8`), all little-endian.
pub fn write_streams(path: &Path, streams: &[&[BinaryEvent]]) -> io::Result<()> {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut buf = Vec::with_capacity(4 + streams.len() * 4 + total * 13);
    buf.extend_from_slice(&(streams.len() as u32).to_le_bytes());
    for stream in streams {
        buf.extend_from_slice(&(stream.len() as u32).to_le_bytes());
        for e in *stream {
            buf.extend_from_slice(&e.time.as_millis().to_le_bytes());
            buf.extend_from_slice(&(e.device.index() as u32).to_le_bytes());
            buf.push(u8::from(e.value));
        }
    }
    fs::File::create(path)?.write_all(&buf)
}

/// Reads what [`write_streams`] wrote.
pub fn read_streams(path: &Path) -> io::Result<Vec<Vec<BinaryEvent>>> {
    let mut buf = Vec::new();
    fs::File::open(path)?.read_to_end(&mut buf)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "truncated stream file");
    let mut at = 0usize;
    let mut take = |n: usize| -> io::Result<&[u8]> {
        let s = buf.get(at..at + n).ok_or_else(bad)?;
        at += n;
        Ok(s)
    };
    let u32_of = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    let homes = u32_of(take(4)?) as usize;
    let mut out = Vec::with_capacity(homes);
    for _ in 0..homes {
        let len = u32_of(take(4)?) as usize;
        let mut stream = Vec::with_capacity(len);
        for _ in 0..len {
            let rec = take(13)?;
            let millis = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let device = u32_of(&rec[8..12]) as usize;
            stream.push(BinaryEvent::new(
                Timestamp::from_millis(millis),
                DeviceId::from_index(device),
                rec[12] != 0,
            ));
        }
        out.push(stream);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_streams_round_trip() {
        let a = serve_inputs(7, &Size::tiny());
        let b = serve_inputs(7, &Size::tiny());
        assert_eq!(a.homes.len(), 4);
        for (x, y) in a.homes.iter().zip(&b.homes) {
            assert_eq!(x.chaotic, y.chaotic);
            assert_eq!(x.anomalous, y.anomalous);
            assert!(!x.anomalous.is_empty());
        }
        let dir = Path::new(".bench_out").join(format!("unit-streams-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streams.bin");
        let streams: Vec<&[BinaryEvent]> = a.homes.iter().map(|h| h.clean.as_slice()).collect();
        write_streams(&path, &streams).unwrap();
        let back = read_streams(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        for (x, y) in a.homes.iter().zip(&back) {
            assert_eq!(&x.clean, y);
        }
    }
}
