//! Per-home durable serving state: the on-disk layout, the live-state
//! snapshot document, the verdict journal, and the bookkeeping a shard
//! worker does to keep a home recoverable.
//!
//! With a [`crate::DurabilityConfig`] armed, every home owns a directory
//! `home-<id>/` under the durability root:
//!
//! ```text
//! home-7/
//!   home.meta            the home's registered name
//!   model.ckpt           the serving model (v2 checkpoint format)
//!   state.snap           latest runtime-state snapshot (this module)
//!   verdicts.log         the recorded verdict history (journal, this module)
//!   wal-0000000003.log   the live WAL segment (crate::wal framing)
//! ```
//!
//! The snapshot is a line-oriented document in the checkpoint family:
//! `{:?}`-formatted floats (byte-stable, round-trip exact), a CRC-32
//! footer over everything above it, written atomically
//! (tmp → fsync → rename). It embeds the monitor's runtime-state
//! document verbatim and adds the serving layer's own state: the home's
//! event sequence number, the next WAL epoch, the drift detector's
//! window, and one `verdicts <count> <bytes>` line naming how much of the
//! verdict journal it covers. Together with the model checkpoint, that
//! journal prefix and the WAL tail, that is everything `Hub::recover`
//! needs to resume a home with bit-identical verdicts.
//!
//! The verdict journal is append-only and framed exactly like the WAL
//! (`[u32 len][u32 crc32][payload]`): each record's payload is a kind
//! byte (`3`), a verdict count and that many verdicts in little-endian
//! binary, floats as `f64::to_bits`. A rotation appends only the
//! verdicts scored since the previous snapshot, so snapshot and recovery
//! cost follow the events since the last snapshot, not the age of the
//! home. The journal is created at the home's first rotation that has
//! verdicts to append; registration does not touch it.
//!
//! Snapshots are only ever taken at event boundaries, and a successful
//! snapshot rotates the WAL in crash-safe order: the old segment is
//! sealed, the new verdicts are appended to the journal and fsynced, the
//! snapshot (recording the next epoch and the new journal prefix) is
//! published, a fresh segment opens, and older segments are deleted —
//! the WAL tail never grows past one snapshot interval. A crash between
//! any two steps leaves the previous snapshot in charge: it names a
//! shorter journal prefix and an older epoch whose segments are still on
//! disk, so replay regenerates whatever the journal holds past that
//! prefix, and recovery truncates those surplus bytes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::str::{FromStr, SplitWhitespace};
use std::time::Instant;

use causaliot_core::graph::LaggedVar;
use causaliot_core::persist::{
    append_crc_footer, crc32, find_crc_footer, write_atomic, CRC_FOOTER_PREFIX,
};
use causaliot_core::{Alarm, AlarmKind, AnomalousEvent, Verdict};
use iot_model::{BinaryEvent, DeviceId, SystemState, Timestamp};

use crate::config::DurabilityPolicy;
use crate::error::RecoveryError;
use crate::hub::HomeId;
use crate::wal::{
    encode_record, parse_segment_epoch, read_frame, segment_file_name, Frame, SegmentWriter, FRAME,
    MAX_PAYLOAD,
};

/// First line of every hub snapshot document.
const MAGIC: &str = "causaliot-hub-snapshot v2";
/// What every hub snapshot magic starts with, whatever its version.
const MAGIC_FAMILY: &str = "causaliot-hub-snapshot ";
/// The home's registered name.
pub(crate) const META_FILE: &str = "home.meta";
/// The serving model, in the core checkpoint format.
pub(crate) const MODEL_FILE: &str = "model.ckpt";
/// The latest live-state snapshot.
pub(crate) const SNAP_FILE: &str = "state.snap";
/// The append-only verdict journal.
const JOURNAL_FILE: &str = "verdicts.log";

/// Payload kind of a journal record: distinct from the WAL's event and
/// seal kinds, so neither file's records decode as the other's.
const KIND_VERDICTS: u8 = 3;
/// A journal record's payload header: kind byte + verdict count.
const JOURNAL_HEADER: usize = 1 + 4;

/// The directory holding `home`'s durable state under `root`.
pub(crate) fn home_dir(root: &Path, home: usize) -> PathBuf {
    root.join(format!("home-{home}"))
}

/// Parses a [`home_dir`]-shaped directory name back to its home id.
pub(crate) fn parse_home_dir(name: &str) -> Option<usize> {
    let digits = name.strip_prefix("home-")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every `home-<id>` directory under `root`, sorted by home id.
pub(crate) fn list_home_dirs(root: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    let mut homes = Vec::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        if let Some(id) = entry.file_name().to_str().and_then(parse_home_dir) {
            homes.push((id, entry.path()));
        }
    }
    homes.sort_unstable_by_key(|(id, _)| *id);
    Ok(homes)
}

/// Every WAL segment in `dir`, sorted by epoch.
pub(crate) fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(epoch) = entry.file_name().to_str().and_then(parse_segment_epoch) {
            segments.push((epoch, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(epoch, _)| *epoch);
    Ok(segments)
}

/// The live state a snapshot captures, borrowed from the home's slot
/// (or from a home being recovered).
pub(crate) struct LiveState<'a> {
    /// The home's event sequence number (events scored so far).
    pub(crate) seq: u64,
    /// The monitor's runtime-state document.
    pub(crate) monitor_doc: &'a str,
    /// The whole recorded verdict history, or `None` when the hub does
    /// not record verdicts.
    pub(crate) verdicts: Option<&'a [Verdict]>,
    /// Drift-detector state, when adaptation is armed.
    pub(crate) drift: Option<DriftParts<'a>>,
}

/// Publishes a snapshot of `live` recording `next_epoch`: appends the
/// verdicts the journal does not hold yet (fsynced), then writes
/// `state.snap` with its CRC footer atomically, naming the new journal
/// prefix. The snapshot never names journal bytes that are not durable.
pub(crate) fn publish_snapshot(
    dir: &Path,
    journal: &mut VerdictJournal,
    next_epoch: u64,
    live: &LiveState<'_>,
) -> io::Result<()> {
    let mark = live
        .verdicts
        .map(|history| journal.append_since_mark(history))
        .transpose()?;
    let mut doc = render_snapshot(
        live.seq,
        next_epoch,
        live.monitor_doc,
        mark,
        live.drift.as_ref(),
    );
    append_crc_footer(&mut doc);
    write_atomic(&dir.join(SNAP_FILE), doc.as_bytes())
}

/// One home's open durability state, owned by its shard worker's
/// `HomeSlot`: the live WAL segment, the verdict journal, plus the
/// sync/snapshot cadence bookkeeping. All I/O errors bubble up to the
/// worker, which disarms durability for the home rather than stall or
/// poison scoring.
pub(crate) struct DurableHome {
    dir: PathBuf,
    writer: SegmentWriter,
    journal: VerdictJournal,
    epoch: u64,
    policy: DurabilityPolicy,
    snapshot_every: u64,
    events_since_sync: u64,
    last_sync: Instant,
    events_since_snapshot: u64,
    /// Appends not yet fsynced.
    dirty: bool,
}

impl DurableHome {
    /// Creates a fresh durable home: the directory, its `home.meta`, and
    /// WAL segment 0. The model checkpoint is the caller's job (it owns
    /// the `FittedModel`); the verdict journal waits for the first
    /// rotation.
    pub(crate) fn create(
        dir: PathBuf,
        name: &str,
        policy: DurabilityPolicy,
        snapshot_every: u64,
    ) -> io::Result<DurableHome> {
        fs::create_dir_all(&dir)?;
        write_atomic(&dir.join(META_FILE), format!("{name}\n").as_bytes())?;
        let journal = VerdictJournal::at(&dir, JournalMark::default());
        Self::open_at(dir, 0, journal, policy, snapshot_every)
    }

    /// Opens a durable home at an existing directory with a fresh WAL
    /// segment at `epoch` — the recovery path, after the post-recovery
    /// snapshot has recorded `epoch` as the next to replay and `journal`
    /// as the verdict prefix it covers.
    pub(crate) fn open_at(
        dir: PathBuf,
        epoch: u64,
        journal: VerdictJournal,
        policy: DurabilityPolicy,
        snapshot_every: u64,
    ) -> io::Result<DurableHome> {
        let writer = SegmentWriter::create(dir.join(segment_file_name(epoch)))?;
        Ok(DurableHome {
            dir,
            writer,
            journal,
            epoch,
            policy,
            snapshot_every,
            events_since_sync: 0,
            last_sync: Instant::now(),
            events_since_snapshot: 0,
            dirty: false,
        })
    }

    /// Where the home's model checkpoint lives.
    pub(crate) fn model_path(&self) -> PathBuf {
        self.dir.join(MODEL_FILE)
    }

    /// Appends scored events to the live segment (no fsync — that is
    /// [`DurableHome::sync_if_due`]'s job at the job boundary).
    pub(crate) fn append(&mut self, events: &[BinaryEvent]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        self.writer.append_events(events)?;
        self.events_since_sync += events.len() as u64;
        self.events_since_snapshot += events.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Applies the durability policy's group-commit rule at a job
    /// boundary; returns whether an fsync ran.
    pub(crate) fn sync_if_due(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        let due = match self.policy {
            // An armed home is never `Off`, but fsyncing is the safe
            // answer if one ever is.
            DurabilityPolicy::Off | DurabilityPolicy::Strict => true,
            DurabilityPolicy::Interval { events, max_delay } => {
                self.events_since_sync >= events || self.last_sync.elapsed() >= max_delay
            }
        };
        if !due {
            return Ok(false);
        }
        self.writer.sync()?;
        self.events_since_sync = 0;
        self.last_sync = Instant::now();
        self.dirty = false;
        Ok(true)
    }

    /// Unconditional fsync of the live segment; returns whether one ran.
    /// The shutdown path for a poisoned home, whose monitor state cannot
    /// be snapshotted — its appended events still become durable.
    pub(crate) fn sync_now(&mut self) -> io::Result<bool> {
        if !self.dirty {
            return Ok(false);
        }
        self.writer.sync()?;
        self.events_since_sync = 0;
        self.last_sync = Instant::now();
        self.dirty = false;
        Ok(true)
    }

    /// Whether the snapshot cadence says it is time to rotate.
    pub(crate) fn needs_snapshot(&self) -> bool {
        self.events_since_snapshot >= self.snapshot_every
    }

    /// Rotates the WAL under a snapshot of `live`: seals the live
    /// segment, appends the new verdicts to the journal, atomically
    /// publishes the snapshot, opens the next segment, and deletes the
    /// segments the snapshot supersedes. If this fails partway the
    /// on-disk state is still recoverable — the previous snapshot plus
    /// the sealed segments replay to the same point, and the journal
    /// bytes past the previous snapshot's prefix are truncated.
    pub(crate) fn rotate(&mut self, live: &LiveState<'_>) -> io::Result<()> {
        self.writer.seal()?;
        publish_snapshot(&self.dir, &mut self.journal, self.epoch + 1, live)?;
        self.epoch += 1;
        self.writer = SegmentWriter::create(self.dir.join(segment_file_name(self.epoch)))?;
        self.events_since_sync = 0;
        self.last_sync = Instant::now();
        self.events_since_snapshot = 0;
        self.dirty = false;
        for (epoch, path) in list_segments(&self.dir)? {
            if epoch < self.epoch {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }
}

/// How much of a home's verdict journal a snapshot covers: its first
/// `count` verdicts, held in its first `bytes` bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct JournalMark {
    pub(crate) count: u64,
    pub(crate) bytes: u64,
}

/// The append side of a home's verdict journal. The file is opened (and
/// created) at the first append, truncated to the mark so a write always
/// lands exactly where the latest snapshot's prefix ends. The encode
/// buffer lives only for one append, so an idle home holds no copy of
/// its last delta.
pub(crate) struct VerdictJournal {
    path: PathBuf,
    file: Option<File>,
    mark: JournalMark,
}

impl VerdictJournal {
    /// The journal in `dir`, whose durable prefix is `mark`. No I/O.
    pub(crate) fn at(dir: &Path, mark: JournalMark) -> VerdictJournal {
        VerdictJournal {
            path: dir.join(JOURNAL_FILE),
            file: None,
            mark,
        }
    }

    /// Appends the verdicts of `history` past the mark, fsyncs them, and
    /// returns the new mark. Nothing new means no I/O at all. The
    /// directory entry of a freshly created journal becomes durable with
    /// the snapshot that first names it (its atomic write fsyncs the
    /// directory).
    pub(crate) fn append_since_mark(&mut self, history: &[Verdict]) -> io::Result<JournalMark> {
        let delta = usize::try_from(self.mark.count)
            .ok()
            .and_then(|count| history.get(count..))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "verdict history is shorter than the journal",
                )
            })?;
        if delta.is_empty() {
            return Ok(self.mark);
        }
        let mut buf = Vec::new();
        encode_journal(delta, &mut buf)?;
        let file = match &mut self.file {
            Some(file) => file,
            none => {
                let file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?;
                file.set_len(self.mark.bytes)?;
                none.insert(file)
            }
        };
        file.write_all(&buf)?;
        file.sync_all()?;
        self.mark = JournalMark {
            count: self.mark.count + delta.len() as u64,
            bytes: self.mark.bytes + buf.len() as u64,
        };
        Ok(self.mark)
    }
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

/// Writes a length or index as `u32`, refusing one that does not fit
/// rather than journaling a truncated value under a valid CRC.
fn put_u32(out: &mut Vec<u8>, n: usize) -> io::Result<()> {
    let n = u32::try_from(n)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "verdict field exceeds u32"))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn encode_verdict(v: &Verdict, out: &mut Vec<u8>) -> io::Result<()> {
    put_f64(out, v.score);
    out.push(v.exceeds_threshold as u8);
    put_f64(out, v.confidence);
    put_u32(out, v.alarms.len())?;
    for alarm in &v.alarms {
        out.push(matches!(alarm.kind, AlarmKind::Collective) as u8);
        out.push(alarm.ended_by_abrupt as u8);
        put_u32(out, alarm.events.len())?;
        for ev in &alarm.events {
            out.extend_from_slice(&ev.ordinal.to_le_bytes());
            out.extend_from_slice(&ev.event.time.as_millis().to_le_bytes());
            put_u32(out, ev.event.device.index())?;
            out.push(ev.event.value as u8);
            put_f64(out, ev.score);
            put_u32(out, ev.cause_values.len())?;
            for (var, value) in &ev.cause_values {
                put_u32(out, var.device.index())?;
                put_u32(out, var.lag)?;
                out.push(*value as u8);
            }
        }
    }
    Ok(())
}

/// Appends `verdicts` to `out` as framed journal records, as many
/// verdicts per record as fit under the WAL's payload cap.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] when one verdict alone exceeds the cap.
fn encode_journal(verdicts: &[Verdict], out: &mut Vec<u8>) -> io::Result<()> {
    let cap = MAX_PAYLOAD as usize;
    let mut payload = vec![KIND_VERDICTS, 0, 0, 0, 0];
    let mut one = Vec::new();
    let mut count = 0u32;
    let mut flush = |payload: &mut Vec<u8>, count: u32| {
        payload[1..JOURNAL_HEADER].copy_from_slice(&count.to_le_bytes());
        encode_record(payload, out);
        payload.truncate(JOURNAL_HEADER);
    };
    for v in verdicts {
        one.clear();
        encode_verdict(v, &mut one)?;
        if JOURNAL_HEADER + one.len() > cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "verdict too large for one journal record",
            ));
        }
        if payload.len() + one.len() > cap {
            flush(&mut payload, count);
            count = 0;
        }
        payload.extend_from_slice(&one);
        count += 1;
    }
    if count > 0 {
        flush(&mut payload, count);
    }
    Ok(())
}

/// A cursor over one journal record's payload.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], &'static str> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or("record ends inside a verdict")?;
        self.0 = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, &'static str> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, &'static str> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, &'static str> {
        self.u64().map(f64::from_bits)
    }

    fn flag(&mut self) -> Result<bool, &'static str> {
        match self.take::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("flag byte is neither 0 nor 1"),
        }
    }

    /// A count that claims at most one `min_size`-byte item per byte
    /// left, so a damaged count cannot drive a huge allocation.
    fn count(&mut self, min_size: usize) -> Result<usize, &'static str> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_size {
            return Err("count exceeds the record");
        }
        Ok(n)
    }
}

/// Smallest encodings, for [`Reader::count`]'s plausibility bound.
const VERDICT_MIN: usize = 8 + 1 + 8 + 4;
const ALARM_MIN: usize = 1 + 1 + 4;
const EVENT_MIN: usize = 8 + 8 + 4 + 1 + 8 + 4;
const CAUSE_SIZE: usize = 4 + 4 + 1;

fn decode_verdict(r: &mut Reader<'_>) -> Result<Verdict, &'static str> {
    let score = r.f64()?;
    let exceeds_threshold = r.flag()?;
    let confidence = r.f64()?;
    let nalarms = r.count(ALARM_MIN)?;
    let mut alarms = Vec::with_capacity(nalarms);
    for _ in 0..nalarms {
        let kind = if r.flag()? {
            AlarmKind::Collective
        } else {
            AlarmKind::Contextual
        };
        let ended_by_abrupt = r.flag()?;
        let nevents = r.count(EVENT_MIN)?;
        let mut events = Vec::with_capacity(nevents);
        for _ in 0..nevents {
            let ordinal = r.u64()?;
            let millis = r.u64()?;
            let device = r.u32()? as usize;
            let value = r.flag()?;
            let score = r.f64()?;
            let ncauses = r.count(CAUSE_SIZE)?;
            let mut cause_values = Vec::with_capacity(ncauses);
            for _ in 0..ncauses {
                let device = r.u32()? as usize;
                let lag = r.u32()? as usize;
                let value = r.flag()?;
                cause_values.push((LaggedVar::new(DeviceId::from_index(device), lag), value));
            }
            events.push(AnomalousEvent {
                ordinal,
                event: BinaryEvent::new(
                    Timestamp::from_millis(millis),
                    DeviceId::from_index(device),
                    value,
                ),
                cause_values,
                score,
            });
        }
        alarms.push(Alarm {
            kind,
            events,
            ended_by_abrupt,
        });
    }
    Ok(Verdict {
        score,
        exceeds_threshold,
        alarms,
        confidence,
    })
}

/// Decodes a journal prefix — every byte of it must belong to a whole,
/// verified record — appending its verdicts to `out`. On failure returns
/// the byte offset of the first record it could not trust and why.
fn decode_journal(bytes: &[u8], out: &mut Vec<Verdict>) -> Result<(), (u64, String)> {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let fail = |why: &str| (pos as u64, why.to_string());
        let payload = match read_frame(&bytes[pos..]) {
            Frame::Record(payload) => payload,
            Frame::Torn => return Err(fail("record runs past the prefix the snapshot names")),
            Frame::Bad(cause) => return Err(fail(&cause.to_string())),
        };
        let mut r = Reader(payload);
        if r.take::<1>().map_err(fail)?[0] != KIND_VERDICTS {
            return Err(fail("unknown record kind"));
        }
        let count = r.count(VERDICT_MIN).map_err(fail)?;
        if count == 0 {
            return Err(fail("empty verdict record"));
        }
        for _ in 0..count {
            out.push(decode_verdict(&mut r).map_err(fail)?);
        }
        if !r.0.is_empty() {
            return Err(fail("trailing bytes after the record's verdicts"));
        }
        pos += FRAME + payload.len();
    }
    Ok(())
}

/// Reads the verdict history a snapshot names: exactly the journal
/// prefix `mark`, verified record by record, and fail-closed — a missing
/// or short journal, a damaged record inside the prefix, or a verdict
/// count that disagrees is [`RecoveryError::Corrupt`] naming the journal
/// and the byte offset. Bytes past the prefix (left by a rotation that
/// died before its snapshot landed; the WAL replay regenerates those
/// verdicts) are not read, and are truncated away.
pub(crate) fn read_journal(dir: &Path, mark: JournalMark) -> Result<Vec<Verdict>, RecoveryError> {
    let path = dir.join(JOURNAL_FILE);
    let corrupt = |detail: String| RecoveryError::Corrupt {
        file: path.clone(),
        detail,
    };
    let (mut file, len) = match File::open(&path) {
        Ok(file) => {
            let len = file.metadata()?.len();
            (Some(file), len)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound && mark.bytes > 0 => {
            return Err(corrupt(format!(
                "offset 0: journal is missing, but the snapshot names {} bytes of it",
                mark.bytes
            )));
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => (None, 0),
        Err(e) => return Err(e.into()),
    };
    if len < mark.bytes {
        return Err(corrupt(format!(
            "offset {len}: journal ends here, but the snapshot names {} bytes",
            mark.bytes
        )));
    }
    // `len` bounds the allocation: the prefix fits in the file.
    let size = usize::try_from(mark.bytes).map_err(|_| {
        corrupt(format!(
            "offset 0: {} bytes do not fit in memory",
            mark.bytes
        ))
    })?;
    let mut prefix = vec![0u8; size];
    if let Some(file) = file.as_mut() {
        file.read_exact(&mut prefix)?;
    }
    // A verified snapshot's count sizes the history exactly (bounded by
    // what the prefix can hold, so a wrong count cannot over-allocate).
    let capacity = usize::try_from(mark.count).map_or(0, |n| n.min(prefix.len() / VERDICT_MIN));
    let mut verdicts = Vec::with_capacity(capacity);
    decode_journal(&prefix, &mut verdicts)
        .map_err(|(offset, why)| corrupt(format!("offset {offset}: {why}")))?;
    if verdicts.len() as u64 != mark.count {
        return Err(corrupt(format!(
            "offset {}: the prefix holds {} verdicts, but the snapshot names {}",
            mark.bytes,
            verdicts.len(),
            mark.count
        )));
    }
    if len > mark.bytes {
        OpenOptions::new()
            .write(true)
            .open(&path)?
            .set_len(mark.bytes)?;
    }
    Ok(verdicts)
}

/// The serving-layer state a worker restores into a freshly registered
/// slot when a home is recovered (or, for a fresh registration with
/// durability armed, just the open [`DurableHome`]).
pub(crate) struct ResumeState {
    /// The home's event sequence number (events scored so far).
    pub(crate) seq: u64,
    /// The recorded verdict history (empty unless
    /// [`crate::HubConfig::record_verdicts`] is on).
    pub(crate) verdicts: Vec<Verdict>,
    /// Drift-detector state to restore, when adaptation is armed.
    pub(crate) drift: Option<DriftResume>,
    /// The home's open durability handle.
    pub(crate) durable: DurableHome,
}

/// Drift-detector runtime state carried through recovery.
#[derive(Debug)]
pub(crate) struct DriftResume {
    pub(crate) samples: Vec<(DeviceId, bool, f64)>,
    pub(crate) since_check: usize,
    pub(crate) events_seen: u64,
    pub(crate) window: Vec<BinaryEvent>,
    pub(crate) base_state: SystemState,
}

/// Borrowed drift state for snapshot rendering.
pub(crate) struct DriftParts<'a> {
    pub(crate) since_check: usize,
    pub(crate) events_seen: u64,
    pub(crate) samples: Vec<(DeviceId, bool, f64)>,
    pub(crate) window: &'a [BinaryEvent],
    pub(crate) base_state: &'a SystemState,
}

/// A parsed snapshot document.
#[derive(Debug)]
pub(crate) struct SnapshotDoc {
    pub(crate) seq: u64,
    pub(crate) next_epoch: u64,
    /// The embedded monitor runtime-state document, verbatim.
    pub(crate) monitor_doc: String,
    /// The journal prefix holding the verdict history; `Some` exactly
    /// when the snapshot was taken with verdicts recorded.
    pub(crate) verdicts: Option<JournalMark>,
    pub(crate) drift: Option<DriftResume>,
}

/// Why a snapshot document was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SnapshotError {
    /// An intact hub snapshot in a format version this build does not
    /// read; carries the document's magic line.
    UnsupportedVersion(String),
    /// A damaged or malformed document.
    Malformed(String),
}

/// Renders the snapshot document (sans CRC footer — the writer appends
/// it so the rendered body is also the parse input in tests).
pub(crate) fn render_snapshot(
    seq: u64,
    next_epoch: u64,
    monitor_doc: &str,
    verdicts: Option<JournalMark>,
    drift: Option<&DriftParts<'_>>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(monitor_doc.len() + 256);
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "seq {seq}");
    let _ = writeln!(out, "wal.next_epoch {next_epoch}");
    out.push_str("monitor\n");
    out.push_str(monitor_doc);
    if !monitor_doc.ends_with('\n') {
        out.push('\n');
    }
    if let Some(mark) = verdicts {
        let _ = writeln!(out, "verdicts {} {}", mark.count, mark.bytes);
    }
    match drift {
        None => out.push_str("drift 0\n"),
        Some(d) => {
            out.push_str("drift 1\n");
            let _ = writeln!(
                out,
                "drift.meta {} {} {} {}",
                d.since_check,
                d.events_seen,
                d.samples.len(),
                d.window.len()
            );
            for (device, exceeded, ll) in &d.samples {
                let _ = writeln!(
                    out,
                    "drift.s {} {} {:?}",
                    device.index(),
                    *exceeded as u8,
                    ll
                );
            }
            for event in d.window {
                let _ = writeln!(
                    out,
                    "drift.w {} {} {}",
                    event.time.as_millis(),
                    event.device.index(),
                    event.value as u8
                );
            }
            out.push_str("drift.base ");
            for &bit in d.base_state.values() {
                out.push(if bit { '1' } else { '0' });
            }
            out.push('\n');
        }
    }
    out.push_str("end\n");
    out
}

fn snap_err(line: usize, reason: impl Into<String>) -> String {
    format!("line {line}: {}", reason.into())
}

fn field<T: FromStr>(parts: &mut SplitWhitespace, line: usize, what: &str) -> Result<T, String> {
    parts
        .next()
        .ok_or_else(|| snap_err(line, format!("missing {what}")))?
        .parse()
        .map_err(|_| snap_err(line, format!("unparseable {what}")))
}

fn bool01(parts: &mut SplitWhitespace, line: usize, what: &str) -> Result<bool, String> {
    match field::<u8>(parts, line, what)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(snap_err(line, format!("{what} must be 0 or 1"))),
    }
}

/// Parses and verifies a snapshot document (body + CRC footer, as read
/// from disk). Fail-closed: any mismatch is an error, never a partial
/// restore. An intact document whose magic names another version of the
/// format is [`SnapshotError::UnsupportedVersion`].
pub(crate) fn parse_snapshot(text: &str) -> Result<SnapshotDoc, SnapshotError> {
    let Some(pos) = find_crc_footer(text) else {
        return Err(SnapshotError::Malformed("missing crc32 footer".into()));
    };
    let footer = text[pos..].trim_end();
    let want = footer
        .strip_prefix(CRC_FOOTER_PREFIX)
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| SnapshotError::Malformed("unparseable crc32 footer".into()))?;
    let got = crc32(&text.as_bytes()[..pos]);
    if got != want {
        return Err(SnapshotError::Malformed(format!(
            "crc32 mismatch: footer {want:08x}, content {got:08x}"
        )));
    }
    let lines: Vec<&str> = text[..pos].lines().collect();
    match lines.first() {
        Some(&magic) if magic == MAGIC => {}
        Some(&magic) if magic.starts_with(MAGIC_FAMILY) => {
            return Err(SnapshotError::UnsupportedVersion(magic.to_string()))
        }
        _ => return Err(SnapshotError::Malformed(snap_err(1, "bad magic"))),
    }
    parse_body(&lines).map_err(SnapshotError::Malformed)
}

/// Parses the lines after a verified snapshot's magic line.
fn parse_body(lines: &[&str]) -> Result<SnapshotDoc, String> {
    let mut i = 1usize;
    let take = |i: &mut usize, what: &str| -> Result<&str, String> {
        let line = lines
            .get(*i)
            .ok_or_else(|| snap_err(*i + 1, format!("missing {what}")))?;
        *i += 1;
        Ok(line)
    };

    let line = take(&mut i, "seq")?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("seq") {
        return Err(snap_err(i, "expected seq"));
    }
    let seq: u64 = field(&mut parts, i, "seq")?;

    let line = take(&mut i, "wal.next_epoch")?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("wal.next_epoch") {
        return Err(snap_err(i, "expected wal.next_epoch"));
    }
    let next_epoch: u64 = field(&mut parts, i, "wal.next_epoch")?;

    if take(&mut i, "monitor")? != "monitor" {
        return Err(snap_err(i, "expected monitor"));
    }
    // The embedded runtime-state document runs through its own `end`
    // line (its grammar guarantees exactly one).
    let start = i;
    while i < lines.len() && lines[i] != "end" {
        i += 1;
    }
    if i == lines.len() {
        return Err(snap_err(start + 1, "embedded monitor document has no end"));
    }
    i += 1; // past the runtime doc's `end`
    let mut monitor_doc = lines[start..i].join("\n");
    monitor_doc.push('\n');

    let mut verdicts = None;
    if lines.get(i).is_some_and(|l| l.starts_with("verdicts ")) {
        let line = take(&mut i, "verdicts")?;
        let mut parts = line.split_whitespace();
        parts.next();
        verdicts = Some(JournalMark {
            count: field(&mut parts, i, "verdict count")?,
            bytes: field(&mut parts, i, "journal bytes")?,
        });
    }

    let line = take(&mut i, "drift")?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("drift") {
        return Err(snap_err(i, "expected drift"));
    }
    let drift = if bool01(&mut parts, i, "drift flag")? {
        let line = take(&mut i, "drift.meta")?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("drift.meta") {
            return Err(snap_err(i, "expected drift.meta"));
        }
        let since_check: usize = field(&mut parts, i, "since_check")?;
        let events_seen: u64 = field(&mut parts, i, "events_seen")?;
        let nsamples: usize = field(&mut parts, i, "sample count")?;
        let nwindow: usize = field(&mut parts, i, "window count")?;
        let mut samples = Vec::with_capacity(nsamples.min(1 << 20));
        for _ in 0..nsamples {
            let line = take(&mut i, "drift sample")?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("drift.s") {
                return Err(snap_err(i, "expected drift.s"));
            }
            let device: usize = field(&mut parts, i, "sample device")?;
            let exceeded = bool01(&mut parts, i, "sample exceeded")?;
            let ll: f64 = field(&mut parts, i, "sample ll")?;
            samples.push((DeviceId::from_index(device), exceeded, ll));
        }
        let mut window = Vec::with_capacity(nwindow.min(1 << 20));
        for _ in 0..nwindow {
            let line = take(&mut i, "drift window event")?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some("drift.w") {
                return Err(snap_err(i, "expected drift.w"));
            }
            let millis: u64 = field(&mut parts, i, "window timestamp")?;
            let device: usize = field(&mut parts, i, "window device")?;
            let value = bool01(&mut parts, i, "window value")?;
            window.push(BinaryEvent::new(
                Timestamp::from_millis(millis),
                DeviceId::from_index(device),
                value,
            ));
        }
        let line = take(&mut i, "drift.base")?;
        let bits = line
            .strip_prefix("drift.base ")
            .ok_or_else(|| snap_err(i, "expected drift.base"))?;
        let mut base = Vec::with_capacity(bits.len());
        for b in bits.bytes() {
            match b {
                b'0' => base.push(false),
                b'1' => base.push(true),
                _ => return Err(snap_err(i, "drift.base bits must be 0 or 1")),
            }
        }
        Some(DriftResume {
            samples,
            since_check,
            events_seen,
            window,
            base_state: SystemState::from_values(base),
        })
    } else {
        None
    };

    if take(&mut i, "end")? != "end" {
        return Err(snap_err(i, "expected end"));
    }
    if i != lines.len() {
        return Err(snap_err(i + 1, "trailing data after end"));
    }
    Ok(SnapshotDoc {
        seq,
        next_epoch,
        monitor_doc,
        verdicts,
        drift,
    })
}

/// One recovered home, as reported by [`crate::Hub::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct HomeRecovery {
    /// The home's id (stable across crash and recovery: ids are assigned
    /// in directory order, which is registration order).
    pub home: HomeId,
    /// The home's registered name.
    pub name: String,
    /// Whether a live-state snapshot was found and restored (a home that
    /// never reached its first snapshot replays from the model alone).
    pub snapshot_loaded: bool,
    /// Events the home had durably scored before the crash — the
    /// snapshot's coverage plus the replayed WAL tail. A client that
    /// numbered its submissions resumes from exactly this offset.
    pub durable_events: u64,
    /// Events replayed from the WAL tail (the part of `durable_events`
    /// not covered by the snapshot).
    pub replayed_events: u64,
    /// Sealed (snapshot-superseded but not yet deleted) segments that
    /// were skipped or replayed during recovery.
    pub sealed_segments: usize,
    /// Byte offset of a torn (partially written) final record discarded
    /// from the last segment, if the crash left one.
    pub torn_tail: Option<u64>,
}

/// What [`crate::Hub::recover`] rebuilt, home by home.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Every recovered home, sorted by id.
    pub homes: Vec<HomeRecovery>,
}

impl RecoveryReport {
    /// Total events replayed from WAL tails across all homes.
    pub fn total_replayed(&self) -> u64 {
        self.homes.iter().map(|h| h.replayed_events).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurabilityConfig, Hub, HubConfig};

    fn event(i: u64) -> BinaryEvent {
        BinaryEvent::new(
            Timestamp::from_millis(500 + i * 13),
            DeviceId::from_index((i % 2) as usize),
            i.is_multiple_of(3),
        )
    }

    fn sample_verdicts() -> Vec<Verdict> {
        vec![
            Verdict {
                score: 0.125,
                exceeds_threshold: false,
                alarms: Vec::new(),
                confidence: 1.0,
            },
            Verdict {
                score: f64::NAN,
                exceeds_threshold: true,
                confidence: 0.5,
                alarms: vec![Alarm {
                    kind: AlarmKind::Collective,
                    ended_by_abrupt: true,
                    events: vec![AnomalousEvent {
                        ordinal: 41,
                        event: event(7),
                        cause_values: vec![
                            (LaggedVar::new(DeviceId::from_index(1), 2), true),
                            (LaggedVar::new(DeviceId::from_index(0), 0), false),
                        ],
                        score: 0.987_654_321,
                    }],
                }],
            },
            Verdict {
                score: f64::NEG_INFINITY,
                exceeds_threshold: true,
                confidence: 0.0,
                alarms: vec![
                    Alarm {
                        kind: AlarmKind::Contextual,
                        ended_by_abrupt: false,
                        events: vec![AnomalousEvent {
                            ordinal: 42,
                            event: event(8),
                            cause_values: vec![(LaggedVar::new(DeviceId::from_index(0), 1), true)],
                            score: f64::NEG_INFINITY,
                        }],
                    },
                    Alarm {
                        kind: AlarmKind::Collective,
                        ended_by_abrupt: false,
                        events: Vec::new(),
                    },
                ],
            },
        ]
    }

    /// The journal encoding of `verdicts`: equal bytes are bit-identical
    /// verdicts, NaN scores included (`NaN != NaN` defeats `==`).
    fn journal_bytes(verdicts: &[Verdict]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_journal(verdicts, &mut out).unwrap();
        out
    }

    const MONITOR_DOC: &str = "causaliot-runtime v1\nstats 0 0 0 0\nend\n";

    #[test]
    fn snapshot_round_trips_every_section() {
        let base = SystemState::from_values(vec![true, false, true]);
        let window = vec![event(1), event(2)];
        let drift = DriftParts {
            since_check: 7,
            events_seen: 1234,
            samples: vec![
                (DeviceId::from_index(0), true, -0.5),
                (DeviceId::from_index(1), false, f64::NEG_INFINITY),
            ],
            window: &window,
            base_state: &base,
        };
        let mark = JournalMark {
            count: 3,
            bytes: 177,
        };
        let mut doc = render_snapshot(42, 3, MONITOR_DOC, Some(mark), Some(&drift));
        append_crc_footer(&mut doc);
        let parsed = parse_snapshot(&doc).unwrap();
        assert_eq!(parsed.seq, 42);
        assert_eq!(parsed.next_epoch, 3);
        assert_eq!(parsed.monitor_doc, MONITOR_DOC);
        assert_eq!(parsed.verdicts, Some(mark));
        let drift = parsed.drift.unwrap();
        assert_eq!(drift.since_check, 7);
        assert_eq!(drift.events_seen, 1234);
        assert_eq!(drift.samples.len(), 2);
        assert_eq!(drift.samples[1].2, f64::NEG_INFINITY);
        assert_eq!(drift.window, window);
        assert_eq!(drift.base_state.values(), &[true, false, true]);
    }

    #[test]
    fn minimal_snapshot_round_trips() {
        let mut doc = render_snapshot(0, 1, MONITOR_DOC, None, None);
        append_crc_footer(&mut doc);
        let parsed = parse_snapshot(&doc).unwrap();
        assert_eq!(parsed.seq, 0);
        assert_eq!(parsed.next_epoch, 1);
        assert!(parsed.verdicts.is_none());
        assert!(parsed.drift.is_none());
    }

    fn malformed(text: &str) -> String {
        match parse_snapshot(text) {
            Err(SnapshotError::Malformed(detail)) => detail,
            other => panic!("expected a malformed snapshot, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshots_fail_closed() {
        let mark = JournalMark {
            count: 2,
            bytes: 99,
        };
        let mut doc = render_snapshot(9, 2, MONITOR_DOC, Some(mark), None);
        append_crc_footer(&mut doc);

        // Flip one content byte: the footer must catch it.
        let mut bytes = doc.clone().into_bytes();
        bytes[MAGIC.len() + 5] ^= 1;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(malformed(&flipped).contains("crc32"));

        // Drop the footer entirely.
        let body = &doc[..find_crc_footer(&doc).unwrap()];
        assert!(malformed(body).contains("footer"));

        // Structural damage with a *recomputed* footer still fails: the
        // parser itself is the last line of defence.
        let mut truncated = body
            .lines()
            .take_while(|l| *l != "drift 0")
            .collect::<Vec<_>>()
            .join("\n");
        truncated.push('\n');
        append_crc_footer(&mut truncated);
        assert!(malformed(&truncated).contains("drift"));

        // A journal line missing its byte count.
        let mut short = body.replace("verdicts 2 99", "verdicts 2");
        append_crc_footer(&mut short);
        assert!(malformed(&short).contains("journal bytes"));
    }

    #[test]
    fn v1_snapshot_fails_closed_as_unsupported_version() {
        // An intact v1 document (verdict history inline) is refused by
        // version, not misread or reported as damage.
        let mut v1 = String::from("causaliot-hub-snapshot v1\nseq 1\nwal.next_epoch 1\nmonitor\n");
        v1.push_str(MONITOR_DOC);
        v1.push_str("verdicts 1\nv 0.5 0 1.0 0\ndrift 0\nend\n");
        append_crc_footer(&mut v1);
        assert_eq!(
            parse_snapshot(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion("causaliot-hub-snapshot v1".into())
        );
        // Another document family altogether is damage, not a version.
        let mut alien = String::from("causaliot-runtime v1\nend\n");
        append_crc_footer(&mut alien);
        assert!(malformed(&alien).contains("magic"));
    }

    #[test]
    fn journal_round_trip_is_bit_exact() {
        let verdicts = sample_verdicts();
        let bytes = journal_bytes(&verdicts);
        let mut got = Vec::new();
        decode_journal(&bytes, &mut got).unwrap();
        assert_eq!(got.len(), verdicts.len());
        for (a, b) in got.iter().zip(&verdicts) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
        assert!(got[1].score.is_nan());
        assert_eq!(got[2].score, f64::NEG_INFINITY);
        // Alarms keep their kind, flags, events and cause lists.
        assert_eq!(got[1].alarms, verdicts[1].alarms);
        assert_eq!(got[2].alarms, verdicts[2].alarms);
        assert_eq!(got[1].alarms[0].events[0].cause_values.len(), 2);
        assert_eq!(journal_bytes(&got), bytes);
        // A small delta is one record.
        assert!(matches!(read_frame(&bytes), Frame::Record(p) if p.len() + FRAME == bytes.len()));
    }

    #[test]
    fn journal_delta_larger_than_max_payload_spans_several_records() {
        let plain = |i: u64| Verdict {
            score: i as f64 * 0.25,
            exceeds_threshold: i.is_multiple_of(7),
            alarms: Vec::new(),
            confidence: 1.0,
        };
        let mut verdicts: Vec<Verdict> = (0..60_000).map(plain).collect();
        verdicts[31_000] = sample_verdicts().swap_remove(1);
        let bytes = journal_bytes(&verdicts);
        assert!(bytes.len() > MAX_PAYLOAD as usize);
        let mut records = 0;
        let mut pos = 0;
        while pos < bytes.len() {
            let Frame::Record(payload) = read_frame(&bytes[pos..]) else {
                panic!("bad frame at {pos}");
            };
            assert!(payload.len() <= MAX_PAYLOAD as usize);
            records += 1;
            pos += FRAME + payload.len();
        }
        assert!(records >= 2, "{records} record(s)");
        let mut got = Vec::new();
        decode_journal(&bytes, &mut got).unwrap();
        assert_eq!(got.len(), verdicts.len());
        assert_eq!(journal_bytes(&got), bytes);
    }

    #[test]
    fn home_dir_names_round_trip() {
        assert_eq!(parse_home_dir("home-0"), Some(0));
        assert_eq!(parse_home_dir("home-17"), Some(17));
        assert_eq!(parse_home_dir("home-"), None);
        assert_eq!(parse_home_dir("house-1"), None);
        assert_eq!(parse_home_dir("home-x1"), None);
    }

    /// A fresh scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir()
                .join(format!("iot-serve-durable-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn durable_home_rotates_and_prunes_segments() {
        let scratch = Scratch::new("rotate");
        let dir = scratch.0.join("home-0");
        let policy = DurabilityPolicy::Interval {
            events: 4,
            max_delay: std::time::Duration::from_secs(3600),
        };
        let mut home = DurableHome::create(dir.clone(), "kitchen", policy, 8).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join(META_FILE)).unwrap(),
            "kitchen\n"
        );
        // Registration leaves the journal for the first rotation.
        assert!(!dir.join(JOURNAL_FILE).exists());
        let events: Vec<BinaryEvent> = (0..8).map(event).collect();
        home.append(&events[..3]).unwrap();
        assert!(!home.sync_if_due().unwrap());
        home.append(&events[3..8]).unwrap();
        assert!(home.sync_if_due().unwrap());
        assert!(home.needs_snapshot());
        let verdicts = sample_verdicts();
        let live = |n| LiveState {
            seq: 8,
            monitor_doc: MONITOR_DOC,
            verdicts: Some(&verdicts[..n]),
            drift: None,
        };
        home.rotate(&live(2)).unwrap();
        assert!(!home.needs_snapshot());
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1, "old segment pruned");
        assert_eq!(segments[0].0, 1);
        let snap = |dir: &Path| parse_snapshot(&fs::read_to_string(dir.join(SNAP_FILE)).unwrap());
        let doc = snap(&dir).unwrap();
        assert_eq!(doc.next_epoch, 1);
        let first = doc.verdicts.unwrap();
        assert_eq!(first.count, 2);
        assert_eq!(
            first.bytes,
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len()
        );

        // The next rotation appends only the new verdict.
        home.rotate(&live(3)).unwrap();
        let mark = snap(&dir).unwrap().verdicts.unwrap();
        assert_eq!(mark.count, 3);
        assert_eq!(
            mark.bytes - first.bytes,
            journal_bytes(&verdicts[2..]).len() as u64
        );
        let got = read_journal(&dir, mark).unwrap();
        assert_eq!(journal_bytes(&got), journal_bytes(&verdicts));
    }

    // --- Hub-level crash points ----------------------------------------

    /// The shared two-device test model and a stream of `n` events for
    /// it, with some anomalies (lamp flips without presence).
    fn model_and_stream(n: u64) -> (causaliot_core::FittedModel, Vec<BinaryEvent>) {
        let (reg, model) = crate::hub::tests::fitted_model();
        let pe = reg.id_of("PE_room").unwrap();
        let lamp = reg.id_of("S_lamp").unwrap();
        let events = (0..n)
            .map(|i| {
                let dev = if i % 3 == 0 || i % 11 == 5 { lamp } else { pe };
                BinaryEvent::new(Timestamp::from_secs(200_000 + i * 30), dev, i % 2 == 0)
            })
            .collect();
        (model, events)
    }

    fn durable_config(dir: &Path, snapshot_every: u64) -> HubConfig {
        let mut durability = DurabilityConfig::at(dir);
        durability.snapshot_every = snapshot_every;
        HubConfig::builder()
            .workers(1)
            .durability(durability)
            .try_build()
            .unwrap()
    }

    /// Copies a durability root the way a kill -9 leaves it: every byte
    /// the live hub has written, whatever its fsync state.
    fn crash_image(root: &Path, image: &Path) {
        for (id, dir) in list_home_dirs(root).unwrap() {
            let to = home_dir(image, id);
            fs::create_dir_all(&to).unwrap();
            for entry in fs::read_dir(dir).unwrap() {
                let entry = entry.unwrap();
                fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
            }
        }
    }

    /// Serves `batches` to one durable home, draining after each, and
    /// returns the uninterrupted verdict stream plus a crash image taken
    /// after the last batch.
    fn serve_and_crash(
        scratch: &Scratch,
        model: &causaliot_core::FittedModel,
        every: u64,
        batches: &[&[BinaryEvent]],
    ) -> Vec<Verdict> {
        let live = scratch.0.join("live");
        let mut hub = Hub::new(durable_config(&live, every));
        let home = hub.register("kitchen", model);
        for batch in batches {
            assert!(hub.submit_batch(home, batch).unwrap().is_complete());
            hub.drain();
        }
        crash_image(&live, &scratch.0.join("image"));
        hub.shutdown().remove(0).verdicts
    }

    fn recover_image(
        scratch: &Scratch,
        every: u64,
    ) -> Result<(Hub, crate::RecoveryReport), RecoveryError> {
        Hub::recover(durable_config(&scratch.0.join("image"), every))
    }

    #[test]
    fn crash_after_journal_fsync_before_snapshot_rename_recovers_bit_identically() {
        let scratch = Scratch::new("surplus");
        let (model, events) = model_and_stream(30);
        let expected = serve_and_crash(&scratch, &model, 16, &[&events[..20], &events[20..]]);
        let dir = home_dir(&scratch.0.join("image"), 0);
        let before = parse_snapshot(&fs::read_to_string(dir.join(SNAP_FILE)).unwrap())
            .unwrap()
            .verdicts
            .unwrap();
        assert_eq!(before.count, 20);
        // Replay the dying rotation's first two steps on the image: seal
        // the live segment, then append and fsync the delta's verdicts.
        // The rename that would have published the snapshot never ran.
        let (epoch, segment) = list_segments(&dir).unwrap().pop().unwrap();
        let tail = crate::wal::replay_segment(&segment).unwrap().events;
        assert_eq!(tail, events[20..]);
        let mut writer = SegmentWriter::create(&segment).unwrap();
        writer.append_events(&tail).unwrap();
        writer.seal().unwrap();
        let surplus = journal_bytes(&expected[20..]);
        let mut journal = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        journal.write_all(&surplus).unwrap();
        journal.sync_all().unwrap();
        drop(journal);

        let (hub, report) = recover_image(&scratch, 16).unwrap();
        assert_eq!(report.homes[0].durable_events, 30);
        assert_eq!(report.homes[0].replayed_events, 10);
        assert_eq!(report.homes[0].sealed_segments, 1);
        // The surplus was truncated and the replayed verdicts appended in
        // its place: the journal is exactly what the new snapshot names.
        let after = parse_snapshot(&fs::read_to_string(dir.join(SNAP_FILE)).unwrap()).unwrap();
        let mark = after.verdicts.unwrap();
        assert_eq!(after.next_epoch, epoch + 1);
        assert_eq!(mark.count, 30);
        assert_eq!(mark.bytes, before.bytes + surplus.len() as u64);
        assert_eq!(
            fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(),
            mark.bytes
        );
        let got = hub.shutdown().remove(0).verdicts;
        assert_eq!(journal_bytes(&got), journal_bytes(&expected));
    }

    #[test]
    fn journal_shorter_than_the_snapshot_fails_closed_with_the_offset() {
        let scratch = Scratch::new("short");
        let (model, events) = model_and_stream(40);
        serve_and_crash(&scratch, &model, 16, &[&events[..20], &events[20..]]);
        let path = home_dir(&scratch.0.join("image"), 0).join(JOURNAL_FILE);
        let len = fs::metadata(&path).unwrap().len();
        let cut = len - 3;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();
        match recover_image(&scratch, 16) {
            Err(RecoveryError::Corrupt { file, detail }) => {
                assert_eq!(file, path);
                assert!(detail.contains(&format!("offset {cut}")), "{detail}");
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("recovered from a short journal"),
        }
    }

    #[test]
    fn missing_journal_fails_closed() {
        let scratch = Scratch::new("missing");
        let (model, events) = model_and_stream(20);
        serve_and_crash(&scratch, &model, 16, &[&events]);
        let path = home_dir(&scratch.0.join("image"), 0).join(JOURNAL_FILE);
        fs::remove_file(&path).unwrap();
        match recover_image(&scratch, 16) {
            Err(RecoveryError::Corrupt { file, detail }) => {
                assert_eq!(file, path);
                assert!(detail.contains("missing"), "{detail}");
            }
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("recovered without the journal"),
        }
    }

    #[test]
    fn snapshot_size_stays_flat_across_rotations() {
        let scratch = Scratch::new("flat");
        let every = 32u64;
        let (model, events) = model_and_stream(8 * every);
        let live = scratch.0.join("live");
        let mut hub = Hub::new(durable_config(&live, every));
        let home = hub.register("kitchen", &model);
        let dir = home_dir(&live, 0);
        let size = |name| fs::metadata(dir.join(name)).unwrap().len();
        let mut sizes = Vec::new();
        for batch in events.chunks(every as usize) {
            assert!(hub.submit_batch(home, batch).unwrap().is_complete());
            hub.drain();
            sizes.push((size(SNAP_FILE), size(JOURNAL_FILE)));
        }
        crash_image(&live, &scratch.0.join("image"));
        let expected = hub.shutdown().remove(0).verdicts;
        // The snapshot no longer carries the history: after the 8th
        // rotation it is within a few digits of its size after the 1st,
        // while the journal grew with every rotation.
        let (snap1, journal1) = sizes[0];
        let (snap8, journal8) = sizes[7];
        assert!(
            expected.iter().any(|v| !v.alarms.is_empty()),
            "stream raises alarms"
        );
        assert!(
            snap8 <= snap1 + 64,
            "state.snap grew from {snap1} to {snap8} bytes"
        );
        assert!(
            journal8 >= 7 * journal1,
            "journal {journal1} -> {journal8} bytes"
        );
        assert!(sizes.windows(2).all(|w| w[1].1 > w[0].1));

        let (hub, report) = recover_image(&scratch, every).unwrap();
        assert_eq!(report.homes[0].durable_events, 8 * every);
        assert_eq!(report.homes[0].replayed_events, 0);
        let got = hub.shutdown().remove(0).verdicts;
        assert_eq!(got.len(), expected.len());
        assert_eq!(journal_bytes(&got), journal_bytes(&expected));
    }
}
