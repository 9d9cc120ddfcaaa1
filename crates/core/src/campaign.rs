//! Content-addressed campaign store: cached, resumable, streaming
//! sweeps.
//!
//! A *campaign* is a grid of independent simulation runs — the load ×
//! routing × traffic sweeps behind every figure, plus fault and
//! workload sweeps. Each cell is keyed by a [`CampaignKey`]: an FNV-1a
//! hash over a canonical description of **everything** the result
//! depends on (topology parameters, channel latencies, failed links,
//! routing choice, traffic choice, the full `SimConfig` including seed
//! and windows, the fault plan, and the code revision). Because every
//! run of the engine is a pure function of that description, a key that
//! matches means the stored result is bit-identical to what a fresh
//! simulation would produce.
//!
//! Results persist in an append-only JSON-lines journal
//! (`journal.jsonl`) inside the store directory, written by the
//! workspace's one [`JsonWriter`] and read back with its
//! [`scan_json_string`]. Completed cells stream to the journal the
//! moment they finish — a campaign killed mid-grid keeps everything it
//! already computed. Crash safety:
//!
//! * the journal is append-only and each entry is one line; a torn
//!   tail line (the process died mid-`write`) is detected on open and
//!   truncated away, sacrificing at most the one in-flight result;
//! * the journal is the only record — the in-memory index is rebuilt
//!   from a full journal scan on every open, and a leftover `index.json`
//!   from an older build is ignored;
//! * each append is `flush`ed, not `fsync`ed: a process crash loses at
//!   most the in-flight line, a power cut may lose whatever the OS had
//!   not yet written back.
//!
//! Collision safety does not rest on the 64-bit hash alone: the full
//! canonical string is stored with every entry and compared on lookup,
//! so two configurations that collide in the hash can never satisfy
//! each other's lookups.
//!
//! Results are encoded with a hand-rolled token codec (the workspace
//! builds offline and depends on no serialisation crate); `f64` fields are
//! stored as the 16-hex-digit image of [`f64::to_bits`], so decoded
//! results are bit-identical to the originals — which the determinism
//! tests assert at every shard count.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dfly_netsim::json::{scan_json_string, JsonWriter};
use dfly_netsim::{
    ChannelClass, ChannelLoad, ChannelSeries, EstimatorScoreboard, FlitTrace, Histogram,
    LatencySummary, LogHistogram, RouteTelemetry, RunStats, SimError, TimeSeries, TraceEvent,
    TraceEventKind,
};

use crate::experiment::NetworkSim;
use crate::jobs::JobError;
use crate::network::NetTopology;
use crate::parallel::{CachedCell, FaultPoint, RunCell, RunPlan, WorkloadPoint};
use crate::Dragonfly;

/// Version tag prefixed to every canonical key string. Bump it whenever
/// the canonical encoding or the result codec changes shape: old
/// journal entries then simply never match.
const FORMAT_VERSION: &str = "dfly-campaign-v2";

/// Journal file name inside the store directory.
const JOURNAL_FILE: &str = "journal.jsonl";

/// Advisory per-cell timing sidecar inside the store directory. Wall
/// clock is non-deterministic, so timings never enter the journal:
/// they only seed progress ETAs.
const TIMINGS_FILE: &str = "timings.jsonl";

/// 64-bit FNV-1a over `bytes` — small, dependency-free, and stable
/// across platforms and releases.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content-address of one campaign cell: the FNV-1a hash of its
/// canonical description plus the description itself. Lookups match on
/// **both**, so a hash collision between different configurations can
/// never produce a wrong cache hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignKey {
    /// FNV-1a hash of `canon` — the journal's index key.
    pub hash: u64,
    /// The full canonical description the hash was computed from.
    pub canon: String,
}

impl CampaignKey {
    /// Keys the given canonical description.
    pub fn from_canon(canon: String) -> Self {
        CampaignKey {
            hash: fnv1a(canon.as_bytes()),
            canon,
        }
    }
}

/// Why a campaign operation failed.
#[derive(Debug)]
pub enum CampaignError {
    /// The store directory or journal could not be read or written.
    Io(io::Error),
    /// The journal held an entry that parsed as JSON but not as a
    /// result payload.
    Corrupt(String),
    /// A cache miss re-simulated and the simulation rejected its
    /// configuration.
    Sim(SimError),
    /// A cache miss re-ran a workload point and the job mix could not
    /// be validated or placed.
    Job(JobError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign store I/O error: {e}"),
            CampaignError::Corrupt(msg) => write!(f, "campaign journal corrupt: {msg}"),
            CampaignError::Sim(e) => write!(f, "campaign simulation error: {e}"),
            CampaignError::Job(e) => write!(f, "campaign workload error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            CampaignError::Sim(e) => Some(e),
            CampaignError::Job(e) => Some(e),
            CampaignError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl From<SimError> for CampaignError {
    fn from(e: SimError) -> Self {
        CampaignError::Sim(e)
    }
}

impl From<JobError> for CampaignError {
    fn from(e: JobError) -> Self {
        CampaignError::Job(e)
    }
}

impl From<std::convert::Infallible> for CampaignError {
    fn from(e: std::convert::Infallible) -> Self {
        match e {}
    }
}

/// Hit/miss tally of one cached sweep execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Cells answered from the store without simulating.
    pub hits: usize,
    /// Cells simulated (and streamed to the journal).
    pub misses: usize,
}

impl CampaignReport {
    /// Total cells the sweep covered.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }
}

/// One decoded journal entry: a result of some `kind` under its full
/// canonical key.
struct JournalEntry {
    kind: String,
    canon: String,
    payload: String,
}

struct StoreInner {
    /// Hash → entries (usually one; more only under a hash collision).
    map: HashMap<u64, Vec<JournalEntry>>,
    /// Append handle on the journal.
    journal: File,
    /// Total entries held (across all hashes).
    entries: usize,
}

/// The on-disk campaign store: an append-only journal of completed
/// results plus an in-memory index keyed by [`CampaignKey`].
///
/// One store serves a whole process: lookups and inserts are
/// internally locked, so sweep workers on any number of threads can
/// stream results concurrently. Two *processes* should not append to
/// the same journal at once; the intended topology is one store
/// directory per campaign host (the default `target/campaign`).
pub struct CampaignStore {
    dir: PathBuf,
    revision: String,
    inner: Mutex<StoreInner>,
}

impl CampaignStore {
    /// Opens (creating if absent) the store in `dir`, recovering the
    /// journal: a torn tail line — from a crash mid-append — is
    /// truncated away, and undecodable interior lines are skipped.
    ///
    /// The code revision folded into every key is `DFLY_CODE_REV` when
    /// set, else this crate's version — so rebuilding after a version
    /// bump re-simulates instead of serving stale results.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CampaignError> {
        let revision = std::env::var("DFLY_CODE_REV")
            .ok()
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| format!("v{}", env!("CARGO_PKG_VERSION")));
        Self::open_with_revision(dir, &revision)
    }

    /// [`CampaignStore::open`] with an explicit code revision.
    pub fn open_with_revision(
        dir: impl AsRef<Path>,
        revision: &str,
    ) -> Result<Self, CampaignError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let path = dir.join(JOURNAL_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        // A crash mid-append leaves a line without its trailing
        // newline: cut the journal back to the last complete line.
        let mut valid_len = bytes.len();
        if valid_len > 0 && bytes[valid_len - 1] != b'\n' {
            valid_len = bytes[..valid_len]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|p| p + 1)
                .unwrap_or(0);
        }
        let text = String::from_utf8_lossy(&bytes[..valid_len]);
        let mut map: HashMap<u64, Vec<JournalEntry>> = HashMap::new();
        let mut entries = 0usize;
        let mut offset = 0usize;
        let mut keep_len = valid_len;
        for line in text.split_inclusive('\n') {
            match parse_journal_line(line.trim_end_matches('\n')) {
                Some(entry) => {
                    let hash = fnv1a(entry.canon.as_bytes());
                    map.entry(hash).or_default().push(entry);
                    entries += 1;
                }
                None => {
                    // A complete but undecodable *tail* line is the
                    // other torn-write shape (the newline made it, the
                    // body did not): truncate it away. Bad interior
                    // lines are skipped but preserved on disk.
                    if offset + line.len() == valid_len {
                        keep_len = offset;
                    }
                }
            }
            offset += line.len();
        }
        if keep_len < bytes.len() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(keep_len as u64)?;
            f.sync_all()?;
        }
        let journal = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(CampaignStore {
            dir,
            revision: revision.to_string(),
            inner: Mutex::new(StoreInner {
                map,
                journal,
                entries,
            }),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The code revision folded into every key.
    pub fn revision(&self) -> &str {
        &self.revision
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("campaign store poisoned").entries
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored payload for `key` under `kind`, if any. Matches on
    /// the full canonical string, not just the hash.
    fn lookup_payload(&self, kind: &str, key: &CampaignKey) -> Option<String> {
        let inner = self.inner.lock().expect("campaign store poisoned");
        inner.map.get(&key.hash).and_then(|entries| {
            entries
                .iter()
                .find(|e| e.kind == kind && e.canon == key.canon)
                .map(|e| e.payload.clone())
        })
    }

    /// Appends one result to the journal (idempotent: re-inserting an
    /// already-stored key is a no-op).
    fn insert_payload(
        &self,
        kind: &str,
        key: &CampaignKey,
        payload: String,
    ) -> Result<(), CampaignError> {
        let mut inner = self.inner.lock().expect("campaign store poisoned");
        if let Some(entries) = inner.map.get(&key.hash) {
            if entries
                .iter()
                .any(|e| e.kind == kind && e.canon == key.canon)
            {
                return Ok(());
            }
        }
        let mut line = JsonWriter::new();
        line.begin_object().key("kind").str(kind);
        line.key("key").str(&format!("{:016x}", key.hash));
        line.key("canon").str(&key.canon);
        line.key("payload").str(&payload).end_object();
        let mut line = line.finish();
        line.push('\n');
        inner.journal.write_all(line.as_bytes())?;
        inner.journal.flush()?;
        inner.map.entry(key.hash).or_default().push(JournalEntry {
            kind: kind.to_string(),
            canon: key.canon.clone(),
            payload,
        });
        inner.entries += 1;
        Ok(())
    }

    /// The key of `cell`: format version, cell kind, this store's code
    /// revision, then the cell's own [`CachedCell::canon`].
    pub fn key<C: CachedCell>(&self, cell: &C) -> CampaignKey {
        CampaignKey::from_canon(format!(
            "{FORMAT_VERSION} kind={} rev={} {}",
            C::KIND,
            self.revision,
            cell.canon()
        ))
    }

    /// The stored `kind` result under `key`, if present and decodable.
    pub fn lookup<T: Codec>(&self, kind: &str, key: &CampaignKey) -> Option<T> {
        decode(&self.lookup_payload(kind, key)?)
    }

    /// Stores one `kind` result under `key`.
    pub fn insert<T: Codec>(
        &self,
        kind: &str,
        key: &CampaignKey,
        value: &T,
    ) -> Result<(), CampaignError> {
        self.insert_payload(kind, key, encode(value))
    }

    /// [`CampaignStore::key`] of one [`RunPlan`] against `sim`'s exact
    /// network.
    pub fn run_key<T: NetTopology + 'static>(
        &self,
        sim: &NetworkSim<T>,
        plan: &RunPlan,
    ) -> CampaignKey {
        self.key(&RunCell { sim, plan })
    }

    /// [`CampaignStore::lookup`] of a run cell's result.
    pub fn lookup_run(&self, key: &CampaignKey) -> Option<RunStats> {
        self.lookup(RunCell::<Dragonfly>::KIND, key)
    }

    /// [`CampaignStore::insert`] of a run cell's result.
    pub fn insert_run(&self, key: &CampaignKey, stats: &RunStats) -> Result<(), CampaignError> {
        self.insert(RunCell::<Dragonfly>::KIND, key, stats)
    }

    /// Appends one cell's wall time to the advisory timing sidecar
    /// (`timings.jsonl`). Best-effort: timing loss never fails a sweep,
    /// so write errors are swallowed.
    pub fn record_timing(&self, kind: &str, secs: f64) {
        let mut line = timing_prefix(kind);
        line.f64(secs).end_object();
        if let Ok(mut f) = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(TIMINGS_FILE))
        {
            let _ = writeln!(f, "{}", line.finish());
        }
    }

    /// All journaled cell timings for `kind`, in append order. Missing
    /// or unparsable sidecar lines, and values that are not a finite
    /// number of seconds ≥ 0, simply contribute nothing.
    pub fn timings(&self, kind: &str) -> Vec<f64> {
        let Ok(text) = fs::read_to_string(self.dir.join(TIMINGS_FILE)) else {
            return Vec::new();
        };
        let prefix = timing_prefix(kind).finish();
        text.lines()
            .filter_map(|line| {
                line.strip_prefix(prefix.as_str())?
                    .strip_suffix('}')?
                    .parse::<f64>()
                    .ok()
            })
            .filter(|secs| secs.is_finite() && *secs >= 0.0)
            .collect()
    }

    /// Median journaled cell time for `kind`, if any — the prior that
    /// seeds a resumed sweep's ETA.
    pub fn median_timing(&self, kind: &str) -> Option<f64> {
        let mut secs = self.timings(kind);
        if secs.is_empty() {
            return None;
        }
        secs.sort_by(f64::total_cmp);
        Some(secs[secs.len() / 2])
    }

    /// Journal entries written by a superseded codec generation: their
    /// canon embeds the format version that produced them, so they can
    /// never match a current-format key and are permanent cache misses.
    /// The doctor subtracts them before judging decode coverage — an
    /// upgraded journal is healthy, a torn current-format payload is
    /// not.
    pub fn stale_len(&self) -> usize {
        let inner = self.inner.lock().expect("campaign store poisoned");
        inner
            .map
            .values()
            .flatten()
            .filter(|e| !e.canon.starts_with(FORMAT_VERSION))
            .count()
    }

    /// Decodes every journaled result for health inspection (see
    /// `dfly doctor` in the bench crate), in no particular order.
    /// Undecodable payloads are skipped, exactly as the lookup path
    /// treats them; entries from superseded codec generations (see
    /// [`CampaignStore::stale_len`]) are among the skipped.
    pub fn records(&self) -> Vec<JournalRecord> {
        let inner = self.inner.lock().expect("campaign store poisoned");
        let mut out = Vec::with_capacity(inner.entries);
        for entries in inner.map.values() {
            for e in entries {
                let stats = match e.kind.as_str() {
                    "run" => decode(&e.payload),
                    "fault" => decode::<FaultPoint>(&e.payload).map(|p| p.stats),
                    "workload" => decode::<WorkloadPoint>(&e.payload).map(|p| p.stats),
                    _ => None,
                };
                if let Some(stats) = stats {
                    out.push(JournalRecord {
                        kind: e.kind.clone(),
                        canon: e.canon.clone(),
                        stats,
                    });
                }
            }
        }
        out
    }
}

/// A timing-sidecar line up to its value: `{"kind":"…","secs":`.
fn timing_prefix(kind: &str) -> JsonWriter {
    let mut line = JsonWriter::new();
    line.begin_object().key("kind").str(kind).key("secs");
    line
}

/// One journaled result decoded for health inspection: the entry kind,
/// the canonical key it is stored under (which embeds the full
/// `SimConfig` debug form), and the embedded run statistics.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Entry kind: `"run"`, `"fault"` or `"workload"`.
    pub kind: String,
    /// Canonical key string the result is stored under.
    pub canon: String,
    /// The run statistics inside the entry.
    pub stats: RunStats,
}

impl JournalRecord {
    /// Whether the cell was configured to drain at all: saturation
    /// probes run with `drain_cap: 0` and are exempt from drain
    /// verdicts.
    pub fn drain_expected(&self) -> bool {
        !self.canon.contains("drain_cap: 0")
    }
}

/// Parses one journal line of the exact shape
/// `{"kind":"…","key":"…","canon":"…","payload":"…"}`.
fn parse_journal_line(line: &str) -> Option<JournalEntry> {
    let rest = line.strip_prefix("{\"kind\":\"")?;
    let (kind, rest) = scan_json_string(rest)?;
    let rest = rest.strip_prefix(",\"key\":\"")?;
    let (key_hex, rest) = scan_json_string(rest)?;
    u64::from_str_radix(&key_hex, 16).ok()?;
    let rest = rest.strip_prefix(",\"canon\":\"")?;
    let (canon, rest) = scan_json_string(rest)?;
    let rest = rest.strip_prefix(",\"payload\":\"")?;
    let (payload, rest) = scan_json_string(rest)?;
    if rest != "}" {
        return None;
    }
    Some(JournalEntry {
        kind,
        canon,
        payload,
    })
}

// ---------------------------------------------------------------------
// Result codec: space-separated tokens — integers in decimal, `f64` as
// the hex image of its bits, `Option` as a 0/1 tag then the value,
// `Vec` as its length then the items. Encoding and decoding are exact
// inverses, so a journal round trip is bit-identical.
// ---------------------------------------------------------------------

/// A value the journal can hold: `enc` and `dec` are exact inverses
/// over a stream of tokens. Implemented for the integer types, `f64`
/// (bit-exact), `bool`, `Option`, `Vec` and every type inside a
/// [`RunStats`]; a sweep's own result type composes those field by
/// field.
pub trait Codec: Sized {
    /// Appends `self` to the token stream.
    fn enc(&self, e: &mut Enc);
    /// Reads one value back; `None` if the tokens are malformed.
    fn dec(d: &mut Dec<'_>) -> Option<Self>;
}

/// Token stream under construction (see [`Codec::enc`]).
#[derive(Default)]
pub struct Enc {
    out: String,
}

impl Enc {
    fn tok(&mut self, tok: std::fmt::Arguments<'_>) {
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        let _ = self.out.write_fmt(tok);
    }
}

/// Token stream being read back (see [`Codec::dec`]).
pub struct Dec<'a> {
    toks: std::str::SplitAsciiWhitespace<'a>,
}

/// Encodes `value` as a journal payload.
fn encode<T: Codec>(value: &T) -> String {
    let mut enc = Enc::default();
    value.enc(&mut enc);
    enc.out
}

/// Decodes a journal payload; valid only if it is consumed exactly.
fn decode<T: Codec>(payload: &str) -> Option<T> {
    let mut dec = Dec {
        toks: payload.split_ascii_whitespace(),
    };
    let value = T::dec(&mut dec)?;
    dec.toks.next().is_none().then_some(value)
}

macro_rules! codec_int {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn enc(&self, e: &mut Enc) {
                e.tok(format_args!("{self}"));
            }
            fn dec(d: &mut Dec<'_>) -> Option<Self> {
                d.toks.next()?.parse().ok()
            }
        }
    )*};
}
codec_int!(u8, u16, u32, u64, u128, usize);

impl Codec for f64 {
    fn enc(&self, e: &mut Enc) {
        e.tok(format_args!("{:016x}", self.to_bits()));
    }
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let tok = d.toks.next().filter(|t| t.len() == 16)?;
        Some(f64::from_bits(u64::from_str_radix(tok, 16).ok()?))
    }
}

/// Implements [`Codec`] for an enum of unit variants as a small integer
/// tag; unknown tags fail to decode.
macro_rules! codec_tag {
    ($t:ty { $($tag:literal => $v:path),* }) => {
        impl $crate::campaign::Codec for $t {
            fn enc(&self, e: &mut $crate::campaign::Enc) {
                match self {
                    $($v => $tag,)*
                }
                .enc(e)
            }
            fn dec(d: &mut $crate::campaign::Dec<'_>) -> Option<Self> {
                match u64::dec(d)? {
                    $($tag => Some($v),)*
                    _ => None,
                }
            }
        }
    };
}
pub(crate) use codec_tag;

impl Codec for bool {
    fn enc(&self, e: &mut Enc) {
        u64::from(*self).enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        match u64::dec(d)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

codec_tag!(ChannelClass {
    0u64 => ChannelClass::Terminal,
    1u64 => ChannelClass::Local,
    2u64 => ChannelClass::Global
});

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, e: &mut Enc) {
        self.is_some().enc(e);
        if let Some(v) = self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some(if bool::dec(d)? {
            Some(T::dec(d)?)
        } else {
            None
        })
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        self.len().enc(e);
        for v in self {
            v.enc(e);
        }
    }
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let len = usize::dec(d)?;
        // A corrupt length must fail on the missing tokens, not on the
        // allocation.
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::dec(d)?);
        }
        Some(out)
    }
}

/// Implements [`Codec`] for a struct as its listed fields in order —
/// the one place a type's wire order is written down.
macro_rules! codec_struct {
    ($t:ident { $($f:ident),* }) => {
        impl $crate::campaign::Codec for $t {
            fn enc(&self, e: &mut $crate::campaign::Enc) {
                $(self.$f.enc(e);)*
            }
            fn dec(d: &mut $crate::campaign::Dec<'_>) -> Option<Self> {
                Some($t { $($f: $crate::campaign::Codec::dec(d)?),* })
            }
        }
    };
}
pub(crate) use codec_struct;

codec_struct!(LatencySummary {
    count,
    sum,
    sum_sq,
    max,
    min
});
codec_struct!(LogHistogram {
    count,
    sum,
    min,
    max,
    buckets
});
codec_struct!(RouteTelemetry {
    minimal_takes,
    non_minimal_takes,
    adaptive_decisions,
    estimator_disagreements,
    fault_avoided_decisions,
    dropped_candidates,
    oracle_probe_fallbacks
});
codec_struct!(EstimatorScoreboard {
    decisions,
    scored,
    oracle_disagreements,
    sum_estimate,
    sum_oracle,
    abs_error
});
codec_struct!(ChannelLoad {
    router,
    port,
    class,
    flits,
    utilization
});
codec_struct!(ChannelSeries {
    router,
    port,
    class,
    occupancy,
    vc_occupancy,
    credits,
    sent
});
codec_struct!(TimeSeries {
    every,
    vcs,
    ticks,
    channels
});
codec_struct!(TraceEvent {
    cycle,
    packet,
    kind
});
codec_struct!(FlitTrace { rate, seed, events });
codec_struct!(RunStats {
    cycles,
    offered_load,
    injected_rate,
    accepted_rate,
    drained,
    latency,
    minimal_latency,
    non_minimal_latency,
    hops,
    histogram,
    minimal_histogram,
    channel_loads,
    routing,
    latency_log,
    scoreboard,
    series,
    trace,
    completion,
    converged,
    warmup_throughput_drift,
    warmup_latency_drift
});

impl Codec for Histogram {
    fn enc(&self, e: &mut Enc) {
        self.bucket_width().enc(e);
        self.overflow().enc(e);
        self.buckets().len().enc(e);
        self.buckets().iter().for_each(|b| b.enc(e));
    }
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        let (width, overflow) = (u64::dec(d)?, u64::dec(d)?);
        let buckets = Vec::<u64>::dec(d)?;
        (width != 0 && !buckets.is_empty()).then(|| Histogram::from_parts(buckets, width, overflow))
    }
}

impl Codec for TraceEventKind {
    fn enc(&self, e: &mut Enc) {
        match self {
            TraceEventKind::Inject {
                src,
                dest,
                minimal,
                q_chosen,
                oracle,
            } => {
                0u64.enc(e);
                src.enc(e);
                dest.enc(e);
                minimal.enc(e);
                q_chosen.enc(e);
                oracle.enc(e);
            }
            TraceEventKind::Hop { router, port, vc } => {
                1u64.enc(e);
                router.enc(e);
                port.enc(e);
                vc.enc(e);
            }
            TraceEventKind::Eject { latency } => {
                2u64.enc(e);
                latency.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec<'_>) -> Option<Self> {
        Some(match u64::dec(d)? {
            0 => TraceEventKind::Inject {
                src: Codec::dec(d)?,
                dest: Codec::dec(d)?,
                minimal: Codec::dec(d)?,
                q_chosen: Codec::dec(d)?,
                oracle: Codec::dec(d)?,
            },
            1 => TraceEventKind::Hop {
                router: Codec::dec(d)?,
                port: Codec::dec(d)?,
                vc: Codec::dec(d)?,
            },
            2 => TraceEventKind::Eject {
                latency: Codec::dec(d)?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Placement;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dfly-campaign-unit-{}-{}",
            std::process::id(),
            name
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats() -> RunStats {
        let mut histogram = Histogram::new(4, 8);
        histogram.record(3);
        histogram.record(100);
        let mut latency_log = LogHistogram::new();
        latency_log.record(17);
        let mut latency = LatencySummary::default();
        latency.record(17);
        RunStats {
            cycles: 1234,
            offered_load: 0.35,
            injected_rate: 0.349,
            accepted_rate: 0.348,
            drained: true,
            latency,
            minimal_latency: latency,
            non_minimal_latency: LatencySummary::default(),
            hops: latency,
            histogram: histogram.clone(),
            minimal_histogram: histogram,
            channel_loads: vec![ChannelLoad {
                router: 3,
                port: 1,
                class: ChannelClass::Global,
                flits: 99,
                utilization: 0.123456789,
            }],
            routing: RouteTelemetry {
                minimal_takes: 10,
                non_minimal_takes: 2,
                ..RouteTelemetry::default()
            },
            latency_log,
            scoreboard: EstimatorScoreboard::default(),
            series: Some(TimeSeries {
                every: 64,
                vcs: 2,
                ticks: vec![64, 128],
                channels: vec![ChannelSeries {
                    router: 1,
                    port: 2,
                    class: ChannelClass::Local,
                    occupancy: vec![0, 3],
                    vc_occupancy: vec![0, 0, 1, 2],
                    credits: vec![16, 13],
                    sent: vec![5, 9],
                }],
            }),
            trace: Some(FlitTrace {
                rate: 0.25,
                seed: 7,
                events: vec![
                    TraceEvent {
                        cycle: 5,
                        packet: 42,
                        kind: TraceEventKind::Inject {
                            src: 1,
                            dest: 2,
                            minimal: true,
                            q_chosen: 3,
                            oracle: 4,
                        },
                    },
                    TraceEvent {
                        cycle: 6,
                        packet: 42,
                        kind: TraceEventKind::Hop {
                            router: 9,
                            port: 3,
                            vc: 1,
                        },
                    },
                    TraceEvent {
                        cycle: 12,
                        packet: 42,
                        kind: TraceEventKind::Eject { latency: 7 },
                    },
                ],
            }),
            completion: Some(999),
            converged: true,
            warmup_throughput_drift: Some(0.01),
            warmup_latency_drift: None,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn run_stats_round_trip_is_bit_identical() {
        let stats = sample_stats();
        let payload = encode(&stats);
        let back: RunStats = decode(&payload).expect("round trip");
        assert_eq!(back, stats);
        assert_eq!(format!("{back:?}"), format!("{stats:?}"));
        // A truncated payload must fail to decode, not mis-decode.
        let cut = &payload[..payload.len() / 2];
        assert!(decode::<RunStats>(cut).is_none());
        // Trailing garbage must also fail (exact-consumption rule).
        let extended = format!("{payload} 7");
        assert!(decode::<RunStats>(&extended).is_none());
    }

    #[test]
    fn store_round_trips_and_recovers_torn_tail() {
        let dir = temp_dir("torn");
        let key = CampaignKey::from_canon("unit test canon".to_string());
        let stats = sample_stats();
        {
            let store = CampaignStore::open_with_revision(&dir, "r1").unwrap();
            assert!(store.is_empty());
            assert!(store.lookup_run(&key).is_none());
            store.insert_run(&key, &stats).unwrap();
            assert_eq!(store.len(), 1);
            assert_eq!(store.lookup_run(&key).unwrap(), stats);
            // Idempotent re-insert.
            store.insert_run(&key, &stats).unwrap();
            assert_eq!(store.len(), 1);
        }
        // Simulate a crash mid-append: torn, newline-less tail bytes.
        let journal = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
        f.write_all(b"{\"kind\":\"run\",\"key\":\"dead").unwrap();
        drop(f);
        let store = CampaignStore::open_with_revision(&dir, "r1").unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup_run(&key).unwrap(), stats);
        // The torn bytes are gone from disk.
        let bytes = fs::read(&journal).unwrap();
        assert_eq!(bytes.last(), Some(&b'\n'));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_hash_collision_misses() {
        let dir = temp_dir("collision");
        let store = CampaignStore::open_with_revision(&dir, "r1").unwrap();
        let key = CampaignKey::from_canon("the real configuration".to_string());
        store.insert_run(&key, &sample_stats()).unwrap();
        // Same hash, different canon: must miss, never wrongly hit.
        let forged = CampaignKey {
            hash: key.hash,
            canon: "a different configuration".to_string(),
        };
        assert!(store.lookup_run(&forged).is_none());
        assert!(store.lookup_run(&key).is_some());
        // Same canon under another kind also misses.
        assert!(store.lookup::<FaultPoint>("fault", &key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_expose_every_kind_for_the_doctor() {
        let dir = temp_dir("records");
        let store = CampaignStore::open_with_revision(&dir, "r1").unwrap();
        let mut stats = sample_stats();
        store
            .insert_run(
                &CampaignKey::from_canon("kind=run cfg={drain_cap: 15000}".into()),
                &stats,
            )
            .unwrap();
        stats.drained = false;
        store
            .insert(
                "fault",
                &CampaignKey::from_canon("kind=fault cfg={drain_cap: 0, shards: 1}".into()),
                &FaultPoint {
                    fraction: 0.125,
                    failed_links: 4,
                    stats: stats.clone(),
                },
            )
            .unwrap();
        store
            .insert(
                "workload",
                &CampaignKey::from_canon("kind=workload cfg={drain_cap: 30000}".into()),
                &WorkloadPoint {
                    placement: Placement::GroupDisjoint,
                    background_load: 0.3,
                    stats,
                    books: Vec::new(),
                },
            )
            .unwrap();
        let mut records = store.records();
        records.sort_by(|a, b| a.kind.cmp(&b.kind));
        assert_eq!(
            records.iter().map(|r| r.kind.as_str()).collect::<Vec<_>>(),
            ["fault", "run", "workload"]
        );
        // The saturation probe (drain_cap: 0) is exempt from drain
        // verdicts; the others are not.
        assert!(!records[0].drain_expected());
        assert!(!records[0].stats.drained);
        assert!(records[1].drain_expected());
        assert!(records[2].drain_expected());
        assert_eq!(records[1].stats, sample_stats());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseded_format_entries_are_stale_not_corrupt() {
        let dir = temp_dir("stale-format");
        fs::create_dir_all(&dir).unwrap();
        // A well-formed journal line from an earlier codec generation:
        // the envelope parses, but the canon pins the old format so the
        // payload is never decoded and the entry can never hit.
        fs::write(
            dir.join(JOURNAL_FILE),
            b"{\"kind\":\"run\",\"key\":\"00000000deadbeef\",\
              \"canon\":\"dfly-campaign-v1 kind=run rev=r1 cfg=old\",\
              \"payload\":\"\"}\n",
        )
        .unwrap();
        let store = CampaignStore::open_with_revision(&dir, "r1").unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stale_len(), 1);
        assert!(store.records().is_empty());
        // Fresh current-format inserts coexist with the relic.
        store
            .insert_run(
                &CampaignKey::from_canon(format!("{FORMAT_VERSION} kind=run cfg=new")),
                &sample_stats(),
            )
            .unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stale_len(), 1);
        assert_eq!(store.records().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn timing_sidecar_is_advisory_and_keyed_by_kind() {
        let dir = temp_dir("timings");
        let store = CampaignStore::open_with_revision(&dir, "r1").unwrap();
        assert_eq!(store.median_timing("run"), None);
        store.record_timing("run", 2.0);
        store.record_timing("run", 0.5);
        store.record_timing("run", 1.0);
        store.record_timing("fault", 9.0);
        assert_eq!(store.timings("run"), vec![2.0, 0.5, 1.0]);
        assert_eq!(store.median_timing("run"), Some(1.0));
        assert_eq!(store.median_timing("fault"), Some(9.0));
        assert_eq!(store.median_timing("workload"), None);
        // The sidecar never contaminates the journal.
        assert!(store.is_empty());
        // Corrupt sidecar lines contribute nothing and never fail.
        fs::write(
            dir.join(TIMINGS_FILE),
            b"not json\n{\"kind\":\"run\",\"secs\":oops}\n",
        )
        .unwrap();
        assert_eq!(store.median_timing("run"), None);
        // Nor do values that are not a duration: NaN and infinities
        // would poison the median's sort, a negative time is no time.
        fs::write(
            dir.join(TIMINGS_FILE),
            b"{\"kind\":\"run\",\"secs\":NaN}\n{\"kind\":\"run\",\"secs\":1.0}\n\
              {\"kind\":\"run\",\"secs\":inf}\n{\"kind\":\"run\",\"secs\":-1}\n\
              {\"kind\":\"run\",\"secs\":null}\n",
        )
        .unwrap();
        assert_eq!(store.timings("run"), vec![1.0]);
        assert_eq!(store.median_timing("run"), Some(1.0));
        store.record_timing("run", f64::NAN);
        assert_eq!(store.timings("run"), vec![1.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_line_parser_round_trips_escapes() {
        let entry = parse_journal_line(
            "{\"kind\":\"run\",\"key\":\"00000000deadbeef\",\
             \"canon\":\"a\\\"b\\\\c\\nd\\u0001\",\"payload\":\"1 2 3\"}",
        )
        .expect("line must parse");
        assert_eq!(entry.kind, "run");
        assert_eq!(entry.canon, "a\"b\\c\nd\u{1}");
        assert_eq!(entry.payload, "1 2 3");
        assert!(parse_journal_line("{\"kind\":\"run\"").is_none());
        assert!(parse_journal_line("").is_none());
    }
}
