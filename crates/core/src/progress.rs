//! Live sweep-progress events: a structured JSON-lines stream with an
//! optional human TTY renderer.
//!
//! Campaign sweeps can run for hours; this module makes them observable
//! without touching their results. A [`ProgressSink`] is an event
//! outlet selected by the `DFLY_PROGRESS` environment variable:
//!
//! * unset / `""` / `0` / `off` — disabled (the default; zero work per
//!   cell beyond one atomic check);
//! * `tty` / `stderr` — human-readable one-line-per-event rendering on
//!   standard error;
//! * anything else — treated as a file path receiving one JSON object
//!   per line (`begin` / `cell` / `end` events).
//!
//! A [`SweepProgress`] tracks one sweep through the sink: cell
//! completions carry a running `done/total`, the hit/miss split, the
//! cell's own wall time, and an ETA extrapolated from the median
//! observed miss time — seeded from the campaign store's journaled
//! cell timings (see `CampaignStore::median_timing`) so a resumed
//! campaign has a sane ETA from its very first cell.
//!
//! Events carry wall-clock timestamps and durations, which is exactly
//! why they live in a side channel: nothing here feeds back into
//! simulation results, so runs stay bit-identical with progress on,
//! off, or redirected.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dfly_netsim::json::JsonWriter;

/// Milliseconds since the Unix epoch — the wall-clock stamp on every
/// emitted event.
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Opens the JSON object of one `kind` event of the sweep `sweep`;
/// [`ProgressSink::emit`] stamps and closes it.
fn event(kind: &str, sweep: &str) -> JsonWriter {
    let mut w = JsonWriter::new();
    w.begin_object().key("event").str(kind);
    w.key("sweep").str(sweep);
    w
}

enum Outlet {
    Off,
    Tty,
    File(Mutex<File>),
}

/// Destination for progress events. Cheap to share: one sink serves
/// every sweep of a process, and emission is internally locked.
pub struct ProgressSink {
    outlet: Outlet,
}

impl ProgressSink {
    /// A disabled sink: every emission is a no-op.
    pub fn off() -> Self {
        ProgressSink {
            outlet: Outlet::Off,
        }
    }

    /// A sink rendering human-readable lines on standard error.
    pub fn tty() -> Self {
        ProgressSink {
            outlet: Outlet::Tty,
        }
    }

    /// A sink appending JSON-lines events to `path` (created if
    /// absent).
    ///
    /// # Errors
    ///
    /// Any failure opening `path` for append.
    pub fn to_file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        Ok(ProgressSink {
            outlet: Outlet::File(Mutex::new(file)),
        })
    }

    /// The sink `DFLY_PROGRESS` selects (see the module docs). An
    /// unopenable file path degrades to a disabled sink rather than
    /// failing the sweep — progress is never worth a lost campaign.
    pub fn from_env() -> Self {
        match std::env::var("DFLY_PROGRESS") {
            Err(_) => Self::off(),
            Ok(v) => match v.as_str() {
                "" | "0" | "off" => Self::off(),
                "tty" | "stderr" => Self::tty(),
                path => Self::to_file(path).unwrap_or_else(|_| Self::off()),
            },
        }
    }

    /// Whether emissions are no-ops.
    pub fn is_off(&self) -> bool {
        matches!(self.outlet, Outlet::Off)
    }

    /// Emits one event: `json` (see [`event`]), stamped with
    /// `unix_ms`, to a file sink; `human` to a TTY sink.
    fn emit(&self, mut json: JsonWriter, human: &str) {
        match &self.outlet {
            Outlet::Off => {}
            Outlet::Tty => eprintln!("{human}"),
            Outlet::File(file) => {
                json.key("unix_ms").u64(unix_ms()).end_object();
                let mut file = file.lock().expect("progress sink poisoned");
                // Best-effort: a full disk must not kill the sweep.
                let _ = writeln!(file, "{}", json.finish());
                let _ = file.flush();
            }
        }
    }
}

/// Running tally behind one sweep's progress stream.
struct SweepState {
    done: usize,
    hits: usize,
    /// Wall seconds of every completed miss, kept sorted-on-demand for
    /// the median.
    miss_secs: Vec<f64>,
}

/// Progress tracking for one named sweep: emits a `begin` event on
/// construction, a `cell` event per completed cell (any thread), and an
/// `end` event from [`SweepProgress::finish`].
pub struct SweepProgress<'s> {
    sink: &'s ProgressSink,
    sweep: String,
    total: usize,
    /// Median cell seconds from previous sessions (the campaign store's
    /// timing sidecar), used for the ETA until live misses accumulate.
    prior_secs: Option<f64>,
    started: Instant,
    state: Mutex<SweepState>,
}

impl<'s> SweepProgress<'s> {
    /// Starts tracking `total` cells of the sweep named `sweep`,
    /// emitting the `begin` event. `prior_secs` seeds the ETA (median
    /// per-cell seconds from earlier sessions), if known.
    pub fn begin(
        sink: &'s ProgressSink,
        sweep: &str,
        total: usize,
        prior_secs: Option<f64>,
    ) -> Self {
        if !sink.is_off() {
            let mut json = event("begin", sweep);
            json.key("total").u64(total as u64);
            sink.emit(json, &format!("[{sweep}] 0/{total} starting"));
        }
        SweepProgress {
            sink,
            sweep: sweep.to_string(),
            total,
            prior_secs,
            started: Instant::now(),
            state: Mutex::new(SweepState {
                done: 0,
                hits: 0,
                miss_secs: Vec::new(),
            }),
        }
    }

    /// Records cell `index` as complete (`hit` from the store, or a
    /// fresh simulation that took `secs`) and emits the `cell` event
    /// with the running ETA. Callable from any worker thread.
    pub fn cell(&self, index: usize, hit: bool, secs: f64) {
        if self.sink.is_off() {
            return;
        }
        let (done, hits, eta) = {
            let mut st = self.state.lock().expect("sweep progress poisoned");
            st.done += 1;
            if hit {
                st.hits += 1;
            } else {
                st.miss_secs.push(secs);
            }
            let remaining = self.total.saturating_sub(st.done);
            let per_cell = median(&mut st.miss_secs).or(self.prior_secs);
            (st.done, st.hits, per_cell.map(|s| s * remaining as f64))
        };
        let mut json = event("cell", &self.sweep);
        json.key("cell").u64(index as u64).key("hit").bool(hit);
        json.key("secs").f64(secs).key("done").u64(done as u64);
        json.key("total").u64(self.total as u64);
        json.key("hits").u64(hits as u64);
        json.key("eta_secs").f64(eta);
        let eta_human = eta.map_or(String::new(), |e| format!(" eta {e:.1}s"));
        let human = format!(
            "[{}] {}/{} ({} hits){}",
            self.sweep, done, self.total, hits, eta_human
        );
        self.sink.emit(json, &human);
    }

    /// Emits the `end` event with the final tally and total wall time.
    pub fn finish(&self) {
        if self.sink.is_off() {
            return;
        }
        let st = self.state.lock().expect("sweep progress poisoned");
        let secs = self.started.elapsed().as_secs_f64();
        let mut json = event("end", &self.sweep);
        json.key("done").u64(st.done as u64);
        json.key("total").u64(self.total as u64);
        json.key("hits").u64(st.hits as u64);
        json.key("misses").u64((st.done - st.hits) as u64);
        json.key("secs").f64(secs);
        let human = format!(
            "[{}] done: {}/{} cells, {} hits, {} misses in {:.1}s",
            self.sweep,
            st.done,
            self.total,
            st.hits,
            st.done - st.hits,
            secs
        );
        self.sink.emit(json, &human);
    }
}

/// Median of `values` (sorting in place); `None` when empty.
fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Some(values[values.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn temp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dfly-progress-{}-{}", std::process::id(), name))
    }

    #[test]
    fn off_sink_emits_nothing_cheaply() {
        let sink = ProgressSink::off();
        assert!(sink.is_off());
        let sweep = SweepProgress::begin(&sink, "grid", 4, None);
        sweep.cell(0, true, 0.0);
        sweep.finish();
    }

    #[test]
    fn file_sink_writes_one_json_object_per_event() {
        let path = temp_file("jsonl");
        let _ = fs::remove_file(&path);
        {
            let sink = ProgressSink::to_file(&path).unwrap();
            assert!(!sink.is_off());
            let sweep = SweepProgress::begin(&sink, "grid", 3, Some(0.5));
            sweep.cell(2, true, 0.0);
            sweep.cell(0, false, 1.25);
            sweep.cell(1, false, 0.75);
            sweep.finish();
        }
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "begin + 3 cells + end: {text}");
        assert!(lines[0].contains("\"event\":\"begin\""));
        assert!(lines[0].contains("\"total\":3"));
        // First cell is a hit: the ETA falls back to the prior median.
        assert!(lines[1].contains("\"hit\":true"));
        assert!(lines[1].contains("\"eta_secs\":1,"), "{}", lines[1]);
        // Second cell: one live miss at 1.25s, one cell left.
        assert!(lines[2].contains("\"done\":2"));
        assert!(lines[2].contains("\"eta_secs\":1.25,"), "{}", lines[2]);
        // Last cell: nothing remaining, ETA zero.
        assert!(lines[3].contains("\"eta_secs\":0,"), "{}", lines[3]);
        assert!(lines[4].contains("\"event\":\"end\""));
        assert!(lines[4].contains("\"hits\":1"));
        assert!(lines[4].contains("\"misses\":2"));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert!(line.contains("\"unix_ms\":"));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn median_is_order_insensitive() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [2.0]), Some(2.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0]), Some(4.0));
    }
}
