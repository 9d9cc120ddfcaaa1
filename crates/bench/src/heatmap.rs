//! Channel × time occupancy heatmaps from the telemetry layer's
//! sampled [`TimeSeries`], exportable as JSON and as a gnuplot
//! `matrix with image` data file.
//!
//! The simulator's channel sampling (see
//! `SimConfig::telemetry.sample_every`) records each channel's queue
//! occupancy at fixed cycle ticks. A [`Heatmap`] reshapes that into a
//! dense matrix — one row per channel, peak-ranked so hotspots sit at
//! the top, one column per tick — which is the natural input for an
//! occupancy-over-time picture of a run (e.g. how congestion pools on
//! the surviving global cables as a fault sweep kills the others).

use std::fmt::Write as _;

use dfly_netsim::json::JsonWriter;
use dfly_netsim::TimeSeries;

/// One heatmap row: a channel's identity and its occupancy samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatmapRow {
    /// Router the channel leaves.
    pub router: u32,
    /// Output port on that router.
    pub port: u16,
    /// Channel class, rendered (`Local` / `Global` / ...).
    pub class: String,
    /// Occupancy at each sample tick, in flits.
    pub occupancy: Vec<u16>,
}

impl HeatmapRow {
    /// Largest occupancy sample of the row.
    pub fn peak(&self) -> u16 {
        self.occupancy.iter().copied().max().unwrap_or(0)
    }
}

/// A channel × time occupancy matrix, rows ranked by peak occupancy
/// (ties broken by router then port, so the ranking is deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    /// Sampling period in cycles.
    pub every: u64,
    /// Sample tick cycles — the column axis.
    pub ticks: Vec<u64>,
    /// Channel rows, hottest first.
    pub rows: Vec<HeatmapRow>,
    /// Channels trimmed away by [`Heatmap::top`] (0 = complete).
    pub dropped: usize,
}

impl Heatmap {
    /// Builds the full heatmap from a sampled run's time series.
    pub fn from_series(series: &TimeSeries) -> Self {
        let mut rows: Vec<HeatmapRow> = series
            .channels
            .iter()
            .map(|c| HeatmapRow {
                router: c.router,
                port: c.port,
                class: format!("{:?}", c.class),
                occupancy: c.occupancy.clone(),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.peak()
                .cmp(&a.peak())
                .then(a.router.cmp(&b.router))
                .then(a.port.cmp(&b.port))
        });
        Heatmap {
            every: series.every,
            ticks: series.ticks.clone(),
            rows,
            dropped: 0,
        }
    }

    /// Keeps only the `n` hottest channels, recording how many were
    /// dropped so exports never truncate silently.
    pub fn top(mut self, n: usize) -> Self {
        if self.rows.len() > n {
            self.dropped += self.rows.len() - n;
            self.rows.truncate(n);
        }
        self
    }

    /// The matrix as a JSON object: tick axis, per-row channel
    /// identity, and the occupancy samples.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object().key("every").u64(self.every);
        w.key("ticks").u64s(self.ticks.iter().copied());
        w.key("dropped_channels").u64(self.dropped as u64);
        w.key("rows").begin_array();
        for r in &self.rows {
            w.begin_object().key("router").u64(r.router);
            w.key("port").u64(r.port).key("class").str(&r.class);
            w.key("peak").u64(r.peak());
            w.key("occupancy").u64s(r.occupancy.iter().copied());
            w.end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// The matrix as a gnuplot data file: commented header identifying
    /// each row, then one whitespace-separated line of samples per
    /// channel — directly plottable with
    /// `plot 'heatmap.dat' matrix with image`.
    pub fn to_gnuplot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# channel x time occupancy heatmap: rows = channels (peak-ranked), cols = sample ticks"
        );
        let _ = writeln!(
            out,
            "# every {} cycles, {} rows x {} ticks ({} channels dropped)",
            self.every,
            self.rows.len(),
            self.ticks.len(),
            self.dropped
        );
        let _ = writeln!(out, "# plot with: plot 'heatmap.dat' matrix with image");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "# row {i}: router {} port {} class {} peak {}",
                r.router,
                r.port,
                r.class,
                r.peak()
            );
        }
        for r in &self.rows {
            let mut line = String::new();
            for (j, v) in r.occupancy.iter().enumerate() {
                if j > 0 {
                    line.push(' ');
                }
                let _ = write!(line, "{v}");
            }
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfly_netsim::{ChannelClass, ChannelSeries};

    fn series() -> TimeSeries {
        TimeSeries {
            every: 32,
            vcs: 2,
            ticks: vec![32, 64, 96],
            channels: vec![
                ChannelSeries {
                    router: 0,
                    port: 1,
                    class: ChannelClass::Local,
                    occupancy: vec![1, 2, 1],
                    vc_occupancy: vec![],
                    credits: vec![],
                    sent: vec![],
                },
                ChannelSeries {
                    router: 3,
                    port: 0,
                    class: ChannelClass::Global,
                    occupancy: vec![0, 7, 4],
                    vc_occupancy: vec![],
                    credits: vec![],
                    sent: vec![],
                },
            ],
        }
    }

    #[test]
    fn rows_are_peak_ranked() {
        let hm = Heatmap::from_series(&series());
        assert_eq!(hm.rows.len(), 2);
        assert_eq!((hm.rows[0].router, hm.rows[0].port), (3, 0));
        assert_eq!(hm.rows[0].peak(), 7);
        assert_eq!(hm.rows[1].peak(), 2);
        assert_eq!(hm.dropped, 0);
    }

    #[test]
    fn top_records_dropped_rows() {
        let hm = Heatmap::from_series(&series()).top(1);
        assert_eq!(hm.rows.len(), 1);
        assert_eq!(hm.dropped, 1);
        assert!(hm.to_json().contains("\"dropped_channels\":1"));
        // top() beyond the row count is a no-op.
        let full = Heatmap::from_series(&series()).top(10);
        assert_eq!(full.dropped, 0);
    }

    #[test]
    fn json_and_gnuplot_round_the_matrix() {
        let hm = Heatmap::from_series(&series());
        let json = hm.to_json();
        assert!(json.contains("\"ticks\":[32,64,96]"));
        assert!(json.contains("\"class\":\"Global\""));
        assert!(json.contains("\"occupancy\":[0,7,4]"));
        let gp = hm.to_gnuplot();
        assert!(gp.contains("matrix with image"));
        assert!(gp.contains("# row 0: router 3 port 0 class Global peak 7"));
        // Data lines: hottest channel first.
        let data: Vec<&str> = gp.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(data, vec!["0 7 4", "1 2 1"]);
    }

    #[test]
    fn class_names_are_escaped_and_scan_back_intact() {
        let mut hm = Heatmap::from_series(&series());
        let class = "odd \"class\"\nname";
        hm.rows[0].class = class.to_string();
        let json = hm.to_json();
        let at = json.find("\"class\":\"").expect("row class") + "\"class\":\"".len();
        let (back, rest) = dfly_netsim::json::scan_json_string(&json[at..]).expect("class scans");
        assert_eq!(back, class);
        assert!(rest.starts_with(",\"peak\":7"), "{rest}");
    }
}
