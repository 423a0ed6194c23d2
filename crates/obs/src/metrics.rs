//! The metrics registry: named series sampled at epoch boundaries.
//!
//! Metrics are *observational*: the simulator keeps its existing
//! accumulators and, at each epoch boundary, snapshots them into the
//! registry via [`MetricsRegistry::set`] + [`MetricsRegistry::commit_sample`].
//! Nothing is incremented on the hot path, so enabling metrics cannot
//! perturb simulated behaviour. The resulting table is schema-stable:
//! one row per epoch, one column per registered metric, exported as CSV
//! or stable-key JSON. A [windowed](MetricsRegistry::windowed) registry
//! keeps only its newest rows, for a sampler that never stops, such as
//! the serve daemon's.

use std::fmt::Write as _;

/// Handle to a registered metric (an index into the registry columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// How a metric's samples should be read (and formatted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative count; rendered without decimals.
    Counter,
    /// Point-in-time level (rates, thresholds); rendered with decimals.
    Gauge,
}

/// One committed row: every metric's value at an epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRow {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Instructions retired when the sample was taken.
    pub instructions: u64,
    /// Simulated cycle when the sample was taken.
    pub cycles: u64,
    /// One value per registered metric, in registration order.
    pub values: Vec<f64>,
}

/// Registry of named metric series with epoch-boundary sampling.
///
/// # Examples
///
/// ```
/// use osoffload_obs::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// let offloads = reg.register_counter("offloads");
/// let l2 = reg.register_gauge("l2_hit_rate");
/// reg.set(offloads, 42.0);
/// reg.set(l2, 0.93);
/// reg.commit_sample(0, 1_000, 2_500);
/// assert_eq!(reg.samples().len(), 1);
/// assert!(reg.to_csv().starts_with("epoch,instructions,cycles,offloads,l2_hit_rate"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    names: Vec<(String, MetricKind)>,
    current: Vec<f64>,
    samples: Vec<SampleRow>,
    window: Option<usize>,
}

impl MetricsRegistry {
    /// Creates an empty registry that keeps every committed row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry that keeps only the newest `window`
    /// committed rows, so its memory and every export stay bounded
    /// however long it samples.
    pub fn windowed(window: usize) -> Self {
        MetricsRegistry {
            window: Some(window),
            ..Self::default()
        }
    }

    fn register(&mut self, name: &str, kind: MetricKind) -> MetricId {
        if let Some(i) = self.names.iter().position(|(n, _)| n == name) {
            return MetricId(i);
        }
        assert!(
            self.samples.is_empty(),
            "register metrics before committing samples"
        );
        self.names.push((name.to_string(), kind));
        self.current.push(0.0);
        MetricId(self.names.len() - 1)
    }

    /// Registers (or finds) a cumulative counter column.
    pub fn register_counter(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Counter)
    }

    /// Registers (or finds) a point-in-time gauge column.
    pub fn register_gauge(&mut self, name: &str) -> MetricId {
        self.register(name, MetricKind::Gauge)
    }

    /// Stages a value for the next [`commit_sample`].
    ///
    /// [`commit_sample`]: MetricsRegistry::commit_sample
    pub fn set(&mut self, id: MetricId, value: f64) {
        self.current[id.0] = value;
    }

    /// Commits the staged values as one epoch-boundary row; a windowed
    /// registry then drops its oldest row past the window.
    pub fn commit_sample(&mut self, epoch: u64, instructions: u64, cycles: u64) {
        self.samples.push(SampleRow {
            epoch,
            instructions,
            cycles,
            values: self.current.clone(),
        });
        if let Some(window) = self.window {
            let excess = self.samples.len().saturating_sub(window);
            self.samples.drain(..excess);
        }
    }

    /// Metric names with kinds, in column order.
    pub fn metrics(&self) -> &[(String, MetricKind)] {
        &self.names
    }

    /// Committed rows still held, oldest first.
    pub fn samples(&self) -> &[SampleRow] {
        &self.samples
    }

    fn format_value(kind: MetricKind, v: f64) -> String {
        match kind {
            MetricKind::Counter => format!("{v:.0}"),
            MetricKind::Gauge => format!("{v:.6}"),
        }
    }

    /// Renders the whole table as CSV (`epoch,instructions,cycles,<metrics…>`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,instructions,cycles");
        for (name, _) in &self.names {
            out.push(',');
            out.push_str(&crate::csv::field(name));
        }
        out.push('\n');
        for row in &self.samples {
            let _ = write!(out, "{},{},{}", row.epoch, row.instructions, row.cycles);
            for (i, v) in row.values.iter().enumerate() {
                out.push(',');
                out.push_str(&Self::format_value(self.names[i].1, *v));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as stable-key JSON
    /// (`{"schema":"osoffload.metrics.v1",...}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"osoffload.metrics.v1\",\"metrics\":[");
        for (i, (name, kind)) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"kind\":\"{}\"}}",
                crate::json::quote(name),
                match kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                }
            );
        }
        out.push_str("],\"samples\":[");
        for (i, row) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"epoch\":{},\"instructions\":{},\"cycles\":{},\"values\":[",
                row.epoch, row.instructions, row.cycles
            );
            for (j, v) in row.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&Self::format_json_number(*v));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    fn format_json_number(v: f64) -> String {
        if v.is_finite() {
            // Trim to a stable short form: integers render bare.
            if v == v.trunc() && v.abs() < 1e15 {
                format!("{v:.0}")
            } else {
                format!("{v:.6}")
            }
        } else {
            "null".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedupes_by_name() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register_counter("offloads");
        let b = reg.register_counter("offloads");
        assert_eq!(a, b);
        assert_eq!(reg.metrics().len(), 1);
    }

    #[test]
    fn csv_has_one_row_per_commit() {
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("locals");
        let g = reg.register_gauge("rate");
        reg.set(c, 3.0);
        reg.set(g, 0.5);
        reg.commit_sample(0, 100, 200);
        reg.set(c, 7.0);
        reg.commit_sample(1, 200, 410);
        let csv = reg.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "epoch,instructions,cycles,locals,rate");
        assert_eq!(lines[1], "0,100,200,3,0.500000");
        assert_eq!(lines[2], "1,200,410,7,0.500000");
    }

    #[test]
    fn json_is_schema_stable() {
        let mut reg = MetricsRegistry::new();
        let c = reg.register_counter("n");
        reg.set(c, 2.0);
        reg.commit_sample(0, 10, 20);
        let json = reg.to_json();
        assert!(json.starts_with("{\"schema\":\"osoffload.metrics.v1\""));
        assert!(json.contains("{\"name\":\"n\",\"kind\":\"counter\"}"));
        assert!(json.contains("\"values\":[2]"));
    }

    #[test]
    fn windowed_registry_keeps_the_newest_rows() {
        let mut reg = MetricsRegistry::windowed(3);
        let c = reg.register_counter("n");
        for epoch in 0..5 {
            reg.set(c, epoch as f64);
            reg.commit_sample(epoch, 0, 0);
        }
        let epochs: Vec<u64> = reg.samples().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, [2, 3, 4]);
        assert_eq!(reg.to_csv().lines().last(), Some("4,0,0,4"));
    }

    #[test]
    #[should_panic(expected = "register metrics before committing")]
    fn late_registration_panics() {
        let mut reg = MetricsRegistry::new();
        reg.register_counter("a");
        reg.commit_sample(0, 1, 1);
        reg.register_counter("b");
    }
}
