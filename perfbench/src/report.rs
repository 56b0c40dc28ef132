//! Samples, named metrics and the result line.

use std::fmt::Write as _;

/// A growing list of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.sum() / self.0.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
    /// closest ranks.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The share of a run's blocks, on the fast side, whose edge a block metric
/// reports.
const QUIET: f64 = 0.1;

/// Samples cut into blocks of whole passes or rounds. Each block yields one
/// value of a statistic and the metric is the decile of those values on the
/// fast side ([`QUIET`]): contention from the rest of the host only ever
/// slows a block down, and it comes and goes over seconds to tens of
/// seconds, so the quietest blocks of a run measure the program. The first
/// block of a run is its warm-up.
#[derive(Debug, Default)]
pub struct Blocks {
    /// Each closed block, with the seconds it took outside its samples.
    closed: Vec<(Samples, f64)>,
    open: Samples,
}

impl Blocks {
    pub fn push(&mut self, v: f64) {
        self.open.push(v);
    }

    /// Samples in the open block.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Closes the open block; an empty one is dropped.
    pub fn close(&mut self) {
        self.close_with(0.0);
    }

    /// Closes the open block, which took `extra_s` seconds besides its
    /// samples; an empty one is dropped.
    pub fn close_with(&mut self, extra_s: f64) {
        if self.open.len() > 0 {
            self.closed.push((std::mem::take(&mut self.open), extra_s));
        }
    }

    /// Ends the run: a partial last block is dropped, unless it is the only
    /// one, and the warm-up block is dropped when two or more follow it.
    pub fn finish(&mut self) {
        if self.closed.is_empty() {
            self.close();
        }
        self.open = Samples::default();
        if self.closed.len() > 2 {
            self.closed.remove(0);
        }
    }

    /// Closed blocks.
    pub fn count(&self) -> usize {
        self.closed.len()
    }

    /// Samples in the closed blocks.
    pub fn len(&self) -> usize {
        self.closed.iter().map(|(b, _)| b.len()).sum()
    }

    /// The samples of every closed block together.
    pub fn pooled(&self) -> Samples {
        Samples(
            self.closed
                .iter()
                .flat_map(|(b, _)| b.0.iter().copied())
                .collect(),
        )
    }

    /// The `q`-quantile over closed blocks of `stat` of each block and its
    /// extra seconds.
    fn across(&self, q: f64, stat: impl Fn(&Samples, f64) -> f64) -> f64 {
        let mut per_block = Samples::default();
        for (b, extra_s) in &self.closed {
            per_block.push(stat(b, *extra_s));
        }
        per_block.quantile(q)
    }

    /// Each block's `q`-quantile, a time; the lower decile over blocks.
    pub fn quantile(&self, q: f64) -> f64 {
        self.across(QUIET, |b, _| b.quantile(q))
    }

    /// Each block's operations per second, when every sample is
    /// `per_sample` operations lasting its value in µs; the upper decile
    /// over blocks.
    pub fn rate_per_s(&self, per_sample: f64) -> f64 {
        self.across(1.0 - QUIET, |b, extra_s| {
            per_sample * b.len() as f64 / (b.sum() / 1e6 + extra_s)
        })
    }
}

/// One named measurement with its unit, what it is per, and how many
/// samples it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
    pub samples: u64,
}

impl Metric {
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        base: impl Into<String>,
        samples: usize,
    ) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            base: base.into(),
            samples: samples as u64,
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (rejected, wrong, or cut off).
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers among the failures: any makes the run incorrect.
    pub wrong: u64,
    /// End-to-end metrics (untraced measurement).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced measurement).
    pub layers: Vec<Metric>,
    /// Facts about the workload's inputs and settings, printed as-is.
    pub facts: Vec<(String, String)>,
    /// Generic result-line names and the workload metric each one reports
    /// (`op_p50_us` → `admit_p50_us`, ...).
    pub aliases: Vec<(&'static str, &'static str)>,
}

impl Report {
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    pub fn fail(&mut self, wrong: bool, what: &str) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
            // Report the first few wrong answers; the count carries the rest.
            if self.wrong <= 5 {
                eprintln!("perfbench: wrong answer: {what}");
            }
        }
    }
}

/// Prints one metric line for a reader.
pub fn print_metric(m: &Metric) {
    println!(
        "  {:<28} {:>16.6} {:<6} {} (n={})",
        m.name, m.value, m.unit, m.base, m.samples
    );
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, with
/// the metrics named in `names`, in that order.
pub fn result_line(report: &Report, metrics: &[Metric], names: &[&str]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.wrong == 0,
        report.attempted,
        report.failed
    );
    for (i, name) in names.iter().enumerate() {
        let source = report
            .aliases
            .iter()
            .find(|(generic, _)| generic == name)
            .map_or(*name, |(_, specific)| *specific);
        let m = metrics
            .iter()
            .find(|m| m.name == source)
            .unwrap_or_else(|| panic!("metric {source} was not measured"));
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
