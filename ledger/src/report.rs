//! Timed windows, summary statistics, and the result line.

use std::time::{Duration, Instant};

use qre_json::{ObjectBuilder, Value};

/// One job's latency: from submission to its first item record and to its
/// closing record.
#[derive(Debug, Clone, Copy)]
pub struct JobTime {
    pub first_ms: f64,
    pub close_ms: f64,
}

impl JobTime {
    pub fn since(submitted: Instant, first: Option<Instant>, closed: Instant) -> JobTime {
        let ms = |t: Instant| t.saturating_duration_since(submitted).as_secs_f64() * 1e3;
        JobTime {
            first_ms: ms(first.unwrap_or(closed)),
            close_ms: ms(closed),
        }
    }
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Duration of every pass over the workload's input, in seconds.
    pub passes: Vec<f64>,
    pub jobs: Vec<JobTime>,
    /// Estimates delivered.
    pub items: u64,
    /// Items that came back as errors.
    pub item_errors: u64,
}

impl Window {
    /// Run `pass` repeatedly until `seconds` have elapsed (at least once).
    pub fn run(seconds: f64, mut pass: impl FnMut(&mut Window)) -> Window {
        let mut window = Window::default();
        let start = Instant::now();
        while window.passes.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
            let t = Instant::now();
            pass(&mut window);
            window.passes.push(t.elapsed().as_secs_f64());
        }
        window
    }

    pub fn pass_median_s(&self) -> f64 {
        median(&self.passes)
    }

    pub fn close_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.close_ms).collect()
    }
}

/// Median with linear interpolation between the middle samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` (0 for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest percentile of a fixed ladder that has at least ten samples
/// beyond it, with its value; the maximum (percentile 100) when there are
/// too few samples for any rung.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = values.len() as f64;
    for p in LADDER {
        let beyond = n - (p / 100.0 * n).ceil();
        if beyond >= 10.0 {
            return (p, quantile(values, p / 100.0));
        }
    }
    (100.0, quantile(values, 1.0))
}

/// Peak resident set size of this process (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    qre_par::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

/// Median set-up time over several set-ups, keeping the last one's state;
/// every earlier state is handed to `teardown` before the next set-up.
pub fn setup_median<T>(
    times: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let mut samples = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times {
        if let Some(previous) = state.take() {
            teardown(previous);
        }
        let t = Instant::now();
        state = Some(setup());
        samples.push(t.elapsed().as_secs_f64());
    }
    (median(&samples), state.expect("at least one set-up runs"))
}

/// The run's result: checks, counts, and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a correctness check; a failure counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }

    /// The end-to-end metrics every workload reports, from its set-up time
    /// and its untraced window.
    pub fn end_to_end(&mut self, setup_s: f64, window: &Window) {
        let close = window.close_ms();
        let first: Vec<f64> = window.jobs.iter().map(|j| j.first_ms).collect();
        let (p, tail_ms) = tail(&close);
        self.metric("setup_s", setup_s, "s");
        self.metric("wall_s", window.pass_median_s(), "s");
        // Items of an average pass over the median pass time: a median, so
        // one slow pass does not move it.
        let items_per_pass = window.items as f64 / window.passes.len() as f64;
        self.metric(
            "items_per_s",
            items_per_pass / window.pass_median_s(),
            "items/s",
        );
        self.metric("job_p50_ms", median(&close), "ms");
        self.metric("job_tail_ms", tail_ms, "ms");
        self.metric("first_record_p50_ms", median(&first), "ms");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        self.notes.push(format!(
            "passes={} jobs={} items={} job_tail=p{p} over {} jobs",
            window.passes.len(),
            window.jobs.len(),
            window.items,
            close.len()
        ));
    }

    /// Count a window's items as attempted operations, its item errors as
    /// failed ones.
    pub fn count(&mut self, window: &Window) {
        self.attempted += window.items;
        self.failed += window.item_errors;
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.failed == 0
    }

    /// Print the notes and check results, then the one-line JSON result.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, ok) in &self.checks {
            println!("# check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
        }
        let mut metrics = ObjectBuilder::new();
        for (name, value, unit) in &self.metrics {
            metrics = metrics.field(
                name,
                ObjectBuilder::new()
                    .field("value", *value)
                    .field("unit", *unit)
                    .build(),
            );
        }
        let line = ObjectBuilder::new()
            .field("correct", self.correct())
            .field("attempted", self.attempted.max(1))
            .field("failed", self.failed)
            .field("metrics", metrics.build())
            .build();
        println!("{}", Value::to_string_compact(&line));
    }
}
