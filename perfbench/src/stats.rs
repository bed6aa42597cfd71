//! Seeded input generation, order statistics, resource sampling and the
//! benchmark's own spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use faasm_core::Cluster;

/// splitmix64: every generated input derives from the `--seed` argument
/// through one of these streams. The benchmark keeps its own generator so
/// a change to the crates under test cannot change its inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks over `0..n` (rank 0 most popular).
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median across windows of each window's `p` percentile: `p99_ms` on
/// `serve` and `scale`, where a few stalls of the machine set the pooled
/// p99 (see `serve::LATENCY_WINDOW`).
pub fn windowed(windows: &[Vec<f64>], p: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p))
        .collect();
    median(&per)
}

/// Peak host resources, sampled from the load-generator threads (no
/// sampler thread of its own). `maybe_sample` is rate-limited so sampling
/// costs the system under test almost nothing.
#[derive(Debug)]
pub struct Sampler {
    start: Instant,
    every_ns: u64,
    last_ns: AtomicU64,
    pub samples: AtomicU64,
    pub mem_peak: AtomicU64,
    pub faaslet_rss_peak: AtomicU64,
    pub state_local_peak: AtomicU64,
    pub pooled_peak: AtomicU64,
    pub queue_depth_peak: AtomicU64,
}

impl Sampler {
    pub fn new(every: Duration) -> Sampler {
        Sampler {
            start: Instant::now(),
            every_ns: every.as_nanos() as u64,
            last_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            mem_peak: AtomicU64::new(0),
            faaslet_rss_peak: AtomicU64::new(0),
            state_local_peak: AtomicU64::new(0),
            pooled_peak: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
        }
    }

    /// Sample if the last sample is older than the sampling interval.
    pub fn maybe_sample(&self, cluster: &Cluster) {
        let now = self.start.elapsed().as_nanos() as u64;
        let last = self.last_ns.load(Ordering::Relaxed);
        if now.saturating_sub(last) < self.every_ns
            || self
                .last_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        self.sample(cluster);
    }

    pub fn sample(&self, cluster: &Cluster) {
        let (mut total, mut state, mut fs, mut pooled, mut depth) = (0, 0, 0, 0, 0);
        for inst in cluster.instances() {
            total += inst.host_memory_bytes() as u64;
            state += inst.state().local_bytes() as u64;
            fs += inst.hostfs().cached_bytes() as u64;
            pooled += inst.pooled_faaslets() as u64;
            depth = depth.max(inst.queue_depth() as u64);
        }
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.mem_peak.fetch_max(total, Ordering::Relaxed);
        self.faaslet_rss_peak
            .fetch_max(total.saturating_sub(state + fs), Ordering::Relaxed);
        self.state_local_peak.fetch_max(state, Ordering::Relaxed);
        self.pooled_peak.fetch_max(pooled, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    pub fn mb(v: &AtomicU64) -> f64 {
        v.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// One span the benchmark records around a public call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Request (or round) id shared by a span and its children.
    pub id: u64,
    /// Enclosing span's name, `""` for a root.
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store, written out once at the end of a traced run.
/// Recording is off unless the run is traced.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the store's epoch at `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(&self, name: &'static str, parent: &'static str, id: u64, start_ns: u64) {
        self.record_until(name, parent, id, start_ns, self.now());
    }

    /// Record a span that ended at `end_ns`, earlier than now.
    pub fn record_until(
        &self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.on {
            return;
        }
        self.spans
            .lock()
            .expect("span store poisoned by a panicking generator")
            .push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
            });
    }

    /// Time a closure as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = self.now();
        let out = f();
        self.record(name, parent, id, t0);
        out
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking generator")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span name: count, total ms and self ms (span time minus the
    /// part of it its children cover), as printable lines.
    pub fn summary(&self) -> Vec<String> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking generator");
        let mut children: std::collections::HashMap<(&str, u64), Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for s in spans.iter().filter(|s| !s.parent.is_empty()) {
            children
                .entry((s.parent, s.id))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut rows: std::collections::BTreeMap<&str, (u64, f64, f64)> =
            std::collections::BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let covered = children
                .get_mut(&(s.name, s.id))
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total as f64 / 1e6;
            row.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        rows.iter()
            .map(|(name, (n, total, own))| {
                format!("span {name:<14} count {n:>8}  total {total:>10.2} ms  self {own:>10.2} ms")
            })
            .collect()
    }

    /// Write every span as tab-separated lines into `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking generator");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cur) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            covered += e - s;
            cur = e;
        }
    }
    covered
}
