//! `serve`: mobilenet-lite inference behind the gateway (the paper's §6.3).
//!
//! Phase A is an open loop at a fixed rate, each request timed from its
//! due time; phase B is a closed loop with a fixed window of in-flight
//! requests; phase C sends bursts of concurrent requests and times each
//! burst. The three take turns in slices of the run. Images come from a
//! seeded pool with Zipf popularity. Gateway admission, queueing and
//! dispatch, placement and the warm-Faaslet path do the work; the state
//! tier, the KVS, the FVM and restores are idle.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm_core::{Cluster, ClusterConfig, TraceCtx};
use faasm_gateway::{Gateway, GatewayConfig, GatewayRequest, GatewayResponse, GatewayStatus};
use faasm_workloads::data::synth_images;
use faasm_workloads::inference::{self, Model, CLASSES, SIDE};

use crate::layers::{self, Snap, Timings};
use crate::report::{Metric, Outcome, Phase};
use crate::retry;
use crate::stats::{median, percentile, windowed, Rng, Sampler, Spans, Zipf};

const TENANT: &str = "serve";
const HOSTS: usize = 2;
/// Distinct images requests draw from.
const POOL: usize = 256;
const ZIPF_EXPONENT: f64 = 1.1;
/// Phase A's open-loop rate: about a quarter of phase B's capacity on a
/// 2-core machine. At half of capacity (8k rps) the median latency moved
/// by a fifth between runs on a shared VM; at 4k rps it repeats within 5%.
const RATE_A: f64 = 4_000.0;
/// Phase B's in-flight window.
const WINDOW_B: usize = 64;
/// Requests per phase-C burst.
const BURST_C: usize = 128;
/// Phase A window for `p99_ms`, the median across windows of each
/// window's p99 (at 4000 requests/s, the second slowest of about 100).
/// The pooled p99 of the whole phase is printed beside it but not gated:
/// the 2-vCPU VM the benchmark was sized on stalls for 2-20 ms several
/// times a second even when idle (a sleep loop alone saw 60 stalls over
/// 2 ms in 10 s), those stalls set the pooled p99, and over 16 runs it
/// moved between 0.5 and 11 ms. A tail regression moves the windowed
/// figure only if it delays at least two requests in more than half of
/// the windows, such as a pause of 0.5 ms or more that recurs every 50 ms.
const LATENCY_WINDOW: Duration = Duration::from_millis(25);
/// Phases A, B and C take turns in slices of about this length (half, three
/// tenths and a fifth of each slice), so each phase samples the whole run
/// and not one stretch of it: the machine's speed drifts over seconds.
const SLICE: Duration = Duration::from_secs(5);
/// Phase B statistics window for completion rates.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Warm-up requests sent during set-up.
const WARMUP: usize = 256;
/// Generator lateness (p99) or end-of-phase backlog beyond which phase A
/// is flagged as not having held its schedule.
const LATE_FLAG: Duration = Duration::from_millis(1);
const BACKLOG_FLAG: u64 = WINDOW_B as u64;
/// Largest allowed difference between a served score and the reference.
const SCORE_TOL: f32 = 1e-5;

/// Reference answers, computed once per pool image.
struct Reference {
    images: Vec<Vec<u8>>,
    argmax: Vec<u8>,
    scores: Vec<[f32; CLASSES]>,
}

impl Reference {
    fn new(seed: u64, model: &Model) -> Reference {
        let images = synth_images(POOL, SIDE, seed);
        let scores: Vec<[f32; CLASSES]> = images.iter().map(|i| model.infer(i)).collect();
        let argmax = scores
            .iter()
            .map(|s| {
                s.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("scores are finite"))
                    .map(|(i, _)| i as u8)
                    .expect("non-empty scores")
            })
            .collect();
        Reference {
            images,
            argmax,
            scores,
        }
    }

    /// Count a request's final answer, after `sends` sends, into the
    /// phase; true when OK and correct.
    fn check(&self, phase: &mut Phase, idx: usize, resp: &GatewayResponse, sends: u32) -> bool {
        phase.count(sends, resp.status == GatewayStatus::Ok, || {
            inference::decode_response(&resp.output).is_some_and(|(arg, scores)| {
                arg == self.argmax[idx]
                    && scores
                        .iter()
                        .zip(&self.scores[idx])
                        .all(|(a, b)| (a - b).abs() <= SCORE_TOL)
            })
        })
    }
}

struct System {
    cluster: Arc<Cluster>,
    gateway: Gateway,
}

fn config() -> ClusterConfig {
    ClusterConfig {
        hosts: HOSTS,
        ..ClusterConfig::default()
    }
}

/// Boot, publish the model, start the gateway and warm it up.
fn setup(model_seed: u64, reference: &Reference, warmup: &mut Phase) -> System {
    let cluster = Arc::new(Cluster::with_config(config()));
    inference::setup_faasm(&cluster, TENANT, model_seed);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    let send = |idx: usize| gateway.submit(TENANT, "infer", reference.images[idx].clone());
    let first = Instant::now();
    let tickets: Vec<(u64, usize)> = (0..WARMUP).map(|i| (send(i % POOL), i % POOL)).collect();
    for (t, idx) in tickets {
        let (resp, sends) = retry::wait(&gateway, t, first, || send(idx));
        reference.check(warmup, idx, &resp, sends);
    }
    System { cluster, gateway }
}

/// Draws image indices and tracks how many repeat an earlier draw.
struct Draws {
    rng: Rng,
    zipf: Zipf,
    seen: Vec<bool>,
    total: u64,
    repeated: u64,
}

impl Draws {
    /// The next request's image and its id (unique across the run).
    fn next(&mut self) -> (usize, u64) {
        let idx = self.zipf.sample(&mut self.rng);
        let id = self.total;
        self.total += 1;
        if std::mem::replace(&mut self.seen[idx], true) {
            self.repeated += 1;
        }
        (idx, id)
    }
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let model_seed = seed.wrapping_mul(31).wrapping_add(7);
    let model = Model::generate(model_seed);
    let reference = Reference::new(seed, &model);
    let mut warmup = Phase::new("warmup");
    let mut setups = Vec::new();
    let mut system = None;
    for _ in 0..crate::SETUP_REPS {
        // The previous system is torn down before the next boots.
        drop(system.take());
        let t0 = Instant::now();
        system = Some(setup(model_seed, &reference, &mut warmup));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let System { cluster, gateway } = system.expect("at least one set-up");

    let spans = Spans::new(traced);
    let sampler = Sampler::new(Duration::from_millis(5));
    let mut draws = Draws {
        rng: Rng::new(seed, 1),
        zipf: Zipf::new(POOL, ZIPF_EXPONENT),
        seen: vec![false; POOL],
        total: 0,
        repeated: 0,
    };
    let before = Snap::take(&cluster, Some(&gateway));
    let secs = budget.as_secs_f64();
    let ctx = Ctx {
        gateway: &gateway,
        cluster: &cluster,
        reference: &reference,
        spans: &spans,
        sampler: &sampler,
    };
    let slices = (secs / SLICE.as_secs_f64()).round().max(1.0) as u32;
    let slice = budget / slices;
    let mut a = ctx.phase_a(&mut draws, slice.mul_f64(0.50));
    let mut b = ctx.phase_b(&mut draws, slice.mul_f64(0.30));
    let mut c = ctx.phase_c(&mut draws, slice.mul_f64(0.20));
    for _ in 1..slices {
        a.absorb(ctx.phase_a(&mut draws, slice.mul_f64(0.50)));
        b.absorb(ctx.phase_b(&mut draws, slice.mul_f64(0.30)));
        c.absorb(ctx.phase_c(&mut draws, slice.mul_f64(0.20)));
    }
    let after = Snap::take(&cluster, Some(&gateway));

    let mut out = Outcome::default();
    let lat_n = a.latency_ms.len();
    let mut measured = Phase::new("measured");
    for p in [&a.phase, &b.phase, &c.phase] {
        measured.add(p);
    }
    let attempted = measured.attempted;
    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("ok_frac", measured.ok_frac(), "ratio", attempted as usize),
        Metric::new("p50_ms", percentile(&a.latency_ms, 0.50), "ms", lat_n),
        Metric::new("p99_ms", windowed(&a.windowed_ms, 0.99), "ms", lat_n),
        Metric::new(
            "throughput_rps",
            median(&b.window_rps),
            "1/s",
            b.phase.ok as usize,
        ),
        Metric::new("round_ms", median(&c.burst_ms), "ms", c.burst_ms.len()),
        Metric::new("mem_peak_mb", Sampler::mb(&sampler.mem_peak), "MB", 1),
    ];
    out.unit_cost_ms = 1e3 / median(&b.window_rps);
    out.rounds = b.window_rps.len();
    let late_p99 = percentile(&a.lateness_us, 0.99);
    out.notes.push(format!(
        "phase A: rate {RATE_A} rps, generator lateness p50 {:.1} us p99 {:.1} us, largest backlog at a slice end {}",
        percentile(&a.lateness_us, 0.5),
        late_p99,
        a.backlog
    ));
    out.notes.push(format!(
        "phase A: pooled p99 {:.4} ms, p99.9 {:.4} ms over all {lat_n} requests (not gated); p99_ms is the median over {} windows of {} ms",
        percentile(&a.latency_ms, 0.99),
        percentile(&a.latency_ms, 0.999),
        a.windowed_ms.len(),
        LATENCY_WINDOW.as_millis(),
    ));
    if late_p99 > LATE_FLAG.as_secs_f64() * 1e6 || a.backlog > BACKLOG_FLAG {
        out.notes
            .push("FLAG: phase A generator did not hold its schedule".into());
    }
    out.notes.push(format!(
        "phase B: window {WINDOW_B}, {:.0} ok/s overall over {:.2} s",
        b.phase.ok as f64 / (secs * 0.30),
        secs * 0.30
    ));
    out.notes.push(format!(
        "phase C: {} bursts of {BURST_C}, makespan p50 {:.2} ms",
        c.burst_ms.len(),
        median(&c.burst_ms)
    ));
    out.props = vec![
        (
            "cluster",
            format!(
                "hosts {HOSTS}, workers/host {}, state shards {}, exec tier {:?}, gateway default config",
                config().instance.workers,
                config().state_shards,
                config().exec_tier
            ),
        ),
        (
            "inputs",
            format!("{POOL} images, Zipf exponent {ZIPF_EXPONENT}, default seed {}", crate::DEFAULT_SEED),
        ),
        (
            "repeated_input_share",
            format!(
                "{:.4} ({} of {} requests repeat an earlier image)",
                draws.repeated as f64 / draws.total.max(1) as f64,
                draws.repeated,
                draws.total
            ),
        ),
    ];
    out.phases = vec![warmup, a.phase, b.phase, c.phase];
    if traced {
        let mut t = Timings {
            submit_us: spans.durations_us("submit"),
            // A serve round is one burst's worth of requests, across phases.
            rounds: (attempted / BURST_C as u64) as usize,
            ..Timings::default()
        };
        // The two steps `infer_fn` runs on every call, timed in-process.
        let bytes = model.to_bytes();
        for img in reference.images.iter().take(POOL) {
            let t0 = Instant::now();
            let parsed = Model::from_bytes(std::hint::black_box(&bytes)).expect("model parses");
            t.model_parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            std::hint::black_box(parsed.infer(std::hint::black_box(img)));
            t.infer_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        out.layers = layers::metrics(&cluster, &before, &after, &sampler, &t);
        out.notes.extend(spans.summary());
        crate::write_spans(&spans, "serve", seed, &mut out);
    }
    drop(gateway);
    drop(cluster);
    out
}

struct Ctx<'a> {
    gateway: &'a Gateway,
    cluster: &'a Cluster,
    reference: &'a Reference,
    spans: &'a Spans,
    sampler: &'a Sampler,
}

struct PhaseA {
    phase: Phase,
    /// Every OK request's latency from its due time.
    latency_ms: Vec<f64>,
    /// The same latencies split by due time into `LATENCY_WINDOW`s.
    windowed_ms: Vec<Vec<f64>>,
    lateness_us: Vec<f64>,
    backlog: u64,
}

struct PhaseB {
    phase: Phase,
    window_rps: Vec<f64>,
}

struct PhaseC {
    phase: Phase,
    burst_ms: Vec<f64>,
}

impl PhaseA {
    /// Fold a later slice of the phase into this one.
    fn absorb(&mut self, other: PhaseA) {
        self.phase.add(&other.phase);
        self.latency_ms.extend(other.latency_ms);
        self.windowed_ms.extend(other.windowed_ms);
        self.lateness_us.extend(other.lateness_us);
        self.backlog = self.backlog.max(other.backlog);
    }
}

impl PhaseB {
    fn absorb(&mut self, other: PhaseB) {
        self.phase.add(&other.phase);
        self.window_rps.extend(other.window_rps);
    }
}

impl PhaseC {
    fn absorb(&mut self, other: PhaseC) {
        self.phase.add(&other.phase);
        self.burst_ms.extend(other.burst_ms);
    }
}

impl Ctx<'_> {
    fn submit(&self, idx: usize, id: u64) -> u64 {
        let img = self.reference.images[idx].clone();
        self.spans.time("submit", "request", id, || {
            self.gateway.submit(TENANT, "infer", img)
        })
    }

    /// Wait for a request's final answer, resending it while it is shed.
    fn wait(&self, ticket: u64, idx: usize, id: u64, first: Instant) -> (GatewayResponse, u32) {
        self.spans.time("wait", "request", id, || {
            retry::wait(self.gateway, ticket, first, || self.submit(idx, id))
        })
    }

    /// Open loop: the generator thread sends on schedule through
    /// `submit_async`; each completion callback timestamps its response
    /// when it lands and hands it to the checker thread, which also
    /// resends shed requests.
    fn phase_a(&self, draws: &mut Draws, length: Duration) -> PhaseA {
        let interval = Duration::from_secs_f64(1.0 / RATE_A);
        let start = Instant::now() + Duration::from_millis(2);
        let end = start + length;
        let windows = (length.as_nanos() / LATENCY_WINDOW.as_nanos()).max(1) as usize;
        // Tag: (image, due time, span id, span start).
        let (client, mut collector) =
            retry::Client::<(usize, Instant, u64, u64)>::new(self.gateway);
        let mut lateness_us = Vec::new();
        let mut backlog = 0;
        let mut phase = Phase::new("A");
        let mut latency_ms = Vec::new();
        let mut windowed_ms = vec![Vec::new(); windows];
        std::thread::scope(|s| {
            s.spawn(|| {
                while let Some(landed) = collector.next() {
                    let (idx, due, id, t0) = landed.tag;
                    let done = landed.done;
                    self.spans
                        .record_until("request", "", id, t0, self.spans.ns_at(done));
                    if self
                        .reference
                        .check(&mut phase, idx, &landed.resp, landed.sends)
                    {
                        let ms = (done - due).as_secs_f64() * 1e3;
                        latency_ms.push(ms);
                        let w = ((due - start).as_nanos() / LATENCY_WINDOW.as_nanos()) as usize;
                        if let Some(win) = windowed_ms.get_mut(w) {
                            win.push(ms);
                        }
                    }
                }
            });
            for i in 0u32.. {
                let due = start + interval * i;
                if due >= end {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let t0 = self.spans.now();
                lateness_us.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                let (idx, id) = draws.next();
                let req = GatewayRequest {
                    seq: id,
                    tenant: TENANT.into(),
                    function: "infer".into(),
                    deadline_ms: 0,
                    trace: TraceCtx::NONE,
                    input: self.reference.images[idx].clone(),
                };
                self.spans.time("submit", "request", id, || {
                    client.send((idx, due, id, t0), req)
                });
                self.sampler.maybe_sample(self.cluster);
            }
            backlog = client.outstanding() as u64;
            client.close();
        });
        PhaseA {
            phase,
            latency_ms,
            windowed_ms,
            lateness_us,
            backlog,
        }
    }

    /// Closed loop: one thread submits while fewer than `WINDOW_B`
    /// requests are in flight, the other waits for them in order (and
    /// resends shed ones).
    fn phase_b(&self, draws: &mut Draws, length: Duration) -> PhaseB {
        let start = Instant::now();
        let end = start + length;
        let windows = (length.as_nanos() / RATE_WINDOW.as_nanos()).max(1) as usize;
        let (tx, rx) = mpsc::sync_channel::<(u64, usize, u64, u64, Instant)>(WINDOW_B);
        let mut phase = Phase::new("B");
        let mut per_window = vec![0u64; windows];
        std::thread::scope(|s| {
            s.spawn(|| {
                for (ticket, idx, id, t0, first) in rx {
                    let (resp, sends) = self.wait(ticket, idx, id, first);
                    let done = Instant::now();
                    self.spans.record("request", "", id, t0);
                    if self.reference.check(&mut phase, idx, &resp, sends) && done < end {
                        let w = ((done - start).as_nanos() / RATE_WINDOW.as_nanos()) as usize;
                        if let Some(c) = per_window.get_mut(w) {
                            *c += 1;
                        }
                    }
                    self.sampler.maybe_sample(self.cluster);
                }
            });
            while Instant::now() < end {
                let t0 = self.spans.now();
                let (idx, id) = draws.next();
                let first = Instant::now();
                let ticket = self.submit(idx, id);
                tx.send((ticket, idx, id, t0, first))
                    .expect("phase B waiter outlives the sender");
            }
            drop(tx);
        });
        let window_rps = per_window
            .iter()
            .map(|&c| c as f64 / RATE_WINDOW.as_secs_f64())
            .collect();
        PhaseB { phase, window_rps }
    }

    /// Bursts: submit `BURST_C` requests at once, wait for all, repeat.
    fn phase_c(&self, draws: &mut Draws, length: Duration) -> PhaseC {
        let end = Instant::now() + length;
        let mut phase = Phase::new("C");
        let mut burst_ms = Vec::new();
        while Instant::now() < end {
            let t0 = Instant::now();
            let burst_span = self.spans.now();
            let sent: Vec<(u64, usize, u64, u64)> = (0..BURST_C)
                .map(|_| {
                    let (idx, id) = draws.next();
                    let r0 = self.spans.now();
                    (self.submit(idx, id), idx, id, r0)
                })
                .collect();
            let burst_id = sent[0].2;
            for (ticket, idx, rid, r0) in sent {
                let (resp, sends) = self.wait(ticket, idx, rid, t0);
                self.spans.record("request", "", rid, r0);
                self.reference.check(&mut phase, idx, &resp, sends);
            }
            burst_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            self.spans.record("burst", "", burst_id, burst_span);
            self.sampler.maybe_sample(self.cluster);
        }
        PhaseC { phase, burst_ms }
    }
}
