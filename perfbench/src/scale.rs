//! `scale`: scale-to-zero bursts of FL functions compiled to the FVM.
//!
//! Half the functions are short (a few hundred guest instructions, so the
//! Proto-Faaslet restore dominates) and half are long (about 10^5
//! instructions, so the FVM dominates). Each burst submits `CALLS` calls
//! per function through the gateway at once, waits for all of them, then
//! evicts every function on every host so the next burst restores from
//! Proto-Faaslets again. Restore, memory mapping and FVM execution do the
//! work; the state tier and the KVS are idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm_core::{Cluster, ClusterConfig, TraceCtx, UploadOptions};
use faasm_gateway::{Gateway, GatewayConfig, GatewayRequest, GatewayResponse, GatewayStatus};

use crate::layers::{self, Snap, Timings};
use crate::report::{Metric, Outcome, Phase};
use crate::retry;
use crate::stats::{median, percentile, windowed, Rng, Sampler, Spans};

const TENANT: &str = "scale";
const HOSTS: usize = 2;
/// Functions uploaded; the first half short, the second half long.
const FUNCS: usize = 16;
/// Calls per function per burst: a burst of `CALLS * FUNCS` is four times
/// the default gateway's in-flight cap (2 dispatchers x 16), so it queues
/// at admission.
const CALLS: usize = 8;
const SHORT_ITERS: i32 = 12;
const LONG_ITERS: i32 = 4_000;
/// Bursts per window for `p99_ms` (`first_p99_ms`), the median across
/// windows of each window's p99; about 300 ms of bursts. The pooled p99
/// over every first response is printed beside it but not gated, because
/// a few stalls of a shared machine set it (see `serve`'s
/// `LATENCY_WINDOW`).
const BURSTS_PER_WINDOW: usize = 16;

/// The guest: `init` fills a 16 KiB table (so the Proto-Faaslet carries
/// dirty pages); `main` folds the table into a linear congruential
/// sequence seeded by the call input.
const SOURCE: &str = r#"
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int init() {
        ptr int a = (ptr int) 65536;
        for (int i = 0; i < 4096; i = i + 1) { a[i] = i * 7 + SALT; }
        return 0;
    }
    int main() {
        ptr int io = (ptr int) 1024;
        read_call_input(io, 4);
        ptr int a = (ptr int) 65536;
        int acc = io[0];
        for (int i = 0; i < ITERS; i = i + 1) {
            acc = (acc * 1103515245 + 12345) ^ a[i & 4095];
        }
        io[0] = acc;
        write_call_output(io, 4);
        return 0;
    }
"#;

/// The guest's result, recomputed with i32 wrapping arithmetic.
fn expected(x: i32, salt: i32, iters: i32) -> i32 {
    let mut acc = x;
    for i in 0..iters {
        let a = (i & 4095).wrapping_mul(7).wrapping_add(salt);
        acc = acc.wrapping_mul(1_103_515_245).wrapping_add(12_345) ^ a;
    }
    acc
}

#[derive(Debug, Clone)]
struct Func {
    name: String,
    salt: i32,
    iters: i32,
}

fn functions(seed: u64) -> Vec<Func> {
    let mut rng = Rng::new(seed, 2);
    (0..FUNCS)
        .map(|i| Func {
            name: format!("f{i:02}"),
            salt: (rng.next_u64() >> 40) as i32,
            iters: if i < FUNCS / 2 {
                SHORT_ITERS
            } else {
                LONG_ITERS
            },
        })
        .collect()
}

fn source(f: &Func) -> String {
    SOURCE
        .replace("SALT", &f.salt.to_string())
        .replace("ITERS", &f.iters.to_string())
}

fn upload(cluster: &Cluster, f: &Func) {
    cluster
        .upload_fl(
            TENANT,
            &f.name,
            &source(f),
            UploadOptions {
                init: Some("init".into()),
                ..UploadOptions::default()
            },
        )
        .expect("benchmark guest compiles");
}

fn config() -> ClusterConfig {
    ClusterConfig {
        hosts: HOSTS,
        ..ClusterConfig::default()
    }
}

struct Ctx<'a> {
    cluster: &'a Arc<Cluster>,
    gateway: &'a Gateway,
    funcs: &'a [Func],
    spans: &'a Spans,
    sampler: &'a Sampler,
}

struct Burst {
    makespan_ms: f64,
    /// Per function: burst start → its first correct response.
    first_ms: Vec<f64>,
}

impl Ctx<'_> {
    /// One burst: submit every call at once, collect completions through
    /// callbacks (so each response is timed when it lands, not when a
    /// waiter gets to it), resend shed calls, check outputs, then evict
    /// everything.
    fn burst(&self, id: u64, rng: &mut Rng, phase: &mut Phase) -> Burst {
        let burst_span = self.spans.now();
        let (client, mut collector) = retry::Client::new(self.gateway);
        let t0 = Instant::now();
        for call in 0..CALLS {
            for (fi, f) in self.funcs.iter().enumerate() {
                let x = rng.next_u64() as i32;
                let req = GatewayRequest {
                    seq: (call * FUNCS + fi) as u64,
                    tenant: TENANT.into(),
                    function: f.name.clone(),
                    deadline_ms: 0,
                    trace: TraceCtx::NONE,
                    input: x.to_le_bytes().to_vec(),
                };
                self.spans
                    .time("submit", "burst", id, || client.send((fi, x), req));
            }
        }
        client.close();
        let mut first = vec![f64::INFINITY; FUNCS];
        let mut last = t0;
        while let Some(landed) = collector.next() {
            let ((fi, x), done) = (landed.tag, landed.done);
            last = last.max(done);
            if check(phase, &self.funcs[fi], x, &landed.resp, landed.sends) {
                let ms = (done - t0).as_secs_f64() * 1e3;
                first[fi] = first[fi].min(ms);
            }
            self.sampler.maybe_sample(self.cluster);
        }
        self.sampler.sample(self.cluster);
        self.spans.time("evict", "burst", id, || self.evict_all());
        self.spans.record("burst", "", id, burst_span);
        Burst {
            makespan_ms: (last - t0).as_secs_f64() * 1e3,
            first_ms: first.into_iter().filter(|v| v.is_finite()).collect(),
        }
    }

    /// Capture every function's Proto-Faaslet with one call each, one at
    /// a time, then scale to zero.
    fn capture(&self, rng: &mut Rng, phase: &mut Phase) {
        for f in self.funcs {
            let x = rng.next_u64() as i32;
            let resp = self.gateway.call(TENANT, &f.name, x.to_le_bytes().to_vec());
            check(phase, f, x, &resp, 1);
        }
        self.evict_all();
    }

    fn evict_all(&self) {
        for inst in self.cluster.instances() {
            for f in self.funcs {
                inst.evict(TENANT, &f.name);
            }
        }
    }
}

/// Count a call's final answer, after `sends` sends, into `phase`; true
/// when it is OK and correct.
fn check(phase: &mut Phase, f: &Func, x: i32, resp: &GatewayResponse, sends: u32) -> bool {
    phase.count(sends, resp.status == GatewayStatus::Ok, || {
        resp.output == expected(x, f.salt, f.iters).to_le_bytes()
    })
}

/// Fuel one call of `f` burns, measured on a separately uploaded copy so
/// the measured functions' Proto-Faaslets are untouched.
fn fuel_per_call(cluster: &Cluster, f: &Func) -> Result<u64, String> {
    let probe = Func {
        name: format!("probe_{}", f.name),
        ..f.clone()
    };
    upload(cluster, &probe);
    let fuel = |c: &Cluster| -> u64 { c.instances().iter().map(|i| i.metrics().fuel()).sum() };
    let before = fuel(cluster);
    let r = cluster.invoke(TENANT, &probe.name, 7i32.to_le_bytes().to_vec());
    let after = fuel(cluster);
    for inst in cluster.instances() {
        inst.evict(TENANT, &probe.name);
    }
    if r.output != expected(7, f.salt, f.iters).to_le_bytes() {
        return Err(format!("probe {} returned a wrong result", probe.name));
    }
    Ok(after - before)
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let funcs = functions(seed);
    let spans = Spans::new(traced);
    let sampler = Sampler::new(Duration::from_millis(2));
    let mut rng = Rng::new(seed, 3);
    let mut setup_phase = Phase::new("setup-capture");
    let mut setups = Vec::new();
    let mut system: Option<(Gateway, Arc<Cluster>)> = None;
    for _ in 0..crate::SETUP_REPS {
        drop(system.take());
        let t0 = Instant::now();
        let cluster = Arc::new(Cluster::with_config(config()));
        let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
        for f in &funcs {
            upload(&cluster, f);
        }
        let ctx = Ctx {
            cluster: &cluster,
            gateway: &gateway,
            funcs: &funcs,
            spans: &spans,
            sampler: &sampler,
        };
        ctx.capture(&mut rng, &mut setup_phase);
        setups.push(t0.elapsed().as_secs_f64());
        system = Some((gateway, cluster));
    }
    let (gateway, cluster) = system.expect("at least one set-up");
    let mut out = Outcome::default();
    let short_fuel = fuel_per_call(&cluster, &funcs[0]);
    let long_fuel = fuel_per_call(&cluster, &funcs[FUNCS - 1]);
    for r in [&short_fuel, &long_fuel] {
        if let Err(e) = r {
            out.check_failures.push(e.clone());
        }
    }

    let ctx = Ctx {
        cluster: &cluster,
        gateway: &gateway,
        funcs: &funcs,
        spans: &spans,
        sampler: &sampler,
    };
    // Set-up captured each Proto-Faaslet on one host; the other host
    // fetches the published chunks during the first burst.
    let before = Snap::take(&cluster, Some(&gateway));
    let mut phase = Phase::new("bursts");
    let mut bursts = Vec::new();
    let start = Instant::now();
    let mut id = 1;
    while start.elapsed() < budget {
        bursts.push(ctx.burst(id, &mut rng, &mut phase));
        id += 1;
    }
    let after = Snap::take(&cluster, Some(&gateway));

    let makespans: Vec<f64> = bursts.iter().map(|b| b.makespan_ms).collect();
    let first_windows: Vec<Vec<f64>> = bursts
        .chunks(BURSTS_PER_WINDOW)
        .map(|w| w.iter().flat_map(|b| b.first_ms.iter().copied()).collect())
        .collect();
    let first: Vec<f64> = first_windows.concat();
    let round = median(&makespans);
    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new(
            "ok_frac",
            phase.ok_frac(),
            "ratio",
            phase.attempted as usize,
        ),
        Metric::new("p50_ms", percentile(&first, 0.50), "ms", first.len()),
        Metric::new("p99_ms", windowed(&first_windows, 0.99), "ms", first.len()),
        Metric::new(
            "throughput_rps",
            (CALLS * FUNCS) as f64 / (round / 1e3),
            "1/s",
            makespans.len(),
        ),
        Metric::new("round_ms", round, "ms", makespans.len()),
        Metric::new("mem_peak_mb", Sampler::mb(&sampler.mem_peak), "MB", 1),
    ];
    out.unit_cost_ms = round;
    out.rounds = makespans.len();
    out.notes.push(format!(
        "{} bursts of {FUNCS} functions x {CALLS} calls, makespan p50 {round:.2} ms (burst_ms)",
        makespans.len()
    ));
    out.notes.push(format!(
        "first response: pooled p99 {:.4} ms over all {} (burst, function) pairs (not gated); p99_ms is the median over {} windows of {BURSTS_PER_WINDOW} bursts",
        percentile(&first, 0.99),
        first.len(),
        first_windows.len()
    ));
    let show = |r: &Result<u64, String>| r.as_ref().map_or("?".to_string(), u64::to_string);
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
            "functions",
            format!(
                "{} short ({SHORT_ITERS} iterations, fuel/call {}), {} long ({LONG_ITERS} iterations, fuel/call {}); salts and call inputs from the run seed (default {})",
                FUNCS / 2,
                show(&short_fuel),
                FUNCS - FUNCS / 2,
                show(&long_fuel),
                crate::DEFAULT_SEED
            ),
        ),
    ];
    out.phases = vec![setup_phase, phase];
    if traced {
        let t = Timings {
            submit_us: spans.durations_us("submit"),
            rounds: makespans.len(),
            ..Timings::default()
        };
        out.layers = layers::metrics(&cluster, &before, &after, &sampler, &t);
        out.notes.extend(spans.summary());
        crate::write_spans(&spans, "scale", seed, &mut out);
    }
    drop(gateway);
    drop(cluster);
    out
}
