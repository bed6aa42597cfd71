//! Per-layer metrics: counters and stage histograms read from each crate's
//! public API before and after the measured phase, plus the benchmark's
//! own timings of the calls it makes into each layer.

use faasm_core::Cluster;
use faasm_gateway::Gateway;
use faasm_telemetry::{HistSnapshot, SpanKind, SPAN_KINDS};

use crate::report::Metric;
use crate::stats::{percentile, Sampler};

/// Counter values at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    hists: Vec<HistSnapshot>,
    calls: Vec<u64>,
    /// Per host: Faaslet initialisations recorded so far.
    inits: Vec<usize>,
    forwarded: u64,
    exec_ns: u64,
    fuel: u64,
    guest_instrs: u64,
    warm: u64,
    cold: u64,
    restores: u64,
    chunks_fetched: u64,
    chunk_hits: u64,
    gw: Option<faasm_core::metrics::GatewayMetricsSnapshot>,
    kvs_ops: u64,
    kvs_batched_items: u64,
    net_bytes: u64,
    net_msgs: u64,
}

impl Snap {
    pub fn take(cluster: &Cluster, gateway: Option<&Gateway>) -> Snap {
        // Each stage histogram merged across the tiers that record it.
        let mut hists = vec![HistSnapshot::default(); SPAN_KINDS];
        for (_, kinds) in faasm_telemetry::metrics_snapshot() {
            for (kind, h) in kinds {
                hists[kind as usize].merge(&h);
            }
        }
        let mut s = Snap {
            hists,
            calls: Vec::new(),
            inits: Vec::new(),
            forwarded: 0,
            exec_ns: 0,
            fuel: 0,
            guest_instrs: 0,
            warm: 0,
            cold: 0,
            restores: 0,
            chunks_fetched: 0,
            chunk_hits: 0,
            gw: gateway.map(|g| g.metrics().snapshot()),
            kvs_ops: 0,
            kvs_batched_items: 0,
            net_bytes: 0,
            net_msgs: 0,
        };
        for inst in cluster.instances() {
            let m = inst.metrics().snapshot();
            s.calls.push(m.calls);
            s.inits.push(inst.metrics().init_times_ns().len());
            s.forwarded += m.forwarded;
            s.exec_ns += m.exec_ns;
            s.fuel += m.fuel;
            s.guest_instrs += m.guest_instrs;
            s.warm += m.warm_starts;
            s.cold += m.cold_starts;
            s.restores += m.proto_restores;
            let snap = inst.snapshot_stats();
            s.chunks_fetched += snap.chunks_fetched;
            s.chunk_hits += snap.chunk_hits;
        }
        for shard in cluster.state_shard_stats().unwrap_or_default() {
            s.kvs_ops += shard.reads + shard.writes + shard.lock_ops;
            s.kvs_batched_items += shard.batched_items;
        }
        let net = cluster.fabric().stats().snapshot();
        s.net_bytes = net.total_bytes();
        s.net_msgs = net.msgs_sent + net.msgs_received;
        s
    }
}

/// The part of a histogram recorded between two snapshots.
fn hist_delta(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let mut d = HistSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        // Bucket midpoints are not clamped by a delta's min/max.
        min: 0,
        max: u64::MAX,
        buckets: after.buckets,
    };
    for (a, b) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *a = a.saturating_sub(*b);
    }
    d
}

/// Timings the benchmark takes itself, around its calls into a layer.
#[derive(Debug, Default)]
pub struct Timings {
    /// `Gateway::submit` durations, µs.
    pub submit_us: Vec<f64>,
    /// `Cluster::invoke_async` durations, µs.
    pub invoke_async_us: Vec<f64>,
    /// `Model::infer` and `Model::from_bytes` durations, µs.
    pub infer_us: Vec<f64>,
    pub model_parse_us: Vec<f64>,
    /// Rounds (train epochs, scale bursts, serve requests / 128) the
    /// measured phase ran, for the per-round network figures.
    pub rounds: usize,
}

/// Every per-layer metric, in `BENCHMARK.json` order. Layers a workload
/// does not exercise read 0.
pub fn metrics(
    cluster: &Cluster,
    before: &Snap,
    after: &Snap,
    sampler: &Sampler,
    t: &Timings,
) -> Vec<Metric> {
    let h = |k: SpanKind| hist_delta(&after.hists[k as usize], &before.hists[k as usize]);
    let us = |hs: &HistSnapshot, p: f64| hs.percentile(p) as f64 / 1e3;
    let n = |hs: &HistSnapshot| hs.count as usize;
    let mut out = Vec::new();
    let mut push = |name, value, unit, samples| out.push(Metric::new(name, value, unit, samples));

    // gateway
    let submits = t.submit_us.len();
    push(
        "gateway.submit_us_p50",
        percentile(&t.submit_us, 0.5),
        "us",
        submits,
    );
    push(
        "gateway.submit_us_p99",
        percentile(&t.submit_us, 0.99),
        "us",
        submits,
    );
    let gw = match (&before.gw, &after.gw) {
        (Some(b), Some(a)) => Some((a, b)),
        _ => None,
    };
    let qd = gw.map(|(a, b)| hist_delta(&a.queue_delay, &b.queue_delay));
    let qd_n = qd.as_ref().map_or(0, n);
    push(
        "gateway.queue_delay_us_p50",
        qd.as_ref().map_or(0.0, |q| us(q, 50.0)),
        "us",
        qd_n,
    );
    push(
        "gateway.queue_delay_us_p99",
        qd.as_ref().map_or(0.0, |q| us(q, 99.0)),
        "us",
        qd_n,
    );
    let (batches, items) = gw.map_or((0, 0), |(a, b)| {
        (a.batches - b.batches, a.batch_items - b.batch_items)
    });
    push(
        "gateway.batch_occupancy",
        if batches == 0 {
            0.0
        } else {
            items as f64 / batches as f64
        },
        "count",
        batches as usize,
    );
    let shed = gw.map_or(0, |(a, b)| a.shed_total() - b.shed_total());
    push("gateway.shed", shed as f64, "count", 1);
    let prewarmed = gw.map_or(0, |(a, b)| a.prewarmed - b.prewarmed);
    push("gateway.prewarmed", prewarmed as f64, "count", 1);
    let adm = h(SpanKind::Admission);
    push("gateway.admission_us", us(&adm, 50.0), "us", n(&adm));
    let disp = h(SpanKind::Dispatch);
    push("gateway.dispatch_us", us(&disp, 50.0), "us", n(&disp));

    // sched
    push(
        "sched.forwarded",
        (after.forwarded - before.forwarded) as f64,
        "count",
        1,
    );
    push(
        "sched.queue_depth_max",
        sampler
            .queue_depth_peak
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "count",
        sampler.samples.load(std::sync::atomic::Ordering::Relaxed) as usize,
    );
    let per_host: Vec<u64> = after
        .calls
        .iter()
        .zip(&before.calls)
        .map(|(a, b)| a - b)
        .collect();
    let (hi, lo) = (
        per_host.iter().copied().max().unwrap_or(0),
        per_host.iter().copied().min().unwrap_or(0),
    );
    push(
        "sched.host_skew",
        if lo == 0 {
            hi as f64
        } else {
            hi as f64 / lo as f64
        },
        "ratio",
        per_host.len(),
    );

    // core
    let bus = h(SpanKind::BusTransit);
    push("core.bus_transit_us", us(&bus, 50.0), "us", n(&bus));
    let exec = h(SpanKind::WorkerExec);
    push("core.worker_exec_us_p50", us(&exec, 50.0), "us", n(&exec));
    push("core.worker_exec_us_p99", us(&exec, 99.0), "us", n(&exec));
    let exec_ns = after.exec_ns - before.exec_ns;
    push("core.exec_busy_s", exec_ns as f64 / 1e9, "s", 1);
    let (warm, restores, cold) = (
        after.warm - before.warm,
        after.restores - before.restores,
        after.cold - before.cold,
    );
    push("core.warm_starts", warm as f64, "count", 1);
    push("core.proto_restores", restores as f64, "count", 1);
    push("core.cold_starts", cold as f64, "count", 1);
    let starts = warm + restores + cold;
    push(
        "core.warm_ratio",
        if starts == 0 {
            0.0
        } else {
            warm as f64 / starts as f64
        },
        "ratio",
        starts as usize,
    );
    // The restore path runs before the worker installs the call's trace
    // context, so it records no `ProtoRestore` span; the instances' own
    // initialisation timings are read instead. They mix in cold starts, so
    // they are reported only for windows without any.
    let restore_us: Vec<f64> = if cold == 0 {
        cluster
            .instances()
            .iter()
            .zip(&before.inits)
            .flat_map(|(inst, &from)| inst.metrics().init_times_ns().split_off(from))
            .map(|ns| ns as f64 / 1e3)
            .collect()
    } else {
        Vec::new()
    };
    push(
        "core.proto_restore_us_p50",
        percentile(&restore_us, 0.5),
        "us",
        restore_us.len(),
    );
    push(
        "core.proto_restore_us_p99",
        percentile(&restore_us, 0.99),
        "us",
        restore_us.len(),
    );
    push(
        "core.chunks_fetched",
        (after.chunks_fetched - before.chunks_fetched) as f64,
        "count",
        1,
    );
    push(
        "core.chunk_hits",
        (after.chunk_hits - before.chunk_hits) as f64,
        "count",
        1,
    );
    push(
        "core.invoke_async_us",
        percentile(&t.invoke_async_us, 0.5),
        "us",
        t.invoke_async_us.len(),
    );

    // fvm
    let fuel = after.fuel - before.fuel;
    let dispatches = after.guest_instrs - before.guest_instrs;
    push("fvm.fuel", fuel as f64, "count", 1);
    push("fvm.dispatches", dispatches as f64, "count", 1);
    push(
        "fvm.fuel_per_dispatch",
        if dispatches == 0 {
            0.0
        } else {
            fuel as f64 / dispatches as f64
        },
        "ratio",
        1,
    );
    push(
        "fvm.fuel_per_exec_s",
        if exec_ns == 0 || fuel == 0 {
            0.0
        } else {
            fuel as f64 / (exec_ns as f64 / 1e9)
        },
        "1/s",
        1,
    );

    // mem
    let samples = sampler.samples.load(std::sync::atomic::Ordering::Relaxed) as usize;
    push(
        "mem.pooled_faaslets",
        sampler
            .pooled_peak
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "count",
        samples,
    );
    push(
        "mem.faaslet_rss_mb",
        Sampler::mb(&sampler.faaslet_rss_peak),
        "MB",
        samples,
    );

    // state
    let pull = h(SpanKind::StatePull);
    push("state.pull_us_p50", us(&pull, 50.0), "us", n(&pull));
    push("state.pull_us_p99", us(&pull, 99.0), "us", n(&pull));
    push("state.pull_count", pull.count as f64, "count", 1);
    let spush = h(SpanKind::StatePush);
    push("state.push_us_p50", us(&spush, 50.0), "us", n(&spush));
    push("state.push_us_p99", us(&spush, 99.0), "us", n(&spush));
    push("state.push_count", spush.count as f64, "count", 1);
    push(
        "state.local_mb",
        Sampler::mb(&sampler.state_local_peak),
        "MB",
        samples,
    );

    // kvs
    let apply = h(SpanKind::ShardApply);
    push("kvs.shard_apply_us_p50", us(&apply, 50.0), "us", n(&apply));
    push("kvs.shard_apply_us_p99", us(&apply, 99.0), "us", n(&apply));
    push(
        "kvs.ops",
        (after.kvs_ops - before.kvs_ops) as f64,
        "count",
        1,
    );
    push(
        "kvs.batched_items",
        (after.kvs_batched_items - before.kvs_batched_items) as f64,
        "count",
        1,
    );

    // net
    let rounds = t.rounds.max(1) as f64;
    push(
        "net.bytes_per_epoch",
        (after.net_bytes - before.net_bytes) as f64 / rounds,
        "B",
        t.rounds,
    );
    push(
        "net.msgs_per_epoch",
        (after.net_msgs - before.net_msgs) as f64 / rounds,
        "count",
        t.rounds,
    );

    // vfs
    let fs_now: usize = cluster
        .instances()
        .iter()
        .map(|i| i.hostfs().cached_bytes())
        .sum();
    push(
        "vfs.hostfs_cached_mb",
        fs_now as f64 / 1e6,
        "MB",
        cluster.instances().len(),
    );

    // workloads
    push(
        "workloads.infer_us",
        percentile(&t.infer_us, 0.5),
        "us",
        t.infer_us.len(),
    );
    push(
        "workloads.model_parse_us",
        percentile(&t.model_parse_us, 0.5),
        "us",
        t.model_parse_us.len(),
    );
    out
}
