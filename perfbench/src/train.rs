//! `train`: HOGWILD! SGD over an RCV1-like dataset (the paper's §6.2).
//!
//! Each training run boots a fresh cluster, uploads the dataset and runs a
//! fixed number of epochs; every epoch sends `TASKS` parallel
//! `sgd_update` calls through `Cluster::invoke_async` and awaits them (the
//! gateway is bypassed). Runs repeat until the time budget is spent. The
//! state tier pulls read-only chunks while partial pushes update one shared
//! weights vector, so `state`, `kvs` and `net` do the work; the gateway,
//! the FVM and restores are idle.

use std::time::{Duration, Instant};

use faasm_core::{CallStatus, Cluster, ClusterConfig};
use faasm_workloads::data::{bytes_to_f64s, rcv1_like, SparseDataset};
use faasm_workloads::sgd::{self, keys, SgdTask};

use crate::layers::{self, Snap, Timings};
use crate::report::{Metric, Outcome, Phase};
use crate::stats::{median, percentile, Sampler, Spans};

const USER: &str = "ml";
const HOSTS: usize = 2;
const EXAMPLES: usize = 32_768;
/// 8192 f64 weights = 64 KiB, four 16 KiB state chunks.
const FEATURES: usize = 8_192;
const NNZ_PER_EXAMPLE: usize = 12;
/// Parallel `sgd_update` calls per epoch.
const TASKS: u32 = 8;
/// Epochs per training run.
const EPOCHS: usize = 3;
const LEARNING_RATE: f64 = 0.5;
const PUSH_INTERVAL: u32 = 32;
/// Training accuracy every run must reach after its last epoch.
const ACCURACY_FLOOR: f64 = 0.85;

fn config() -> ClusterConfig {
    ClusterConfig {
        hosts: HOSTS,
        ..ClusterConfig::default()
    }
}

/// Boot a cluster, register the worker and upload the dataset.
fn setup(dataset: &SparseDataset) -> Cluster {
    let cluster = Cluster::with_config(config());
    sgd::register_faasm(&cluster, USER);
    sgd::upload_dataset(cluster.kv().as_ref(), dataset).expect("upload dataset");
    cluster
}

pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    let t_gen = Instant::now();
    let dataset = rcv1_like(EXAMPLES, FEATURES, NNZ_PER_EXAMPLE, seed);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let tasks: Vec<SgdTask> = sgd::partition(
        EXAMPLES as u32,
        TASKS,
        FEATURES as u32,
        LEARNING_RATE,
        PUSH_INTERVAL,
    );
    let spans = Spans::new(traced);
    let sampler = Sampler::new(Duration::from_millis(5));
    let mut setups = Vec::new();
    let mut epoch_ms = Vec::new();
    // Every task's latency, invoke_async → await_result.
    let mut task_ms: Vec<f64> = Vec::new();
    let mut phase = Phase::new("epochs");
    let mut out = Outcome::default();
    let mut accuracies = Vec::new();
    let mut last_layers = None;
    let mut epoch_id = 0u64;
    let start = Instant::now();
    while setups.len() < crate::SETUP_REPS || start.elapsed() < budget {
        let t0 = Instant::now();
        let cluster = setup(&dataset);
        setups.push(t0.elapsed().as_secs_f64());
        let before = Snap::take(&cluster, None);
        let mut lat = Vec::new();
        let mut invoke_us = Vec::new();
        for _ in 0..EPOCHS {
            epoch_id += 1;
            let e0 = Instant::now();
            let span0 = spans.now();
            let ids: Vec<_> = tasks
                .iter()
                .map(|t| {
                    let input = t.to_bytes();
                    let c0 = Instant::now();
                    let id = spans.time("invoke_async", "epoch", epoch_id, || {
                        cluster.invoke_async(USER, "sgd_update", input)
                    });
                    invoke_us.push(c0.elapsed().as_secs_f64() * 1e6);
                    (id, c0)
                })
                .collect();
            for (id, c0) in ids {
                let r = spans.time("await_result", "epoch", epoch_id, || {
                    cluster.await_result(id)
                });
                if phase.count(1, r.status == CallStatus::Success, || true) {
                    lat.push(c0.elapsed().as_secs_f64() * 1e3);
                }
                sampler.maybe_sample(&cluster);
            }
            epoch_ms.push(e0.elapsed().as_secs_f64() * 1e3);
            spans.record("epoch", "", epoch_id, span0);
        }
        sampler.sample(&cluster);
        let after = Snap::take(&cluster, None);
        task_ms.extend(lat);
        match check_model(&cluster, &dataset) {
            Ok(acc) => accuracies.push(acc),
            Err(e) => out.check_failures.push(e),
        }
        if traced {
            let t = Timings {
                invoke_async_us: invoke_us,
                rounds: EPOCHS,
                ..Timings::default()
            };
            last_layers = Some(layers::metrics(&cluster, &before, &after, &sampler, &t));
        }
    }
    let epoch_med = median(&epoch_ms);
    out.e2e = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new(
            "ok_frac",
            phase.ok_frac(),
            "ratio",
            phase.attempted as usize,
        ),
        Metric::new("p50_ms", percentile(&task_ms, 0.50), "ms", task_ms.len()),
        Metric::new("p99_ms", percentile(&task_ms, 0.99), "ms", task_ms.len()),
        Metric::new(
            "throughput_rps",
            TASKS as f64 / (epoch_med / 1e3),
            "1/s",
            epoch_ms.len(),
        ),
        Metric::new("round_ms", epoch_med, "ms", epoch_ms.len()),
        Metric::new("mem_peak_mb", Sampler::mb(&sampler.mem_peak), "MB", 1),
    ];
    out.unit_cost_ms = epoch_med;
    out.rounds = epoch_ms.len();
    out.notes.push(format!(
        "{} training runs of {EPOCHS} epochs, epoch p50 {epoch_med:.1} ms (epoch_s {:.4}), accuracy min {:.4} max {:.4} (floor {ACCURACY_FLOOR}), dataset generated in {gen_s:.2} s",
        setups.len(),
        epoch_med / 1e3,
        accuracies.iter().copied().fold(f64::INFINITY, f64::min),
        accuracies.iter().copied().fold(0.0, f64::max),
    ));
    let chunk = config().instance.chunk_size;
    out.props = vec![
        (
            "cluster",
            format!(
                "hosts {HOSTS}, workers/host {}, state shards {}, exec tier {:?} (native guest), gateway bypassed",
                config().instance.workers,
                config().state_shards,
                config().exec_tier
            ),
        ),
        (
            "dataset",
            format!(
                "rcv1_like {EXAMPLES} examples x {FEATURES} features, {NNZ_PER_EXAMPLE} nnz/example ({} nnz), seed = run seed (default {})",
                dataset.nnz(),
                crate::DEFAULT_SEED
            ),
        ),
        (
            "weights",
            format!(
                "{} bytes in {} chunks of {chunk} bytes; {TASKS} tasks/epoch, lr {LEARNING_RATE}, push every {PUSH_INTERVAL} examples",
                FEATURES * 8,
                (FEATURES * 8).div_ceil(chunk)
            ),
        ),
    ];
    out.phases = vec![phase];
    if let Some(l) = last_layers {
        out.layers = l;
        out.notes
            .push("per-layer counters cover the last training run; timings cover all runs".into());
        out.notes.extend(spans.summary());
        crate::write_spans(&spans, "train", seed, &mut out);
    }
    out
}

/// Training accuracy, if it reaches the floor and every weight is finite.
fn check_model(cluster: &Cluster, dataset: &SparseDataset) -> Result<f64, String> {
    let kv = cluster.kv().as_ref();
    let weights = kv
        .get(keys::WEIGHTS)
        .map_err(|e| format!("reading weights: {e}"))?
        .ok_or("weights missing")?;
    if let Some(bad) = bytes_to_f64s(&weights).iter().position(|w| !w.is_finite()) {
        return Err(format!("weight {bad} is not finite"));
    }
    let acc = sgd::accuracy(kv, dataset)?;
    if acc < ACCURACY_FLOOR {
        return Err(format!("accuracy {acc:.4} below floor {ACCURACY_FLOOR}"));
    }
    Ok(acc)
}
