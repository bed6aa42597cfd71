//! End-to-end tests for the ingress tier: multi-tenant floods through the
//! gateway must be fair, shed explicitly, and agree with direct
//! `Cluster::invoke` results.

use std::sync::Arc;
use std::time::Duration;

use faasm::core::{Cluster, NativeApi, NativeGuest};
use faasm::gateway::codec::{self, GatewayRequest};
use faasm::gateway::{AutoscaleConfig, Gateway, GatewayConfig, GatewayStatus, TenantPolicy};

const ECHO: &str = r#"
    extern int input_size();
    extern int read_call_input(ptr int buf, int len);
    extern void write_call_output(ptr int buf, int len);
    int main() {
        int n = input_size();
        read_call_input((ptr int) 1024, n);
        write_call_output((ptr int) 1024, n);
        return 0;
    }
"#;

/// A deterministic-latency guest: sleeps ~2 ms, then echoes.
fn slow_guest() -> Arc<dyn NativeGuest> {
    Arc::new(|api: &mut NativeApi<'_>| {
        std::thread::sleep(Duration::from_millis(2));
        let input = api.input().to_vec();
        api.write_output(&input);
        Ok(0)
    })
}

fn cluster_with_tenants(hosts: usize) -> Arc<Cluster> {
    let cluster = Arc::new(Cluster::new(hosts));
    for tenant in ["alice", "bob"] {
        cluster
            .upload_fl(tenant, "echo", ECHO, Default::default())
            .unwrap();
        cluster.register_native(tenant, "slow", slow_guest(), false);
    }
    cluster
}

#[test]
fn gateway_results_match_direct_invoke() {
    let cluster = cluster_with_tenants(2);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    for i in 0..10u8 {
        let input = vec![i, i + 1, i + 2];
        let via_gateway = gateway.call("alice", "echo", input.clone());
        let direct = cluster.invoke("alice", "echo", input.clone());
        assert_eq!(via_gateway.status, GatewayStatus::Ok, "request {i}");
        assert_eq!(
            via_gateway.output, direct.output,
            "gateway and direct results must be identical"
        );
        assert_eq!(via_gateway.output, input);
    }
    // Guest return codes survive the trip too.
    cluster
        .upload_fl(
            "bob",
            "fail",
            "int main() { return 7; }",
            Default::default(),
        )
        .unwrap();
    let resp = gateway.call("bob", "fail", vec![]);
    assert_eq!(resp.status, GatewayStatus::Failed(7));
    let direct = cluster.invoke("bob", "fail", vec![]);
    assert_eq!(direct.return_code(), 7);
}

#[test]
fn wire_frames_roundtrip_through_the_gateway() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    let req = GatewayRequest {
        seq: 777,
        tenant: "alice".into(),
        function: "echo".into(),
        deadline_ms: 0,
        trace: faasm::telemetry::TraceCtx::NONE,
        input: b"over the wire".to_vec(),
    };
    let frame = codec::encode_frame(&codec::encode_request(&req));
    let resp_frame = gateway.handle_frame(&frame);
    let (payload, _) = codec::decode_frame(&resp_frame).expect("framed response");
    let resp = codec::decode_response(payload).expect("decodable response");
    assert_eq!(resp.seq, 777, "response echoes the client seq");
    assert_eq!(resp.status, GatewayStatus::Ok);
    assert_eq!(resp.output, b"over the wire");

    // Malformed bytes get an explicit error, not a hang or a panic.
    let bad = gateway.handle_frame(&codec::encode_frame(b"not a request"));
    let (payload, _) = codec::decode_frame(&bad).unwrap();
    let resp = codec::decode_response(payload).unwrap();
    assert!(matches!(resp.status, GatewayStatus::Error(_)));
}

#[test]
fn overload_is_shed_with_explicit_status_not_a_hang() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 1,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    // Tiny bounded queue: the flood must overflow it.
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 4,
            ..TenantPolicy::default()
        },
    );
    let tickets: Vec<u64> = (0..64)
        .map(|i| gateway.submit("alice", "slow", vec![i]))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| gateway.wait(t)).collect();
    let shed = responses
        .iter()
        .filter(|r| r.status == GatewayStatus::Overloaded)
        .count();
    let ok = responses
        .iter()
        .filter(|r| r.status == GatewayStatus::Ok)
        .count();
    assert!(shed > 0, "a 64-deep burst into a 4-deep queue must shed");
    assert!(ok > 0, "admitted requests still complete");
    assert_eq!(shed + ok, 64, "every request gets a terminal answer");
    assert_eq!(gateway.metrics().shed_overloaded(), shed as u64);
}

#[test]
fn rate_limited_tenants_shed_with_overloaded() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    // 1 request/second with a burst of 2: the third immediate request in
    // the burst must bounce off the token bucket.
    gateway.set_tenant_policy("alice", TenantPolicy::rate_limited(1, 2));
    let mut statuses = Vec::new();
    for i in 0..6u8 {
        statuses.push(gateway.call("alice", "echo", vec![i]).status);
    }
    let shed = statuses
        .iter()
        .filter(|s| **s == GatewayStatus::Overloaded)
        .count();
    assert!(
        shed >= 3,
        "rate 1/s burst 2 over 6 requests: got {statuses:?}"
    );
    assert!(gateway.metrics().shed_ratelimited() >= 3);
    // Bob is untouched by Alice's limit.
    assert_eq!(
        gateway.call("bob", "echo", vec![9]).status,
        GatewayStatus::Ok
    );
}

#[test]
fn queued_past_deadline_is_shed_with_expired() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 1,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    // Occupy the single dispatcher with slow work, then enqueue requests
    // whose deadline will pass while they sit behind it.
    let busy: Vec<u64> = (0..8)
        .map(|i| gateway.submit("alice", "slow", vec![i]))
        .collect();
    let doomed: Vec<u64> = (0..4)
        .map(|i| gateway.submit_with_deadline("bob", "echo", vec![i], Duration::from_millis(1)))
        .collect();
    let expired = doomed
        .into_iter()
        .map(|t| gateway.wait(t))
        .filter(|r| r.status == GatewayStatus::Expired)
        .count();
    assert!(
        expired > 0,
        "1 ms deadlines behind ~16 ms of queued work must expire"
    );
    assert_eq!(gateway.metrics().shed_expired(), expired as u64);
    for t in busy {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
}

/// A guest slow enough to pin a submit slot for a long time.
fn very_slow_guest(ms: u64) -> Arc<dyn NativeGuest> {
    Arc::new(move |api: &mut NativeApi<'_>| {
        std::thread::sleep(Duration::from_millis(ms));
        let input = api.input().to_vec();
        api.write_output(&input);
        Ok(0)
    })
}

/// The head-of-line regression the batch-aware dispatcher fixes: with every
/// in-flight slot pinned by slow work, short-deadline requests must still be
/// shed `Expired` on a `batch_wait` cadence — not after the slow batch
/// completes (the old dispatcher parked in `await_call`), and certainly not
/// at `wait_timeout`.
#[test]
fn expired_shed_is_prompt_while_dispatchers_are_saturated() {
    let cluster = Arc::new(Cluster::new(1));
    cluster.register_native("alice", "versylow", very_slow_guest(400), false);
    for tenant in ["alice", "bob"] {
        cluster
            .upload_fl(tenant, "echo", ECHO, Default::default())
            .unwrap();
    }
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 4, // max_inflight defaults to 1×4
            batch_wait: Duration::from_millis(5),
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    // Pin all four in-flight slots (and more) with 400 ms calls.
    let busy: Vec<u64> = (0..8)
        .map(|i| gateway.submit("alice", "versylow", vec![i]))
        .collect();
    // Give the dispatcher a beat to take the slow batch in flight.
    std::thread::sleep(Duration::from_millis(30));
    // Short-deadline requests behind the wall of slow work.
    let doomed: Vec<u64> = (0..4)
        .map(|i| gateway.submit_with_deadline("bob", "echo", vec![i], Duration::from_millis(10)))
        .collect();
    let t0 = std::time::Instant::now();
    for t in doomed {
        let r = gateway.wait(t);
        assert_eq!(
            r.status,
            GatewayStatus::Expired,
            "deadline passed while all submit slots were pinned"
        );
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(150),
        "expired sheds must be bounded by batch_wait cadence, not by the \
         400 ms in-flight work (took {elapsed:?})"
    );
    assert_eq!(gateway.metrics().shed_expired(), 4);
    // The slow work still completes correctly behind the sheds.
    for t in busy {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
}

/// A gateway whose dispatcher serves 25 ms calls four at a time while
/// submits are shed once a tenant's queue head has stood past 2 ms.
fn sojourn_gated_gateway(cluster: &Arc<Cluster>) -> Gateway {
    for tenant in ["alice", "bob"] {
        cluster.register_native(tenant, "crawl", very_slow_guest(25), false);
    }
    Gateway::start(
        Arc::clone(cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 4,
            batch_wait: Duration::from_millis(2),
            // Arrivals outpace the 25 ms service rate, so jobs stand in
            // the queue far beyond the 2 ms sojourn target by design.
            target_dispatch_latency: Duration::from_millis(2),
            // Deadlines long enough that nothing sheds as Expired — every
            // shed in these tests is the sojourn gate's doing.
            default_deadline: Duration::from_secs(60),
            autoscale: None,
            ..GatewayConfig::default()
        },
    )
}

/// Submit `alice`'s paced flood for `span`: slow enough that the
/// configured cap of 256 would never fill on its own, fast enough to keep
/// the dispatcher saturated.
fn paced_flood(gateway: &Gateway, span: Duration) -> Vec<u64> {
    let mut tickets = Vec::new();
    let t0 = std::time::Instant::now();
    while t0.elapsed() < span {
        tickets.push(gateway.submit("alice", "crawl", Vec::new()));
        std::thread::sleep(Duration::from_millis(2));
    }
    tickets
}

fn wait_ok_or_shed(gateway: &Gateway, tickets: Vec<u64>) {
    for t in tickets {
        let r = gateway.wait(t);
        assert!(
            matches!(r.status, GatewayStatus::Ok | GatewayStatus::Overloaded),
            "unexpected terminal status {:?}",
            r.status
        );
    }
}

/// The sojourn gate: under saturation a tenant's queue head stands past
/// the target and further submits are shed `Overloaded` **at admission**
/// instead of queueing work the cluster cannot serve. The gate keeps no
/// state, so once the flood drains a burst is admitted whole — the old
/// EWMA/AIMD loop left caps stuck at 1/16 here and shed 12 of these 32.
#[test]
fn standing_queue_sheds_at_admission_and_a_burst_after_drain_is_admitted_whole() {
    let cluster = Arc::new(Cluster::new(1));
    let gateway = sojourn_gated_gateway(&cluster);

    let tickets = paced_flood(&gateway, Duration::from_millis(1200));
    let queued_under_load = gateway.queue_len();
    let sheds = gateway.metrics().shed_overloaded();
    assert!(sheds > 0, "saturation must shed Overloaded at admission");
    assert!(
        queued_under_load < 64,
        "load is shed at admission, not queued: {queued_under_load} queued \
         against a configured cap of 256"
    );
    wait_ok_or_shed(&gateway, tickets);

    let burst: Vec<u64> = (0..32u8)
        .map(|i| gateway.submit("alice", "crawl", vec![i]))
        .collect();
    for t in burst {
        let r = gateway.wait(t);
        assert_eq!(
            r.status,
            GatewayStatus::Ok,
            "a burst after the flood drained must be admitted whole"
        );
    }
    assert_eq!(
        gateway.metrics().shed_overloaded(),
        sheds,
        "no shed after the drain"
    );
}

/// Admission is per tenant: while alice's queue stands behind slow work and
/// her submits are shed, bob's burst is admitted whole. (The old global
/// EWMA shrank every tenant's cap, so alice's backlog shed bob's calls.)
#[test]
fn one_tenants_standing_queue_does_not_shed_another_tenant() {
    let cluster = Arc::new(Cluster::new(1));
    let gateway = sojourn_gated_gateway(&cluster);

    let flood = paced_flood(&gateway, Duration::from_millis(600));
    assert!(
        gateway.metrics().shed_overloaded() > 0,
        "alice's queue must be standing when bob arrives"
    );
    let burst: Vec<u64> = (0..32u8)
        .map(|i| gateway.submit("bob", "crawl", vec![i]))
        .collect();
    for t in burst {
        assert_eq!(
            gateway.wait(t).status,
            GatewayStatus::Ok,
            "alice's standing queue must not shed bob"
        );
    }
    wait_ok_or_shed(&gateway, flood);
}

/// A submit that passes the token bucket but is shed `Overloaded` at the
/// queue cap must refund its token: being at the queue cap must not also
/// drain the rate budget.
#[test]
fn queue_full_shed_refunds_the_rate_limit_token() {
    let cluster = cluster_with_tenants(1);
    let gateway = Gateway::start(Arc::clone(&cluster), GatewayConfig::default());
    // Rate 1/s with burst 2, and a queue that admits nothing: every submit
    // passes the bucket (thanks to refunds) and sheds at the queue.
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 0,
            ..TenantPolicy::rate_limited(1, 2)
        },
    );
    for i in 0..6u8 {
        let r = gateway.call("alice", "echo", vec![i]);
        assert_eq!(r.status, GatewayStatus::Overloaded);
    }
    let m = gateway.metrics();
    assert_eq!(
        m.shed_overloaded(),
        6,
        "all six sheds come from the queue cap"
    );
    assert_eq!(
        m.shed_ratelimited(),
        0,
        "refunded tokens mean the bucket never empties: without the refund \
         a burst of 2 would have rate-limited the third submit"
    );
}

#[test]
fn no_tenant_starves_under_weighted_fair_share() {
    let cluster = cluster_with_tenants(2);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 4,
            autoscale: None,
            ..GatewayConfig::default()
        },
    );
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 1024,
            ..TenantPolicy::default()
        },
    );
    // Alice floods ~160 ms of serialised work through the single
    // dispatcher...
    let flood: Vec<u64> = (0..80)
        .map(|i| gateway.submit("alice", "slow", vec![i]))
        .collect();
    // ...then Bob shows up with a handful of requests.
    let modest: Vec<u64> = (0..4)
        .map(|i| gateway.submit("bob", "slow", vec![i]))
        .collect();
    for t in modest {
        let r = gateway.wait(t);
        assert_eq!(
            r.status,
            GatewayStatus::Ok,
            "bob must be served despite alice's flood"
        );
    }
    // Fair share means Bob finished while Alice's backlog was still
    // pending: he did not wait behind her entire flood.
    assert!(
        gateway.queue_len() > 0,
        "alice's backlog should still be draining when bob completes"
    );
    for t in flood {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
    let m = gateway.metrics();
    assert_eq!(m.completed(), 84);
    assert!(m.batch_occupancy() >= 1.0);
    assert!(m.queue_delay_p99_ns() >= m.queue_delay_p50_ns());
}

#[test]
fn autoscaler_prewarms_under_backlog_and_retires_when_idle() {
    let cluster = cluster_with_tenants(2);
    let gateway = Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 1,
            max_batch: 2,
            autoscale: Some(AutoscaleConfig {
                interval: Duration::from_millis(2),
                backlog_high: 2,
                scale_step: 2,
                idle_target: 1,
                max_warm: 16,
                ..AutoscaleConfig::default()
            }),
            ..GatewayConfig::default()
        },
    );
    gateway.set_tenant_policy(
        "alice",
        TenantPolicy {
            queue_cap: 1024,
            ..TenantPolicy::default()
        },
    );
    // Prime one proto so prewarm can restore, then flood.
    assert!(gateway.call("alice", "echo", vec![0]).is_ok());
    let tickets: Vec<u64> = (0..120)
        .map(|i| gateway.submit("alice", "slow", vec![i]))
        .collect();
    for t in tickets {
        assert_eq!(gateway.wait(t).status, GatewayStatus::Ok);
    }
    let m = gateway.metrics();
    assert!(
        m.prewarmed() > 0,
        "sustained backlog must trigger pre-warming"
    );
    // Give the autoscaler a few idle intervals to scale back down.
    std::thread::sleep(Duration::from_millis(50));
    let idle_slow: usize = cluster
        .instances()
        .iter()
        .map(|i| i.warm_count("alice", "slow"))
        .sum();
    assert!(
        idle_slow <= 1 || m.retired() > 0,
        "idle pools should shrink toward the target (idle {idle_slow}, retired {})",
        m.retired()
    );
}
