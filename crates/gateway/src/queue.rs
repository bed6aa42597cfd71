//! The pending queue: bounded per-tenant FIFOs drained in weighted-fair
//! order.
//!
//! Draining uses deficit round-robin: each scheduling round credits every
//! backlogged tenant `weight` tokens, and a tenant may dispatch one queued
//! request per token. A flooding tenant therefore cannot starve a quiet
//! one — the quiet tenant's requests leave within one round of arriving —
//! while idle tenants accumulate no credit (deficit resets when a queue
//! empties, the standard DRR anti-hoarding rule).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use faasm_telemetry::TraceCtx;
use parking_lot::{Condvar, Mutex};

/// One queued request, from admission to dispatch.
#[derive(Debug)]
pub struct Job {
    /// Gateway ticket (also the response's `seq`).
    pub seq: u64,
    /// Tenant (cluster user namespace).
    pub tenant: String,
    /// Function name.
    pub function: String,
    /// Input bytes.
    pub input: Vec<u8>,
    /// When the job entered the queue (queueing-delay metric).
    pub enqueued: Instant,
    /// Shed with `Expired` if still queued past this instant.
    pub deadline: Instant,
    /// The call's trace context (minted or adopted at admission).
    pub trace: TraceCtx,
}

#[derive(Debug, Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    weight: u32,
    deficit: u64,
    /// Lower bound on the earliest deadline among `jobs` — conservative
    /// (drains may remove the minimum without recomputing), so the expiry
    /// scan can skip a whole tenant in O(1) when nothing can be expired.
    min_deadline: Option<Instant>,
    /// Queued requests per function, maintained incrementally: the
    /// autoscaler samples the backlog every tick, and recounting a deep
    /// queue job-by-job would cost O(jobs) exactly when it is deepest.
    /// Keyed by function only (the tenant is this queue's key), so the
    /// hot-path decrement is a borrowed lookup — no string clones.
    fn_counts: HashMap<String, usize>,
}

impl TenantQueue {
    fn count_drained(&mut self, job: &Job) {
        if let Some(n) = self.fn_counts.get_mut(&job.function) {
            *n -= 1;
            if *n == 0 {
                self.fn_counts.remove(&job.function);
            }
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    queues: HashMap<String, TenantQueue>,
    /// Stable round-robin order over tenants (insertion order).
    order: Vec<String>,
    cursor: usize,
    len: usize,
}

/// The multi-tenant pending queue.
#[derive(Debug, Default)]
pub struct FairQueue {
    inner: Mutex<Inner>,
    nonempty: Condvar,
}

impl FairQueue {
    /// An empty queue.
    pub fn new() -> FairQueue {
        FairQueue::default()
    }

    /// Enqueue a job under its tenant's bounded FIFO. Returns the job back
    /// (the caller sheds it with `Overloaded`) when the tenant already has
    /// `queue_cap` requests pending, or when the tenant's oldest queued job
    /// has stood longer than `max_sojourn` — CoDel's sojourn signal, read
    /// per tenant and without control state: a standing queue sheds only
    /// its own tenant's arrivals, and admission reopens as soon as the head
    /// of that queue moves.
    ///
    /// # Errors
    ///
    /// The rejected job.
    // The Err payload IS the job handed back to the caller for shedding —
    // a Box would just make the accept path pay the allocation instead.
    #[allow(clippy::result_large_err)]
    pub fn push(
        &self,
        job: Job,
        weight: u32,
        queue_cap: usize,
        max_sojourn: Duration,
    ) -> Result<(), Job> {
        let mut inner = self.inner.lock();
        // Decide admission before touching any state: a rejected push must
        // leave no trace. (The old order appended the tenant to the DRR
        // rotation and created an empty queue first, so a flood of over-cap
        // submits under arbitrary tenant names bloated every scheduling
        // pass until the next drain's GC.)
        match inner.queues.get(&job.tenant) {
            Some(q) if q.jobs.len() >= queue_cap => return Err(job),
            Some(q)
                if q.jobs.front().is_some_and(|head| {
                    job.enqueued.saturating_duration_since(head.enqueued) > max_sojourn
                }) =>
            {
                return Err(job)
            }
            Some(_) => {}
            None if queue_cap == 0 => return Err(job),
            None => inner.order.push(job.tenant.clone()),
        }
        let q = inner.queues.entry(job.tenant.clone()).or_default();
        q.weight = weight.max(1);
        if let Some(n) = q.fn_counts.get_mut(&job.function) {
            *n += 1;
        } else {
            q.fn_counts.insert(job.function.clone(), 1);
        }
        q.min_deadline = Some(match q.min_deadline {
            Some(d) => d.min(job.deadline),
            None => job.deadline,
        });
        q.jobs.push_back(job);
        inner.len += 1;
        drop(inner);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Tenants currently holding queued work (rotation size). A rejected
    /// push must not grow this.
    pub fn tenant_count(&self) -> usize {
        self.inner.lock().order.len()
    }

    /// Total queued requests across tenants.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued requests for one tenant.
    pub fn tenant_depth(&self, tenant: &str) -> usize {
        self.inner
            .lock()
            .queues
            .get(tenant)
            .map_or(0, |q| q.jobs.len())
    }

    /// Backlog per `(tenant, function)` — the autoscaler's demand signal.
    /// Served from incrementally maintained counts: O(active functions),
    /// never O(queued jobs).
    pub fn backlog(&self) -> HashMap<(String, String), usize> {
        let inner = self.inner.lock();
        let mut out = HashMap::new();
        for (tenant, q) in &inner.queues {
            for (function, n) in &q.fn_counts {
                out.insert((tenant.clone(), function.clone()), *n);
            }
        }
        out
    }

    /// Remove and return every job whose deadline has passed, preserving
    /// FIFO order within each tenant. Decouples deadline shedding from
    /// dispatch: a dispatcher can shed on time even when it has no capacity
    /// to drain (all submit slots in flight), so `Expired` responses are
    /// bounded by the dispatcher's polling cadence, not by how long the
    /// current in-flight work takes.
    pub fn shed_expired(&self, now: Instant) -> Vec<Job> {
        let mut inner = self.inner.lock();
        if inner.len == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for q in inner.queues.values_mut() {
            // O(1) fast path: nothing in this tenant's queue can have
            // expired yet (the bound is conservative, never late).
            if q.min_deadline.is_none_or(|d| d > now) {
                continue;
            }
            if q.jobs.iter().any(|j| j.deadline <= now) {
                let (expired, live): (Vec<Job>, Vec<Job>) =
                    q.jobs.drain(..).partition(|j| j.deadline <= now);
                q.jobs = live.into();
                for job in &expired {
                    q.count_drained(job);
                }
                out.extend(expired);
            }
            // The stale bound paid for one scan; recompute it exactly.
            q.min_deadline = q.jobs.iter().map(|j| j.deadline).min();
        }
        if !out.is_empty() {
            inner.len -= out.len();
            // GC tenants the shed emptied, as drain does.
            let Inner { queues, order, .. } = &mut *inner;
            queues.retain(|_, q| !q.jobs.is_empty());
            order.retain(|t| queues.contains_key(t));
        }
        out
    }

    /// Drain up to `max` jobs in weighted-fair order, blocking up to `wait`
    /// for the first job. Returns an empty batch on timeout or when `stop`
    /// is set.
    pub fn drain_batch(&self, max: usize, wait: Duration, stop: &AtomicBool) -> Vec<Job> {
        let deadline = Instant::now() + wait;
        let mut inner = self.inner.lock();
        while inner.len == 0 {
            if stop.load(Ordering::Relaxed) {
                return Vec::new();
            }
            let now = Instant::now();
            if now >= deadline {
                return Vec::new();
            }
            self.nonempty.wait_for(&mut inner, deadline - now);
        }

        let mut batch: Vec<Job> = Vec::with_capacity(max.min(inner.len));
        // Deficit round-robin over the tenant rotation, starting where the
        // previous drain left off so no tenant owns the front of every batch.
        while batch.len() < max && inner.len > 0 {
            let n_tenants = inner.order.len();
            let mut progressed = false;
            for _ in 0..n_tenants {
                if batch.len() >= max {
                    break;
                }
                let idx = inner.cursor % n_tenants;
                inner.cursor = inner.cursor.wrapping_add(1);
                let tenant = inner.order[idx].clone();
                let room = max - batch.len();
                let taken = {
                    let Some(q) = inner.queues.get_mut(&tenant) else {
                        continue;
                    };
                    if q.jobs.is_empty() {
                        q.deficit = 0;
                        continue;
                    }
                    q.deficit += u64::from(q.weight);
                    let n = (q.deficit as usize).min(room).min(q.jobs.len());
                    q.deficit -= n as u64;
                    let taken: Vec<Job> = q.jobs.drain(..n).collect();
                    for job in &taken {
                        q.count_drained(job);
                    }
                    if q.jobs.is_empty() {
                        q.deficit = 0;
                    }
                    taken
                };
                if !taken.is_empty() {
                    progressed = true;
                    inner.len -= taken.len();
                    batch.extend(taken);
                }
            }
            if !progressed {
                break;
            }
        }
        // Garbage-collect drained tenants: wire clients can name arbitrary
        // tenants, and without this every name ever seen would cost an
        // entry in each future round-robin pass (and memory) forever.
        let Inner { queues, order, .. } = &mut *inner;
        queues.retain(|_, q| !q.jobs.is_empty());
        order.retain(|t| queues.contains_key(t));
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: &str, seq: u64) -> Job {
        Job {
            seq,
            tenant: tenant.into(),
            function: "f".into(),
            input: Vec::new(),
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(60),
            trace: TraceCtx::NONE,
        }
    }

    /// A sojourn bound no test job ever reaches.
    const LONG: Duration = Duration::from_secs(3600);

    fn drain(q: &FairQueue, max: usize) -> Vec<Job> {
        q.drain_batch(max, Duration::from_millis(5), &AtomicBool::new(false))
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let q = FairQueue::new();
        q.push(job("a", 1), 1, 2, LONG).unwrap();
        q.push(job("a", 2), 1, 2, LONG).unwrap();
        let back = q.push(job("a", 3), 1, 2, LONG).unwrap_err();
        assert_eq!(back.seq, 3);
        assert_eq!(q.tenant_depth("a"), 2);
        // Another tenant's queue is unaffected.
        q.push(job("b", 4), 1, 2, LONG).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn rejected_push_leaves_no_state_behind() {
        let q = FairQueue::new();
        q.push(job("real", 1), 1, 8, LONG).unwrap();
        // A flood of zero-cap submits under unique tenant names: none may
        // enter the rotation or allocate an (empty) queue.
        for i in 0..1000 {
            let name = format!("ghost{i}");
            let back = q.push(job(&name, i), 1, 0, LONG).unwrap_err();
            assert_eq!(back.seq, i);
            assert_eq!(q.tenant_depth(&name), 0);
        }
        assert_eq!(q.tenant_count(), 1, "only the admitted tenant rotates");
        assert_eq!(q.len(), 1);
        // Over-cap rejections on an existing tenant also leave it intact.
        let q2 = FairQueue::new();
        q2.push(job("a", 1), 1, 1, LONG).unwrap();
        q2.push(job("a", 2), 1, 1, LONG).unwrap_err();
        assert_eq!(q2.tenant_count(), 1);
        assert_eq!(q2.tenant_depth("a"), 1);
        // The admitted job still drains normally.
        let batch = drain(&q2, 4);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].seq, 1);
        assert_eq!(q2.tenant_count(), 0, "drain GC clears the rotation");
    }

    #[test]
    fn stale_head_sheds_only_its_own_tenant() {
        let q = FairQueue::new();
        let max_sojourn = Duration::from_millis(25);
        let mut stale = job("a", 1);
        stale.enqueued = Instant::now() - Duration::from_millis(50);
        q.push(stale, 1, 8, max_sojourn).unwrap();
        // Well under the cap, but the head has stood past the bound.
        let back = q.push(job("a", 2), 1, 8, max_sojourn).unwrap_err();
        assert_eq!(back.seq, 2);
        assert_eq!(q.tenant_depth("a"), 1);
        assert_eq!(
            q.tenant_count(),
            1,
            "the rejected push added no rotation entry"
        );
        assert_eq!(q.backlog().get(&("a".into(), "f".into())), Some(&1));
        // Another tenant's fresh queue admits as usual.
        q.push(job("b", 3), 1, 8, max_sojourn).unwrap();
        assert_eq!(q.tenant_count(), 2);
        // Once the stale head leaves, the tenant is admitted again: the
        // gate keeps no state of its own.
        let batch = drain(&q, 1);
        assert_eq!(batch[0].seq, 1);
        q.push(job("a", 4), 1, 8, max_sojourn).unwrap();
        assert_eq!(q.tenant_depth("a"), 1);
    }

    #[test]
    fn equal_weights_interleave_tenants() {
        let q = FairQueue::new();
        for i in 0..6 {
            q.push(job("flood", i), 1, 100, LONG).unwrap();
        }
        q.push(job("quiet", 100), 1, 100, LONG).unwrap();
        let batch = drain(&q, 4);
        let tenants: Vec<&str> = batch.iter().map(|j| j.tenant.as_str()).collect();
        assert!(
            tenants.contains(&"quiet"),
            "quiet tenant must appear in the first batch despite the flood: {tenants:?}"
        );
    }

    #[test]
    fn weights_bias_the_drain() {
        let q = FairQueue::new();
        for i in 0..40 {
            q.push(job("heavy", i), 3, 100, LONG).unwrap();
            q.push(job("light", 100 + i), 1, 100, LONG).unwrap();
        }
        let batch = drain(&q, 16);
        let heavy = batch.iter().filter(|j| j.tenant == "heavy").count();
        let light = batch.iter().filter(|j| j.tenant == "light").count();
        assert!(
            heavy > light * 2,
            "3:1 weights should drain ~3:1, got {heavy}:{light}"
        );
        assert!(light >= 1, "light tenant still progresses");
    }

    #[test]
    fn fifo_within_a_tenant() {
        let q = FairQueue::new();
        for i in 0..10 {
            q.push(job("t", i), 1, 100, LONG).unwrap();
        }
        let batch = drain(&q, 10);
        let seqs: Vec<u64> = batch.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shed_expired_removes_only_aged_jobs() {
        let q = FairQueue::new();
        let mut doomed = job("a", 1);
        doomed.deadline = Instant::now() - Duration::from_millis(1);
        q.push(doomed, 1, 10, LONG).unwrap();
        q.push(job("a", 2), 1, 10, LONG).unwrap();
        let mut doomed_b = job("b", 3);
        doomed_b.deadline = Instant::now() - Duration::from_millis(1);
        q.push(doomed_b, 1, 10, LONG).unwrap();

        let shed = q.shed_expired(Instant::now());
        let mut seqs: Vec<u64> = shed.iter().map(|j| j.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 3]);
        assert_eq!(q.len(), 1);
        // Tenant b was emptied by the shed and left the rotation.
        assert_eq!(q.tenant_count(), 1);
        // The survivor still drains in order.
        let batch = drain(&q, 4);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].seq, 2);
        // Nothing expired: the fast path sheds nothing.
        q.push(job("a", 9), 1, 10, LONG).unwrap();
        assert!(q.shed_expired(Instant::now()).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn backlog_counts_track_push_drain_and_shed() {
        let q = FairQueue::new();
        for i in 0..5 {
            q.push(job("a", i), 1, 10, LONG).unwrap();
        }
        let mut doomed = job("b", 9);
        doomed.deadline = Instant::now() - Duration::from_millis(1);
        q.push(doomed, 1, 10, LONG).unwrap();
        let backlog = q.backlog();
        assert_eq!(backlog.get(&("a".into(), "f".into())), Some(&5));
        assert_eq!(backlog.get(&("b".into(), "f".into())), Some(&1));
        // Rejected pushes leave no count behind.
        q.push(job("ghost", 99), 1, 0, LONG).unwrap_err();
        assert!(!q.backlog().contains_key(&("ghost".into(), "f".into())));
        // Sheds and drains decrement; emptied functions drop their entry.
        q.shed_expired(Instant::now());
        assert!(!q.backlog().contains_key(&("b".into(), "f".into())));
        let n = drain(&q, 3).len();
        assert_eq!(n, 3);
        assert_eq!(q.backlog().get(&("a".into(), "f".into())), Some(&2));
        drain(&q, 10);
        assert!(q.backlog().is_empty());
    }

    #[test]
    fn empty_drain_times_out() {
        let q = FairQueue::new();
        let t0 = Instant::now();
        let batch = q.drain_batch(8, Duration::from_millis(20), &AtomicBool::new(false));
        assert!(batch.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn stop_flag_aborts_wait() {
        let q = FairQueue::new();
        let stop = AtomicBool::new(true);
        let batch = q.drain_batch(8, Duration::from_secs(10), &stop);
        assert!(batch.is_empty());
    }
}
