//! Client-side resending of shed requests.
//!
//! The gateway answers `Overloaded` when a tenant's admission queue is full
//! (its back-pressure loop shrinks that queue while dispatch delay stands
//! above target). That answer asks the client to back off and resend; it
//! does not lose the request. The benchmark's clients do exactly that,
//! with exponential backoff so resends cannot swamp a gateway that is
//! already shedding: a shed delays a request (and its latency shows it)
//! instead of failing it. Each final answer comes back with the number of
//! sends it took, which `Phase::count` records. A request still shed
//! [`GIVE_UP`] after its first send fails.

use std::cmp::Ordering as Order;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use faasm_gateway::{Gateway, GatewayRequest, GatewayResponse, GatewayStatus};

/// Pause before the first resend; it doubles with every further resend.
const BACKOFF: Duration = Duration::from_millis(1);
/// Longest pause between two sends of one request.
const BACKOFF_MAX: Duration = Duration::from_millis(64);
/// How long after its first send a shed request is still sent again: the
/// gateway's default queueing deadline.
pub const GIVE_UP: Duration = Duration::from_secs(5);

fn resend(resp: &GatewayResponse, first: Instant) -> bool {
    resp.status == GatewayStatus::Overloaded && first.elapsed() < GIVE_UP
}

/// Pause before the next send of a request already sent `sends` times.
fn backoff(sends: u32) -> Duration {
    BACKOFF
        .saturating_mul(1 << (sends - 1).min(16))
        .min(BACKOFF_MAX)
}

/// Blocking clients: wait for `ticket`, resending through `send` (which
/// returns the new ticket) while the answer is a shed. Returns the final
/// answer and how many sends it took.
pub fn wait(
    gateway: &Gateway,
    ticket: u64,
    first: Instant,
    send: impl Fn() -> u64,
) -> (GatewayResponse, u32) {
    let mut resp = gateway.wait(ticket);
    let mut sends = 1;
    while resend(&resp, first) {
        std::thread::sleep(backoff(sends));
        resp = gateway.wait(send());
        sends += 1;
    }
    (resp, sends)
}

/// A request's final answer, with when it landed (taken in the completion
/// callback) and how many sends it took.
pub struct Landed<T> {
    pub tag: T,
    pub done: Instant,
    pub sends: u32,
    pub resp: GatewayResponse,
}

struct Sent<T> {
    tag: T,
    req: GatewayRequest,
    first: Instant,
    sends: u32,
}

/// A shed request waiting out its backoff, ordered so the heap's top is
/// the one due first.
struct Later<T>(Instant, Sent<T>);

impl<T> PartialEq for Later<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<T> Eq for Later<T> {}

impl<T> PartialOrd for Later<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Order> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Later<T> {
    fn cmp(&self, other: &Self) -> Order {
        other.0.cmp(&self.0)
    }
}

/// Asynchronous clients: requests go out through `submit_async` and their
/// answers come back over a channel; shed ones are resent by whoever
/// drains it ([`Collector::next`]). Cheap to share between the sending
/// and the draining thread.
pub struct Client<'g, T> {
    gateway: &'g Gateway,
    tx: mpsc::Sender<(Sent<T>, Instant, GatewayResponse)>,
    /// Requests sent and not yet handed out by the collector.
    outstanding: Arc<AtomicUsize>,
    closed: Arc<AtomicBool>,
}

impl<'g, T: Send + 'static> Client<'g, T> {
    pub fn new(gateway: &'g Gateway) -> (Client<'g, T>, Collector<'g, T>) {
        let (tx, rx) = mpsc::channel();
        let client = Client {
            gateway,
            tx,
            outstanding: Arc::new(AtomicUsize::new(0)),
            closed: Arc::new(AtomicBool::new(false)),
        };
        let collector = Collector {
            client: client.clone(),
            rx,
            later: BinaryHeap::new(),
        };
        (client, collector)
    }

    /// Send `req` for the first time; `tag` comes back with its answer.
    pub fn send(&self, tag: T, req: GatewayRequest) {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.submit(Sent {
            tag,
            req,
            first: Instant::now(),
            sends: 1,
        });
    }

    fn submit(&self, sent: Sent<T>) {
        let tx = self.tx.clone();
        let req = sent.req.clone();
        self.gateway.submit_async(req, move |resp| {
            let done = Instant::now();
            // The collector outlives every callback of its requests.
            let _ = tx.send((sent, done, resp));
        });
    }

    /// Requests sent whose final answer the collector has not handed out.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// No more first sends: the collector stops once every request sent
    /// so far has its final answer.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

impl<T> Clone for Client<'_, T> {
    fn clone(&self) -> Self {
        Client {
            gateway: self.gateway,
            tx: self.tx.clone(),
            outstanding: Arc::clone(&self.outstanding),
            closed: Arc::clone(&self.closed),
        }
    }
}

/// The draining side of a [`Client`].
pub struct Collector<'g, T> {
    client: Client<'g, T>,
    rx: mpsc::Receiver<(Sent<T>, Instant, GatewayResponse)>,
    later: BinaryHeap<Later<T>>,
}

/// How often an idle collector looks whether its client has closed.
const POLL: Duration = Duration::from_millis(5);

impl<T: Send + 'static> Collector<'_, T> {
    /// The next final answer, resending shed requests on the way; `None`
    /// once the client is closed and every answer is handed out.
    pub fn next(&mut self) -> Option<Landed<T>> {
        loop {
            let now = Instant::now();
            while self.later.peek().is_some_and(|l| l.0 <= now) {
                let Later(_, mut sent) = self.later.pop().expect("peeked");
                sent.sends += 1;
                self.client.submit(sent);
            }
            if self.client.closed.load(Ordering::Acquire)
                && self.client.outstanding.load(Ordering::Relaxed) == 0
            {
                return None;
            }
            let wait = self
                .later
                .peek()
                .map_or(POLL, |l| l.0.saturating_duration_since(now));
            let Ok((sent, done, resp)) = self.rx.recv_timeout(wait) else {
                continue;
            };
            if resend(&resp, sent.first) {
                self.later.push(Later(done + backoff(sent.sends), sent));
                continue;
            }
            self.client.outstanding.fetch_sub(1, Ordering::Relaxed);
            return Some(Landed {
                tag: sent.tag,
                done,
                sends: sent.sends,
                resp,
            });
        }
    }
}
