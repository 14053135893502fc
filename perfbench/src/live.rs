//! The live harness: an in-process `MinosServer` over real
//! `SO_REUSEPORT` UDP loopback sockets, one client socket, and a
//! generator on the calling thread, open-loop at a fixed rate or
//! closed-loop with a fixed number of requests in flight.
//!
//! Latency is stamped from each request's scheduled arrival
//! (`Client::send_batch_at`); a closed-loop request is scheduled when it
//! is sent. Every reply is classified: a GET
//! `NotFound` is a legitimate miss only on workloads whose keys can be
//! evicted or expire; every other non-`Ok` reply, and every request
//! never answered, is a failure and reads as [`FAILED`] latency.

use crate::spec::{fill_byte, Generator, Workload};
use crate::stats::FAILED;
use crate::trace::{Tracer, ROOT};
use minos_core::client::{Client, Completion};
use minos_core::server::{MinosServer, ServerConfig};
use minos_kv::{CapacityConfig, StoreConfig};
use minos_net::{endpoint_for, Transport, UdpConfig, UdpTransport};
use minos_wire::message::{OpKind, ReplyStatus, MSG_HEADER_LEN, PUT_TTL_TAIL_LEN};
use minos_workload::{OpSpec, OpenLoop, Rng};
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server cores (= UDP RX queues).
pub const CORES: usize = 2;
/// Name prefix of the server's polling threads.
pub const CORE_THREAD_PREFIX: &str = "minos-core-";

/// The benchmark client's id on the wire.
const CLIENT_ID: u16 = 1;
/// Seed of the client library's own queue-picking RNG. Fixed: the
/// program under test receives generated requests, never the run seed.
const CLIENT_RNG_SEED: u64 = 0x0b0b;
/// Most ops the generator hands to one `send_batch_at` call.
const COALESCE_CAP: usize = 32;
/// In-flight cap while preloading.
const PRELOAD_WINDOW: u64 = 256;
/// Epochs the controller must have planned before timing starts.
const WARMUP_EPOCHS: u64 = 2;
/// Least warm-up traffic, however fast the epochs come.
const WARMUP_MIN: Duration = Duration::from_millis(500);
/// How long a phase may wait for its last replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Counts over every request the benchmark's client has sent to one
/// server, for the end-of-run cross-checks against server counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    /// Requests sent.
    pub sent: u64,
    /// PUT replies with status `Ok`.
    pub put_ok: u64,
    /// Value bytes of those PUTs.
    pub put_ok_bytes: u64,
    /// Payload bytes of those PUTs that the server copies into mempool
    /// blocks: the value, plus the TTL tail of a multi-datagram PUT,
    /// which streams into the value's block before it is cut off.
    pub put_ok_copy_bytes: u64,
    /// Non-`Ok` replies that are not legitimate misses.
    pub failed: u64,
}

/// What one open-loop phase measured.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Offered rate, ops/s.
    pub offered: f64,
    /// Length of the sending window, s.
    pub secs: f64,
    /// Requests sent, by class.
    pub sent_small: u64,
    /// Requests sent for large items.
    pub sent_large: u64,
    /// Replies received (in the window and the drain after it).
    pub completed: u64,
    /// Requests never answered.
    pub lost: u64,
    /// Error replies that are not legitimate misses.
    pub failed_replies: u64,
    /// GET replies, and how many were legitimate misses.
    pub gets: u64,
    /// Legitimate GET misses.
    pub misses: u64,
    /// GET replies for large items with status `Ok`.
    pub large_gets_ok: u64,
    /// PUTs acknowledged `Ok`, and their value bytes.
    pub put_ok: u64,
    /// Value bytes of the `Ok` PUTs.
    pub put_ok_bytes: u64,
    /// Latency from scheduled arrival, ns, of every request in
    /// completion order ([`FAILED`] for failures, then losses).
    pub all_ns: Vec<u64>,
    /// The small-class subset.
    pub small_ns: Vec<u64>,
    /// The large-class subset.
    pub large_ns: Vec<u64>,
    /// Generator lateness per op at its send, ns, in send order.
    pub late_ns: Vec<u64>,
    /// `send_batch_at` calls.
    pub sends: u64,
    /// `poll` calls, and how many returned no reply.
    pub polls: u64,
    /// Polls that returned no reply.
    pub empty_polls: u64,
    /// Wall time spent inside `poll` calls that returned nothing, ns
    /// (traced phases only; the non-empty ones are spans).
    pub empty_poll_ns: u64,
}

impl Phase {
    /// An empty phase with room for `ops` samples, reserved up front so
    /// the sample vectors never double mid-run (that would make peak RSS
    /// jump with the seed).
    pub fn with_capacity(ops: usize) -> Phase {
        Phase {
            all_ns: Vec::with_capacity(ops),
            small_ns: Vec::with_capacity(ops),
            large_ns: Vec::with_capacity(ops),
            late_ns: Vec::with_capacity(ops),
            ..Phase::default()
        }
    }

    /// Requests sent.
    pub fn sent(&self) -> u64 {
        self.sent_small + self.sent_large
    }

    /// Lost requests plus failed replies.
    pub fn failures(&self) -> u64 {
        self.lost + self.failed_replies
    }

    /// Replies per second of window.
    pub fn achieved(&self) -> f64 {
        self.completed as f64 / self.secs.max(f64::MIN_POSITIVE)
    }

    /// Folds a later phase at the same rate into this one.
    pub fn extend(&mut self, later: Phase) {
        self.offered = later.offered;
        self.secs += later.secs;
        self.sent_small += later.sent_small;
        self.sent_large += later.sent_large;
        self.completed += later.completed;
        self.lost += later.lost;
        self.failed_replies += later.failed_replies;
        self.gets += later.gets;
        self.misses += later.misses;
        self.large_gets_ok += later.large_gets_ok;
        self.put_ok += later.put_ok;
        self.put_ok_bytes += later.put_ok_bytes;
        self.all_ns.extend(later.all_ns);
        self.small_ns.extend(later.small_ns);
        self.large_ns.extend(later.large_ns);
        self.late_ns.extend(later.late_ns);
        self.sends += later.sends;
        self.polls += later.polls;
        self.empty_polls += later.empty_polls;
        self.empty_poll_ns += later.empty_poll_ns;
    }

    fn push(&mut self, ns: u64, large: bool) {
        self.all_ns.push(ns);
        if large {
            self.large_ns.push(ns);
        } else {
            self.small_ns.push(ns);
        }
    }
}

/// How a run paces its sends.
#[derive(Clone, Copy, Debug)]
enum Pace {
    /// Poisson arrivals at this many ops/s.
    Open(f64),
    /// As many requests as keep this many in flight.
    Closed(u64),
}

/// When a run stops sending.
enum Stop {
    /// After a fixed window.
    After(Duration),
    /// Once the controller has planned this many epochs and the
    /// warm-up minimum has passed.
    Epochs(u64),
}

/// One set-up server with its client, ready to measure.
pub struct Live {
    /// The workload being offered.
    pub workload: Workload,
    /// The server under test.
    pub server: MinosServer<UdpTransport>,
    /// The server's transport.
    pub srv: Arc<UdpTransport>,
    /// The client's transport.
    pub cli: Arc<UdpTransport>,
    client: Client,
    generator: Generator,
    op_rng: Rng,
    arrival_rng: Rng,
    /// Cross-check counts over everything sent so far.
    pub ledger: Ledger,
    /// Seconds the set-up took: server start, preload and warm-up.
    pub setup_s: f64,
}

/// A loopback base port with `CORES` free consecutive ports, probed by
/// plain binds (a socket without `SO_REUSEPORT` fails on a port another
/// socket holds, where the transport's own bind would silently share).
fn free_base_port(start: u16) -> u16 {
    let mut base = start;
    loop {
        let free =
            (0..CORES as u16).all(|q| UdpSocket::bind((Ipv4Addr::LOCALHOST, base + q)).is_ok());
        if free {
            return base;
        }
        base = if base > 60_000 {
            20_000
        } else {
            base + CORES as u16
        };
    }
}

/// Where this process starts looking for ports (spread by pid so
/// concurrent benchmark processes rarely probe the same range).
pub fn first_port() -> u16 {
    20_000 + (std::process::id() % 10_000) as u16 * 4
}

impl Live {
    /// Starts a server for `workload`, preloads its key space and warms
    /// it up; `seed` feeds the generator's RNGs only.
    pub fn setup(workload: &Workload, seed: u64, port: u16) -> Live {
        let t0 = Instant::now();
        let n_items = (workload.num_keys() as usize * 2).max(1024);
        let mut config = ServerConfig::for_test(CORES, n_items);
        // The paper's one-second epochs (the test constructor shortens them).
        config.minos.epoch_ns = minos_core::MinosConfig::default().epoch_ns;
        config.store = StoreConfig::for_items(CORES * 4, n_items, workload.mempool_bytes);
        config.store.max_value_bytes = workload.max_value_len().next_power_of_two().max(1 << 20);
        config.store.capacity = CapacityConfig {
            policy: workload.eviction,
            ..CapacityConfig::default()
        };
        let base = free_base_port(port);
        let srv = Arc::new(
            UdpTransport::bind(UdpConfig::loopback(base, CORES as u16)).expect("bind server"),
        );
        let server = MinosServer::start_with_transport(config, Arc::clone(&srv));
        let cli = Arc::new(
            UdpTransport::bind_client_with(UdpConfig {
                pool_slots: 8192,
                ..UdpConfig::client(Ipv4Addr::LOCALHOST)
            })
            .expect("bind client"),
        );
        let client = Client::with_transport(
            Arc::clone(&cli) as Arc<dyn Transport>,
            cli.local_endpoint(0),
            endpoint_for(Ipv4Addr::LOCALHOST, base),
            CORES as u16,
            CLIENT_ID,
            CLIENT_RNG_SEED,
        );
        let (generator, op_rng) = Live::op_stream(seed, workload);
        let mut live = Live {
            workload: workload.clone(),
            server,
            srv,
            cli,
            client,
            generator,
            op_rng,
            arrival_rng: Rng::new(seed.rotate_left(17) ^ 0x6172_7269_7661),
            ledger: Ledger::default(),
            setup_s: 0.0,
        };
        live.preload();
        let warm = live.run(
            Pace::Open(live.workload.lo_rate),
            Stop::Epochs(WARMUP_EPOCHS),
            None,
        );
        assert!(
            warm.failures() == 0,
            "warm-up saw {} lost and {} failed requests",
            warm.lost,
            warm.failed_replies
        );
        live.setup_s = t0.elapsed().as_secs_f64();
        live
    }

    /// The server's base port (the next set-up probes past it).
    pub fn port(&self) -> u16 {
        self.srv.base_port()
    }

    /// PUTs every key once at its workload size, a bounded window in
    /// flight.
    fn preload(&mut self) {
        let ttl = self.workload.ttl_ms();
        for key in 0..self.workload.num_keys() {
            let len = self.workload.value_len(key);
            let value = vec![fill_byte(key); len];
            let large = len as u64 >= minos_workload::sizes::LARGE_MIN;
            self.client.send_put_with_ttl(key, &value, large, ttl);
            self.ledger.sent += 1;
            while self.client.totals().outstanding() > PRELOAD_WINDOW {
                for c in self.client.poll() {
                    self.absorb(&c, None);
                }
            }
        }
        assert!(
            self.settle(Duration::from_secs(30), 0, None),
            "preload lost replies"
        );
        assert_eq!(self.ledger.failed, 0, "preload PUTs failed");
    }

    /// Books one reply into the ledger and, when measuring, the phase.
    fn absorb(&mut self, c: &Completion, phase: Option<&mut Phase>) {
        let is_get = c.kind == OpKind::GetReply;
        let miss = is_get && c.status == ReplyStatus::NotFound && self.workload.misses_allowed;
        let ok = c.status == ReplyStatus::Ok;
        let put_bytes = self.workload.value_len(c.key) as u64;
        if ok && c.kind == OpKind::PutReply {
            self.ledger.put_ok += 1;
            self.ledger.put_ok_bytes += put_bytes;
            self.ledger.put_ok_copy_bytes += put_bytes + self.streamed_tail_bytes(put_bytes);
        }
        if !ok && !miss {
            self.ledger.failed += 1;
        }
        let Some(p) = phase else { return };
        p.completed += 1;
        if is_get {
            p.gets += 1;
            p.misses += u64::from(miss);
            p.large_gets_ok += u64::from(ok && c.large);
        } else if ok {
            p.put_ok += 1;
            p.put_ok_bytes += put_bytes;
        }
        let ns = if ok || miss {
            c.latency_ns
        } else {
            p.failed_replies += 1;
            FAILED
        };
        p.push(ns, c.large);
    }

    /// TTL-tail bytes a PUT of `value_len` bytes streams into its value
    /// block: the tail rides only on TTL PUTs, and only the
    /// multi-datagram ingest path writes it into the block.
    fn streamed_tail_bytes(&self, value_len: u64) -> u64 {
        if self.workload.ttl_ms() == 0 {
            return 0;
        }
        let tail = PUT_TTL_TAIL_LEN;
        let datagrams = minos_wire::packets_for_payload(MSG_HEADER_LEN + value_len as usize + tail);
        if datagrams > 1 {
            tail as u64
        } else {
            0
        }
    }

    /// Polls until at most `floor` requests are outstanding or `timeout`
    /// passes; returns whether the floor was reached.
    fn settle(&mut self, timeout: Duration, floor: u64, mut phase: Option<&mut Phase>) -> bool {
        let deadline = Instant::now() + timeout;
        while self.client.totals().outstanding() > floor {
            for c in self.client.poll() {
                self.absorb(&c, phase.as_deref_mut());
            }
            if Instant::now() > deadline {
                return false;
            }
        }
        true
    }

    /// Offers `rate` ops/s for `window`, then drains. With a tracer,
    /// spans wrap the generator's op drawing and the client library's
    /// `send_batch_at` and (non-empty) `poll` calls.
    pub fn measure(&mut self, rate: f64, window: Duration, tracer: Option<&mut Tracer>) -> Phase {
        self.run(Pace::Open(rate), Stop::After(window), tracer)
    }

    /// Keeps `in_flight` requests outstanding for `window` (a new one
    /// goes out as each reply comes back), then drains. The phase's
    /// `offered` is 0 and it has no lateness samples.
    pub fn saturate(&mut self, in_flight: u64, window: Duration) -> Phase {
        self.run(Pace::Closed(in_flight), Stop::After(window), None)
    }

    fn run(&mut self, pace: Pace, stop: Stop, mut tracer: Option<&mut Tracer>) -> Phase {
        let floor = self.client.totals().outstanding();
        let (rate, room_rate) = match pace {
            Pace::Open(rate) => (rate, rate),
            Pace::Closed(_) => (0.0, self.workload.peak_max),
        };
        let expected = match stop {
            Stop::After(window) => room_rate * window.as_secs_f64() * 1.1,
            Stop::Epochs(_) => 0.0,
        };
        let mut p = Phase {
            offered: rate,
            ..Phase::with_capacity(expected as usize)
        };
        let epochs_at = |s: &Self| s.server.counters().epochs;
        let start_ns = self.client.now_ns();
        // Closed-loop runs never reach an arrival time.
        let (mut arrivals, mut next_at) = match pace {
            Pace::Open(rate) => {
                let mut arrivals = OpenLoop::new(rate, start_ns);
                let next_at = arrivals.next_arrival(&mut self.arrival_rng);
                (Some(arrivals), next_at)
            }
            Pace::Closed(_) => (None, u64::MAX),
        };
        let mut due: Vec<(OpSpec, u64)> = Vec::with_capacity(COALESCE_CAP);
        let started = Instant::now();
        let mut batch_no = 0u64;
        let mut check_at = 0u64;
        loop {
            let now = self.client.now_ns();
            if now >= check_at {
                check_at = now + 1_000_000;
                let elapsed = started.elapsed();
                let done = match stop {
                    Stop::After(window) => elapsed >= window,
                    Stop::Epochs(n) => elapsed >= WARMUP_MIN && epochs_at(self) >= n,
                };
                if done {
                    break;
                }
            }
            let room = match pace {
                Pace::Open(_) => 0,
                Pace::Closed(in_flight) => {
                    let outstanding = self.client.totals().outstanding() - floor;
                    in_flight
                        .saturating_sub(outstanding)
                        .min(COALESCE_CAP as u64) as usize
                }
            };
            if now >= next_at || room > 0 {
                let gen_span = tracer
                    .as_deref_mut()
                    .map(|t| t.open("workload.gen", ROOT, batch_no));
                due.clear();
                if let Some(arrivals) = arrivals.as_mut() {
                    while now >= next_at && due.len() < COALESCE_CAP {
                        p.late_ns.push(now - next_at);
                        due.push((self.generator.next_op(&mut self.op_rng), next_at));
                        next_at = arrivals.next_arrival(&mut self.arrival_rng);
                    }
                }
                for _ in 0..room {
                    due.push((self.generator.next_op(&mut self.op_rng), now));
                }
                for (op, _) in &due {
                    if op.is_large {
                        p.sent_large += 1;
                    } else {
                        p.sent_small += 1;
                    }
                }
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), gen_span) {
                    t.close(id);
                }
                let send_span = tracer
                    .as_deref_mut()
                    .map(|t| t.open("client.send", ROOT, batch_no));
                self.client.send_batch_at(&due);
                if let (Some(t), Some(id)) = (tracer.as_deref_mut(), send_span) {
                    t.close(id);
                }
                self.ledger.sent += due.len() as u64;
                p.sends += 1;
                batch_no += 1;
            }
            let t_poll = tracer.as_deref().map(|t| t.now());
            let replies = self.client.poll();
            p.polls += 1;
            if replies.is_empty() {
                p.empty_polls += 1;
            }
            if let (Some(t), Some(t0)) = (tracer.as_deref_mut(), t_poll) {
                if replies.is_empty() {
                    p.empty_poll_ns += t.now() - t0;
                } else {
                    t.record("client.poll", t0, ROOT, batch_no);
                }
            }
            for c in &replies {
                self.absorb(c, Some(&mut p));
            }
        }
        p.secs = started.elapsed().as_secs_f64();
        self.settle(DRAIN_TIMEOUT, floor, Some(&mut p));
        // Whatever is still unanswered is lost: it fails every limit.
        p.lost = self.client.totals().outstanding() - floor;
        let done_small = p.small_ns.len() as u64;
        let done_large = p.large_ns.len() as u64;
        for (n, large) in [
            (p.sent_small.saturating_sub(done_small), false),
            (p.sent_large.saturating_sub(done_large), true),
        ] {
            for _ in 0..n {
                p.push(FAILED, large);
            }
        }
        p
    }

    /// Requests still unanswered (lost) over the server's lifetime.
    pub fn outstanding(&self) -> u64 {
        self.client.totals().outstanding()
    }

    /// Value bytes the client copied reassembling multi-datagram
    /// replies, so far.
    pub fn reply_copied_bytes(&self) -> u64 {
        self.client.reply_copied_bytes()
    }

    /// The phase's accounting checks against the server's own counters;
    /// returns one message per violated invariant.
    pub fn cross_check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let lost = self.outstanding() + self.client.totals().timed_out;
        if lost > 0 {
            bad.push(format!("{lost} requests lost or timed out"));
        }
        if self.ledger.failed > 0 {
            bad.push(format!("{} failed replies", self.ledger.failed));
        }
        // The last replies can overtake the counter bump that precedes
        // them by a hair; give the cores a moment to agree.
        let deadline = Instant::now() + Duration::from_millis(200);
        let executed = loop {
            let ops: u64 = self.server.core_stats().iter().map(|c| c.ops).sum();
            if ops == self.ledger.sent || Instant::now() > deadline {
                break ops;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        if executed != self.ledger.sent {
            bad.push(format!(
                "cores executed {executed} requests, client sent {}",
                self.ledger.sent
            ));
        }
        let store = self.server.store().stats();
        if store.puts != self.ledger.put_ok {
            bad.push(format!(
                "store committed {} PUTs, client saw {} acknowledged",
                store.puts, self.ledger.put_ok
            ));
        }
        let copied = self.server.counters().put_copied_bytes;
        if copied != self.ledger.put_ok_copy_bytes {
            bad.push(format!(
                "ingest copied {copied} bytes for {} acknowledged PUT payload bytes",
                self.ledger.put_ok_copy_bytes
            ));
        }
        for (side, t) in [("server", &self.srv), ("client", &self.cli)] {
            let c = t.stats().tx_copied_bytes;
            if c != 0 {
                bad.push(format!("{side} transport copied {c} bytes on send"));
            }
        }
        bad
    }

    /// Reads sampled keys back through the store and checks each value's
    /// length and fill pattern. Keys absent from the store are failures
    /// unless the workload's keys may be evicted or expire. Returns the
    /// keys checked and one message per bad key.
    pub fn read_back(&self, seed: u64) -> (usize, Vec<String>) {
        let store = self.server.store();
        let n = self.workload.num_keys();
        let mut rng = Rng::new(seed ^ 0x7265_6164);
        let mut keys: Vec<u64> = (0..256).map(|_| rng.range_u64(0, n - 1)).collect();
        // Every large key of the dataset, too: they take the
        // multi-datagram ingest path.
        keys.extend((0..n).filter(|&k| self.workload.value_len(k) > minos_wire::MAX_FRAG_CHUNK));
        let mut bad = Vec::new();
        for &key in &keys {
            match store.get(key) {
                None if self.workload.misses_allowed => {}
                None => bad.push(format!("key {key} missing")),
                Some(v) => {
                    let want = self.workload.value_len(key);
                    if v.len() != want {
                        bad.push(format!("key {key}: {} bytes, wrote {want}", v.len()));
                    } else if v.iter().any(|&b| b != fill_byte(key)) {
                        bad.push(format!("key {key}: value bytes differ from the fill"));
                    }
                }
            }
        }
        (keys.len(), bad)
    }

    /// Stops the server threads.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }

    /// The op generator and RNG a run with `seed` draws its ops from,
    /// so the replay can walk the same op stream.
    pub fn op_stream(seed: u64, workload: &Workload) -> (Generator, Rng) {
        (workload.generator(), Rng::new(seed ^ 0x6f70_5f72_6e67))
    }
}
