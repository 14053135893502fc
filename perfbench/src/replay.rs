//! The traced layer replay: the run's seeded op stream driven
//! single-threaded through each layer's public functions, with a span
//! around every layer call.
//!
//! Per op, under a `workload.op` root span (which also covers drawing
//! the op):
//!
//! * `wire.encode` — `Message::encode_frame` + `fragment_frame_with_id`
//!   (request, then reply);
//! * `net.tx` / `net.rx` — `Transport::tx_frames` / `rx_burst` over a
//!   loopback UDP pair, both directions;
//! * `wire.decode` — `FragHeader::decode` + `Message::decode`, or the
//!   client's `StreamingReassembler::push` for multi-datagram replies;
//! * `dispatch.place` — the size lookup, `ShardingPlan::classify` and
//!   `Discipline::place`;
//! * `ingest.stream` — multi-datagram PUTs streamed by
//!   `StreamingReassembler::push` into `PutIngest` (which reserves the
//!   value's mempool block);
//! * `kv.execute` — `core::server::execute`, or `PutIngest::commit`;
//!   `kv.tick` — `Store::capacity_tick` every 64 ops.
//!
//! The store clock is synthetic (op index × the workload's mean
//! inter-arrival gap at its `hi` rate), so TTL expiry, eviction and
//! every count the replay reports repeat exactly for a given seed.

use crate::live::{Live, CORES};
use crate::spec::{fill_byte, Workload};
use crate::trace::{Tracer, ROOT};
use bytes::Bytes;
use minos_core::dispatch::{DisciplineKind, PlaceCtx};
use minos_core::ingest::PutIngest;
use minos_core::server::execute;
use minos_core::ShardingPlan;
use minos_kv::{CapacityConfig, Store, StoreConfig};
use minos_net::{Transport, UdpConfig, UdpTransport};
use minos_wire::frag::{
    fragment_frame_with_id, FragHeader, FragmentWriter, Streamed, StreamingReassembler,
};
use minos_wire::message::{Body, Message, ReplyStatus, MSG_HEADER_LEN};
use minos_wire::packet::{synthesize_frame, Packet, TxPacket};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ops replayed per traced run.
pub const REPLAY_OPS: u64 = 20_000;
/// Capacity housekeeping cadence, ops (the server ticks once per 64
/// loop rounds).
const TICK_EVERY: u64 = 64;

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Ops replayed.
    pub ops: u64,
    /// Datagrams sent, both directions.
    pub packets: u64,
    /// Store evictions during the replay.
    pub evictions: u64,
    /// Optimistic-read retries during the replay.
    pub get_retries: u64,
    /// Replies that failed the workload's reply rules or carried a
    /// wrong value.
    pub errors: Vec<String>,
}

/// Client-side sink for a multi-datagram reply: header bytes to the
/// side, value bytes straight into the value buffer.
struct ReplyBuf {
    header: [u8; MSG_HEADER_LEN],
    value: Vec<u8>,
}

impl FragmentWriter for ReplyBuf {
    fn write_at(&mut self, offset: usize, chunk: &[u8]) {
        let (mut offset, mut chunk) = (offset, chunk);
        if offset < MSG_HEADER_LEN {
            let n = chunk.len().min(MSG_HEADER_LEN - offset);
            self.header[offset..offset + n].copy_from_slice(&chunk[..n]);
            offset += n;
            chunk = &chunk[n..];
        }
        if !chunk.is_empty() {
            let at = offset - MSG_HEADER_LEN;
            self.value[at..at + chunk.len()].copy_from_slice(chunk);
        }
    }
}

fn open_reply(h: &FragHeader) -> Option<ReplyBuf> {
    let len = (h.msg_len as usize).checked_sub(MSG_HEADER_LEN)?;
    Some(ReplyBuf {
        header: [0; MSG_HEADER_LEN],
        value: vec![0; len],
    })
}

/// Receives exactly `n` datagrams from `queue` of `t`.
fn receive(t: &UdpTransport, queue: u16, n: usize) -> Result<Vec<Packet>, String> {
    let mut pkts = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_secs(2);
    while pkts.len() < n {
        let want = n - pkts.len();
        t.rx_burst(queue, &mut pkts, want);
        if Instant::now() > deadline {
            return Err(format!("received {} of {n} datagrams", pkts.len()));
        }
    }
    Ok(pkts)
}

/// A store configured like the live server's, preloaded with every key
/// at its workload size.
fn preloaded_store(w: &Workload) -> Store {
    let n_items = (w.num_keys() as usize * 2).max(1024);
    let mut config = StoreConfig::for_items(CORES * 4, n_items, w.mempool_bytes);
    config.max_value_bytes = w.max_value_len().next_power_of_two().max(1 << 20);
    config.capacity = CapacityConfig {
        policy: w.eviction,
        ..CapacityConfig::default()
    };
    let store = Store::new(config);
    for key in 0..w.num_keys() {
        let value = vec![fill_byte(key); w.value_len(key)];
        store
            .put_with_ttl(key, &value, w.ttl_ms())
            .expect("replay preload fits");
    }
    store
}

/// Replays [`REPLAY_OPS`] ops of `seed`'s op stream for `w`, placing
/// with `plan` (the live server's plan after its `hi` phase).
pub fn replay(
    w: &Workload,
    seed: u64,
    plan: &ShardingPlan,
    port: u16,
    tracer: &mut Tracer,
) -> Replay {
    let store = preloaded_store(w);
    let before = store.stats();
    let discipline = DisciplineKind::SizeAware.build();
    let srv = Arc::new(
        UdpTransport::bind(UdpConfig::loopback(port, CORES as u16)).expect("bind replay server"),
    );
    let cli = UdpTransport::bind_client(Ipv4Addr::LOCALHOST).expect("bind replay client");
    let cli_ep = cli.local_endpoint(0);
    let (generator, mut rng) = Live::op_stream(seed, w);
    let gap_ns = 1e9 / w.hi_rate;
    let mut ingest: StreamingReassembler<PutIngest> = StreamingReassembler::new(64);
    let mut replies: StreamingReassembler<ReplyBuf> = StreamingReassembler::new(64);
    let mut out = Replay::default();
    for i in 0..REPLAY_OPS {
        let now_ns = (i as f64 * gap_ns) as u64;
        store.set_clock_ns(now_ns);
        let root = tracer.open("workload.op", ROOT, i);
        let op = generator.next_op(&mut rng);
        let (body, queue) = match op.op {
            minos_workload::Operation::Get => {
                (Body::Get { key: op.key }, (i % CORES as u64) as u16)
            }
            minos_workload::Operation::Put => (
                Body::Put {
                    key: op.key,
                    value: Bytes::from(vec![fill_byte(op.key); op.item_size as usize]),
                    ttl_ms: op.ttl_ms,
                },
                (minos_kv::keyhash(op.key) % CORES as u64) as u16,
            ),
        };
        let srv_ep = srv.local_endpoint(queue);
        // Client: encode and fragment the request.
        let mut burst: Vec<TxPacket> = tracer.span("wire.encode", root, i, |_| {
            let msg = Message {
                client_id: 1,
                request_id: i + 1,
                client_ts_ns: 0,
                body,
            };
            fragment_frame_with_id(2 * i, &msg.encode_frame())
                .into_iter()
                .map(|f| synthesize_frame(cli_ep, srv_ep, f))
                .collect()
        });
        let n_req = burst.len();
        tracer.span("net.tx", root, i, |_| cli.tx_frames(0, &mut burst));
        let pkts = match tracer.span("net.rx", root, i, |_| receive(&srv, queue, n_req)) {
            Ok(p) => p,
            Err(e) => {
                tracer.close(root);
                out.errors.push(format!("op {i} request: {e}"));
                break;
            }
        };
        // Server: decode, place, execute.
        let reply = if n_req == 1 {
            let pkt = &pkts[0];
            let msg = tracer.span("wire.decode", root, i, |_| {
                let mut rd = pkt.payload.clone();
                FragHeader::decode(&mut rd).and_then(|_| Message::decode(rd))
            });
            let Some(msg) = msg else {
                tracer.close(root);
                out.errors.push(format!("op {i}: request did not decode"));
                break;
            };
            tracer.span("dispatch.place", root, i, |_| {
                let size = match &msg.body {
                    Body::Put { value, .. } => Some(value.len() as u64),
                    _ => store.value_len(op.key).map(|l| l as u64),
                };
                place(&*discipline, plan, queue, op.key, size)
            });
            let done = tracer.span("kv.execute", root, i, |_| execute(&store, &msg));
            let Some((status, value, _, _)) = done else {
                tracer.close(root);
                out.errors.push(format!("op {i}: request did not execute"));
                break;
            };
            Some((msg, status, value))
        } else {
            None
        };
        let reply_msg = match reply {
            Some((msg, status, value)) => tracer.span("wire.encode", root, i, |_| {
                msg.reply(status, value.map(Bytes::from_owner))
            }),
            None => {
                let src = pkts[0].source_endpoint();
                let msg_len = {
                    let mut rd = pkts[0].payload.clone();
                    FragHeader::decode(&mut rd).map_or(0, |h| h.msg_len)
                };
                tracer.span("dispatch.place", root, i, |_| {
                    place(&*discipline, plan, queue, op.key, Some(u64::from(msg_len)))
                });
                let mut completed = None;
                tracer.span("ingest.stream", root, i, |_| {
                    for pkt in pkts {
                        if let Streamed::Complete(w) =
                            ingest.push(src, pkt.payload, |h| PutIngest::open(&store, h))
                        {
                            completed = Some(w);
                        }
                    }
                });
                let Some(done) = completed
                    .and_then(|w| tracer.span("kv.execute", root, i, |_| w.commit(&store)))
                else {
                    tracer.close(root);
                    out.errors
                        .push(format!("op {i}: streamed PUT did not commit"));
                    break;
                };
                done.reply()
            }
        };
        if i % TICK_EVERY == TICK_EVERY - 1 {
            tracer.span("kv.tick", root, i, |_| store.capacity_tick(0, 1, now_ns));
        }
        // Server: encode and send the reply; client: receive and decode.
        let mut burst: Vec<TxPacket> = tracer.span("wire.encode", root, i, |_| {
            fragment_frame_with_id(2 * i + 1, &reply_msg.encode_frame())
                .into_iter()
                .map(|f| synthesize_frame(srv_ep, cli_ep, f))
                .collect()
        });
        let n_rep = burst.len();
        tracer.span("net.tx", root, i, |_| srv.tx_frames(queue, &mut burst));
        let pkts = match tracer.span("net.rx", root, i, |_| receive(&cli, 0, n_rep)) {
            Ok(p) => p,
            Err(e) => {
                tracer.close(root);
                out.errors.push(format!("op {i} reply: {e}"));
                break;
            }
        };
        let got = tracer.span("wire.decode", root, i, |_| {
            if n_rep == 1 {
                let mut rd = pkts[0].payload.clone();
                return FragHeader::decode(&mut rd).and_then(|_| Message::decode(rd));
            }
            let src = pkts[0].source_endpoint();
            let mut msg = None;
            for pkt in pkts {
                if let Streamed::Complete(b) = replies.push(src, pkt.payload, open_reply) {
                    msg = Message::decode_streamed(&b.header, Bytes::from(b.value));
                }
            }
            msg
        });
        tracer.close(root);
        out.ops += 1;
        out.packets += (n_req + n_rep) as u64;
        if let Err(e) = check_reply(w, op.key, got.as_ref()) {
            out.errors.push(format!("op {i}: {e}"));
        }
    }
    let after = store.stats();
    out.evictions = after.evictions - before.evictions;
    out.get_retries = after.get_retries - before.get_retries;
    out
}

fn place(
    discipline: &dyn minos_core::dispatch::Discipline,
    plan: &ShardingPlan,
    rx_core: u16,
    key: u64,
    size: Option<u64>,
) -> minos_core::dispatch::Placement {
    let depths = [0usize; CORES];
    discipline.place(&PlaceCtx {
        rx_core: rx_core as usize,
        n_cores: CORES,
        key,
        size,
        plan,
        depths: &depths,
    })
}

/// The workload's reply rules: `Ok` everywhere, a GET `NotFound` only
/// where misses are legitimate, and GET values of the written length
/// and fill.
fn check_reply(w: &Workload, key: u64, reply: Option<&Message>) -> Result<(), String> {
    let Some(reply) = reply else {
        return Err("reply did not decode".into());
    };
    match &reply.body {
        Body::GetReply {
            status: ReplyStatus::Ok,
            value,
            ..
        } => {
            let want = w.value_len(key);
            if value.len() != want || value.iter().any(|&b| b != fill_byte(key)) {
                return Err(format!(
                    "GET {key}: wrong value ({} bytes, want {want})",
                    value.len()
                ));
            }
            Ok(())
        }
        Body::GetReply {
            status: ReplyStatus::NotFound,
            ..
        } if w.misses_allowed => Ok(()),
        Body::PutReply {
            status: ReplyStatus::Ok,
            ..
        } => Ok(()),
        other => Err(format!("unexpected reply {other:?}")),
    }
}
