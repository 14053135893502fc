//! Per-layer metrics of a live phase, read from outside the program:
//! `MinosServer::registry().snapshot()`, the transports' own statistics,
//! and `/proc` CPU time of the `minos-core-*` threads, each differenced
//! across the phase.

use crate::live::{Live, Phase, CORES, CORE_THREAD_PREFIX};
use crate::probe;
use crate::stats::{percentile, ratio};
use minos_net::{Transport, TransportStats, UdpIoStats};
use minos_obs::{HistSummary, Snapshot};

/// Everything sampled at one phase boundary.
pub struct Sample {
    snap: Snapshot,
    srv_io: UdpIoStats,
    cli_io: UdpIoStats,
    srv: TransportStats,
    cli: TransportStats,
    core_cpu_ns: u64,
    reply_copied: u64,
}

impl Sample {
    /// Samples `live` now.
    pub fn take(live: &Live) -> Sample {
        Sample {
            snap: live.server.registry().snapshot(),
            srv_io: live.srv.io_stats(),
            cli_io: live.cli.io_stats(),
            srv: live.srv.stats(),
            cli: live.cli.stats(),
            core_cpu_ns: probe::threads_cpu_ns(CORE_THREAD_PREFIX),
            reply_copied: live.reply_copied_bytes(),
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.snap.counter(name).unwrap_or(0) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.snap.gauge(name).unwrap_or(0.0)
    }

    fn hist(&self, name: &str) -> HistSummary {
        self.snap.hist(name).copied().unwrap_or_default()
    }
}

/// Σ recorded time of a histogram (count × mean), ns.
fn hist_sum(h: &HistSummary) -> f64 {
    h.count as f64 * h.mean
}

/// The worst core's percentile of a per-core lifecycle histogram, µs
/// (the registry keeps cumulative per-core summaries, so this covers
/// the server's whole life: preload, warm-up and every phase so far).
fn worst_core(s: &Sample, class: &str, leaf: &str, pick: fn(&HistSummary) -> u64) -> f64 {
    (0..CORES)
        .map(|c| pick(&s.hist(&format!("core.{c}.{class}.{leaf}"))) as f64 / 1e3)
        .fold(0.0, f64::max)
}

/// Per-layer metrics of `phase`, measured between samples `a` and `b`.
/// `live_bytes` is Σ value bytes of the items stored at `b`.
pub fn metrics(a: &Sample, b: &Sample, phase: &Phase, live_bytes: f64) -> Vec<(&'static str, f64)> {
    let d = |name: &str| b.counter(name) - a.counter(name);
    let ops = phase.sent() as f64;
    let mut late = phase.late_ns.clone();
    let late_p99 = percentile(&mut late, 99.0).map_or(0.0, |r| r.value / 1e3);
    let late_max = phase.late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3;

    let per_core_ops: Vec<f64> = (0..CORES).map(|c| d(&format!("core.{c}.ops"))).collect();
    let core_ops: f64 = per_core_ops.iter().sum();
    let max_core = per_core_ops.iter().copied().fold(0.0, f64::max);
    let cpu_ns = (b.core_cpu_ns - a.core_cpu_ns) as f64;
    let service_ns: f64 = (0..CORES)
        .flat_map(|c| ["small", "large"].map(move |k| format!("core.{c}.{k}.service_ns")))
        .map(|n| hist_sum(&b.hist(&n)) - hist_sum(&a.hist(&n)))
        .sum();

    let io = |x: &UdpIoStats, y: &UdpIoStats| {
        (
            (y.rx_packets - x.rx_packets) as f64,
            (y.rx_syscalls - x.rx_syscalls) as f64,
            (y.tx_packets - x.tx_packets) as f64,
            (y.tx_syscalls - x.tx_syscalls) as f64,
        )
    };
    let (srx, srx_sys, stx, stx_sys) = io(&a.srv_io, &b.srv_io);
    let (crx, crx_sys, ctx, ctx_sys) = io(&a.cli_io, &b.cli_io);
    let pool_hits = (b.srv_io.pool_hits - a.srv_io.pool_hits) as f64;
    let pool_misses = (b.srv_io.pool_misses - a.srv_io.pool_misses) as f64;

    let gets = d("store.get_hits") + d("store.get_misses");
    let puts = d("store.puts");
    vec![
        ("gen.late_p99_us", late_p99),
        ("gen.late_max_us", late_max),
        ("gen.burst_ops", ratio(ops, phase.sends as f64)),
        (
            "client.empty_poll_ratio",
            ratio(phase.empty_polls as f64, phase.polls as f64),
        ),
        (
            "client.reply_copied_bytes_per_large",
            ratio(
                (b.reply_copied - a.reply_copied) as f64,
                phase.large_gets_ok as f64,
            ),
        ),
        ("net.srv.rx_pkts_per_syscall", ratio(srx, srx_sys)),
        ("net.srv.tx_pkts_per_syscall", ratio(stx, stx_sys)),
        ("net.cli.rx_pkts_per_syscall", ratio(crx, crx_sys)),
        ("net.cli.tx_pkts_per_syscall", ratio(ctx, ctx_sys)),
        (
            "net.syscalls_per_op",
            ratio(srx_sys + stx_sys + crx_sys + ctx_sys, ops),
        ),
        ("net.wire_pkts_per_op", ratio(stx + ctx, ops)),
        (
            "net.srv.pool_hit_rate",
            ratio(pool_hits, pool_hits + pool_misses),
        ),
        (
            "net.tx_dropped",
            ((b.srv.tx_dropped - a.srv.tx_dropped) + (b.cli.tx_dropped - a.cli.tx_dropped)) as f64,
        ),
        (
            "net.tx_copied_bytes",
            (b.srv.tx_copied_bytes + b.cli.tx_copied_bytes) as f64,
        ),
        (
            "core.small.queue_wait_p99_us",
            worst_core(b, "small", "queue_wait_ns", |h| h.p99),
        ),
        (
            "core.small.service_p50_us",
            worst_core(b, "small", "service_ns", |h| h.p50),
        ),
        (
            "core.large.queue_wait_p99_us",
            worst_core(b, "large", "queue_wait_ns", |h| h.p99),
        ),
        (
            "core.large.service_p50_us",
            worst_core(b, "large", "service_ns", |h| h.p50),
        ),
        ("core.cpu_per_op_us", ratio(cpu_ns / 1e3, ops)),
        ("core.busy_ratio", ratio(service_ns, cpu_ns)),
        ("core.imbalance", ratio(max_core, core_ops / CORES as f64)),
        (
            "dispatch.handoff_ratio",
            ratio(d("dispatch.queue_picks"), ops),
        ),
        ("dispatch.soft_queue_drops", d("engine.soft_queue_drops")),
        ("plan.epochs", d("engine.epochs")),
        ("plan.n_large", b.gauge("plan.n_large")),
        ("plan.threshold_bytes", b.gauge("plan.threshold_bytes")),
        (
            "ingest.copied_per_put_byte",
            ratio(d("ingest.put_copied_bytes"), phase.put_ok_bytes as f64),
        ),
        (
            "ingest.reassembly_evictions",
            d("ingest.reassembly_evictions"),
        ),
        (
            "kv.get_retries_per_kget",
            ratio(d("store.get_retries") * 1e3, gets),
        ),
        (
            "kv.get_miss_ratio",
            ratio(phase.misses as f64, phase.gets as f64),
        ),
        (
            "kv.evictions_per_kput",
            ratio(d("store.evictions") * 1e3, puts),
        ),
        (
            "kv.evicted_bytes_per_put_byte",
            ratio(d("store.evicted_bytes"), phase.put_ok_bytes as f64),
        ),
        (
            "kv.expired_per_kput",
            ratio(d("store.expired_keys") * 1e3, puts),
        ),
        ("kv.put_failures", d("store.put_failures")),
        ("kv.admission_rejects", d("store.admission_rejects")),
        ("kv.occupancy_end", b.gauge("mempool.occupancy")),
        (
            "kv.mempool_bytes_per_live_byte",
            ratio(b.gauge("mempool.used_bytes"), live_bytes),
        ),
    ]
}

/// Σ value bytes of every key the server currently stores.
pub fn live_value_bytes(live: &Live) -> f64 {
    let store = live.server.store();
    (0..live.workload.num_keys())
        .filter_map(|k| store.value_len(k))
        .map(|l| l as f64)
        .sum()
}
