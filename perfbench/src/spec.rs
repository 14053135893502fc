//! What the benchmark runs and what it reports: the three workloads with
//! their fixed rates, and the metric schema (name, unit, direction) that
//! `BENCHMARK.json` mirrors.

use minos_kv::EvictionPolicy;
use minos_workload::{
    AccessGenerator, ChurnConfig, ChurnGenerator, Dataset, OpSpec, Rng, DEFAULT_PROFILE,
};

/// Keys of the `etc` and `small-only` datasets.
const ETC_KEYS: u64 = 20_000;
/// How many of them hold large (multi-datagram) values.
const ETC_LARGE_KEYS: u64 = 50;
/// Dataset salt: value sizes are part of the workload's definition, so
/// they stay fixed; the run seed only picks the op stream and arrivals.
const DATASET_SALT: u64 = 0x6d69_6e6f_735f_6b76;

/// One benchmark workload: the op mix, the dataset behind it, and the
/// rates it is measured at (chosen from a rate sweep on a 2-CPU host;
/// see the README beside this file).
#[derive(Clone, Debug)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// The fixed low rate, ops/s.
    pub lo_rate: f64,
    /// The fixed high rate, ops/s (below the knee).
    pub hi_rate: f64,
    /// Most ops/s the closed-loop peak phase is expected to reach (about
    /// 1.5x the reference host's); its sample room is reserved for this
    /// rate, so peak RSS does not jump with the seed.
    pub peak_max: f64,
    /// Whether a GET `NotFound` is a legitimate cache miss (keys can be
    /// evicted or expire) rather than a failure.
    pub misses_allowed: bool,
    /// Store value-memory budget, bytes.
    pub mempool_bytes: usize,
    /// Eviction policy of the store.
    pub eviction: EvictionPolicy,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    /// The paper's default mix over a preloaded dataset.
    Etc { p_large: f64 },
    /// Uniform-size churn over a working set larger than the mempool.
    Churn(ChurnConfig),
}

/// The generator a workload draws its ops from.
pub enum Generator {
    /// [`Kind::Etc`].
    Access(AccessGenerator),
    /// [`Kind::Churn`].
    Churn(ChurnGenerator),
}

impl Generator {
    /// Draws the next op.
    pub fn next_op(&self, rng: &mut Rng) -> OpSpec {
        match self {
            Generator::Access(g) => g.next_op(rng),
            Generator::Churn(g) => g.next_op(rng),
        }
    }
}

/// Every workload, in report order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "etc",
            lo_rate: 25_000.0,
            hi_rate: 40_000.0,
            peak_max: 150_000.0,
            misses_allowed: false,
            mempool_bytes: 64 << 20,
            eviction: EvictionPolicy::None,
            kind: Kind::Etc {
                p_large: DEFAULT_PROFILE.p_large,
            },
        },
        Workload {
            name: "small-only",
            lo_rate: 25_000.0,
            hi_rate: 40_000.0,
            peak_max: 200_000.0,
            misses_allowed: false,
            mempool_bytes: 64 << 20,
            eviction: EvictionPolicy::None,
            kind: Kind::Etc { p_large: 0.0 },
        },
        Workload {
            name: "put-churn",
            lo_rate: 8_000.0,
            hi_rate: 16_000.0,
            peak_max: 60_000.0,
            misses_allowed: true,
            mempool_bytes: 8 << 20,
            eviction: EvictionPolicy::SizeAwareClock,
            kind: Kind::Churn(ChurnConfig {
                num_keys: 4_000,
                value_min: 64,
                value_max: 16 << 10,
                zipf_s: DEFAULT_PROFILE.zipf_s,
                get_ratio: 0.5,
                ttl_ms: 2_000,
                salt: DATASET_SALT,
            }),
        },
    ]
}

/// Looks a workload up by CLI name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The op generator (deterministic; the run seed only feeds the RNG
    /// that draws from it).
    pub fn generator(&self) -> Generator {
        match &self.kind {
            Kind::Etc { p_large } => Generator::Access(AccessGenerator::new(
                self.dataset(),
                *p_large,
                DEFAULT_PROFILE.get_ratio,
                DEFAULT_PROFILE.zipf_s,
            )),
            Kind::Churn(cfg) => Generator::Churn(ChurnGenerator::new(*cfg)),
        }
    }

    fn dataset(&self) -> Dataset {
        Dataset::new(
            ETC_KEYS,
            ETC_LARGE_KEYS,
            0.4,
            DEFAULT_PROFILE.large_max,
            DATASET_SALT,
        )
    }

    /// Number of keys in the workload's key space.
    pub fn num_keys(&self) -> u64 {
        match &self.kind {
            Kind::Etc { .. } => ETC_KEYS,
            Kind::Churn(cfg) => cfg.num_keys,
        }
    }

    /// The value size the generator writes for `key` (fixed per key).
    pub fn value_len(&self, key: u64) -> usize {
        match &self.kind {
            Kind::Etc { .. } => self.dataset().size_of(key) as usize,
            Kind::Churn(cfg) => ChurnGenerator::new(*cfg).size_of(key) as usize,
        }
    }

    /// TTL the workload stamps on every PUT, ms (0 = none).
    pub fn ttl_ms(&self) -> u64 {
        match &self.kind {
            Kind::Etc { .. } => 0,
            Kind::Churn(cfg) => cfg.ttl_ms,
        }
    }

    /// Which samples and percentile `*.large_p95_us` reads. Where large
    /// requests are rare (`etc`) it is the large class's p95, as in the
    /// paper. Where they are the bulk of the traffic (`put-churn`, whose
    /// multi-datagram values are ~90 % of ops), or absent (`small-only`,
    /// where all ops stand in), the p95 falls between the fast replies and
    /// the ones a descheduled polling core delays, and jumps between the
    /// two from run to run; the p99 stands in there.
    pub fn large_tail(&self) -> LargeTail {
        match &self.kind {
            Kind::Etc { p_large } if *p_large > 0.0 => LargeTail::Class(95.0),
            Kind::Etc { .. } => LargeTail::AllOps(99.0),
            Kind::Churn(_) => LargeTail::Class(99.0),
        }
    }

    /// Largest value in the workload, bytes.
    pub fn max_value_len(&self) -> usize {
        match &self.kind {
            Kind::Etc { .. } => DEFAULT_PROFILE.large_max as usize,
            Kind::Churn(cfg) => cfg.value_max as usize,
        }
    }
}

/// What `*.large_p95_us` reads (see [`Workload::large_tail`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LargeTail {
    /// This percentile of the large class.
    Class(f64),
    /// This percentile of all ops: the workload has no large class.
    AllOps(f64),
}

/// The byte every value of `key` is filled with (the client library's
/// synthesized-PUT pattern; the read-back check relies on it).
pub fn fill_byte(key: u64) -> u8 {
    (key % 251) as u8
}

/// Which JSON block of the result line a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Reported by untraced runs (`--trace 0`); bounded regressions.
    EndToEnd,
    /// Reported by traced runs (`--trace 1`); unbounded diagnostics.
    PerLayer,
    /// Printed by untraced runs but kept out of the result line: too
    /// unsteady on the reference host for any bound of at most 0.25
    /// (see the README).
    Printed,
}

/// One metric of the schema.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Dotted metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Which result block carries it.
    pub tier: Tier,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        tier: Tier::EndToEnd,
    }
}

const fn printed(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        tier: Tier::Printed,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        tier: Tier::PerLayer,
    }
}

/// The full metric schema, in print order.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", false),
    e2e("peak_rss_mb", "MiB", false),
    printed("lo.p50_us", "us", false),
    printed("hi.p50_us", "us", false),
    e2e("lo.small_p99_us", "us", false),
    e2e("hi.small_p99_us", "us", false),
    printed("lo.large_p95_us", "us", false),
    printed("hi.large_p95_us", "us", false),
    printed("peak_rate_ops", "ops/s", true),
    // workload: the generator itself.
    layer("gen.late_p99_us", "us", false),
    layer("gen.late_max_us", "us", false),
    layer("gen.burst_ops", "ops", false),
    // core.client: spans around the client library's public calls.
    layer("client.send_ns_per_op", "ns", false),
    layer("client.poll_ns_per_reply", "ns", false),
    layer("client.empty_poll_ratio", "ratio", false),
    layer("client.reply_copied_bytes_per_large", "bytes", false),
    // net: minos-net transports on both sides.
    layer("net.srv.rx_pkts_per_syscall", "pkts", true),
    layer("net.srv.tx_pkts_per_syscall", "pkts", true),
    layer("net.cli.rx_pkts_per_syscall", "pkts", true),
    layer("net.cli.tx_pkts_per_syscall", "pkts", true),
    layer("net.syscalls_per_op", "syscalls", false),
    layer("net.wire_pkts_per_op", "pkts", false),
    layer("net.srv.pool_hit_rate", "ratio", true),
    layer("net.tx_dropped", "pkts", false),
    layer("net.tx_copied_bytes", "bytes", false),
    // core.server: the polling cores.
    layer("core.small.queue_wait_p99_us", "us", false),
    layer("core.small.service_p50_us", "us", false),
    layer("core.large.queue_wait_p99_us", "us", false),
    layer("core.large.service_p50_us", "us", false),
    layer("core.cpu_per_op_us", "us", false),
    layer("core.busy_ratio", "ratio", true),
    layer("core.imbalance", "ratio", false),
    // core.dispatch / plan.
    layer("dispatch.handoff_ratio", "ratio", false),
    layer("dispatch.soft_queue_drops", "count", false),
    layer("plan.epochs", "count", false),
    layer("plan.n_large", "cores", false),
    layer("plan.threshold_bytes", "bytes", true),
    // core.ingest.
    layer("ingest.copied_per_put_byte", "ratio", false),
    layer("ingest.reassembly_evictions", "count", false),
    // kv.
    layer("kv.get_retries_per_kget", "count", false),
    layer("kv.get_miss_ratio", "ratio", false),
    layer("kv.evictions_per_kput", "count", false),
    layer("kv.evicted_bytes_per_put_byte", "ratio", false),
    layer("kv.expired_per_kput", "count", false),
    layer("kv.put_failures", "count", false),
    layer("kv.admission_rejects", "count", false),
    layer("kv.occupancy_end", "ratio", false),
    layer("kv.mempool_bytes_per_live_byte", "ratio", false),
    // traced replay: self times per layer and exact counts.
    layer("trace.workload.op_ns_per_op", "ns", false),
    layer("trace.wire.encode_ns_per_op", "ns", false),
    layer("trace.wire.decode_ns_per_op", "ns", false),
    layer("trace.dispatch.place_ns_per_op", "ns", false),
    layer("trace.ingest.stream_ns_per_op", "ns", false),
    layer("trace.kv.execute_ns_per_op", "ns", false),
    layer("trace.net.tx_ns_per_pkt", "ns", false),
    layer("trace.net.rx_ns_per_pkt", "ns", false),
    layer("trace.wire.frags_per_op", "pkts", false),
    layer("trace.kv.evictions", "count", false),
    layer("trace.kv.get_retries", "count", false),
    layer("trace.overhead_ratio", "ratio", false),
];

/// The schema entry of `name`.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minos_obs::JsonValue;
    use std::collections::HashSet;

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key}: expected an array"))
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for m in METRICS {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in workloads() {
            assert!(valid_name(w.name));
            assert!(w.lo_rate < w.hi_rate && w.hi_rate < w.peak_max);
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_schema() {
        let doc = benchmark_json();
        for (key, tier) in [
            ("end_to_end", Tier::EndToEnd),
            ("per_layer", Tier::PerLayer),
        ] {
            let declared: Vec<(String, String, bool)> = entries(&doc, key)
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better") == "higher")
                })
                .collect();
            let ours: Vec<(String, String, bool)> = METRICS
                .iter()
                .filter(|m| m.tier == tier)
                .map(|m| (m.name.into(), m.unit.into(), m.higher_is_better))
                .collect();
            assert_eq!(declared, ours, "{key} drifted from the schema");
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        let names: Vec<String> = entries(&doc, "workloads")
            .iter()
            .map(|e| e.get("name").and_then(|v| v.as_str()).unwrap().to_string())
            .collect();
        let ours: Vec<String> = workloads().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn value_sizes_are_fixed_per_key() {
        for w in workloads() {
            for key in [0, 1, w.num_keys() - 1] {
                assert_eq!(w.value_len(key), w.value_len(key));
                assert!(w.value_len(key) <= w.max_value_len());
            }
        }
    }
}
