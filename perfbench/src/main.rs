//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <etc|small-only|put-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`): sets the server up three times (reporting the
//! median as `setup_s`); each server serves rounds of the workload's `lo`
//! and `hi` fixed rates, pooled per rate, and of a closed-loop peak phase
//! cut into slices, whose median rate is `peak_rate_ops`. Traced
//! (`--trace 1`): measures the `hi` phase untraced and again with spans
//! around the client library's calls, then replays the seeded op stream
//! through every layer with spans (see `replay.rs`), and reports the
//! per-layer metrics. Both print every metric by name and unit, then one
//! JSON result line; both exit non-zero when a correctness check fails.

mod layers;
mod live;
mod probe;
mod replay;
mod spec;
mod stats;
mod trace;

use live::{Live, Phase, CORES};
use spec::{LargeTail, Tier, Workload};
use stats::{median, percentile, ratio};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::{totals_by_name, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of `lo`, `hi` and peak phases per set-up.
const ROUNDS: usize = 2;
/// Share of `--seconds` an untraced run spends at the fixed rates; the
/// rest goes to the closed-loop peak phase.
const FIXED_SHARE: f64 = 0.75;
/// Requests the peak phase keeps in flight: enough to keep both cores
/// busy on every workload, few enough that no queue overflows.
const PEAK_IN_FLIGHT: u64 = 256;
/// Slices of each round's peak phase; `peak_rate_ops` is the median
/// slice rate over all rounds of all set-ups.
const PEAK_SLICES: usize = 4;
/// Where traced runs write their spans (relative to the working
/// directory, which is the checkout's root).
const TRACE_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
                workload = Some(
                    spec::workload(&name)
                        .ok_or(format!("unknown workload {name:?}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// The run's result: metrics in schema order, with the sample counts
/// behind percentiles, plus the correctness verdict.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, String)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(spec::metric(name).is_some(), "{name} is not in the schema");
        self.metrics.push((name, value, note.into()));
    }

    /// Records the median of the `p`-th percentiles of `samples`' chunks
    /// (see [`stats::chunked`]).
    fn put_chunked(&mut self, name: &'static str, p: f64, samples: &[u64], what: &str) {
        match stats::chunked(samples, p) {
            Some(c) => self.put(
                name,
                c.value / 1e3,
                format!(
                    "{what}, median of {} chunk p{p}s, n={}, {} per chunk",
                    c.chunks, c.samples, c.per_chunk
                ),
            ),
            None => self.problems.push(format!(
                "{name}: {} samples, a p{p} needs {}",
                samples.len(),
                stats::min_samples(p)
            )),
        }
    }

    fn count_phase(&mut self, p: &Phase) {
        self.attempted += p.sent();
        self.failed += p.failures();
        if p.failures() > 0 {
            let phase = if p.offered > 0.0 {
                format!("{} ops/s", p.offered)
            } else {
                "closed-loop".into()
            };
            self.problems.push(format!(
                "{phase} phase: {} lost, {} failed replies",
                p.lost, p.failed_replies
            ));
        }
    }

    fn print(&self, tier: Tier) {
        for m in spec::METRICS.iter() {
            if let Some((_, v, note)) = self.metrics.iter().find(|(n, ..)| *n == m.name) {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let mark = if m.tier == tier {
                    ""
                } else {
                    "; not in the result line"
                };
                println!(
                    "  {:<38} {:>14.3} {:<6} ({better} is better; {note}{mark})",
                    m.name, v, m.unit
                );
            }
        }
    }

    /// The result line: every metric of `tier`, by name and unit.
    fn json(&self, tier: Tier) -> String {
        let mut out = String::new();
        let correct = self.problems.is_empty();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        let mut first = true;
        for m in spec::METRICS.iter().filter(|m| m.tier == tier) {
            let value = self
                .metrics
                .iter()
                .find(|(n, ..)| *n == m.name)
                .map(|(_, v, _)| *v)
                .filter(|v| v.is_finite());
            let value = value.map_or("null".to_string(), |v| format!("{v}"));
            let sep = if first { "" } else { ", " };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn phase_line(label: &str, p: &Phase) {
    // Read like the metrics (infinite when there are too few samples).
    let small_p99 = stats::chunked(&p.small_ns, 99.0).map_or(f64::INFINITY, |c| c.value / 1e3);
    println!(
        "phase {label:<8} offered {:>9.0} ops/s  achieved {:>9.1}  sent {:>8}  small p99 {:>10.1} us  lost {}  failed {}",
        p.offered,
        p.achieved(),
        p.sent(),
        small_p99,
        p.lost,
        p.failed_replies,
    );
}

/// The latency metrics of one fixed-rate phase, under `names` (its p50,
/// small-class p99 and large-tail metric); the large tail reads what
/// [`Workload::large_tail`] says.
fn put_phase_latencies(r: &mut Report, w: &Workload, p: &Phase, names: [&'static str; 3]) {
    let [p50, small_p99, large] = names;
    r.put_chunked(p50, 50.0, &p.all_ns, "all ops");
    r.put_chunked(small_p99, 99.0, &p.small_ns, "small class");
    match w.large_tail() {
        LargeTail::Class(pct) => {
            r.put_chunked(large, pct, &p.large_ns, &format!("large class p{pct}"))
        }
        LargeTail::AllOps(pct) => r.put_chunked(
            large,
            pct,
            &p.all_ns,
            &format!("no large class: p{pct} of all ops"),
        ),
    }
}

fn window(args: &Args, share: f64) -> Duration {
    Duration::from_secs_f64(args.seconds * share)
}

fn provenance(args: &Args) {
    let w = &args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} cores={CORES} commit={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        probe::nproc(),
        probe::commit()
    );
    println!(
        "rates: lo={} hi={} ops/s; peak: {PEAK_IN_FLIGHT} in flight",
        w.lo_rate, w.hi_rate
    );
}

fn check_readback(r: &mut Report, live: &Live, seed: u64) {
    let (checked, bad) = live.read_back(seed);
    println!("read-back: {checked} keys checked, {} bad", bad.len());
    r.problems.extend(bad.into_iter().take(10));
}

fn untraced(args: &Args) -> Report {
    let w = &args.workload;
    let mut r = Report::default();
    let mut port = live::first_port();
    let mut setups = Vec::with_capacity(SETUPS);
    // Every set-up serves its share of the rounds, so the phases pool
    // three server instances (each with its own thread placement) and,
    // alternating, spread each phase over the whole run: a host
    // disturbance of a few seconds lands in a few chunks of each phase
    // instead of all of one.
    let fixed_secs = args.seconds * FIXED_SHARE / 2.0;
    let mut lo = Phase::with_capacity((w.lo_rate * fixed_secs * 1.1) as usize);
    let mut hi = Phase::with_capacity((w.hi_rate * fixed_secs * 1.1) as usize);
    let mut last_hi = None;
    let mut kept = None;
    let mut peak_rates = Vec::with_capacity(SETUPS * ROUNDS * PEAK_SLICES);
    let round = window(args, FIXED_SHARE / 2.0 / (SETUPS * ROUNDS) as f64);
    let slice = window(
        args,
        (1.0 - FIXED_SHARE) / (SETUPS * ROUNDS * PEAK_SLICES) as f64,
    );
    for i in 0..SETUPS {
        let mut live = Live::setup(w, args.seed, port);
        port = live.port() + CORES as u16;
        println!("setup {i}: {:.3} s", live.setup_s);
        setups.push(live.setup_s);
        for _ in 0..ROUNDS {
            lo.extend(live.measure(w.lo_rate, round, None));
            let before = layers::Sample::take(&live);
            let p = live.measure(w.hi_rate, round, None);
            last_hi = Some((before, layers::Sample::take(&live), p.clone()));
            hi.extend(p);
            for _ in 0..PEAK_SLICES {
                let p = live.saturate(PEAK_IN_FLIGHT, slice);
                r.count_phase(&p);
                peak_rates.push(p.achieved());
            }
        }
        let mine = &peak_rates[i * ROUNDS * PEAK_SLICES..];
        println!(
            "setup {i}: peak slices {:?} ops/s",
            mine.iter().map(|x| x.round()).collect::<Vec<_>>()
        );
        r.problems.extend(live.cross_check());
        check_readback(&mut r, &live, args.seed);
        if i + 1 == SETUPS {
            kept = Some(live);
        } else {
            live.shutdown();
        }
    }
    let live = kept.expect("at least one set-up");
    r.put(
        "setup_s",
        median(&setups),
        format!("median of {SETUPS} set-ups"),
    );
    phase_line("lo", &lo);
    phase_line("hi", &hi);
    r.count_phase(&lo);
    r.count_phase(&hi);
    let lo_names = ["lo.p50_us", "lo.small_p99_us", "lo.large_p95_us"];
    put_phase_latencies(&mut r, w, &lo, lo_names);
    put_phase_latencies(
        &mut r,
        w,
        &hi,
        ["hi.p50_us", "hi.small_p99_us", "hi.large_p95_us"],
    );
    let (min, max) = peak_rates
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    r.put(
        "peak_rate_ops",
        median(&peak_rates),
        format!(
            "median of {} closed-loop slices of {:.2} s, {PEAK_IN_FLIGHT} in flight; min {min:.0}, max {max:.0}",
            peak_rates.len(),
            slice.as_secs_f64()
        ),
    );
    r.put(
        "peak_rss_mb",
        probe::peak_rss_mib().unwrap_or(0.0),
        "VmHWM of the whole run",
    );
    let live_bytes = layers::live_value_bytes(&live);
    let (before, after, last) = last_hi.expect("at least one round");
    for (name, v) in layers::metrics(&before, &after, &last, live_bytes) {
        r.put(name, v, "last hi round");
    }
    live.shutdown();
    r
}

fn traced(args: &Args) -> Report {
    let w = &args.workload;
    let mut r = Report::default();
    let mut live = Live::setup(w, args.seed, live::first_port());
    println!("setup: {:.3} s", live.setup_s);
    let before = layers::Sample::take(&live);
    let hi = live.measure(w.hi_rate, window(args, 0.5), None);
    let after = layers::Sample::take(&live);
    phase_line("hi", &hi);
    let live_bytes = layers::live_value_bytes(&live);
    for (name, v) in layers::metrics(&before, &after, &hi, live_bytes) {
        r.put(name, v, "hi phase, untraced");
    }

    let mut live_tracer = Tracer::new();
    let thi = live.measure(w.hi_rate, window(args, 0.5), Some(&mut live_tracer));
    phase_line("hi+trace", &thi);
    r.count_phase(&hi);
    r.count_phase(&thi);
    r.problems.extend(live.cross_check());
    check_readback(&mut r, &live, args.seed);
    let spans = totals_by_name(live_tracer.spans());
    let span_ns = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ns as f64);
    r.put(
        "client.send_ns_per_op",
        ratio(span_ns("client.send"), thi.sent() as f64),
        "traced hi phase",
    );
    r.put(
        "client.poll_ns_per_reply",
        ratio(
            span_ns("client.poll") + thi.empty_poll_ns as f64,
            thi.completed as f64,
        ),
        "traced hi phase, empty polls included",
    );
    let p50 = |p: &Phase| percentile(&mut p.all_ns.clone(), 50.0).map_or(f64::NAN, |x| x.value);
    r.put(
        "trace.overhead_ratio",
        p50(&thi) / p50(&hi) - 1.0,
        "traced vs untraced hi-phase p50",
    );
    let plan = live.server.plan();
    let port = live.port() + CORES as u16;
    live.shutdown();

    let mut tracer = Tracer::new();
    let rep = replay::replay(w, args.seed, &plan, port, &mut tracer);
    println!(
        "replay: {} ops, {} datagrams, {} evictions, {} get retries, {} errors",
        rep.ops,
        rep.packets,
        rep.evictions,
        rep.get_retries,
        rep.errors.len()
    );
    r.problems.extend(rep.errors.iter().take(10).cloned());
    let spans = totals_by_name(tracer.spans());
    let self_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| spans.get(n))
            .map(|t| t.self_ns as f64)
            .sum()
    };
    let ops = rep.ops as f64;
    let pkts = rep.packets as f64;
    let note = "replay self time";
    r.put(
        "trace.workload.op_ns_per_op",
        ratio(self_ns(&["workload.op"]), ops),
        note,
    );
    r.put(
        "trace.wire.encode_ns_per_op",
        ratio(self_ns(&["wire.encode"]), ops),
        note,
    );
    r.put(
        "trace.wire.decode_ns_per_op",
        ratio(self_ns(&["wire.decode"]), ops),
        note,
    );
    r.put(
        "trace.dispatch.place_ns_per_op",
        ratio(self_ns(&["dispatch.place"]), ops),
        note,
    );
    r.put(
        "trace.ingest.stream_ns_per_op",
        ratio(self_ns(&["ingest.stream"]), ops),
        note,
    );
    r.put(
        "trace.kv.execute_ns_per_op",
        ratio(self_ns(&["kv.execute", "kv.tick"]), ops),
        note,
    );
    r.put(
        "trace.net.tx_ns_per_pkt",
        ratio(self_ns(&["net.tx"]), pkts),
        note,
    );
    r.put(
        "trace.net.rx_ns_per_pkt",
        ratio(self_ns(&["net.rx"]), pkts),
        note,
    );
    r.put("trace.wire.frags_per_op", ratio(pkts, ops), "exact count");
    r.put("trace.kv.evictions", rep.evictions as f64, "exact count");
    r.put(
        "trace.kv.get_retries",
        rep.get_retries as f64,
        "exact count",
    );
    println!("replay self time by layer (ns per op):");
    for (layer, ns) in trace::totals_by_layer(tracer.spans()) {
        println!("  {layer:<10} {:>12.1}", ratio(ns as f64, ops));
    }
    match write_spans(w.name, args.seed, &live_tracer, &tracer) {
        Ok(path) => println!("spans written to {}", path.display()),
        Err(e) => r.problems.push(format!("writing spans: {e}")),
    }
    r
}

fn write_spans(
    workload: &str,
    seed: u64,
    live: &Tracer,
    replay: &Tracer,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(TRACE_DIR);
    std::fs::create_dir_all(&dir)?;
    for (part, t) in [("live", live), ("replay", replay)] {
        let path = dir.join(format!("spans-{workload}-{seed}-{part}.tsv"));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        t.write_tsv(&mut f)?;
        f.flush()?;
    }
    Ok(dir)
}

fn main() -> ExitCode {
    probe::fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    provenance(&args);
    let tier = if args.traced {
        Tier::PerLayer
    } else {
        Tier::EndToEnd
    };
    let report = if args.traced {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("metrics:");
    report.print(tier);
    println!(
        "fail_ratio {:.6} ({} failed of {} attempted in the fixed-rate and peak phases)",
        ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", report.json(tier));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
