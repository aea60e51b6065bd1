//! The repository benchmark: one command, two workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <rssi-library|pangenome-live>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! The first line of standard output is the run header; the last is the
//! result, `{"correct", "attempted", "failed", "metrics"}`. A wrong answer
//! or a failed durability check ends the run with exit code 3 and no
//! result. See `README.md` for what each workload and metric is for.

mod common;
mod harness;
mod library;
mod live;
mod load;
mod trace;
mod wire;

use common::{Params, Report, CLIENTS, WORKERS};
use harness::{json_num, json_str, result_line};
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: ius_memtrack::CountingAllocator = ius_memtrack::CountingAllocator::new();

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = [
    // Every position uncertain, short patterns: z-estimation dominates
    // set-up and grid/verify/report dominate queries; server, persistence
    // and live fan-out are bypassed.
    "rssi-library",
    // The paper's pangenome regime, served from a live index while it
    // ingests: the server's wire path, the fan-out over segments, memtable
    // and tombstones, flushes, compaction, the WAL and recovery run only
    // here.
    "pangenome-live",
];

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("index_bytes", "B"),
    ("build_peak_bytes", "B"),
    ("disk_bytes", "B"),
    ("query_qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("weighted.zest_s", "s"),
    ("weighted.zest_bytes", "B"),
    ("index.build_s", "s"),
    ("index.leaves", "count"),
    ("index.grid_points", "count"),
    ("index.mismatches", "count"),
    ("index.file_bytes", "B"),
    ("server.bind_s", "s"),
    ("live.compact_s", "s"),
    ("live.arm_s", "s"),
    ("query.call_us.p50", "us"),
    ("query.call_us.p99", "us"),
    ("query.call_us.mean", "us"),
    ("query.candidates", "count"),
    ("query.verified", "count"),
    ("query.reported", "count"),
    ("query.grid_nodes", "count"),
    ("query.useful_ratio", "ratio"),
    ("query.scan_ns", "ns"),
    ("query.locate_ns", "ns"),
    ("query.verify_ns", "ns"),
    ("query.report_ns", "ns"),
    ("query.unattributed_ns", "ns"),
    ("server.rtt_us.p50", "us"),
    ("server.rtt_us.p99", "us"),
    ("server.service_us.p50", "us"),
    ("server.service_us.p99", "us"),
    ("server.wire_us.mean", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.refused", "count"),
    ("live.segments.mean", "count"),
    ("live.segments.max", "count"),
    ("live.memtable_rows.mean", "count"),
    ("live.tombstones", "count"),
    ("live.append_service_us.p50", "us"),
    ("live.append_service_us.p99", "us"),
    ("live.wal_fsync_us.p50", "us"),
    ("live.wal_fsync_us.p99", "us"),
    ("live.flush_ms.p50", "ms"),
    ("live.flush_ms.max", "ms"),
    ("live.flushes", "count"),
    ("live.compaction_ms.p50", "ms"),
    ("live.compactions", "count"),
    ("live.wal_bytes_per_row", "B"),
    ("live.replay_records", "count"),
    ("live.replay_ms", "ms"),
    ("append_rows_per_s", "1/s"),
    ("append_p50_us", "us"),
    ("append_p99_us", "us"),
    ("recovery_s", "s"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.setup_unattributed_frac", "ratio"),
    ("trace.query_unattributed_frac", "ratio"),
    ("trace.spans", "count"),
];

fn usage(message: &str) -> ! {
    eprintln!(
        "perfbench: {message}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--smoke] [--corrupt-expected]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Params) {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut corrupt_expected) = (false, false);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--smoke" => smoke = true,
            "--corrupt-expected" => corrupt_expected = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let params = Params {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        smoke,
        corrupt_expected,
        epoch: Instant::now(),
    };
    (workload, params)
}

/// The commit under test, when the working directory is a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The run header: host, seed, corpora, family, load shape, durability.
fn header(workload: &str, p: &Params, report: &Report) -> String {
    let mut out = String::from("{\"header\": {\"workload\": ");
    json_str(&mut out, workload);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = write!(
        out,
        ", \"host_cpus\": {host_cpus}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"family\": \"MWSA-G\", \"clients\": {}, \"workers\": {}, \"patterns\": {}, \"corpora\": [",
        p.seed,
        json_num(p.seconds),
        p.trace,
        p.smoke,
        CLIENTS,
        if workload == "rssi-library" { 0 } else { WORKERS },
        report.patterns
    );
    for (i, c) in report.corpora.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"n\": {}, \"sigma\": {}, \"z\": {}, \"ell\": {}}}",
            c.name,
            c.n,
            c.sigma,
            json_num(c.z),
            c.ell
        );
    }
    out.push_str("], \"fsync\": ");
    match report.fsync {
        Some(policy) => json_str(&mut out, policy),
        None => out.push_str("null"),
    }
    out.push_str(", \"commit\": ");
    json_str(&mut out, &commit());
    out.push_str("}}");
    out
}

fn main() {
    let (workload, params) = parse_args();
    eprintln!(
        "perfbench: {workload} seed {} ({} s, trace {})",
        params.seed, params.seconds, params.trace
    );
    let mut report = match workload.as_str() {
        "rssi-library" => library::run(&params),
        _ => live::run(&params),
    };
    let attempted = report.attempted.max(1);
    report.set("failed_frac", report.failed as f64 / attempted as f64);
    report.set("trace.spans", report.trace.len() as f64);
    if params.trace {
        let path = std::path::Path::new(".bench_work").join(format!("trace-{workload}.tsv"));
        let written =
            std::fs::create_dir_all(".bench_work").and_then(|()| report.trace.write_tsv(&path));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} span(s) written to {}",
                report.trace.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let declared: &[(&str, &str)] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics: Vec<_> = declared
        .iter()
        .map(|&(name, unit)| {
            let value = report.sheet.get(name);
            if value.is_none() && !params.trace {
                panic!("end-to-end metric {name} was not measured");
            }
            (name, value.unwrap_or(0.0), unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
    println!("{}", header(&workload, &params, &report));
    println!("{}", result_line(attempted, report.failed, &metrics));
}
