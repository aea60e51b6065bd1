//! The wire side of the served workload (`pangenome-live`): the server
//! configuration, a client query as a load-loop operation, and the
//! server-side metrics read from METRICS snapshots.

use crate::common::{Report, WORKERS};
use crate::harness::{check_failed, hist_delta};
use crate::load::Outcome;
use ius_obs::HistogramSnapshot;
use ius_server::{Client, ClientError, ErrorCode, MetricsSnapshot, ServerConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wire op byte of QUERY in the METRICS per-op service list.
const OP_QUERY: u8 = 1;

/// Server configuration of the served workload.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// A client query as a load-loop operation, with the positions it
/// answered for the caller to check; typed errors count as failed
/// (refusals also in `refused`).
pub fn wire_query(
    client: &mut Client,
    pattern: &[u8],
    refused: &AtomicU64,
) -> (Outcome, Vec<usize>) {
    let answer = client.query(pattern);
    let at = Instant::now();
    match answer {
        Ok(outcome) => {
            let done = Outcome::Done {
                at,
                stats: Some(outcome.stats),
            };
            (done, outcome.positions)
        }
        Err(e) => {
            if matches!(
                e,
                ClientError::Server {
                    code: ErrorCode::Overloaded,
                    ..
                }
            ) {
                refused.fetch_add(1, Ordering::Relaxed);
            }
            eprintln!("perfbench: query failed: {e}");
            (Outcome::Failed, Vec::new())
        }
    }
}

/// Connects one load thread.
pub fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).unwrap_or_else(|e| check_failed(&format!("connect {addr}: {e}")))
}

/// The service-time histogram of wire op `code` recorded between two
/// METRICS snapshots.
pub fn op_delta(after: &MetricsSnapshot, before: &MetricsSnapshot, code: u8) -> HistogramSnapshot {
    let op = |s: &MetricsSnapshot| {
        s.op_service
            .iter()
            .find(|(op, _)| *op == code)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    };
    hist_delta(&op(after), &op(before))
}

/// Server-side metrics of the closed loop: service time of QUERY, wire
/// time (round trip minus service), queue wait and the engine's stage
/// means.
pub fn server_metrics(report: &mut Report, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let service = op_delta(after, before, OP_QUERY);
    let rtt = |name| report.sheet.get(name).unwrap_or(0.0);
    let (rtt_p50, rtt_p99, rtt_mean) = (
        rtt("query.call_us.p50"),
        rtt("query.call_us.p99"),
        rtt("query.call_us.mean"),
    );
    report.set("server.rtt_us.p50", rtt_p50);
    report.set("server.rtt_us.p99", rtt_p99);
    report.set("server.service_us.p50", service.p50() as f64 / 1e3);
    report.set("server.service_us.p99", service.p99() as f64 / 1e3);
    // Means, not medians: the server's histogram buckets are too coarse
    // for a difference of two medians, but its sums are exact.
    report.set(
        "server.wire_us.mean",
        rtt_mean - service.mean() as f64 / 1e3,
    );
    let wait = hist_delta(&after.queue_wait, &before.queue_wait);
    report.set("server.queue_wait_us.p99", wait.p99() as f64 / 1e3);
    let stage = |f: fn(&MetricsSnapshot) -> &HistogramSnapshot| {
        hist_delta(f(after), f(before)).mean() as f64
    };
    let call_ns = rtt_mean * 1e3;
    report.stage_metrics(
        stage(|s| &s.query_scan),
        stage(|s| &s.query_locate),
        stage(|s| &s.query_verify),
        stage(|s| &s.query_report),
        call_ns,
    );
}
