//! Reducing a run to its metrics, and printing them.

use crate::gen::{OpKind, Workload};
use crate::stats::{counter, histogram, histogram_quantile, mean, median, percentile, ratio};
use crate::{traced, Run};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics of a timed run (tracing off), in output order.
/// Latencies cover every request of the workload's mix: retrieves on
/// `retrieve_cold`, solves on `solve_graph`, retrieves and durable writes
/// on `hot_read_write`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, in output order. Modelled times are
/// in `model_us`: the paper's timing model, not host time.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.self_us.p50", "us"),
    ("net.codec_ns", "ns"),
    ("net.bytes_per_op", "bytes"),
    ("net.queue_wait_us.p50", "us"),
    ("net.queue_wait_us.p99", "us"),
    ("net.busy_rejections", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidations_per_write", "ratio"),
    ("server.retrieve_us.p50", "us"),
    ("crs.retrieve_us.p50", "us"),
    ("crs.retrieve_us.p99", "us"),
    ("crs.self_us.p50", "us"),
    ("crs.candidates_per_op", "count"),
    ("crs.useful_ratio", "ratio"),
    ("crs.modeled_us", "model_us"),
    ("scw.scan_us.p50", "us"),
    ("scw.entries_per_scan", "count"),
    ("scw.candidates_per_scan", "count"),
    ("scw.false_drop_ratio", "ratio"),
    ("fs2.sweep_us.p50", "us"),
    ("fs2.sweep_us.p99", "us"),
    ("fs2.clauses_per_op", "count"),
    ("fs2.ns_per_clause", "ns"),
    ("fs2.satisfier_ratio", "ratio"),
    ("fs2.modeled_over_disk", "ratio"),
    ("unify.ns_per_candidate", "ns"),
    ("resolve.solve_us.p50", "us"),
    ("resolve.solve_us.p99", "us"),
    ("resolve.retrievals_per_solve", "count"),
    ("resolve.us_per_retrieval", "us"),
    ("wal.fsyncs_per_write", "ratio"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("compaction.runs", "count"),
    ("compaction.concurrent_retrievals", "count"),
    ("kb.build_s", "s"),
    ("kb.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer times that only `hot_read_write` exercises. They are printed
/// in the per-layer table but kept out of the result line, whose metrics
/// must be measured on every workload.
pub const WRITE_LAYER: [(&str, &str); 3] = [
    ("wal.commit_us.p50", "us"),
    ("wal.commit_us.p99", "us"),
    ("compaction.wall_ms.p50", "ms"),
];

fn metrics(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
            unit,
        })
        .collect()
}

fn latencies_us<'a>(done: impl Iterator<Item = &'a crate::drive::Done>) -> Vec<f64> {
    done.filter(|d| d.reply.is_ok())
        .map(|d| d.ns as f64 / 1e3)
        .collect()
}

/// Attempts and failures of the timed window, plus the traced pass.
pub fn attempted_failed(run: &Run) -> (usize, usize) {
    let traced = run.trace.iter().flat_map(|t| t.out.done.iter());
    let all: Vec<_> = run.window.done().chain(traced).collect();
    let failed = all.iter().filter(|d| d.reply.is_err()).count();
    (all.len(), failed)
}

/// Fewest completed requests per slice: p99 then has 10 samples beyond it.
pub const MIN_SLICE_SAMPLES: usize = 1_000;
/// Most slices a window is cut into.
pub const MAX_SLICES: usize = 10;

/// Cuts the timed window into slices: slice `k` of `n` holds the `k`-th
/// `n`-th of each connection's requests, in sending order, so on the fixed
/// `hot_read_write` sequence a slice holds the same requests on every run.
/// `n` keeps [`MIN_SLICE_SAMPLES`] requests per slice (1 to
/// [`MAX_SLICES`]). Returns each slice's completed requests and the
/// seconds from its first send to its last reply.
pub fn slices(run: &Run) -> Vec<(Vec<&crate::drive::Done>, f64)> {
    let total = run.window.done().count();
    let n = (total / MIN_SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let mut out: Vec<Vec<&crate::drive::Done>> = vec![Vec::new(); n];
    for conn in &run.window.per_conn {
        for (k, d) in conn.iter().enumerate() {
            out[k * n / conn.len()].push(d);
        }
    }
    out.into_iter()
        .map(|slice| {
            let end_ns = |d: &crate::drive::Done| u64::from(d.end_us) * 1_000;
            let first = slice
                .iter()
                .map(|d| end_ns(d).saturating_sub(d.ns))
                .min()
                .unwrap_or(0);
            let last = slice.iter().map(|d| end_ns(d)).max().unwrap_or(0);
            let ok: Vec<_> = slice.into_iter().filter(|d| d.reply.is_ok()).collect();
            (ok, (last - first) as f64 / 1e9)
        })
        .collect()
}

/// End-to-end metrics. Latency percentiles are medians over the window's
/// slices (see [`slices`]), so a burst of load from outside the process
/// moves one slice, not the result; the rate is the whole window's.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let attempts = run.window.done().count();
    let ok = run.window.done().filter(|d| d.reply.is_ok()).count();
    let setup: Vec<f64> = run.setups.iter().map(|s| s.total.as_secs_f64()).collect();
    let slices = slices(run);
    let over_slices = |f: &dyn Fn(&[&crate::drive::Done], f64) -> f64| -> f64 {
        median(&slices.iter().map(|(d, len)| f(d, *len)).collect::<Vec<_>>())
    };
    let quantile = |q: f64| over_slices(&|d, _| percentile(&latencies_us(d.iter().copied()), q));
    let mut v = BTreeMap::new();
    v.insert("setup_s", median(&setup));
    v.insert(
        "ops_per_s",
        ratio(ok as f64, run.window.elapsed.as_secs_f64()),
    );
    v.insert("latency_p50_us", quantile(0.50));
    v.insert("latency_p99_us", quantile(0.99));
    v.insert("success_ratio", ratio(ok as f64, attempts as f64));
    v.insert(
        "peak_rss_mb",
        run.stack_rss_kib.map_or(0.0, |k| k as f64 / 1024.0),
    );
    metrics(&END_TO_END, &v)
}

/// Whole-window latencies per operation class and the failed share, for
/// the human report: `(name, value or None when the workload sends no
/// such request, unit)`.
pub fn per_op(run: &Run) -> Vec<(String, Option<f64>, &'static str)> {
    let mut rows = Vec::new();
    for kind in OpKind::ALL {
        let lat = latencies_us(run.attempts(kind));
        for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
            let value = (!lat.is_empty()).then(|| percentile(&lat, q));
            rows.push((format!("{}_{label}_us", kind.name()), value, "us"));
        }
    }
    let attempts = run.window.done().count();
    let failed = run.window.done().filter(|d| d.reply.is_err()).count();
    rows.push((
        "failed_ratio".to_owned(),
        Some(ratio(failed as f64, attempts as f64)),
        "ratio",
    ));
    rows
}

pub fn per_layer(run: &Run) -> Vec<Metric> {
    let mut v = BTreeMap::new();
    per_layer_values(run, &mut v);
    metrics(&PER_LAYER, &v)
}

pub fn write_layer(run: &Run) -> Vec<(Metric, bool)> {
    let mut v = BTreeMap::new();
    per_layer_values(run, &mut v);
    let exercised = run.cfg.workload == Workload::HotReadWrite;
    metrics(&WRITE_LAYER, &v)
        .into_iter()
        .map(|m| (m, exercised))
        .collect()
}

fn per_layer_values(run: &Run, v: &mut BTreeMap<&'static str, f64>) {
    let (b, a) = (&run.window.before, &run.window.after);
    let c = |name: &str| counter(b, a, name) as f64;
    let ops = run.window.done().filter(|d| d.reply.is_ok()).count() as f64;
    let writes: Vec<_> = run
        .attempts(OpKind::Write)
        .filter(|d| d.reply.is_ok())
        .collect();
    let write_bytes: usize = writes
        .iter()
        .map(|d| run.plan.request(d.req).write_bytes())
        .sum();

    v.insert(
        "net.bytes_per_op",
        ratio(c("net.bytes_in") + c("net.bytes_out"), ops),
    );
    let wait = histogram(b, a, "net.queue_wait_ns");
    v.insert(
        "net.queue_wait_us.p50",
        histogram_quantile(&wait, 0.50) / 1e3,
    );
    v.insert(
        "net.queue_wait_us.p99",
        histogram_quantile(&wait, 0.99) / 1e3,
    );
    v.insert("net.busy_rejections", c("net.busy_rejections"));
    v.insert(
        "cache.hit_ratio",
        ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")),
    );
    v.insert(
        "cache.invalidations_per_write",
        ratio(c("cache.epoch_invalidations"), writes.len() as f64),
    );
    v.insert(
        "scw.entries_per_scan",
        ratio(c("fs1.entries_scanned"), c("fs1.scans")),
    );
    v.insert(
        "scw.candidates_per_scan",
        ratio(c("fs1.candidates_out"), c("fs1.scans")),
    );
    v.insert(
        "scw.false_drop_ratio",
        ratio(c("fs1.false_drops"), c("fs1.candidates_out")),
    );
    v.insert("fs2.clauses_per_op", ratio(c("fs2.clauses"), ops));
    v.insert(
        "fs2.satisfier_ratio",
        ratio(c("fs2.satisfiers"), c("fs2.clauses")),
    );
    v.insert(
        "wal.fsyncs_per_write",
        ratio(c("wal.fsyncs"), writes.len() as f64),
    );
    v.insert(
        "wal.bytes_per_user_byte",
        ratio(c("wal.bytes"), write_bytes as f64),
    );
    v.insert("compaction.runs", c("compaction.auto_triggers"));
    v.insert(
        "compaction.concurrent_retrievals",
        c("compaction.concurrent_retrievals"),
    );
    let wall = histogram(b, a, "compaction.wall_ns");
    // The median of one or two values is their mean, which the exact sum
    // gives; log2 buckets alone cannot.
    let wall_p50 = if wall.count <= 2 {
        ratio(wall.sum as f64, wall.count as f64)
    } else {
        histogram_quantile(&wall, 0.5)
    };
    v.insert("compaction.wall_ms.p50", wall_p50 / 1e6);
    let builds: Vec<f64> = run
        .setups
        .iter()
        .map(|s| s.kb_build.as_secs_f64())
        .collect();
    v.insert("kb.build_s", median(&builds));
    v.insert("kb.bytes", run.kb_bytes as f64);

    let Some(t) = &run.trace else { return };
    let spans = &t.out.spans;
    let selfs = traced::self_times(spans);
    // Each round trip minus the in-process server call beneath it.
    let net_self: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "net.roundtrip")
        .map(|(i, _)| selfs[i] as f64 / 1e3)
        .collect();
    v.insert("net.self_us.p50", median(&net_self).max(0.0));
    v.insert("net.codec_ns", mean(&t.out.codec_ns));
    let (server, _) = traced::by_name(spans, "server.retrieve");
    v.insert("server.retrieve_us.p50", median(&server));
    let (crs, _) = traced::by_name(spans, "crs.retrieve");
    v.insert("crs.retrieve_us.p50", percentile(&crs, 0.50));
    v.insert("crs.retrieve_us.p99", percentile(&crs, 0.99));
    let (_, crs_self) = traced::by_name(spans, "crs.retrieve");
    v.insert("crs.self_us.p50", median(&crs_self).max(0.0));
    let stats = &t.out.crs_stats;
    let candidates: Vec<f64> = stats.iter().map(|s| s.0 as f64).collect();
    let unified: f64 = stats.iter().map(|s| s.1 as f64).sum();
    v.insert("crs.candidates_per_op", mean(&candidates));
    v.insert("crs.useful_ratio", ratio(unified, candidates.iter().sum()));
    let modeled: Vec<f64> = stats.iter().map(|s| s.2 as f64 / 1e3).collect();
    v.insert("crs.modeled_us", mean(&modeled));
    v.insert(
        "fs2.modeled_over_disk",
        stats.iter().filter_map(|s| s.3).fold(0.0, f64::max),
    );
    let (scan, _) = traced::by_name(spans, "scw.scan");
    v.insert("scw.scan_us.p50", median(&scan));
    let (sweep, _) = traced::by_name(spans, "fs2.sweep");
    v.insert("fs2.sweep_us.p50", percentile(&sweep, 0.50));
    v.insert("fs2.sweep_us.p99", percentile(&sweep, 0.99));
    v.insert(
        "fs2.ns_per_clause",
        ratio(sweep.iter().sum::<f64>() * 1e3, t.out.fs2_clauses as f64),
    );
    let (unify, _) = traced::by_name(spans, "unify.full");
    v.insert(
        "unify.ns_per_candidate",
        ratio(
            unify.iter().sum::<f64>() * 1e3,
            t.out.unify_candidates as f64,
        ),
    );
    let (solve, _) = traced::by_name(spans, "resolve.solve");
    v.insert("resolve.solve_us.p50", percentile(&solve, 0.50));
    v.insert("resolve.solve_us.p99", percentile(&solve, 0.99));
    let retrievals: Vec<f64> = t.out.solve_retrievals.iter().map(|&r| r as f64).collect();
    v.insert("resolve.retrievals_per_solve", mean(&retrievals));
    v.insert(
        "resolve.us_per_retrieval",
        ratio(solve.iter().sum(), retrievals.iter().sum()),
    );
    let (commit, _) = traced::by_name(spans, "wal.commit");
    v.insert("wal.commit_us.p50", percentile(&commit, 0.50));
    v.insert("wal.commit_us.p99", percentile(&commit, 0.99));
    let (roundtrip, _) = traced::by_name(spans, "net.roundtrip");
    v.insert(
        "trace.overhead_ratio",
        ratio(mean(&roundtrip) * 1e3, traced::untraced_mean(&t.out)),
    );
}

/// Whether every answer matched and, when traced, the replays agreed and
/// the layers' self times accounted for the end-to-end mean.
pub fn correct(run: &Run) -> bool {
    let traced_ok = run.trace.as_ref().is_none_or(|t| {
        t.checks.ok() && t.out.disagreements.is_empty() && traced::accounts(&t.out)
    });
    run.checks.ok() && traced_ok
}

/// A KiB field of this process's `/proc/self/status`, such as `VmRSS:`
/// (resident set now) or `VmHWM:` (its peak).
pub fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Provenance of a result, as one JSON object.
pub fn provenance(run: &Run) -> String {
    let crs = clare_core::CrsOptions::default();
    let net = clare_net::NetConfig::default();
    let client = crate::drive::client_config();
    let samples: Vec<String> = OpKind::ALL
        .iter()
        .map(|&k| {
            format!(
                "\"{}\": {}",
                k.name(),
                run.attempts(k).filter(|d| d.reply.is_ok()).count()
            )
        })
        .collect();
    let fields = [
        ("commit", json_string(&source_version())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("simd", json_string(&clare_simd::level().to_string())),
        ("workload", json_string(run.cfg.workload.name())),
        ("seed", run.cfg.seed.to_string()),
        ("run_seconds", run.cfg.seconds.to_string()),
        (
            "timed_window_s",
            json_number(run.window.elapsed.as_secs_f64()),
        ),
        (
            "host_cpu_steal_share",
            run.window
                .steal_share
                .map_or("null".to_owned(), json_number),
        ),
        ("samples", format!("{{{}}}", samples.join(", "))),
        (
            "server",
            json_string(&format!(
                "daemon defaults as `clare-served --wal`: CrsOptions::default() (cache {:?}, \
                 overlay_auto_compact_ops {:?}), NetConfig::default() ({:?} intake, {} workers, \
                 queue_depth {}, max_connections {}, coalesce {}, frame_checksums {}), fresh WAL",
                crs.cache,
                crs.overlay_auto_compact_ops,
                net.server_mode,
                net.workers,
                net.queue_depth,
                net.max_connections,
                net.coalesce,
                net.frame_checksums
            )),
        ),
        (
            "client",
            json_string(&format!(
                "{} closed-loop connections, ClientConfig::default() except busy_retries {} and \
                 reconnect_retries {} (defaults 5 and 2)",
                crate::gen::CONNECTIONS,
                client.busy_retries,
                client.reconnect_retries
            )),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The git commit of the checkout, or `unknown` outside a git checkout.
fn source_version() -> String {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.join("..");
    // The ceiling keeps git from reading a repository above the checkout.
    let ceiling = manifest
        .parent()
        .and_then(|r| r.parent())
        .unwrap_or(manifest);
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_owned(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_owned()
        })
}

/// The human-readable report printed above the result line.
pub fn human(run: &Run) -> String {
    let mut s = String::new();
    let cfg = &run.cfg;
    let _ = writeln!(
        s,
        "perfbench {} seed {}: {} closed-loop connections, timed window {:.2} s",
        cfg.workload.name(),
        cfg.seed,
        crate::gen::CONNECTIONS,
        run.window.elapsed.as_secs_f64()
    );
    let _ = writeln!(s, "provenance: {}", provenance(run));
    if cfg.workload == Workload::SolveGraph {
        let _ = writeln!(
            s,
            "graph: {} edges, {} path/2 and {} tri/3 sources with {}..={} solutions",
            run.graph.edges,
            run.graph.path_sources.len(),
            run.graph.tri_sources.len(),
            crate::gen::MIN_SOLUTIONS,
            crate::gen::MAX_SOLUTIONS
        );
    }
    let secs = |f: fn(&crate::stack::SetupTimes) -> std::time::Duration| -> Vec<String> {
        run.setups
            .iter()
            .map(|t| format!("{:.4}", f(t).as_secs_f64()))
            .collect()
    };
    let _ = writeln!(
        s,
        "set-ups (s): total [{}], of which KbBuilder::finish [{}]",
        secs(|t| t.total).join(", "),
        secs(|t| t.kb_build).join(", ")
    );
    let sl = slices(run);
    let per_slice = |f: &dyn Fn(&[&crate::drive::Done], f64) -> f64| -> String {
        sl.iter()
            .map(|(d, len)| format!("{:.0}", f(d, *len)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        s,
        "slices: {} of {:.2} s",
        sl.len(),
        sl.first().map_or(0.0, |x| x.1)
    );
    let _ = writeln!(
        s,
        "  ops/s  {}",
        per_slice(&|d, len| ratio(d.len() as f64, len))
    );
    let _ = writeln!(
        s,
        "  p50 us {}",
        per_slice(&|d, _| percentile(&latencies_us(d.iter().copied()), 0.5))
    );
    let _ = writeln!(
        s,
        "  p99 us {}",
        per_slice(&|d, _| percentile(&latencies_us(d.iter().copied()), 0.99))
    );
    let _ = writeln!(s, "end-to-end (tracing off):");
    for m in end_to_end(run) {
        let _ = writeln!(s, "  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in per_op(run) {
        match value {
            Some(v) => {
                let _ = writeln!(s, "  {name:<32} {v:>14.4} {unit}");
            }
            None => {
                let _ = writeln!(s, "  {name:<32} {:>14} (no such requests)", "n/a");
            }
        }
    }
    for kind in OpKind::ALL {
        let n = run.attempts(kind).filter(|d| d.reply.is_ok()).count();
        if n > 0 && n < 1000 {
            let _ = writeln!(
                s,
                "  warning: only {n} {} samples (fewer than 1000)",
                kind.name()
            );
        }
    }
    failures(&mut s, "timed window", run.window.done());
    let _ = writeln!(
        s,
        "answer checks: {} replies checked, {} mismatches",
        run.checks.checked,
        run.checks.mismatches.len()
    );
    mismatches(&mut s, &run.checks);
    if let Some(t) = &run.trace {
        let _ = writeln!(
            s,
            "traced pass: {} requests, spans in {}",
            t.out.done.len(),
            t.spans_file.display()
        );
        failures(&mut s, "traced pass", t.out.done.iter());
        let _ = writeln!(
            s,
            "traced answer checks: {} replies checked, {} mismatches",
            t.checks.checked,
            t.checks.mismatches.len()
        );
        mismatches(&mut s, &t.checks);
        for d in &t.out.disagreements {
            let _ = writeln!(s, "  replay disagreement: {d}");
        }
        s.push_str(&traced::table(&t.out.spans));
        let (self_total, trees) = traced::accounting(&t.out.spans);
        let _ =
            writeln!(
            s,
            "accounting: layer self times sum to {:.2} us per traced request ({trees}) against \
             an untraced mean round trip of {:.2} us ({} requests, weighted to the traced mix): \
             {:+.1}%, tolerance {:.0}%: {}",
            ratio(self_total as f64, trees as f64) / 1e3,
            traced::untraced_mean(&t.out) / 1e3,
            t.out.untraced_ns.len(),
            traced::accounting_error(&t.out).unwrap_or(f64::NAN) * 100.0,
            traced::ACCOUNTING_TOLERANCE * 100.0,
            if traced::accounts(&t.out) { "ok" } else { "FAILED" }
        );
        let roots: Vec<f64> = t
            .out
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == "net.roundtrip")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        for kind in OpKind::ALL {
            let untraced: Vec<f64> = t
                .out
                .untraced_ns
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|&(_, ns)| ns / 1e3)
                .collect();
            let traced: Vec<f64> = roots
                .iter()
                .zip(&t.out.traced_kinds)
                .filter(|(_, k)| **k == kind)
                .map(|(us, _)| *us)
                .collect();
            if !untraced.is_empty() || !traced.is_empty() {
                let _ = writeln!(
                    s,
                    "  {:<8} round trip: untraced mean {:.2} us (n {}, max {:.0}), traced mean {:.2} us (n {}, max {:.0})",
                    kind.name(),
                    mean(&untraced),
                    untraced.len(),
                    untraced.iter().copied().fold(0.0, f64::max),
                    mean(&traced),
                    traced.len(),
                    traced.iter().copied().fold(0.0, f64::max)
                );
            }
        }
        let _ = writeln!(s, "per-layer:");
        for m in per_layer(run) {
            let _ = writeln!(s, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for (m, exercised) in write_layer(run) {
            if exercised {
                let _ = writeln!(s, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
            } else {
                let _ = writeln!(s, "  {:<34} {:>16} (no writes)", m.name, "n/a");
            }
        }
    }
    s
}

fn failures<'a>(s: &mut String, label: &str, done: impl Iterator<Item = &'a crate::drive::Done>) {
    let mut causes: BTreeMap<&str, usize> = BTreeMap::new();
    for d in done {
        if let Err(cause) = &d.reply {
            *causes.entry(cause.as_str()).or_default() += 1;
        }
    }
    if causes.is_empty() {
        let _ = writeln!(s, "failures ({label}): none");
    }
    for (cause, n) in causes {
        let _ = writeln!(s, "failures ({label}): {n} x {cause}");
    }
}

fn mismatches(s: &mut String, checks: &crate::check::CheckReport) {
    for (req, why) in checks.mismatches.iter().take(20) {
        let _ = writeln!(s, "  mismatch on request {req}: {why}");
    }
    if checks.mismatches.len() > 20 {
        let _ = writeln!(s, "  ... and {} more", checks.mismatches.len() - 20);
    }
}

/// The metrics of the result line: end-to-end without tracing, per-layer
/// with it.
pub fn result_metrics(run: &Run) -> Vec<Metric> {
    if run.trace.is_some() {
        per_layer(run)
    } else {
        end_to_end(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = [Metric {
            name: "setup_s",
            value: 0.25,
            unit: "s",
        }];
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(crate::stats::ratio(1.0, 0.0) == 0.0);
    }
}
