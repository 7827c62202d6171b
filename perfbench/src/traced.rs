//! The traced pass. It replays a seeded sample of a workload's requests
//! one at a time and times each layer from outside, around calls into its
//! public functions:
//!
//! * `net.roundtrip`: the `NetClient` round trip to the serving stack;
//! * `server.retrieve` / `server.solve`: the same request on an in-process
//!   twin `ClauseRetrievalServer` (same knowledge base and options, own
//!   WAL). On `hot_read_write` the twin first serves the workload's
//!   distinct reads, so its cache holds what the stack's does;
//! * `wal.commit`: a write, as `assert_source` / `retract_source` on the
//!   WAL-attached twin;
//! * `crs.retrieve`: the free `clare_core::retrieve_merged` (no cache) over
//!   the twin's snapshot, and beside it its replayed parts `scw.scan`
//!   (`IndexFile::scan`), `fs2.sweep` (`Fs2Engine` over the candidate
//!   tracks' arena streams) and `unify.full` (`unify_query_clause` over the
//!   candidates);
//! * `resolve.solve`: in-process `clare_core::solve_goals_merged`.
//!
//! The sample alternates blocks of [`BLOCK`] untraced and traced requests.
//! An untraced request is the round trip alone, with no replay and no
//! span; a write is then applied to the twin, untimed, so that the twin
//! keeps the stack's knowledge base.
//!
//! Spans form one tree per traced request: `net.roundtrip` over the server call,
//! over `crs.retrieve` when that call missed the cache (a hit does no
//! retrieval work), over the three parts; for a solve, `server.solve` over
//! `resolve.solve`. Replays that the request did not execute (the cache-off
//! retrieval behind a hit, a retrieve replayed as a one-goal solve, the
//! `edge/2` retrieval a solve starts from) are separate roots, measured
//! but not counted toward the request. A span's self time is its duration
//! minus its children's. The children are replays, not nested calls, so a
//! child can outlast its parent. Each layer's self time is therefore
//! summed over all request trees and floored at zero.
//!
//! The accounting check compares those summed self times, per traced
//! request, with the mean round trip of the untraced requests: the
//! end-to-end mean at the same concurrency, measured in the same minute.
//! They must agree within [`ACCOUNTING_TOLERANCE`]. The sum misses the
//! mean when the round trip spans do not cover what the client waits for,
//! when request trees lose their root, or when the replays slow the traced
//! round trips themselves.

use crate::drive::{self, Done, Keeper, Reply, MODE};
use crate::gen::{OpKind, Plan, Request, USER};
use crate::stats::{mean, percentile};
use clare_core::{ClauseRetrievalServer, CrsOptions, Retrieval};
use clare_fs2::Fs2Engine;
use clare_net::protocol::wire;
use clare_net::{BudgetExt, NetClient};
use clare_term::{ClauseId, Term, VarId};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// How far the layers' summed self times per traced request may differ
/// from the untraced mean round trip, as a share of it, before the pass
/// fails.
pub const ACCOUNTING_TOLERANCE: f64 = 0.25;

/// Requests per block of the sample: blocks alternate, untraced first.
pub const BLOCK: usize = 20;

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The paper model's time for the same work, where one exists.
    pub modeled_ns: Option<u64>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(
        &mut self,
        req: u32,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns: start,
            end_ns: end,
            modeled_ns: None,
        });
        (out, self.spans.len() - 1)
    }
}

/// Results of the traced pass.
pub struct TraceOut {
    pub spans: Vec<Span>,
    /// Every request of the sample as a completed attempt, for the answer
    /// checks.
    pub done: Vec<Done>,
    /// The candidate lists reads kept.
    pub lists: HashMap<u64, Vec<ClauseId>>,
    /// Round trips of the untraced requests, ns, by operation class.
    pub untraced_ns: Vec<(OpKind, f64)>,
    /// Operation class of each traced request, in order.
    pub traced_kinds: Vec<OpKind>,
    /// Mean encode-request plus decode-reply time, ns.
    pub codec_ns: Vec<f64>,
    pub fs2_clauses: u64,
    pub unify_candidates: u64,
    /// Per replayed retrieval: candidates, unified, modelled elapsed ns,
    /// fs2 / disk modelled ratio.
    pub crs_stats: Vec<(usize, usize, u64, Option<f64>)>,
    pub solve_retrievals: Vec<usize>,
    /// Replays that disagreed with the server call they mirror.
    pub disagreements: Vec<String>,
}

/// Runs the pass against the stack at `addr`, whose knowledge base as built
/// is `base`. `warm` are requests the twin sees, untraced, first.
pub fn run(
    addr: SocketAddr,
    base: &clare_kb::KnowledgeBase,
    plan: &Plan,
    warm: &[u32],
    sample: &[u32],
    twin_wal: &Path,
) -> Result<TraceOut, String> {
    crate::stack::remove_wal(twin_wal);
    let twin = ClauseRetrievalServer::new(base.clone(), CrsOptions::default());
    twin.attach_wal(twin_wal)
        .map_err(|e| format!("cannot attach the twin's WAL: {e}"))?;
    for &i in warm {
        if let Request::Retrieve(q) = &*plan.request(i) {
            twin.retrieve(q, MODE);
        }
    }
    let mut client = NetClient::connect(addr, drive::client_config())
        .map_err(|e| format!("traced pass cannot connect: {e}"))?;
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut keeper = Keeper::new(plan, base);
    let mut out = TraceOut {
        spans: Vec::new(),
        done: Vec::new(),
        lists: HashMap::new(),
        untraced_ns: Vec::new(),
        traced_kinds: Vec::new(),
        codec_ns: Vec::new(),
        fs2_clauses: 0,
        unify_candidates: 0,
        crs_stats: Vec::new(),
        solve_retrievals: Vec::new(),
        disagreements: Vec::new(),
    };
    for (k, &i) in sample.iter().enumerate() {
        let req = plan.request(i);
        let req = &*req;
        if (k / BLOCK).is_multiple_of(2) {
            let started = Instant::now();
            let reply = drive::call(&mut client, req);
            let ns = started.elapsed().as_nanos() as u64;
            out.untraced_ns.push((req.kind(), ns as f64));
            out.done.push(Done {
                req: i,
                end_us: tr.t0.elapsed().as_micros() as u32,
                ns,
                reply: reply.map(|r| keeper.keep(req, r)).map_err(Box::new),
            });
            let synced = match req {
                Request::Assert { source, .. } => twin.assert_source(USER, source),
                Request::Retract { source } => twin.retract_source(USER, source),
                _ => continue,
            };
            synced.map_err(|e| format!("twin commit failed: {e}"))?;
            continue;
        }
        let k = k as u32;
        out.traced_kinds.push(req.kind());
        let (reply, root) = tr.time(k, "net.roundtrip", None, || drive::call(&mut client, req));
        out.done.push(Done {
            req: i,
            end_us: (tr.spans[root].end_ns / 1_000) as u32,
            ns: tr.spans[root].dur(),
            reply: reply.clone().map(|r| keeper.keep(req, r)).map_err(Box::new),
        });
        match req {
            Request::Retrieve(q) => {
                server_retrieve(&mut tr, &mut out, &twin, k, q, Some(root));
                let (kb, overlay) = twin.snapshot_merged();
                let goals = [q.clone()];
                let (outcome, span) = tr.time(k, "resolve.solve", None, || {
                    clare_core::solve_goals_merged(
                        &kb,
                        &overlay,
                        &goals,
                        &[],
                        &drive::solve_options(),
                    )
                });
                tr.spans[span].modeled_ns = Some(outcome.stats.retrieval_elapsed.as_ns());
                out.solve_retrievals.push(outcome.stats.retrievals);
            }
            Request::Solve {
                goals,
                names,
                source,
            } => {
                let (served, server) = tr.time(k, "server.solve", Some(root), || {
                    twin.solve_goals(goals, names, &drive::solve_options())
                });
                let (kb, overlay) = twin.snapshot_merged();
                let (outcome, span) = tr.time(k, "resolve.solve", Some(server), || {
                    clare_core::solve_goals_merged(
                        &kb,
                        &overlay,
                        goals,
                        names,
                        &drive::solve_options(),
                    )
                });
                tr.spans[span].modeled_ns = Some(outcome.stats.retrieval_elapsed.as_ns());
                out.solve_retrievals.push(outcome.stats.retrievals);
                if outcome != served {
                    out.disagreements.push(format!(
                        "request {i}: in-process solve differs from the server call"
                    ));
                }
                // The retrieval every such solve starts from: edge(Source, Y).
                let edge = kb
                    .symbols()
                    .lookup_atom("edge")
                    .ok_or("the graph module defines edge/2")?;
                let q = Term::Struct {
                    functor: edge,
                    args: vec![Term::Atom(*source), Term::Var(VarId::new(0))],
                };
                server_retrieve(&mut tr, &mut out, &twin, k, &q, None);
            }
            Request::Assert { source, .. } => {
                tr.time(k, "wal.commit", Some(root), || {
                    twin.assert_source(USER, source)
                })
                .0
                .map_err(|e| format!("twin commit failed: {e}"))?;
            }
            Request::Retract { source } => {
                tr.time(k, "wal.commit", Some(root), || {
                    twin.retract_source(USER, source)
                })
                .0
                .map_err(|e| format!("twin commit failed: {e}"))?;
            }
        }
        if let Ok(reply) = &reply {
            out.codec_ns.push(codec_ns(req, reply) as f64);
        }
    }
    out.spans = tr.spans;
    out.lists = keeper.lists;
    drop(twin);
    crate::stack::remove_wal(twin_wal);
    Ok(out)
}

/// Times the twin's retrieve of `q` as `server.retrieve` under `parent`.
/// Then replays it without the cache: beneath that span when the call
/// missed the cache, as a root of its own when it hit (a hit does no
/// retrieval work).
fn server_retrieve(
    tr: &mut Tracer,
    out: &mut TraceOut,
    twin: &ClauseRetrievalServer,
    k: u32,
    q: &Term,
    parent: Option<usize>,
) {
    let misses = clare_trace::metrics().cache_misses.get();
    let (served, server) = tr.time(k, "server.retrieve", parent, || twin.retrieve(q, MODE));
    let missed = clare_trace::metrics().cache_misses.get() != misses;
    let replayed = replay_retrieval(tr, out, twin, k, q, missed.then_some(server));
    if replayed != served {
        out.disagreements.push(format!(
            "traced request {k}: the cache-off replay differs from the server call"
        ));
    }
}

/// Replays one retrieval without the cache, and its FS1, FS2 and
/// unification parts, as spans under `parent`.
fn replay_retrieval(
    tr: &mut Tracer,
    out: &mut TraceOut,
    twin: &ClauseRetrievalServer,
    k: u32,
    q: &Term,
    parent: Option<usize>,
) -> Retrieval {
    let (kb, overlay) = twin.snapshot_merged();
    let (r, crs) = tr.time(k, "crs.retrieve", parent, || {
        clare_core::retrieve_merged(&kb, &overlay, q, MODE, &CrsOptions::default())
    });
    tr.spans[crs].modeled_ns = Some(r.stats.elapsed.as_ns());
    let disk = r.stats.disk_time.as_ns();
    let fs2_over_disk = (disk > 0).then(|| r.stats.fs2_time.as_ns() as f64 / disk as f64);
    out.crs_stats.push((
        r.stats.candidates,
        r.stats.unified,
        r.stats.elapsed.as_ns(),
        fs2_over_disk,
    ));
    let Some((functor, arity)) = q.functor_arity() else {
        return r;
    };
    let Some(pred) = kb.predicate(functor, arity) else {
        return r;
    };

    let (scan, span) = tr.time(k, "scw.scan", Some(crs), || pred.index().scan(q));
    tr.spans[span].modeled_ns = Some(r.stats.fs1_time.as_ns());

    let (swept, span) = tr.time(k, "fs2.sweep", Some(crs), || {
        let Ok(stream) = clare_pif::encode_query(q) else {
            return 0u64;
        };
        let Ok(mut engine) = Fs2Engine::new(&stream) else {
            return 0;
        };
        let tracks: BTreeSet<usize> = scan.matches.iter().map(|a| a.track() as usize).collect();
        let arena = pred.arena();
        let mut clauses = 0u64;
        let mut satisfied = 0u64;
        for t in tracks {
            for c in arena.track_clauses(t) {
                clauses += 1;
                satisfied += u64::from(engine.match_clause_words(arena.stream(c)).matched);
            }
        }
        std::hint::black_box(satisfied);
        clauses
    });
    tr.spans[span].modeled_ns = Some(r.stats.fs2_time.as_ns());
    out.fs2_clauses += swept;

    let base_len = pred.clauses().len();
    let delta = overlay.delta(functor, arity);
    let (unified, span) = tr.time(k, "unify.full", Some(crs), || {
        let mut unified = 0usize;
        for id in &r.candidates {
            let idx = id.index() as usize;
            let clause = match delta {
                Some(d) if idx >= base_len => &d.added()[idx - base_len].clause,
                _ => &pred.clauses()[idx],
            };
            unified += usize::from(clare_unify::unify_query_clause(q, clause.head()).is_some());
        }
        unified
    });
    tr.spans[span].modeled_ns = Some(r.stats.full_unify_time.as_ns());
    out.unify_candidates += r.candidates.len() as u64;
    if unified != r.stats.unified {
        out.disagreements.push(format!(
            "replayed unification found {unified} unifiers, the pipeline {}",
            r.stats.unified
        ));
    }
    r
}

/// Time to encode `req` and decode `reply` with `clare_net::protocol`.
fn codec_ns(req: &Request, reply: &Reply) -> u64 {
    let reply_bytes = match reply {
        Reply::Retrieval(r) => wire::encode_retrieval(r),
        Reply::Solve(o) => wire::encode_solve_outcome(o),
        Reply::Receipt(r) => wire::encode_commit_receipt(r),
    };
    let started = Instant::now();
    let request_bytes = match req {
        Request::Retrieve(q) => wire::encode_retrieve(&wire::RetrieveReq {
            mode: MODE,
            deadline_micros: 0,
            budget: BudgetExt::NONE,
            query: q.clone(),
        }),
        Request::Solve { goals, names, .. } => {
            let opts = drive::solve_options();
            wire::encode_solve(&wire::SolveReq {
                goals: goals.clone(),
                var_names: names.clone(),
                mode: opts.mode,
                max_solutions: u64::try_from(opts.max_solutions).unwrap_or(u64::MAX),
                max_depth: u64::try_from(opts.max_depth).unwrap_or(u64::MAX),
                deadline_micros: 0,
                budget: BudgetExt::NONE,
            })
        }
        Request::Assert { source, .. } | Request::Retract { source } => {
            wire::encode_consult(&wire::ConsultReq {
                module: USER.to_owned(),
                source: source.clone(),
            })
        }
    };
    let decoded_ok = match reply {
        Reply::Retrieval(_) => wire::decode_retrieval(&reply_bytes).is_ok(),
        Reply::Solve(_) => wire::decode_solve_outcome(&reply_bytes).is_ok(),
        Reply::Receipt(_) => wire::decode_commit_receipt(&reply_bytes).is_ok(),
    };
    let ns = started.elapsed().as_nanos() as u64;
    std::hint::black_box((request_bytes, decoded_ok));
    ns
}

/// Self time of every span: its duration minus its children's. Children
/// are replays, so one can outlast its parent; the value is then negative.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut child = vec![0i64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur() as i64;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur() as i64 - c)
        .collect()
}

/// The root of each span's tree.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root: Vec<usize> = (0..spans.len()).collect();
    for i in 0..spans.len() {
        if let Some(p) = spans[i].parent {
            root[i] = root[p];
        }
    }
    root
}

/// Each layer's total self time over the request trees (rooted at
/// `net.roundtrip`), floored at zero per layer, summed, in ns; and the
/// number of trees. A layer whose replayed children outlast it on average
/// gets zero self time, and the sum then exceeds the roots' durations.
pub fn accounting(spans: &[Span]) -> (u64, usize) {
    let selfs = self_times(spans);
    let roots = roots(spans);
    let mut per_layer: std::collections::BTreeMap<&str, i64> = Default::default();
    let mut trees = 0;
    for (i, s) in spans.iter().enumerate() {
        if spans[roots[i]].name != "net.roundtrip" {
            continue;
        }
        *per_layer.entry(s.name).or_default() += selfs[i];
        trees += usize::from(s.parent.is_none());
    }
    let self_total = per_layer.values().map(|&t| t.max(0) as u64).sum();
    (self_total, trees)
}

/// The end-to-end mean round trip of the traced requests' mix, ns: each
/// traced request counts with the untraced mean of its operation class.
/// On `hot_read_write` the two halves of the sample hold different numbers
/// of writes, which take 20 times as long as reads; weighting by class
/// keeps that difference out of the comparison.
pub fn untraced_mean(out: &TraceOut) -> f64 {
    let class_mean = |kind: OpKind| {
        let ns: Vec<f64> = out
            .untraced_ns
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|&(_, ns)| ns)
            .collect();
        mean(&ns)
    };
    let means: Vec<(OpKind, f64)> = OpKind::ALL.iter().map(|&k| (k, class_mean(k))).collect();
    let weighted: Vec<f64> = out
        .traced_kinds
        .iter()
        .map(|k| means.iter().find(|(c, _)| c == k).map_or(0.0, |m| m.1))
        .collect();
    mean(&weighted)
}

/// The layers' summed self times per traced request over the untraced mean
/// round trip, minus one: the share by which the layers miss the
/// end-to-end mean. `None` without traced or untraced requests.
pub fn accounting_error(out: &TraceOut) -> Option<f64> {
    let (self_total, trees) = accounting(&out.spans);
    let untraced = untraced_mean(out);
    (trees > 0 && untraced > 0.0).then(|| self_total as f64 / trees as f64 / untraced - 1.0)
}

/// Whether the layers account for the end-to-end mean within
/// [`ACCOUNTING_TOLERANCE`].
pub fn accounts(out: &TraceOut) -> bool {
    accounting_error(out).is_some_and(|e| e.abs() <= ACCOUNTING_TOLERANCE)
}

/// Per-span-name durations and self times, µs.
pub fn by_name(spans: &[Span], name: &str) -> (Vec<f64>, Vec<f64>) {
    let selfs = self_times(spans);
    let mut dur = Vec::new();
    let mut own = Vec::new();
    for (s, own_ns) in spans.iter().zip(selfs) {
        if s.name == name {
            dur.push(s.dur() as f64 / 1e3);
            own.push(own_ns as f64 / 1e3);
        }
    }
    (dur, own)
}

/// Span names in the order the table lists them.
pub const NAMES: [&str; 9] = [
    "net.roundtrip",
    "server.retrieve",
    "server.solve",
    "wal.commit",
    "crs.retrieve",
    "scw.scan",
    "fs2.sweep",
    "unify.full",
    "resolve.solve",
];

/// The per-layer table: count, mean host time, self time, and the paper
/// model's time for the same work where one exists.
pub fn table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<16} {:>7} {:>12} {:>12} {:>12} {:>14}",
        "span", "count", "host_us", "self_us", "self_p50_us", "modeled_us"
    );
    for name in NAMES {
        let rows: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let host: Vec<f64> = rows.iter().map(|&i| spans[i].dur() as f64 / 1e3).collect();
        let own: Vec<f64> = rows.iter().map(|&i| selfs[i] as f64 / 1e3).collect();
        let modeled: Vec<f64> = rows
            .iter()
            .filter_map(|&i| spans[i].modeled_ns)
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let modeled = if modeled.is_empty() {
            "-".to_owned()
        } else {
            format!("{:.1}", mean(&modeled))
        };
        let _ = writeln!(
            s,
            "{:<16} {:>7} {:>12.2} {:>12.2} {:>12.2} {:>14}",
            name,
            rows.len(),
            mean(&host),
            mean(&own).max(0.0),
            percentile(&own, 0.5).max(0.0),
            modeled
        );
    }
    s
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let modeled = s.modeled_ns.map_or("null".to_owned(), |m| m.to_string());
        let _ = writeln!(
            text,
            "{{\"req\":{},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"modeled_ns\":{modeled}}}",
            s.req, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        req: u32,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            req,
            name,
            parent,
            start_ns,
            end_ns,
            modeled_ns: None,
        }
    }

    /// Ten traced retrieves. Each is a round trip of `roundtrip` ns over a
    /// 60 us server call over a 50 us retrieval, or, without `rooted`, the
    /// server call and the retrieval alone.
    fn traced(roundtrip: u64, rooted: bool) -> TraceOut {
        let mut spans = Vec::new();
        for r in 0..10u32 {
            let t = u64::from(r) * 1_000_000;
            let root = rooted.then(|| {
                spans.push(span(r, "net.roundtrip", None, t, t + roundtrip));
                spans.len() - 1
            });
            spans.push(span(r, "server.retrieve", root, t + 10_000, t + 70_000));
            let server = spans.len() - 1;
            spans.push(span(
                r,
                "crs.retrieve",
                Some(server),
                t + 15_000,
                t + 65_000,
            ));
        }
        TraceOut {
            spans,
            done: Vec::new(),
            lists: HashMap::new(),
            untraced_ns: vec![(OpKind::Retrieve, 100_000.0); 10],
            traced_kinds: vec![OpKind::Retrieve; 10],
            codec_ns: Vec::new(),
            fs2_clauses: 0,
            unify_candidates: 0,
            crs_stats: Vec::new(),
            solve_retrievals: Vec::new(),
            disagreements: Vec::new(),
        }
    }

    #[test]
    fn the_layers_account_for_the_untraced_mean() {
        let out = traced(100_000, true);
        assert_eq!(accounting(&out.spans), (1_000_000, 10));
        assert!(accounts(&out));
    }

    #[test]
    fn accounting_fails_when_a_layer_goes_missing() {
        // The round trip span stops before the reply arrives: 40 us of each
        // wait belongs to no layer.
        let out = traced(60_000, true);
        assert!((accounting_error(&out).unwrap() + 0.4).abs() < 1e-9);
        assert!(!accounts(&out));
        // The request trees lose their net layer: nothing is accounted.
        assert!(!accounts(&traced(100_000, false)));
    }

    #[test]
    fn accounting_fails_when_replays_outlast_their_parent() {
        // A replayed child of 150 us under a 100 us round trip floors the
        // parent's self time at zero, so the layers sum to 150 us.
        let mut out = traced(100_000, true);
        for s in out.spans.iter_mut().filter(|s| s.name == "server.retrieve") {
            s.end_ns = s.start_ns + 150_000;
        }
        assert!(!accounts(&out));
    }
}
