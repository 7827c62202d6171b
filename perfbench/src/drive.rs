//! The closed-loop load: one client thread per connection, each sending
//! its next request only after the previous reply arrived, the way a
//! Prolog engine blocks on a clause retrieval.

use crate::gen::{Plan, Request, USER};
use clare_core::{CommitReceipt, Retrieval, SearchMode, SolveOptions, SolveOutcome};
use clare_kb::KnowledgeBase;
use clare_net::protocol::wire;
use clare_net::{ClientConfig, NetClient, NetError};
use clare_term::ClauseId;
use clare_trace::MetricsSnapshot;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The search mode every retrieve asks for.
pub const MODE: SearchMode = SearchMode::TwoStage;

/// The client configuration: the defaults, except that nothing is retried,
/// so a refused or broken request counts as failed instead of being
/// quietly sent again.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        busy_retries: 0,
        reconnect_retries: 0,
        ..ClientConfig::default()
    }
}

/// The solver options a solve request carries.
pub fn solve_options() -> SolveOptions {
    SolveOptions::default()
}

/// A reply, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Retrieval(Retrieval),
    Solve(SolveOutcome),
    Receipt(CommitReceipt),
}

/// What a run keeps of a reply for the checks after the window: 16 bytes,
/// whatever the reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kept {
    /// FNV-1a 64 of the reply's wire encoding.
    Encoded(u64),
    /// A retrieval whose check needs its candidate ids: the key of its
    /// candidate list in [`Keeper::lists`], and its unified count.
    Read { list: u64, unified: u32 },
    Receipt {
        asserted: u32,
        retracted: u32,
        durable: bool,
    },
}

/// Reduces replies to what the checks need.
///
/// On `hot_read_write` a read's candidate list changes with every write,
/// because live written clauses are candidates too, but its candidates in
/// the knowledge base as built do not. Only those are kept, once per
/// distinct list, so the lists take constant memory however many reads
/// the window completes.
pub struct Keeper<'a> {
    /// The knowledge base as built, when reads keep candidate lists.
    base: Option<&'a KnowledgeBase>,
    pub lists: HashMap<u64, Vec<ClauseId>>,
}

impl<'a> Keeper<'a> {
    pub fn new(plan: &Plan, base: &'a KnowledgeBase) -> Keeper<'a> {
        Keeper {
            base: plan.read_lists.then_some(base),
            lists: HashMap::new(),
        }
    }

    pub fn keep(&mut self, req: &Request, reply: Reply) -> Kept {
        match (reply, self.base, req) {
            (Reply::Retrieval(r), Some(base), Request::Retrieve(q)) => {
                let built = q
                    .functor_arity()
                    .and_then(|(f, a)| base.predicate(f, a))
                    .map_or(0, |p| p.clauses().len());
                let ids: Vec<ClauseId> = r
                    .candidates
                    .iter()
                    .copied()
                    .filter(|id| (id.index() as usize) < built)
                    .collect();
                let list = fnv64(
                    &ids.iter()
                        .flat_map(|id| id.index().to_le_bytes())
                        .collect::<Vec<_>>(),
                );
                self.lists.entry(list).or_insert(ids);
                Kept::Read {
                    list,
                    unified: r.stats.unified as u32,
                }
            }
            (Reply::Retrieval(r), ..) => Kept::Encoded(fnv64(&wire::encode_retrieval(&r))),
            (Reply::Solve(o), ..) => Kept::Encoded(fnv64(&wire::encode_solve_outcome(&o))),
            (Reply::Receipt(r), ..) => Kept::Receipt {
                asserted: r.asserted as u32,
                retracted: r.retracted as u32,
                durable: r.durable,
            },
        }
    }
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// One completed attempt: the request's id in the plan, when it completed
/// (us since the window opened), the client-observed round trip, and what
/// was kept of the reply, or the cause of failure. 32 bytes.
#[derive(Debug, Clone)]
pub struct Done {
    pub req: u32,
    pub end_us: u32,
    pub ns: u64,
    pub reply: Result<Kept, Box<String>>,
}

const _: () = assert!(std::mem::size_of::<Done>() == 32);

/// `cap` records' worth of memory, allocated and touched now, so that
/// recording up to `cap` attempts later touches no new page.
pub fn pretouched(cap: usize) -> Vec<Done> {
    let blank = Done {
        req: 0,
        end_us: 0,
        ns: 0,
        reply: Ok(Kept::Encoded(0)),
    };
    let mut records = vec![blank; cap];
    records.clear();
    records
}

/// Sends one request and waits for its reply. A commit receipt that is not
/// durable counts as a failure.
pub fn call(client: &mut NetClient, req: &Request) -> Result<Reply, String> {
    let reply = match req {
        Request::Retrieve(q) => client.retrieve(q, MODE).map(Reply::Retrieval),
        Request::Solve { goals, names, .. } => client
            .solve_goals(goals, names, &solve_options())
            .map(Reply::Solve),
        Request::Assert { source, .. } => client.assert(USER, source).map(Reply::Receipt),
        Request::Retract { source } => client.retract(USER, source).map(Reply::Receipt),
    }
    .map_err(|e: NetError| format!("{e}"))?;
    match &reply {
        Reply::Receipt(r) if !r.durable => Err("commit receipt not durable".to_owned()),
        _ => Ok(reply),
    }
}

/// The timed window of a run.
pub struct Window {
    pub per_conn: Vec<Vec<Done>>,
    /// The candidate lists reads kept (see [`Keeper`]).
    pub lists: HashMap<u64, Vec<ClauseId>>,
    pub elapsed: Duration,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    /// Share of CPU time the hypervisor gave to other guests during the
    /// window (Linux `steal`), where the host reports it.
    pub steal_share: Option<f64>,
}

/// `(steal, total)` CPU ticks since boot, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

impl Window {
    pub fn done(&self) -> impl Iterator<Item = &Done> {
        self.per_conn.iter().flatten()
    }
}

/// Runs `plan` against `addr` on one client per connection: each
/// connection's warm-up, then (all connections together) its timed part.
/// Time-bounded plans wrap around until `seconds` elapse, or until a
/// connection has filled its `records`; fixed plans run to their end.
/// Metrics snapshots bracket the timed part. `base` is the knowledge base
/// as built.
pub fn run_window(
    addr: SocketAddr,
    plan: &Plan,
    base: &KnowledgeBase,
    seconds: u64,
    records: Vec<Vec<Done>>,
) -> Result<Window, String> {
    let conns = plan.timed.len();
    assert_eq!(records.len(), conns, "one record list per connection");
    let ready = Barrier::new(conns + 1);
    let go = Barrier::new(conns + 1);
    let limit = Duration::from_secs(seconds);
    let opened = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = records
            .into_iter()
            .enumerate()
            .map(|(c, mut done)| {
                let (ready, go, opened) = (&ready, &go, &opened);
                scope.spawn(move || {
                    let client = NetClient::connect(addr, client_config())
                        .map_err(|e| format!("connection {c}: cannot connect: {e}"));
                    let mut client = match client {
                        Ok(mut client) => {
                            for &i in &plan.warmup[c] {
                                // Warm-up failures surface in the timed part
                                // if they persist; the warm-up only primes.
                                let _ = call(&mut client, &plan.request(i));
                            }
                            Some(client)
                        }
                        Err(e) => {
                            eprintln!("perfbench: {e}");
                            None
                        }
                    };
                    let mut keeper = Keeper::new(plan, base);
                    ready.wait();
                    go.wait();
                    let opened: Instant = *opened.get().expect("set before the window opens");
                    let started = Instant::now();
                    let seq = &plan.timed[c];
                    let Some(client) = client.as_mut() else {
                        return (done, keeper.lists, started, Instant::now(), false);
                    };
                    let mut k = 0usize;
                    loop {
                        if plan.time_bounded {
                            if started.elapsed() >= limit || done.len() == done.capacity() {
                                break;
                            }
                        } else if k == seq.len() {
                            break;
                        }
                        let id = seq[k % seq.len()];
                        let req = plan.request(id);
                        let t = Instant::now();
                        let reply = call(client, &req);
                        let ns = t.elapsed().as_nanos() as u64;
                        let end_us = opened.elapsed().as_micros() as u32;
                        let reply = match reply {
                            Ok(r) => Ok(keeper.keep(&req, r)),
                            Err(e) => Err(Box::new(e)),
                        };
                        done.push(Done {
                            req: id,
                            end_us,
                            ns,
                            reply,
                        });
                        k += 1;
                    }
                    (done, keeper.lists, started, Instant::now(), true)
                })
            })
            .collect();
        ready.wait();
        let before = clare_trace::metrics().snapshot();
        let ticks_before = cpu_ticks();
        opened.get_or_init(Instant::now);
        go.wait();
        let mut per_conn = Vec::new();
        let mut lists = HashMap::new();
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        let mut connected = true;
        for h in handles {
            let (done, kept_lists, start, end, ok) = h
                .join()
                .map_err(|_| "a client thread panicked".to_owned())?;
            connected &= ok;
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
            per_conn.push(done);
            lists.extend(kept_lists);
        }
        if !connected {
            return Err("a connection could not be opened".to_owned());
        }
        let after = clare_trace::metrics().snapshot();
        let steal_share = match (ticks_before, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some(s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        };
        let elapsed = match (first, last) {
            (Some(f), Some(l)) => l.duration_since(f),
            _ => Duration::ZERO,
        };
        Ok(Window {
            per_conn,
            lists,
            elapsed,
            before,
            after,
            steal_share,
        })
    })
}
