//! Seeded inputs: the knowledge base each workload serves and the request
//! plans its connections send. The same seed always yields the same
//! knowledge base and the same requests; the server only ever sees these
//! generated inputs.

use crate::rng::Rng;
use clare_core::WalOp;
use clare_kb::{KbBuilder, KnowledgeBase};
use clare_term::{Symbol, Term, VarId};
use clare_workload::{derive_queries, QueryShape, WarrenSpec};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

/// Module holding the Warren-shaped facts and rules.
pub const USER: &str = "user";
/// Module holding the generated graph of `solve_graph`.
pub const GRAPH: &str = "graph";
/// Closed-loop connections (the benchmark host has 2 cores).
pub const CONNECTIONS: usize = 2;
/// An atom interned into the `retrieve_cold` knowledge base but stored in
/// no clause: `QueryShape::GroundMiss` puts it in one argument, which makes
/// the query answer-free by construction.
pub const MISS_ATOM: &str = "perfbench_never_stored";
/// Reserved key atoms for written clauses. No read ever names one, so no
/// read can unify with a written clause; interning them up front keeps the
/// symbol table from growing while the writes run.
pub const WRITE_KEYS: usize = 256;
/// Clauses per assert batch in `hot_read_write`. An arbitrary fixed
/// choice: the smallest batch that is clearly multi-clause, so a commit
/// logs several operations without making writes bulk loads.
pub const BATCH: usize = 3;
/// An assert batch is retracted again this many batches later. An
/// arbitrary fixed choice: with 2 connections at most 2 x 16 x 3 = 96
/// written clauses are live (0.16% of the 60 000 facts), yet every retract
/// searches an overlay of several dozen clauses.
pub const RETRACT_LAG: usize = 16;
/// Zipf exponent of the `hot_read_write` reads. An arbitrary fixed
/// choice: s = 1 is the textbook Zipf law. All the distinct reads fit in
/// the cache, so the skew only decides which cached entries the writes'
/// invalidations hit hardest.
pub const HOT_ZIPF_S: f64 = 1.0;
/// Hot predicates `f0..f7` serve the reads; writes go to `f0..f3`.
pub const HOT_PREDS: usize = 8;
pub const WRITE_PREDS: usize = 4;
/// Solution-count band for `solve_graph` requests, so that request cost
/// varies by about 10x at most.
pub const MIN_SOLUTIONS: u64 = 12;
pub const MAX_SOLUTIONS: u64 = 120;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RetrieveCold,
    SolveGraph,
    HotReadWrite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RetrieveCold,
        Workload::SolveGraph,
        Workload::HotReadWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RetrieveCold => "retrieve_cold",
            Workload::SolveGraph => "solve_graph",
            Workload::HotReadWrite => "hot_read_write",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of one benchmark run. [`Scale::standard`] is what the command
/// runs; [`Scale::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// `WarrenSpec::scaled` factor of the base knowledge base.
    pub warren: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Distinct cold queries per connection (the plan wraps around if a
    /// fast host exhausts it). They are generated as they are sent.
    pub cold_queries_per_conn: usize,
    /// Untimed warm-up requests per connection.
    pub cold_warmup: usize,
    pub solve_warmup: usize,
    pub hot_warmup_reads: usize,
    /// Logged operations committed in-process before the timed window, so
    /// that the window's writes cross the auto-compaction threshold
    /// exactly twice.
    pub hot_prefill_ops: usize,
    /// Durable writes per connection in the fixed `hot_read_write` plan.
    pub hot_writes_per_conn: usize,
    /// An arbitrary fixed choice of 4 (a 20% write share): enough writes
    /// for 1 000+ write samples and two compactions in a sequence that a
    /// 2-core host runs in about 20 s at about 1 ms per durable commit,
    /// with reads still the larger class.
    pub hot_reads_per_write: usize,
    pub hot_distinct_reads: usize,
    /// Requests replayed by the traced pass.
    pub trace_requests: usize,
    pub trace_solves: usize,
}

impl Scale {
    pub fn standard() -> Scale {
        Scale {
            warren: 0.02,
            setups: 9,
            cold_queries_per_conn: 120_000,
            cold_warmup: 5_000,
            solve_warmup: 300,
            hot_warmup_reads: 1_500,
            hot_prefill_ops: 4_000,
            hot_writes_per_conn: 9_800,
            hot_reads_per_write: 4,
            hot_distinct_reads: 512,
            trace_requests: 2_000,
            trace_solves: 400,
        }
    }

    pub fn tiny() -> Scale {
        Scale {
            warren: 0.003,
            setups: 2,
            cold_queries_per_conn: 4_000,
            cold_warmup: 50,
            solve_warmup: 5,
            hot_warmup_reads: 50,
            hot_prefill_ops: 40,
            hot_writes_per_conn: 80,
            hot_reads_per_write: 4,
            hot_distinct_reads: 64,
            trace_requests: 120,
            trace_solves: 20,
        }
    }
}

/// One request, as the client sends it.
#[derive(Debug, Clone)]
pub enum Request {
    /// `TwoStage` retrieval of one goal.
    Retrieve(Term),
    /// A conjunction solved by the server; `source` is the bound first
    /// argument, used by the traced pass to replay the `edge/2` retrieval
    /// the solver starts from.
    Solve {
        goals: Vec<Term>,
        names: Vec<String>,
        source: Symbol,
    },
    /// Durable assert of `clauses` clauses into [`USER`].
    Assert { source: String, clauses: usize },
    /// Durable retract of one clause from [`USER`].
    Retract { source: String },
}

/// Operation classes reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Retrieve,
    Solve,
    Write,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Retrieve, OpKind::Solve, OpKind::Write];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Retrieve => "retrieve",
            OpKind::Solve => "solve",
            OpKind::Write => "write",
        }
    }
}

impl Request {
    pub fn kind(&self) -> OpKind {
        match self {
            Request::Retrieve(_) => OpKind::Retrieve,
            Request::Solve { .. } => OpKind::Solve,
            Request::Assert { .. } | Request::Retract { .. } => OpKind::Write,
        }
    }

    /// Bytes of clause text a write submits.
    pub fn write_bytes(&self) -> usize {
        match self {
            Request::Assert { source, .. } | Request::Retract { source } => source.len(),
            _ => 0,
        }
    }
}

/// What the knowledge-base generator knows about the graph module.
#[derive(Debug, Clone, Default)]
pub struct GraphInfo {
    /// `path/2` sources in the solution band.
    pub path_sources: Vec<String>,
    /// `tri/3` sources in the solution band.
    pub tri_sources: Vec<String>,
    pub edges: usize,
}

/// Generates the knowledge base of `workload` into a fresh builder: the
/// Warren-shaped base every workload shares, plus the graph module for
/// `solve_graph` and the reserved write keys for `hot_read_write`.
pub fn kb_builder(workload: Workload, seed: u64, scale: &Scale) -> (KbBuilder, GraphInfo) {
    let mut builder = KbBuilder::new();
    let mut spec = WarrenSpec::scaled(scale.warren);
    spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    spec.generate(&mut builder, USER);
    let mut graph = GraphInfo::default();
    builder.symbols_mut().intern_atom(MISS_ATOM);
    match workload {
        Workload::RetrieveCold => {}
        Workload::SolveGraph => {
            let (source, info) = graph_program();
            builder
                .consult(GRAPH, &source)
                .expect("the generated graph program parses");
            graph = info;
        }
        Workload::HotReadWrite => {
            for k in 0..WRITE_KEYS {
                builder.symbols_mut().intern_atom(&write_key(k));
            }
        }
    }
    (builder, graph)
}

fn write_key(k: usize) -> String {
    format!("wk{k}")
}

/// Seed of the graph module. The graph is the same for every benchmark
/// seed, so solve costs compare across seeds; the seed picks the requests.
const GRAPH_SEED: u64 = 0x6A09_E667_F3BC_C908;

/// An acyclic graph in two regions, as Prolog source. Sparse blocks
/// (out-degree about 2, deep) give `path/2` its recursion; dense blocks
/// (out-degree about 10) give the `tri/3` pattern its shared-variable
/// joins. Edges stay inside a block, so every source reaches a bounded
/// set of nodes; sources are kept only if their solution count lies in
/// [`MIN_SOLUTIONS`]..=[`MAX_SOLUTIONS`].
fn graph_program() -> (String, GraphInfo) {
    let mut rng = Rng::new(GRAPH_SEED);
    let mut succ: Vec<Vec<usize>> = Vec::new();
    let mut block = |size: usize, window: usize, p: f64, succ: &mut Vec<Vec<usize>>| {
        let first = succ.len();
        for i in 0..size {
            let mut out = Vec::new();
            for j in (i + 1)..size.min(i + window + 1) {
                if rng.chance(p) {
                    out.push(first + j);
                }
            }
            succ.push(out);
        }
    };
    for _ in 0..40 {
        block(40, 4, 0.5, &mut succ);
    }
    for _ in 0..10 {
        block(28, 16, 0.6, &mut succ);
    }
    let sparse_nodes = 40 * 40;

    // Derivation counts, in reverse topological order (edges go forward).
    let n = succ.len();
    let mut paths = vec![0u64; n];
    for v in (0..n).rev() {
        paths[v] = succ[v]
            .iter()
            .map(|&w| 1 + paths[w])
            .fold(0u64, u64::saturating_add);
    }
    let edge_set: HashSet<(usize, usize)> = succ
        .iter()
        .enumerate()
        .flat_map(|(v, out)| out.iter().map(move |&w| (v, w)))
        .collect();
    let tri = |a: usize| -> u64 {
        let mut count = 0;
        for &b in &succ[a] {
            for &c in &succ[b] {
                if edge_set.contains(&(a, c)) {
                    count += 1;
                }
            }
        }
        count
    };
    let band = |count: u64| (MIN_SOLUTIONS..=MAX_SOLUTIONS).contains(&count);
    let mut info = GraphInfo {
        edges: edge_set.len(),
        ..GraphInfo::default()
    };
    for (v, &count) in paths.iter().enumerate().take(sparse_nodes) {
        if band(count) {
            info.path_sources.push(node(v));
        }
    }
    for v in sparse_nodes..n {
        if band(tri(v)) {
            info.tri_sources.push(node(v));
        }
    }

    let mut source = String::with_capacity(24 * info.edges + 256);
    for (v, out) in succ.iter().enumerate() {
        for &w in out {
            source.push_str(&format!("edge({}, {}).\n", node(v), node(w)));
        }
    }
    source.push_str(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         tri(A, B, C) :- edge(A, B), edge(B, C), edge(A, C).\n",
    );
    (source, info)
}

fn node(v: usize) -> String {
    format!("g{v}")
}

/// Every request a run can send, and which of them each connection
/// sends in its warm-up and in its timed window. Requests are named by a
/// `u32` id: an index into `pool`, or for `retrieve_cold` the input of
/// [`ColdQueries::query`].
#[derive(Clone, Default)]
pub struct Plan {
    pub pool: Vec<Request>,
    /// `retrieve_cold` only: generates each query from its id, so no query
    /// is stored.
    pub cold: Option<ColdQueries>,
    pub warmup: Vec<Vec<u32>>,
    pub timed: Vec<Vec<u32>>,
    /// Time-bounded plans wrap around until the window closes; the
    /// `hot_read_write` plan is a fixed sequence run to its end.
    pub time_bounded: bool,
    /// `hot_read_write` only: operations committed in-process before the
    /// window, in commit-sized chunks.
    pub prefill: Vec<Vec<WalOp>>,
    /// `hot_read_write` only: the distinct reads.
    pub hot_reads: Vec<u32>,
    /// Keep each read's candidate list for the checks (`hot_read_write`,
    /// whose check needs the candidate ids), not just a digest of the reply.
    pub read_lists: bool,
}

impl Plan {
    /// The request with id `id`.
    pub fn request(&self, id: u32) -> Cow<'_, Request> {
        match &self.cold {
            Some(cold) => Cow::Owned(Request::Retrieve(cold.query(id))),
            None => Cow::Borrowed(&self.pool[id as usize]),
        }
    }

    pub fn kind(&self, id: u32) -> OpKind {
        match &self.cold {
            Some(_) => OpKind::Retrieve,
            None => self.pool[id as usize].kind(),
        }
    }
}

/// The most requests a connection records in one timed window: the window
/// closes early when a connection reaches it. Records are allocated and
/// touched before the stack is set up, so their memory is part of the
/// baseline that `peak_rss_mb` leaves out, whatever the throughput.
pub fn record_capacity(workload: Workload, scale: &Scale, seconds: u64) -> usize {
    // Per-connection rate ceilings, more than twice the rates measured on
    // a 2-core host (about 15 000 and 170 per second).
    let per_second = match workload {
        Workload::RetrieveCold => 40_000,
        Workload::SolveGraph => 2_000,
        Workload::HotReadWrite => {
            return scale.hot_writes_per_conn * (1 + scale.hot_reads_per_write)
        }
    };
    per_second * seconds as usize
}

/// Builds the request plan of `workload` over the knowledge base `kb`.
pub fn plan(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    kb: &Arc<KnowledgeBase>,
    graph: &GraphInfo,
) -> Plan {
    let mut rng = Rng::new(seed ^ 0xBB67_AE85_84CA_A73B);
    match workload {
        Workload::RetrieveCold => {
            let mut plan = Plan {
                time_bounded: true,
                cold: Some(ColdQueries::new(kb.clone(), seed)),
                ..Plan::default()
            };
            let n = scale.cold_queries_per_conn as u32;
            let w = scale.cold_warmup as u32;
            for c in 0..CONNECTIONS as u32 {
                plan.timed.push((c * n..(c + 1) * n).collect());
                let first = CONNECTIONS as u32 * n + c * w;
                plan.warmup.push((first..first + w).collect());
            }
            plan
        }
        Workload::SolveGraph => {
            let mut plan = Plan {
                time_bounded: true,
                pool: solve_pool(kb, graph),
                ..Plan::default()
            };
            let n = plan.pool.len() as u64;
            assert!(n > 0, "the graph has sources in the solution band");
            for _ in 0..CONNECTIONS {
                let draw = |rng: &mut Rng, k: usize| (0..k).map(|_| rng.below(n) as u32).collect();
                plan.warmup.push(draw(&mut rng, scale.solve_warmup));
                plan.timed.push(draw(&mut rng, 50_000));
            }
            plan
        }
        Workload::HotReadWrite => hot_plan(scale, &FactPreds::of(kb), miss_atom(kb), &mut rng),
    }
}

/// The `retrieve_cold` queries. Query `id` is a function of the seed and
/// `id` alone: it is generated when it is sent and again when its answer
/// is checked.
///
/// The four shapes come in equal shares, as in the repository's shape
/// sweep (`crates/bench`, experiment `throughput`). Ground hit, ground miss
/// and half-open are `clare_workload::derive_queries` of a uniformly drawn
/// fact head; see [`shared_var`] for the fourth.
#[derive(Clone)]
pub struct ColdQueries {
    kb: Arc<KnowledgeBase>,
    /// Fact predicates, and those of arity 3 or more.
    preds: Vec<(Symbol, usize)>,
    wide: Vec<(Symbol, usize)>,
    miss: Symbol,
    seed: u64,
}

impl ColdQueries {
    fn new(kb: Arc<KnowledgeBase>, seed: u64) -> ColdQueries {
        let preds: Vec<(Symbol, usize)> = FactPreds::of(&kb)
            .preds
            .iter()
            .map(|p| p.indicator())
            .collect();
        let wide = preds.iter().copied().filter(|&(_, a)| a >= 3).collect();
        let miss = miss_atom(&kb);
        ColdQueries {
            kb,
            preds,
            wide,
            miss,
            seed,
        }
    }

    pub fn query(&self, id: u32) -> Term {
        let mut rng = Rng::new(self.seed ^ u64::from(id).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let shape = match rng.below(4) {
            0 => Some(QueryShape::GroundHit),
            1 => Some(QueryShape::GroundMiss),
            2 => Some(QueryShape::HalfOpen),
            _ => None,
        };
        let preds = if shape.is_some() {
            &self.preds
        } else {
            &self.wide
        };
        let (functor, arity) = preds[rng.below(preds.len() as u64) as usize];
        let clauses = self
            .kb
            .predicate(functor, arity)
            .expect("a fact predicate of the base")
            .clauses();
        let head = clauses[rng.below(clauses.len() as u64) as usize].head();
        match shape {
            Some(shape) => derive_queries(
                std::slice::from_ref(head),
                shape,
                1,
                self.miss,
                rng.next_u64(),
            )
            .pop()
            .expect("one query"),
            None => shared_var(head),
        }
    }
}

fn miss_atom(kb: &KnowledgeBase) -> Symbol {
    kb.symbols()
        .lookup_atom(MISS_ATOM)
        .expect("the miss atom is interned")
}

/// `p(X, X, c, ...)` from a stored head of arity 3 or more: the first two
/// arguments share a variable and the rest stay bound. This is the
/// shared-variable shape FS1's codewords cannot express. It is not
/// `QueryShape::SharedVar`, which opens every argument and so yields one
/// query per predicate; the cache would answer those after the first.
fn shared_var(head: &Term) -> Term {
    let (functor, args) = head_parts(head);
    let mut args = args.to_vec();
    args[0] = Term::Var(VarId::new(0));
    args[1] = Term::Var(VarId::new(0));
    Term::Struct { functor, args }
}

/// Fact predicates of the Warren module, in name order `f0, f1, ...`.
struct FactPreds<'a> {
    preds: Vec<&'a clare_kb::Predicate>,
}

impl<'a> FactPreds<'a> {
    fn of(kb: &'a KnowledgeBase) -> FactPreds<'a> {
        let mut preds = Vec::new();
        for i in 0.. {
            let found = (2..=4).find_map(|arity| kb.lookup(&format!("f{i}"), arity));
            match found {
                Some(pred) => preds.push(pred),
                None => break,
            }
        }
        assert!(
            preds.len() >= HOT_PREDS,
            "the Warren base has enough fact predicates"
        );
        FactPreds { preds }
    }

    fn random_head(&self, pred: usize, rng: &mut Rng) -> &'a Term {
        let clauses = self.preds[pred].clauses();
        clauses[rng.below(clauses.len() as u64) as usize].head()
    }
}

fn head_parts(head: &Term) -> (Symbol, &[Term]) {
    match head {
        Term::Struct { functor, args } => (*functor, args),
        _ => unreachable!("fact heads are structures"),
    }
}

/// One solve request per `path/2` and `tri/3` source.
fn solve_pool(kb: &KnowledgeBase, graph: &GraphInfo) -> Vec<Request> {
    let mut symbols = kb.symbols().clone();
    let mut pool = Vec::new();
    let sources = graph
        .path_sources
        .iter()
        .map(|s| ("path", s, "Y"))
        .chain(graph.tri_sources.iter().map(|s| ("tri", s, "B, C")));
    for (pred, source, rest) in sources {
        let text = format!("{pred}({source}, {rest})");
        let (goals, names) =
            clare_term::parser::parse_goals(&text, &mut symbols).expect("generated goals parse");
        let source = symbols
            .lookup_atom(source)
            .expect("graph nodes are interned");
        pool.push(Request::Solve {
            goals,
            names,
            source,
        });
    }
    pool
}

/// Generator of the `hot_read_write` sequence. Reads are Zipf-skewed over
/// a small set of distinct ground and half-open queries on the hot
/// predicates; writes are `BATCH`-clause asserts into half of them, each
/// retracted clause by clause `RETRACT_LAG` batches later, so the live
/// knowledge base barely grows.
struct HotGen {
    zipf: crate::rng::Zipf,
    arities: Vec<usize>,
    reads_per_write: usize,
}

impl HotGen {
    fn clause(&self, rng: &mut Rng) -> String {
        let p = rng.below(WRITE_PREDS as u64) as usize;
        let args: Vec<String> = (0..self.arities[p])
            .map(|_| write_key(rng.below(WRITE_KEYS as u64) as usize))
            .collect();
        format!("f{p}({}).", args.join(", "))
    }

    /// `n_writes` writes as (is assert, source): every batch asserted is
    /// retracted again before the list ends.
    fn writes(&self, n_writes: usize, rng: &mut Rng) -> Vec<(bool, String)> {
        let mut ops = Vec::with_capacity(n_writes);
        let mut pending: std::collections::VecDeque<Vec<String>> = Default::default();
        loop {
            let room = ops.len() + (pending.len() + 1) * BATCH < n_writes;
            if pending.len() < RETRACT_LAG && room {
                let batch: Vec<String> = (0..BATCH).map(|_| self.clause(rng)).collect();
                ops.push((true, batch.join(" ")));
                pending.push_back(batch);
            } else {
                match pending.pop_front() {
                    Some(batch) => ops.extend(batch.into_iter().map(|c| (false, c))),
                    None => break,
                }
            }
        }
        ops
    }

    /// Appends a read/write sequence with `n_writes` writes to `pool` and
    /// returns its request indices. Writes sit at seeded positions, so the
    /// two connections do not fall into lockstep on the commit lock.
    fn sequence(&self, n_writes: usize, rng: &mut Rng, pool: &mut Vec<Request>) -> Vec<u32> {
        let writes = self.writes(n_writes, rng);
        let mut reads_left = writes.len() * self.reads_per_write;
        let mut seq = Vec::with_capacity(reads_left + writes.len());
        let mut writes = writes.into_iter().peekable();
        while writes.peek().is_some() || reads_left > 0 {
            let writes_left = writes.len() as u64;
            if rng.below(writes_left + reads_left as u64) < writes_left {
                let (assert, source) = writes.next().expect("a write is left");
                pool.push(if assert {
                    Request::Assert {
                        source,
                        clauses: BATCH,
                    }
                } else {
                    Request::Retract { source }
                });
                seq.push((pool.len() - 1) as u32);
            } else {
                seq.push(self.zipf.sample(rng) as u32);
                reads_left -= 1;
            }
        }
        seq
    }
}

fn hot_gen(scale: &Scale, facts: &FactPreds<'_>) -> HotGen {
    HotGen {
        zipf: crate::rng::Zipf::new(scale.hot_distinct_reads, HOT_ZIPF_S),
        arities: (0..WRITE_PREDS)
            .map(|p| facts.preds[p].indicator().1)
            .collect(),
        reads_per_write: scale.hot_reads_per_write,
    }
}

fn hot_plan(scale: &Scale, facts: &FactPreds<'_>, miss: Symbol, rng: &mut Rng) -> Plan {
    let mut plan = Plan {
        read_lists: true,
        ..Plan::default()
    };
    // Ground hits and half-open queries in equal shares, as
    // `clare_workload::derive_queries` shapes them.
    let mut seen = HashSet::new();
    while plan.pool.len() < scale.hot_distinct_reads {
        let pred = rng.below(HOT_PREDS as u64) as usize;
        let head = facts.random_head(pred, rng);
        let shape = if rng.chance(0.5) {
            QueryShape::GroundHit
        } else {
            QueryShape::HalfOpen
        };
        let query = derive_queries(std::slice::from_ref(head), shape, 1, miss, rng.next_u64())
            .pop()
            .expect("one query");
        if seen.insert(format!("{query:?}")) {
            plan.pool.push(Request::Retrieve(query));
        }
    }
    plan.hot_reads = (0..plan.pool.len() as u32).collect();
    let gen = hot_gen(scale, facts);
    plan.prefill = gen
        .writes(scale.hot_prefill_ops, rng)
        .chunks(400)
        .map(|chunk| {
            chunk
                .iter()
                .map(|(assert, source)| {
                    let (module, source) = (USER.to_owned(), source.clone());
                    if *assert {
                        WalOp::Assert { module, source }
                    } else {
                        WalOp::Retract { module, source }
                    }
                })
                .collect()
        })
        .collect();
    for _ in 0..CONNECTIONS {
        plan.warmup.push(
            (0..scale.hot_warmup_reads)
                .map(|_| gen.zipf.sample(rng) as u32)
                .collect(),
        );
        let seq = gen.sequence(scale.hot_writes_per_conn, rng, &mut plan.pool);
        plan.timed.push(seq);
    }
    plan
}

/// Requests for the traced pass: a seeded sample of the workload's
/// requests, drawn independently of the timed plan. For
/// `hot_read_write` the sample keeps the read/write mix and retracts
/// every clause it asserts.
pub fn trace_sample(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    kb: &KnowledgeBase,
    plan: &mut Plan,
) -> Vec<u32> {
    let mut rng = Rng::new(seed ^ 0xA54F_F53A_5F1D_36F1);
    match workload {
        Workload::RetrieveCold => {
            // Fresh query ids, past those of the warm-up and the window.
            let first = (CONNECTIONS * (scale.cold_queries_per_conn + scale.cold_warmup)) as u32;
            (first..first + scale.trace_requests as u32).collect()
        }
        Workload::SolveGraph => (0..scale.trace_solves)
            .map(|_| rng.below(plan.pool.len() as u64) as u32)
            .collect(),
        Workload::HotReadWrite => {
            // A fresh sequence with the timed mix; it retracts every clause
            // it asserts, so the knowledge base ends as it started.
            let gen = hot_gen(scale, &FactPreds::of(kb));
            let writes = scale.trace_requests / (scale.hot_reads_per_write + 1);
            gen.sequence(writes, &mut rng, &mut plan.pool)
        }
    }
}
