//! Answer checks, run after the timed window. Every reply is compared with
//! an in-process reference computed without the server's cache:
//!
//! * `retrieve_cold`: the encoded `Retrieval` (candidate ids and every
//!   modelled statistic) is byte-identical to the free
//!   `clare_core::retrieve`'s over the same, never-written snapshot.
//! * `solve_graph`: the encoded outcome is byte-identical to in-process
//!   `clare_core::solve_goals`'s over the same snapshot.
//! * `hot_read_write` reads: writes run concurrently, so the candidate
//!   list and modelled statistics legitimately change with the overlay;
//!   the answer set does not, because no read can unify with a written
//!   clause. The set of candidates that unify, and the unified count, must
//!   equal the reference's on the knowledge base as built.
//! * writes: the receipt is durable and asserted or retracted exactly the
//!   clauses sent.
//!
//! Byte identity is checked through a 64-bit digest of each encoding,
//! which is all the run keeps of those replies. Of a `hot_read_write` read
//! the run keeps its candidates in the knowledge base as built (see
//! [`drive::Keeper`]); written clauses, the only other candidates, never
//! unify with a read.

use crate::drive::{self, Done, Kept};
use crate::gen::{Plan, Request, Workload};
use clare_core::CrsOptions;
use clare_kb::KnowledgeBase;
use clare_net::protocol::wire;
use clare_term::{ClauseId, Term};
use std::collections::{BTreeSet, HashMap};

/// The in-process reference for one request.
#[derive(Debug)]
enum Expected {
    /// Digest of the encoded reply.
    Encoded(u64),
    /// Ids of the clauses that unify.
    Unifiers(BTreeSet<ClauseId>),
    Asserted(usize),
    Retracted,
}

fn reference(workload: Workload, kb: &KnowledgeBase, req: &Request) -> Expected {
    match req {
        Request::Retrieve(q) => {
            let r = clare_core::retrieve(kb, q, drive::MODE, &CrsOptions::default());
            match workload {
                Workload::HotReadWrite => Expected::Unifiers(unifiers(kb, q, &r.candidates)),
                _ => Expected::Encoded(drive::fnv64(&wire::encode_retrieval(&r))),
            }
        }
        Request::Solve { goals, names, .. } => {
            let outcome = clare_core::solve_goals(kb, goals, names, &drive::solve_options());
            Expected::Encoded(drive::fnv64(&wire::encode_solve_outcome(&outcome)))
        }
        Request::Assert { clauses, .. } => Expected::Asserted(*clauses),
        Request::Retract { .. } => Expected::Retracted,
    }
}

/// The candidates of `q` (base ids of `kb`) whose clause unifies with it.
fn unifiers(kb: &KnowledgeBase, q: &Term, candidates: &[ClauseId]) -> BTreeSet<ClauseId> {
    let Some(pred) = q.functor_arity().and_then(|(f, a)| kb.predicate(f, a)) else {
        return BTreeSet::new();
    };
    candidates
        .iter()
        .filter(|id| {
            pred.clauses()
                .get(id.index() as usize)
                .is_some_and(|c| clare_unify::unify_query_clause(q, c.head()).is_some())
        })
        .copied()
        .collect()
}

fn compare(
    kb: &KnowledgeBase,
    lists: &HashMap<u64, Vec<ClauseId>>,
    req: &Request,
    expected: &Expected,
    got: &Kept,
) -> Result<(), String> {
    match (expected, *got) {
        (Expected::Encoded(want), Kept::Encoded(have)) if *want == have => Ok(()),
        (Expected::Encoded(_), Kept::Encoded(_)) => {
            Err("the reply's encoding differs from the in-process reference's".to_owned())
        }
        (Expected::Unifiers(want), Kept::Read { list, unified }) => {
            let (Request::Retrieve(q), Some(candidates)) = (req, lists.get(&list)) else {
                return Err("reply kind does not match the request".to_owned());
            };
            let have = unifiers(kb, q, candidates);
            if &have == want && unified as usize == want.len() {
                Ok(())
            } else {
                Err(format!(
                    "answer set differs: {} unifiers ({unified} counted) over the wire, {} in process",
                    have.len(),
                    want.len()
                ))
            }
        }
        (
            Expected::Asserted(n),
            Kept::Receipt {
                asserted,
                retracted: 0,
                durable: true,
            },
        ) if asserted as usize == *n => Ok(()),
        (
            Expected::Retracted,
            Kept::Receipt {
                asserted: 0,
                retracted: 1,
                durable: true,
            },
        ) => Ok(()),
        (
            _,
            Kept::Receipt {
                asserted,
                retracted,
                durable,
            },
        ) => Err(format!(
            "receipt {{asserted {asserted}, retracted {retracted}, durable {durable}}} is not what was sent"
        )),
        _ => Err("reply kind does not match the request".to_owned()),
    }
}

/// Outcome of the checks.
#[derive(Debug, Default)]
pub struct CheckReport {
    pub checked: usize,
    /// `(request index, what differs)`.
    pub mismatches: Vec<(u32, String)>,
}

impl CheckReport {
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Checks every successful reply in `done` against references over `kb`
/// (the knowledge base as built); `lists` are the candidate lists the
/// replies kept. References are computed once per distinct request, on two
/// threads.
pub fn check(
    workload: Workload,
    kb: &KnowledgeBase,
    plan: &Plan,
    lists: &HashMap<u64, Vec<ClauseId>>,
    done: &[&Done],
) -> CheckReport {
    let distinct: BTreeSet<u32> = done
        .iter()
        .filter(|d| d.reply.is_ok())
        .map(|d| d.req)
        .collect();
    let distinct: Vec<u32> = distinct.into_iter().collect();
    let half = distinct.len().div_ceil(2);
    let references: HashMap<u32, Expected> = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| (i, reference(workload, kb, &plan.request(i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference threads do not panic"))
            .collect()
    });
    let mut report = CheckReport::default();
    for d in done {
        let Ok(got) = &d.reply else { continue };
        report.checked += 1;
        let expected = &references[&d.req];
        if let Err(why) = compare(kb, lists, &plan.request(d.req), expected, got) {
            report.mismatches.push((d.req, why));
        }
    }
    report
}
