//! Cross-crate properties of the FS2 track sweep.
//!
//! Over random knowledge bases and queries, a batched retrieval must
//! return exactly the per-query results — same satisfiers, same
//! statistics, same modelled times — and no sweep may lose a clause that
//! fully unifies with its query.

use clare::prelude::*;
use clare_workload::{RandomTermSpec, RandomTerms};
use proptest::prelude::*;

/// A random fact-only knowledge base plus queries drawn from its heads
/// (so some queries have answers) and one fresh head (so some may not).
fn random_kb(seed: u64, facts: usize) -> (KnowledgeBase, Vec<Term>) {
    let mut builder = KbBuilder::new();
    let mut gen_symbols = SymbolTable::new();
    let mut gen = RandomTerms::new(RandomTermSpec::default(), &mut gen_symbols, seed);
    let mut heads = Vec::new();
    for _ in 0..facts {
        let head = gen.head();
        let rendered = format!("{}.", TermDisplay::new(&head, &gen_symbols));
        builder.consult("m", &rendered).unwrap();
        heads.push(rendered);
    }
    let mut sources: Vec<String> = heads
        .iter()
        .step_by(29)
        .map(|src| src.trim_end_matches('.').to_owned())
        .collect();
    let fresh = gen.head();
    sources.push(TermDisplay::new(&fresh, &gen_symbols).to_string());
    let queries = sources
        .iter()
        .map(|src| parse_term(src, builder.symbols_mut()).unwrap())
        .collect();
    (builder.finish(KbConfig::default()), queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched retrieval returns exactly the per-query results, in input
    /// order.
    #[test]
    fn batched_sweep_equals_individual_retrievals(seed in any::<u64>()) {
        let (kb, queries) = random_kb(seed, 100);
        let opts = CrsOptions::default();
        for mode in [SearchMode::Fs2Only, SearchMode::TwoStage] {
            let batch = retrieve_batch(&kb, &queries, mode, &opts);
            prop_assert_eq!(batch.len(), queries.len());
            for (q, got) in queries.iter().zip(&batch) {
                let alone = retrieve(&kb, q, mode, &opts);
                prop_assert_eq!(got, &alone, "mode = {}", mode);
            }
        }
    }

    /// No false negatives: every clause that fully unifies with the query
    /// is among the sweep's candidates.
    #[test]
    fn sweep_has_no_false_negatives(seed in any::<u64>()) {
        let (kb, queries) = random_kb(seed, 80);
        for q in &queries {
            let Some((f, a)) = q.functor_arity() else { continue };
            let Some(pred) = kb.predicate(f, a) else { continue };
            let answers: Vec<u32> = pred
                .clauses()
                .iter()
                .enumerate()
                .filter(|(_, c)| unify_query_clause(q, c.head()).is_some())
                .map(|(i, _)| i as u32)
                .collect();
            for mode in [SearchMode::Fs2Only, SearchMode::TwoStage] {
                let r = retrieve(&kb, q, mode, &CrsOptions::default());
                let candidates: std::collections::BTreeSet<u32> =
                    r.candidates.iter().map(|id| id.index()).collect();
                for id in &answers {
                    prop_assert!(
                        candidates.contains(id),
                        "clause {} lost at mode = {}", id, mode
                    );
                }
            }
        }
    }
}
