//! End-to-end and per-layer benchmark of the CLARE serving stack. See
//! `README.md` in this directory for the workloads, the metrics and how to
//! run it.

pub mod check;
pub mod drive;
pub mod gen;
pub mod report;
pub mod rng;
pub mod stack;
pub mod stats;
pub mod traced;

use crate::check::CheckReport;
use crate::drive::{Done, Window};
use crate::gen::{OpKind, Scale, Workload};
use std::path::PathBuf;

/// One invocation.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scale: Scale,
    /// Where WAL files and span dumps go.
    pub out_dir: PathBuf,
}

/// Everything a run measured, before it is reduced to metrics.
pub struct Run {
    pub cfg: Config,
    pub setups: Vec<stack::SetupTimes>,
    pub kb_bytes: usize,
    pub graph: gen::GraphInfo,
    pub plan: gen::Plan,
    pub window: Window,
    /// Peak resident set over the baseline taken before the first set-up,
    /// KiB: what the serving stack added to the process.
    pub stack_rss_kib: Option<u64>,
    pub checks: CheckReport,
    pub trace: Option<TracedRun>,
}

pub struct TracedRun {
    pub out: traced::TraceOut,
    pub checks: CheckReport,
    pub spans_file: PathBuf,
}

impl Run {
    /// Attempts in the timed window of one operation class.
    pub fn attempts(&self, kind: OpKind) -> impl Iterator<Item = &Done> {
        self.window
            .done()
            .filter(move |d| self.plan.kind(d.req) == kind)
    }
}

/// Sets up the stack, warms it, runs the timed window, checks every
/// answer, and (with `cfg.trace`) runs the traced pass.
pub fn run(cfg: Config) -> Result<Run, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let tag = format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    );
    let wal = cfg.out_dir.join(format!("{tag}.wal"));

    // The benchmark's records of the window are touched before the
    // baseline, so the peak over it is the stack's alone.
    let cap = gen::record_capacity(cfg.workload, &cfg.scale, cfg.seconds);
    let records: Vec<Vec<Done>> = (0..gen::CONNECTIONS)
        .map(|_| drive::pretouched(cap))
        .collect();
    let baseline_kib = report::proc_status_kib("VmRSS:");

    // Set up several times; the last stack serves the run.
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..cfg.scale.setups.max(1) {
        if let Some(previous) = live.take() {
            stack::Stack::shutdown(previous);
        }
        let (s, times) = stack::setup(cfg.workload, cfg.seed, &cfg.scale, &wal)?;
        setups.push(times);
        live = Some(s);
    }
    let stack = live.expect("at least one set-up ran");
    let result = drive_stack(&cfg, &stack, &tag, records);
    let kb_bytes = stack.base.compiled_bytes();
    let graph = stack.graph.clone();
    stack.shutdown();
    let (plan, window, peak_kib, checks, trace) = result?;
    let stack_rss_kib = match (peak_kib, baseline_kib) {
        (Some(peak), Some(baseline)) => Some(peak.saturating_sub(baseline)),
        _ => None,
    };
    Ok(Run {
        cfg,
        setups,
        kb_bytes,
        graph,
        plan,
        window,
        stack_rss_kib,
        checks,
        trace,
    })
}

type Driven = (
    gen::Plan,
    Window,
    Option<u64>,
    CheckReport,
    Option<TracedRun>,
);

fn drive_stack(
    cfg: &Config,
    stack: &stack::Stack,
    tag: &str,
    records: Vec<Vec<Done>>,
) -> Result<Driven, String> {
    let mut plan = gen::plan(
        cfg.workload,
        cfg.seed,
        &cfg.scale,
        &stack.base,
        &stack.graph,
    );
    for ops in &plan.prefill {
        let receipt = stack
            .crs
            .apply_ops(ops.clone())
            .map_err(|e| format!("prefill commit failed: {e}"))?;
        if !receipt.durable {
            return Err("prefill commit was not durable".to_owned());
        }
    }
    let window = drive::run_window(
        stack.net.local_addr(),
        &plan,
        &stack.base,
        cfg.seconds,
        records,
    )?;
    let peak_kib = report::proc_status_kib("VmHWM:");
    let done: Vec<&Done> = window.done().collect();
    let checks = check::check(cfg.workload, &stack.base, &plan, &window.lists, &done);

    let trace = if cfg.trace {
        let sample = gen::trace_sample(cfg.workload, cfg.seed, &cfg.scale, &stack.base, &mut plan);
        let twin_wal = cfg.out_dir.join(format!("{tag}.twin.wal"));
        let out = traced::run(
            stack.net.local_addr(),
            &stack.base,
            &plan,
            &plan.hot_reads,
            &sample,
            &twin_wal,
        )?;
        let done: Vec<&Done> = out.done.iter().collect();
        let checks = check::check(cfg.workload, &stack.base, &plan, &out.lists, &done);
        let spans_file =
            cfg.out_dir
                .join(format!("{}-{}.spans.jsonl", cfg.workload.name(), cfg.seed));
        traced::write_jsonl(&out.spans, &spans_file)
            .map_err(|e| format!("cannot write {}: {e}", spans_file.display()))?;
        Some(TracedRun {
            out,
            checks,
            spans_file,
        })
    } else {
        None
    };
    Ok((plan, window, peak_kib, checks, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{Keeper, Reply};

    fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds: 1,
            trace,
            scale: Scale::tiny(),
            out_dir: std::env::temp_dir()
                .join(format!("clare-perfbench-test-{}", std::process::id())),
        }
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_every_metric() {
        for workload in Workload::ALL {
            let run = run(tiny(workload, 3, true)).expect("tiny run");
            assert!(run.checks.ok(), "{workload:?}: {:?}", run.checks.mismatches);
            assert!(run.checks.checked > 0);
            let trace = run.trace.as_ref().expect("traced");
            assert!(trace.checks.ok(), "{:?}", trace.checks.mismatches);
            assert!(
                trace.out.disagreements.is_empty(),
                "{:?}",
                trace.out.disagreements
            );
            let e2e = report::end_to_end(&run);
            let names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                report::END_TO_END
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
            );
            let layers = report::per_layer(&run);
            let names: Vec<&str> = layers.iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                report::PER_LAYER
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
            );
            std::fs::remove_file(&trace.spans_file).ok();
        }
    }

    #[test]
    fn a_second_seed_prints_the_same_metrics_and_passes() {
        for seed in [1, 977] {
            let run = run(tiny(Workload::RetrieveCold, seed, false)).expect("tiny run");
            assert!(run.checks.ok(), "seed {seed}: {:?}", run.checks.mismatches);
            let names: Vec<&str> = report::end_to_end(&run).iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                report::END_TO_END
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn a_corrupted_answer_fails_the_run() {
        for workload in Workload::ALL {
            let mut run = run(tiny(workload, 5, false)).expect("tiny run");
            assert!(run.checks.ok());
            let base = rebuilt_base(&run.cfg);
            // Replace the first read reply by a corrupted copy of the right
            // answer, then check again.
            let (c, k) = run
                .window
                .per_conn
                .iter()
                .enumerate()
                .find_map(|(c, conn)| {
                    conn.iter()
                        .position(|d| run.plan.kind(d.req) != gen::OpKind::Write)
                        .map(|k| (c, k))
                })
                .expect("a read reply");
            let req = run.plan.request(run.window.per_conn[c][k].req).into_owned();
            let corrupted = match &req {
                gen::Request::Retrieve(q) => {
                    let mut r = clare_core::retrieve(&base, q, drive::MODE, &Default::default());
                    r.candidates.push(clare_term::ClauseId::new(0));
                    r.stats.unified += 1;
                    Reply::Retrieval(r)
                }
                gen::Request::Solve { goals, names, .. } => {
                    let mut o =
                        clare_core::solve_goals(&base, goals, names, &drive::solve_options());
                    o.solutions.pop();
                    Reply::Solve(o)
                }
                _ => unreachable!("reads only"),
            };
            let mut keeper = Keeper::new(&run.plan, &base);
            run.window.per_conn[c][k].reply = Ok(keeper.keep(&req, corrupted));
            run.window.lists.extend(keeper.lists);
            let done: Vec<&Done> = run.window.done().collect();
            let checks = check::check(workload, &base, &run.plan, &run.window.lists, &done);
            assert_eq!(checks.mismatches.len(), 1, "{workload:?}");
            run.checks = checks;
            assert!(!report::correct(&run));
        }
    }

    /// The knowledge base as the run built it (generation is seeded).
    fn rebuilt_base(cfg: &Config) -> clare_kb::KnowledgeBase {
        let (builder, _) = gen::kb_builder(cfg.workload, cfg.seed, &cfg.scale);
        builder.finish(clare_kb::KbConfig::default())
    }
}
