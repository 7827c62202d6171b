//! The serving stack, started inside the benchmark's process the way the
//! `clare-served --wal PATH` daemon starts it: `ClauseRetrievalServer`
//! with `CrsOptions::default()`, a fresh write-ahead log, and `NetServer`
//! with `NetConfig::default()` on a loopback port.

use crate::gen::{self, GraphInfo, Scale, Workload};
use clare_core::{ClauseRetrievalServer, CrsOptions};
use clare_kb::{KbConfig, KnowledgeBase};
use clare_net::{NetConfig, NetServer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running stack.
pub struct Stack {
    pub crs: Arc<ClauseRetrievalServer>,
    pub net: NetServer,
    pub wal: PathBuf,
    /// The knowledge base as built, before any write.
    pub base: Arc<KnowledgeBase>,
    pub graph: GraphInfo,
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Generate, build, attach the WAL, bind.
    pub total: Duration,
    /// `KbBuilder::finish` alone.
    pub kb_build: Duration,
}

/// Starts a stack: generates and builds the knowledge base, attaches a
/// fresh WAL at `wal`, and binds the server. Warm-up is not included.
pub fn setup(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    wal: &Path,
) -> Result<(Stack, SetupTimes), String> {
    remove_wal(wal);
    let started = Instant::now();
    let (builder, graph) = gen::kb_builder(workload, seed, scale);
    let finish = Instant::now();
    let kb = builder.finish(KbConfig::default());
    let kb_build = finish.elapsed();
    // The daemon wraps its server with `Arc::new`, which makes threshold
    // compaction run inline on the committing worker; so does this.
    let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
    crs.attach_wal(wal)
        .map_err(|e| format!("cannot attach WAL {}: {e}", wal.display()))?;
    let net = NetServer::bind(crs.clone(), "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    let total = started.elapsed();
    let base = crs.snapshot();
    let stack = Stack {
        crs,
        net,
        wal: wal.to_path_buf(),
        base,
        graph,
    };
    Ok((stack, SetupTimes { total, kb_build }))
}

impl Stack {
    /// Drains the server and deletes the WAL.
    pub fn shutdown(self) {
        self.net.shutdown();
        drop(self.crs);
        remove_wal(&self.wal);
    }
}

pub fn remove_wal(path: &Path) {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => eprintln!("perfbench: cannot remove {}: {e}", path.display()),
    }
}
