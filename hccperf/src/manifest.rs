//! The run manifest printed with every result: what produced the numbers,
//! so two results can say whether they are comparable.

use hcc_types::json::Json;

/// Seed, threads, machine, build and configuration of one run.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed the inputs were generated from.
    pub seed: u64,
    /// Engine worker threads each pass used.
    pub engine_threads: usize,
    /// `std::thread::available_parallelism` on the measuring machine.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Commit of the measured tree, `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a fingerprint of the workload configuration.
    pub config_fingerprint: u64,
    /// Whether the per-layer traced run produced the metrics.
    pub traced: bool,
}

impl Manifest {
    /// The manifest as one JSON object.
    pub fn to_json(&self) -> Json {
        let field = |k: &str, v: Json| (k.to_string(), v);
        Json::Obj(vec![
            field("workload", Json::Str(self.workload.to_string())),
            field("seed", Json::U64(self.seed)),
            field("engine_threads", Json::U64(self.engine_threads as u64)),
            field("nproc", Json::U64(self.nproc as u64)),
            field("profile", Json::Str(self.profile.to_string())),
            field("commit", Json::Str(self.commit.clone())),
            field(
                "config_fingerprint",
                Json::Str(format!("{:#018x}", self.config_fingerprint)),
            ),
            field("traced", Json::Bool(self.traced)),
        ])
    }
}

/// Machine parallelism, 1 when it cannot be read.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled under.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit `HEAD` names in `.git` under the working directory, read
/// without running git; `unknown` when there is no repository.
pub fn commit() -> String {
    read_commit().unwrap_or_else(|| "unknown".to_string())
}

fn read_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == refname).then(|| id.to_string())
    })
}
