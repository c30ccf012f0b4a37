//! The machine fingerprint a result is only comparable within, and the
//! process's own peak memory.

use crate::json::Json;
use edvit_parallel::ParallelPool;

/// CPU features the tensor kernels' speed depends on.
const FLAGS_OF_INTEREST: [&str; 6] = ["sse4_2", "avx", "avx2", "fma", "avx512f", "neon"];

/// `nproc`, `EDVIT_THREADS` (as the user left it), the pool size it resolved
/// to, the CPU model and the relevant CPU flags.
pub fn fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| -> String {
        cpuinfo
            .lines()
            .find(|line| line.starts_with(name))
            .and_then(|line| line.split(':').nth(1))
            .map(|value| value.trim().to_string())
            .unwrap_or_default()
    };
    let all_flags = field("flags");
    let flags: Vec<Json> = FLAGS_OF_INTEREST
        .iter()
        .filter(|flag| all_flags.split_whitespace().any(|f| f == **flag))
        .map(|flag| Json::str(*flag))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "EDVIT_THREADS",
            std::env::var("EDVIT_THREADS").map_or(Json::Null, Json::Str),
        ),
        (
            "pool_threads",
            Json::Num(ParallelPool::global().threads() as f64),
        ),
        ("cpu_model", Json::Str(field("model name"))),
        ("cpu_flags", Json::Arr(flags)),
    ])
}

/// Peak resident set size of this process (`VmHWM`) in MiB, where the
/// platform exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
