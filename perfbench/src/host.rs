//! The host fingerprint recorded with every result, and process memory.

use std::fmt::Write as _;

use tve_obs::append_json_string;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub workers: usize,
    pub clients: usize,
}

impl Host {
    /// The current host, with the workload's farm workers and clients.
    pub fn probe(workers: usize, clients: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            workers,
            clients,
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"nproc\":{},\"cpu_model\":", self.nproc);
        append_json_string(&mut out, &self.cpu_model);
        out.push_str(",\"rustc\":");
        append_json_string(&mut out, self.rustc);
        let _ = write!(
            out,
            ",\"workers\":{},\"clients\":{}}}",
            self.workers, self.clients
        );
        out
    }
}

/// Available parallelism: the farm's worker count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), if known.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, over all its threads (ended
/// ones included), in seconds. Idle farm workers use none, so a
/// difference of two readings is host time spent working, without farm
/// imbalance.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: one libc call with a valid clock id and a pointer to a
    // live, correctly laid out `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
