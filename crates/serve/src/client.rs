//! A small synchronous client for the `tve-serve` protocol.
//!
//! One [`Client`] is one connection; requests on it are sequential
//! (write a frame, read a frame). Open several clients for concurrent
//! jobs — the daemon handles each connection on its own thread.
//!
//! [`request_typed`](Client::request_typed) surfaces the daemon's typed
//! errors as [`DaemonError`]s, and [`request_with_retry`] layers
//! seeded-deterministic exponential backoff with jitter on top:
//! transport faults (connect refused, torn frames, mid-response
//! disconnects) and `overloaded` sheds are retried on a fresh
//! connection; `deadline`, `protocol`, `draining`, and `internal`
//! errors are not — retrying those cannot change the answer.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use tve_obs::{json_line, parse_json, JsonValue};
use tve_soc::{PlanOverrides, Workload};

use crate::proto::{read_frame, write_frame, write_overrides, write_workload, JobSpec};

/// A daemon failure as seen by the client, with the machine-readable
/// kind preserved so retry policy can act on it. `kind` is one of the
/// daemon's wire kinds (`protocol`, `deadline`, `overloaded`,
/// `draining`, `internal`) or the client-side `transport` for
/// connection-level failures (connect refused, torn frame, disconnect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonError {
    /// Machine-readable class.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// Back-off hint from an `overloaded` shed.
    pub retry_after_ms: Option<u64>,
}

impl DaemonError {
    fn transport(message: impl Into<String>) -> Self {
        DaemonError {
            kind: "transport".into(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Whether a retry on a fresh connection has a chance of a
    /// different answer.
    pub fn retryable(&self) -> bool {
        matches!(self.kind.as_str(), "transport" | "overloaded")
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for DaemonError {}

/// Seeded-deterministic retry schedule: exponential backoff from
/// `base_ms` capped at `cap_ms`, with splitmix64 jitter derived from
/// `seed ^ attempt` — two clients with different seeds desynchronize,
/// one client replays identically.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = single attempt).
    pub retries: u32,
    /// First backoff, doubled per attempt.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 3,
            base_ms: 50,
            cap_ms: 2000,
            seed: 0x2009_0417,
        }
    }
}

/// One splitmix64 step: a well-mixed deterministic hash of `z`.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The deterministic backoff before retry number `attempt`
    /// (1-based), jitter included.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(10).saturating_sub(1));
        let jitter = splitmix64(self.seed ^ u64::from(attempt)) % self.base_ms.max(1);
        (exp + jitter).min(self.cap_ms)
    }
}

/// Sends `request`, reconnecting and retrying per `policy`. Transport
/// faults and `overloaded` sheds retry (honoring `retry_after_ms` when
/// it exceeds the backoff); every other typed error returns
/// immediately.
pub fn request_with_retry(
    socket: impl AsRef<Path>,
    request: &str,
    policy: &RetryPolicy,
) -> Result<JsonValue, DaemonError> {
    let socket = socket.as_ref();
    let mut attempt = 0u32;
    loop {
        let error = match Client::connect(socket) {
            Ok(mut client) => match client.request_typed(request) {
                Ok(value) => return Ok(value),
                Err(e) => e,
            },
            Err(e) => DaemonError::transport(format!("connect {}: {e}", socket.display())),
        };
        attempt += 1;
        if !error.retryable() || attempt > policy.retries {
            return Err(error);
        }
        let wait = policy
            .backoff_ms(attempt)
            .max(error.retry_after_ms.unwrap_or(0));
        std::thread::sleep(Duration::from_millis(wait));
    }
}

/// [`Client::submit`] through [`request_with_retry`]: returns the job's
/// `result` object.
pub fn submit_with_retry(
    socket: impl AsRef<Path>,
    job: &JobSpec,
    policy: &RetryPolicy,
) -> Result<JsonValue, DaemonError> {
    let response = request_with_retry(socket, &submit_request(job, true), policy)?;
    response
        .get("result")
        .cloned()
        .ok_or_else(|| DaemonError::transport("submit response had no result"))
}

/// The `submit` request frame for `job`; with `wait` the daemon answers
/// once the job has finished.
pub fn submit_request(job: &JobSpec, wait: bool) -> String {
    json_line(|o| {
        o.str("cmd", "submit")
            .bool("wait", wait)
            .raw("job", &job.to_json());
    })
}

/// The `result` request frame for job `id`; with `wait` the daemon
/// answers once the job has finished.
pub fn result_request(id: u64, wait: bool) -> String {
    json_line(|o| {
        o.str("cmd", "result").num("id", id).bool("wait", wait);
    })
}

/// A connected `tve-serve` client.
pub struct Client {
    stream: UnixStream,
}

impl Client {
    /// Connects to a daemon at `socket`.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
        })
    }

    /// Sends one raw request frame and returns the raw response text.
    pub fn request_text(&mut self, request: &str) -> io::Result<String> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::other("daemon closed the connection"))
    }

    /// Sends one request and returns the parsed response, mapping both
    /// transport failures and `"ok": false` responses to their message.
    pub fn request(&mut self, request: &str) -> Result<JsonValue, String> {
        self.request_typed(request).map_err(|e| e.message)
    }

    /// [`request`](Client::request) with the daemon's typed error
    /// preserved: `error_kind` and `retry_after_ms` survive into the
    /// [`DaemonError`], transport failures classify as `"transport"`.
    pub fn request_typed(&mut self, request: &str) -> Result<JsonValue, DaemonError> {
        let text = self
            .request_text(request)
            .map_err(|e| DaemonError::transport(e.to_string()))?;
        let value =
            parse_json(&text).map_err(|e| DaemonError::transport(format!("bad response: {e}")))?;
        if value.get("ok") == Some(&JsonValue::Bool(true)) {
            return Ok(value);
        }
        let text = |key, default| value.str_field(key).unwrap_or(default).to_string();
        Err(DaemonError {
            kind: text("error_kind", "internal"),
            message: text("error", "daemon reported failure"),
            retry_after_ms: value.get("retry_after_ms").and_then(JsonValue::as_u64),
        })
    }

    /// Round-trips a `ping`; returns the daemon's response object.
    pub fn ping(&mut self) -> Result<JsonValue, String> {
        self.request("{\"cmd\":\"ping\"}")
    }

    /// Fetches cache/serving statistics.
    pub fn stats(&mut self) -> Result<JsonValue, String> {
        self.request("{\"cmd\":\"stats\"}")
    }

    /// Submits `job` and blocks until it completes; returns the job's
    /// `result` object.
    pub fn submit(&mut self, job: &JobSpec) -> Result<JsonValue, String> {
        let response = self.request(&submit_request(job, true))?;
        response
            .get("result")
            .cloned()
            .ok_or_else(|| "submit response had no result".to_string())
    }

    /// Submits `job` without waiting; returns its job id.
    pub fn submit_async(&mut self, job: &JobSpec) -> Result<u64, String> {
        let response = self.request(&submit_request(job, false))?;
        response
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "submit response had no id".to_string())
    }

    /// Asks for a job's state (`"running"`, `"done"`, `"failed"`).
    pub fn status(&mut self, id: u64) -> Result<String, String> {
        let response = self.request(&json_line(|o| {
            o.str("cmd", "status").num("id", id);
        }))?;
        response
            .get("state")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| "status response had no state".to_string())
    }

    /// Fetches a job's result; with `wait` the daemon blocks until the
    /// job finishes. Returns the whole response (state plus result).
    pub fn result(&mut self, id: u64, wait: bool) -> Result<JsonValue, String> {
        self.request(&result_request(id, wait))
    }

    /// Reports the blast radius of `edit` on `workload` and evicts the
    /// affected cache entries.
    pub fn invalidate(
        &mut self,
        workload: &Workload,
        edit: &PlanOverrides,
    ) -> Result<JsonValue, String> {
        self.request(&json_line(|o| {
            write_workload(&mut o.str("cmd", "invalidate").obj("workload"), workload);
            write_overrides(&mut o.obj("edit"), edit);
        }))
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"shutdown\"}").map(|_| ())
    }

    /// Asks the daemon to drain gracefully: finish running jobs,
    /// persist the cache snapshot, refuse new submissions.
    pub fn drain(&mut self) -> Result<(), String> {
        self.request("{\"cmd\":\"drain\"}").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::default();
        let a: Vec<u64> = (1..=6).map(|i| policy.backoff_ms(i)).collect();
        let b: Vec<u64> = (1..=6).map(|i| policy.backoff_ms(i)).collect();
        assert_eq!(a, b, "same seed replays the same schedule");
        assert!(a.iter().all(|&ms| ms <= policy.cap_ms));
        assert!(a[0] >= policy.base_ms);
        assert!(a[2] > a[0], "exponential growth dominates the jitter");

        let other = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        assert_ne!(
            (1..=6).map(|i| other.backoff_ms(i)).collect::<Vec<_>>(),
            a,
            "different seeds desynchronize"
        );
    }

    #[test]
    fn retryability_follows_the_error_kind() {
        for (kind, retryable) in [
            ("transport", true),
            ("overloaded", true),
            ("deadline", false),
            ("protocol", false),
            ("draining", false),
            ("internal", false),
        ] {
            let e = DaemonError {
                kind: kind.into(),
                message: String::new(),
                retry_after_ms: None,
            };
            assert_eq!(e.retryable(), retryable, "{kind}");
        }
    }
}
