//! Serving determinism: the `tve-serve` daemon must return the same
//! bytes whether a result is freshly simulated or served from cache,
//! for any farm worker count, and for any number of concurrent clients.
//!
//! These are the properties that make caching *sound*: a hit is only
//! indistinguishable from a fresh run because the whole stack is
//! deterministic, and these tests drive that claim through the real
//! socket protocol rather than through library calls.

use std::path::PathBuf;

use tve::obs::JsonValue;
use tve::serve::{spawn, Client, JobKind, JobSpec, ServeOptions};
use tve::soc::Workload;

/// A unique socket path per test (tests in one binary run in parallel).
fn test_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tve-serve-{tag}-{}.sock", std::process::id()))
}

fn start(tag: &str, workers: Option<usize>) -> (tve::serve::DaemonHandle, Client) {
    let daemon = spawn(&ServeOptions {
        socket: test_socket(tag),
        workers,
        quiet: true,
        ..ServeOptions::default()
    })
    .expect("daemon spawns");
    let client = Client::connect(&daemon.socket).expect("client connects");
    (daemon, client)
}

fn schedule_digest(client: &mut Client, workload: &Workload, index: usize) -> (String, bool) {
    let result = client
        .submit(&JobSpec {
            workload: workload.clone(),
            kind: JobKind::Schedule { index },
            verify: None,
            deadline_ms: None,
        })
        .expect("schedule job succeeds");
    (
        result
            .get("digest")
            .and_then(JsonValue::as_str)
            .expect("digest on the wire")
            .to_string(),
        result.get("cached").and_then(JsonValue::as_bool) == Some(true),
    )
}

fn campaign_artifacts(client: &mut Client, workload: &Workload) -> (String, String) {
    let result = client
        .submit(&JobSpec {
            workload: workload.clone(),
            kind: JobKind::Campaign {
                schedules: vec![1, 2, 3, 4],
                seed: 0x20090417,
                faults: 2,
                diagnosis: true,
                shard: None,
            },
            verify: None,
            deadline_ms: None,
        })
        .expect("campaign job succeeds");
    let field = |key: &str| {
        result
            .get(key)
            .and_then(JsonValue::as_str)
            .expect("campaign artifact on the wire")
            .to_string()
    };
    (field("csv"), field("csv_digest"))
}

/// Runs the full job set on a daemon with `workers` farm workers and
/// returns every byte-level observable.
fn serve_all(tag: &str, workers: usize) -> (Vec<String>, String, String) {
    let (daemon, mut client) = start(tag, Some(workers));
    let workload = Workload::small();
    let digests = (1..=4)
        .map(|i| schedule_digest(&mut client, &workload, i).0)
        .collect();
    let (csv, csv_digest) = campaign_artifacts(&mut client, &workload);
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
    (digests, csv, csv_digest)
}

#[test]
fn results_are_identical_for_any_worker_count() {
    let (d1, csv1, dig1) = serve_all("w1", 1);
    let (d4, csv4, dig4) = serve_all("w4", 4);
    assert_eq!(d1, d4, "schedule digests depend on the worker count");
    assert_eq!(csv1, csv4, "campaign CSV depends on the worker count");
    assert_eq!(dig1, dig4);
}

#[test]
fn cached_results_are_byte_identical_to_fresh_and_survive_verification() {
    let (daemon, mut client) = start("warm", None);
    let workload = Workload::small();
    let cold: Vec<(String, bool)> = (1..=4)
        .map(|i| schedule_digest(&mut client, &workload, i))
        .collect();
    for (i, (_, cached)) in cold.iter().enumerate() {
        assert!(!cached, "schedule {} hit an empty cache", i + 1);
    }
    let (cold_csv, _) = campaign_artifacts(&mut client, &workload);

    // Warm repeats with verify 1.0: the daemon re-executes every hit
    // and fails the job on any byte-level divergence — so a passing
    // submit IS the cached-equals-fresh assertion.
    for (i, (cold_digest, _)) in cold.iter().enumerate() {
        let result = client
            .submit(&JobSpec {
                workload: workload.clone(),
                kind: JobKind::Schedule { index: i + 1 },
                verify: Some(1.0),
                deadline_ms: None,
            })
            .expect("verified warm job succeeds");
        assert_eq!(
            result.get("cached").and_then(JsonValue::as_bool),
            Some(true),
            "warm schedule {} missed",
            i + 1
        );
        assert_eq!(
            result.get("digest").and_then(JsonValue::as_str),
            Some(cold_digest.as_str())
        );
    }
    let (warm_csv, _) = campaign_artifacts(&mut client, &workload);
    assert_eq!(cold_csv, warm_csv, "cached campaign CSV differs from fresh");

    let stats = client.stats().expect("stats");
    assert!(
        stats
            .get("verified")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 4,
        "verification did not run"
    );
    assert_eq!(
        stats.get("verify_failures").and_then(JsonValue::as_u64),
        Some(0),
        "cache verification found divergence"
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

#[test]
fn bounds_reports_are_byte_identical_served_or_computed_locally() {
    let (daemon, mut client) = start("bounds", None);
    let workload = Workload::small();

    // The served report must be the exact bytes of the local pure
    // computation: same config, plan and schedules through the same
    // `bounds_reports_to_json` renderer.
    let (config, plan) = workload.build();
    let schedules: Vec<_> = tve::soc::paper_schedules().into_iter().collect();
    let local = tve::lint::bounds_reports_to_json(&tve::lint::schedule_envelopes(
        &config, &plan, &schedules, 0,
    ));

    let submit = |client: &mut Client, verify| {
        let result = client
            .submit(&JobSpec {
                workload: workload.clone(),
                kind: JobKind::Bounds {
                    schedules: vec![1, 2, 3, 4],
                },
                verify,
                deadline_ms: None,
            })
            .expect("bounds job succeeds");
        (
            result
                .get("report")
                .and_then(JsonValue::as_str)
                .expect("report on the wire")
                .to_string(),
            result.get("cached").and_then(JsonValue::as_bool) == Some(true),
        )
    };

    let (cold, cold_cached) = submit(&mut client, None);
    assert!(!cold_cached, "bounds hit an empty cache");
    assert_eq!(cold, local, "served bounds differ from local computation");

    // Warm repeat with verify 1.0: the daemon recomputes the hit and
    // fails the job on any byte-level divergence.
    let (warm, warm_cached) = submit(&mut client, Some(1.0));
    assert!(warm_cached, "warm bounds job missed");
    assert_eq!(warm, cold, "cached bounds differ from fresh");

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("verify_failures").and_then(JsonValue::as_u64),
        Some(0),
        "bounds verification found divergence"
    );
    client.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}

#[test]
fn concurrent_clients_get_identical_bytes() {
    let (daemon, mut control) = start("conc", None);
    let socket = daemon.socket.clone();

    // Four clients race the same cold cache: some will simulate, some
    // will hit entries the others just inserted — every combination
    // must produce the same bytes.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("client connects");
                let workload = Workload::small();
                let digests: Vec<String> = (1..=4)
                    .map(|i| schedule_digest(&mut client, &workload, i).0)
                    .collect();
                let (csv, _) = campaign_artifacts(&mut client, &workload);
                (digests, csv)
            })
        })
        .collect();
    let results: Vec<(Vec<String>, String)> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    for other in &results[1..] {
        assert_eq!(
            results[0], *other,
            "two concurrent clients saw different bytes"
        );
    }
    control.shutdown().expect("clean shutdown");
    daemon.join().expect("daemon joins");
}
