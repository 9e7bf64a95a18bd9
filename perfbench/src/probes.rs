//! The layer probes of every traced run: fixed paper-scale inputs, each
//! timed at one layer's public entry point, so the per-layer metrics are
//! comparable across workloads and commits.

use std::hint::black_box;
use std::time::Instant;

use tve_core::Schedule;
use tve_memtest::MemoryArray;
use tve_sim::Simulation;
use tve_soc::{paper_schedules, SocConfig, Workload};
use tve_tpg::{Misr, Prpg};

use crate::report::Report;
use crate::scenario;
use crate::stats::median;
use crate::trace::Tracer;

/// Kernel-only micro run: tasks × timed waits each.
const MICRO_TASKS: usize = 100;
const MICRO_WAITS: u64 = 10_000;
/// Repetitions of the short probes (median reported).
const REPS: usize = 5;
/// Most interleaved repetitions of the paper-scale scenario probes; they
/// stop early, after at least one, when another would overrun the
/// probes' share of the run.
const SOC_REPS: usize = 3;
/// PRPG patterns and MISR slices per TPG probe repetition.
const PRPG_PATTERNS: usize = 20_000;
const MISR_SLICES: u64 = 2_000_000;
/// Parallel inputs of the wrappers' MISR.
const MISR_INPUTS: u32 = 32;
/// Bound analyses timed for `lint.bounds_p50_us`.
const BOUNDS_REPS: usize = 200;
/// Largest share of a sequential schedule's simulation time the sum of
/// its tests run alone should miss.
const ATTRIBUTION_TOLERANCE: f64 = 0.05;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> (f64, usize) {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    (median(&samples).expect("reps > 0"), reps)
}

/// Runs every probe; scenario repetitions start only while one more
/// still ends before `deadline`.
pub fn run(report: &mut Report, tracer: &Tracer, deadline: Instant) {
    let root = tracer.span("bench.probes", 0, 0);
    let (config, plan) = Workload::paper().build();

    // tve-sim: the kernel alone.
    let (micro_s, n) = median_of(3, || {
        timed(|| {
            let mut sim = Simulation::new();
            let h = sim.handle();
            for i in 0..MICRO_TASKS {
                let h = h.clone();
                sim.spawn(async move {
                    for k in 0..MICRO_WAITS {
                        h.wait(tve_sim::Duration::cycles(1 + (i as u64 + k) % 7))
                            .await;
                    }
                });
            }
            sim.run();
        })
        .1
    });
    let events = (MICRO_TASKS as u64 * MICRO_WAITS) as f64;
    report.metric("sim.micro_events_per_s", events / micro_s, "1/s", n);

    // tve-soc/tve-core: each test alone as a one-test schedule, and the
    // sequential schedules 1 and 2 whose tests those are. Repetitions are
    // interleaved so slow drift in host speed hits both sides alike.
    let sequential: Vec<Schedule> = paper_schedules().into_iter().take(2).collect();
    let mut alone: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let mut whole: Vec<Vec<f64>> = vec![Vec::new(); sequential.len()];
    let mut builds = Vec::new();
    let mut counts = None;
    let mut reps = 0;
    while reps < SOC_REPS {
        let rep_started = Instant::now();
        let mut run = |schedule: &Schedule, trace: u64| {
            let span = tracer.span("probe.scenario", root.id(), trace);
            let run = scenario::run(&config, &plan, schedule, tracer, span.id(), trace)
                .expect("probe schedules are well-formed");
            builds.push(run.build.as_secs_f64());
            run
        };
        let s1 = run(&sequential[0], 10);
        whole[0].push(s1.exec.as_secs_f64());
        let mut totals = [0u64; 5];
        for (k, times) in alone.iter_mut().enumerate() {
            let schedule = Schedule::new(format!("T{}", k + 1), vec![vec![k]]);
            let r = run(&schedule, k as u64 + 1);
            if reps == 0 {
                report.check(
                    &format!("probe.t{}_clean", k + 1),
                    r.metrics.result.clean(),
                    "test run alone completes cleanly",
                );
            }
            times.push(r.exec.as_secs_f64());
            for (t, v) in totals.iter_mut().zip([
                r.polls,
                r.timers_fired,
                r.transfers,
                r.busy_cycles,
                r.metrics.total_cycles,
            ]) {
                *t += v;
            }
        }
        // Simulated counts repeat exactly; keep the first repetition's.
        counts.get_or_insert(totals);
        let s2 = run(&sequential[1], 11);
        whole[1].push(s2.exec.as_secs_f64());
        reps += 1;
        if Instant::now() + rep_started.elapsed() > deadline {
            break;
        }
    }
    let alone: Vec<f64> = alone
        .iter()
        .map(|t| median(t).expect("at least one repetition"))
        .collect();
    for (k, t) in alone.iter().enumerate() {
        report.metric(&format!("soc.t{}_s", k + 1), *t, "s", reps);
    }
    let [polls, timers, transfers, busy, cycles] = counts.expect("at least one repetition");
    let exec_total: f64 = alone.iter().sum();
    report.median("soc.build_s", &builds, "s");
    report.metric("soc.sim_mcycles", cycles as f64 / 1e6, "Mcycles", 1);
    report.metric("sim.polls", polls as f64, "count", 1);
    report.metric("sim.timers_fired", timers as f64, "count", 1);
    report.metric(
        "sim.ns_per_event",
        exec_total * 1e9 / (polls + timers) as f64,
        "ns",
        1,
    );
    report.metric("tlm.transfers", transfers as f64, "count", 1);
    report.metric("tlm.busy_cycles", busy as f64, "count", 1);
    report.metric(
        "tlm.ns_per_transfer",
        exec_total * 1e9 / transfers as f64,
        "ns",
        1,
    );

    // Attribution: the tests alone must add up to the schedule. Reported,
    // not gated — it compares host times, which a shared host perturbs.
    let (mut sched_total, mut unattributed) = (0.0, 0.0);
    for (i, schedule) in sequential.iter().enumerate() {
        let sched_s = median(&whole[i]).expect("at least one repetition");
        let parts: f64 = schedule.phases.iter().flatten().map(|&t| alone[t]).sum();
        let gap = (sched_s - parts) / sched_s;
        report.line(format!(
            "attribution: schedule {} simulates in {sched_s:.3} s; its tests alone sum to \
             {parts:.3} s ({:+.1}%, {} 5%)",
            i + 1,
            gap * 100.0,
            if gap.abs() <= ATTRIBUTION_TOLERANCE {
                "within"
            } else {
                "OUTSIDE"
            }
        ));
        sched_total += sched_s;
        unattributed += sched_s - parts;
    }
    report.metric(
        "soc.t7_share",
        alone[6] / median(&whole[0]).unwrap_or(f64::NAN),
        "ratio",
        reps,
    );
    report.metric(
        "soc.t6_share",
        alone[5] / median(&whole[1]).unwrap_or(f64::NAN),
        "ratio",
        reps,
    );
    report.metric(
        "soc.unattributed_frac",
        unattributed / sched_total,
        "ratio",
        reps,
    );

    // tve-memtest: test 6's march and pattern tests on a bare array.
    let mut word_ops = 0;
    let (bare_s, n) = median_of(REPS, || {
        let mut mem = MemoryArray::new(config.memory_words as usize);
        let ((), t) = timed(|| {
            black_box(plan.march.run(&mut mem));
            for p in &plan.pattern_tests {
                black_box(p.run(&mut mem));
            }
        });
        word_ops = mem.read_count() + mem.write_count();
        t
    });
    report.metric("memtest.bare_s", bare_s, "s", n);
    report.metric("memtest.word_ops", word_ops as f64, "count", 1);
    report.metric("memtest.tlm_overhead_x", alone[5] / bare_s, "ratio", 1);

    // tve-tpg at the small plan's processor scan shape.
    let scan = SocConfig::small().proc_scan;
    let (prpg_s, n) = median_of(REPS, || {
        let mut prpg = Prpg::new(32, 7 | 1, scan).expect("degree-32 PRPG");
        timed(|| {
            for _ in 0..PRPG_PATTERNS {
                black_box(prpg.next_pattern());
            }
        })
        .1
    });
    let bits = (PRPG_PATTERNS as u64 * scan.bits_per_pattern()) as f64;
    report.metric("tpg.prpg_bits_per_s", bits / prpg_s, "bit/s", n);
    let (misr_s, n) = median_of(REPS, || {
        let mut misr = Misr::new(64, MISR_INPUTS).expect("64-stage MISR");
        timed(|| {
            for i in 0..MISR_SLICES {
                misr.absorb(black_box(i.wrapping_mul(0x9E37_79B9)));
            }
            black_box(misr.signature());
        })
        .1
    });
    report.metric(
        "tpg.misr_bits_per_s",
        (MISR_SLICES * u64::from(MISR_INPUTS)) as f64 / misr_s,
        "bit/s",
        n,
    );

    // tve-lint: certified bounds of the four paper schedules.
    let schedules = paper_schedules();
    let samples: Vec<f64> = (0..BOUNDS_REPS)
        .map(|_| {
            timed(|| black_box(tve_lint::schedule_envelopes(&config, &plan, &schedules, 0))).1 * 1e6
        })
        .collect();
    report.median("lint.bounds_p50_us", &samples, "us");
    drop(root);
}
