//! One scenario simulation, taken apart at its layer boundaries:
//! `JpegEncoderSoc::build` → `build_test_runs` → `execute_schedule` →
//! bus monitor read-out. The metrics (and their digest) are the ones
//! `tve_soc::run_scenario` computes, with the same `Simulation::from_env`
//! kernel; the reference digests check that.

use std::time::{Duration, Instant};

use tve_core::{execute_schedule, Schedule, ScheduleError};
use tve_sim::Simulation;
use tve_soc::{
    build_test_runs, JpegEncoderSoc, PowerSummary, ScenarioMetrics, SocConfig, SocTestPlan,
};

use crate::trace::Tracer;

/// A finished scenario with its per-layer host times and counts.
pub struct Run {
    pub metrics: ScenarioMetrics,
    /// SoC and test-sequence construction.
    pub build: Duration,
    /// `execute_schedule`: the simulation itself.
    pub exec: Duration,
    pub polls: u64,
    pub timers_fired: u64,
    pub transfers: u64,
    pub busy_cycles: u64,
}

/// Builds a fresh cycle-accurate simulation of `schedule` and runs it,
/// recording `soc.build`, `core.execute_schedule` and `tlm.monitor` spans
/// under `parent`.
pub fn run(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    tracer: &Tracer,
    parent: u64,
    trace: u64,
) -> Result<Run, ScheduleError> {
    let started = Instant::now();
    let span = tracer.span("soc.build", parent, trace);
    let mut sim = Simulation::from_env();
    let soc = JpegEncoderSoc::build(&sim.handle(), config.clone());
    let tests = build_test_runs(&soc, plan);
    drop(span);
    let build = started.elapsed();

    let started = Instant::now();
    let span = tracer.span("core.execute_schedule", parent, trace);
    let result = execute_schedule(&mut sim, tests, schedule)?;
    drop(span);
    let exec = started.elapsed();

    let _span = tracer.span("tlm.monitor", parent, trace);
    soc.bus.observe_monitor_until(sim.now());
    let monitor = soc.bus.monitor();
    let power = soc.power_meter.as_ref().map(|meter| {
        let mut m = meter.borrow_mut();
        m.observe_until(sim.now());
        let span = m.last_activity_end();
        PowerSummary {
            peak: m.peak_power(),
            average: m.average_power(span),
            energy: m.total_energy(),
            per_source: m.per_source().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    });
    let (polls, timers_fired) = sim.kernel_stats();
    let metrics = ScenarioMetrics {
        schedule: schedule.name.clone(),
        peak_utilization: monitor.peak_utilization(),
        avg_utilization: monitor.average_utilization(monitor.last_activity_end()),
        total_cycles: result.total_cycles,
        cpu: result.wall,
        power,
        result,
    };
    Ok(Run {
        build,
        exec,
        polls,
        timers_fired,
        transfers: monitor.transfer_count(),
        busy_cycles: monitor.total_busy_cycles(),
        metrics,
    })
}
