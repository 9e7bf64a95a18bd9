//! The case study's test plan (paper Section IV): the seven test sequences,
//! the four schedules, and the scenario runner producing Table I's metrics.

use std::fmt;
use std::rc::Rc;

use tve_core::{
    execute_schedule_traced, AteSource, BistSource, CompressedAteSource, DataPolicy,
    MemoryTestPlan, ReadBack, Schedule, ScheduleError, ScheduleResult, TestRun, WrapperMode,
};
use tve_memtest::{MarchTest, PatternTest};
use tve_obs::{Recorder, StoragePolicy, TraceLog};
use tve_sim::{Duration, Simulation};
use tve_tlm::TamIf;

use crate::soc::{
    initiators, JpegEncoderSoc, SocConfig, CODEC_ADDR, COLOR_WRAPPER_ADDR, DCT_WRAPPER_ADDR,
    MEM_BASE, PROC_WRAPPER_ADDR, RING_CODEC, RING_COLOR, RING_DCT, RING_EBI, RING_PROC,
};

/// Pattern counts for the seven test sequences.
///
/// The paper's counts ([`SocTestPlan::paper`]): 100 k pseudo-random
/// patterns for the processor BIST, 20 k deterministic (plain and 50×
/// compressed), 10 k for the color conversion BIST, 10 k for the DCT, and
/// MATS+ plus pattern tests over the full 1 MiB memory, controller- and
/// processor-driven.
#[derive(Debug, Clone)]
pub struct SocTestPlan {
    /// Test 1: processor LBIST pattern count.
    pub bist_proc_patterns: u64,
    /// Test 2: deterministic processor patterns (uncompressed, from ATE).
    pub det_proc_patterns: u64,
    /// Test 3: deterministic processor patterns at 50× compression.
    pub comp_proc_patterns: u64,
    /// Test 4: color conversion LBIST pattern count.
    pub bist_color_patterns: u64,
    /// Test 5: deterministic DCT patterns (from ATE).
    pub det_dct_patterns: u64,
    /// Memory march algorithm (tests 6 and 7).
    pub march: MarchTest,
    /// Memory background pattern tests (tests 6 and 7).
    pub pattern_tests: Vec<PatternTest>,
    /// Data policy for all sequences.
    pub policy: DataPolicy,
    /// Seed for all pattern generation.
    pub seed: u64,
}

impl SocTestPlan {
    /// The paper's pattern counts and memory test composition.
    pub fn paper() -> Self {
        SocTestPlan {
            bist_proc_patterns: 100_000,
            det_proc_patterns: 20_000,
            comp_proc_patterns: 20_000,
            bist_color_patterns: 10_000,
            det_dct_patterns: 10_000,
            march: MarchTest::mats_plus(),
            pattern_tests: vec![
                PatternTest::Checkerboard,
                PatternTest::Solid(0),
                PatternTest::Solid(u32::MAX),
                PatternTest::Solid(0x0F0F_0F0F),
                PatternTest::AddressInData,
            ],
            policy: DataPolicy::Volume,
            seed: 0xDA7E_2009,
        }
    }

    /// A proportionally scaled-down plan (`1/divisor` of every pattern
    /// count) for quick exploration runs.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn paper_scaled(divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        let p = Self::paper();
        SocTestPlan {
            bist_proc_patterns: (p.bist_proc_patterns / divisor).max(1),
            det_proc_patterns: (p.det_proc_patterns / divisor).max(1),
            comp_proc_patterns: (p.comp_proc_patterns / divisor).max(1),
            bist_color_patterns: (p.bist_color_patterns / divisor).max(1),
            det_dct_patterns: (p.det_dct_patterns / divisor).max(1),
            ..p
        }
    }

    /// A tiny full-data plan for validation runs on [`SocConfig::small`].
    pub fn small() -> Self {
        SocTestPlan {
            bist_proc_patterns: 30,
            det_proc_patterns: 20,
            comp_proc_patterns: 10,
            bist_color_patterns: 20,
            det_dct_patterns: 20,
            march: MarchTest::mats_plus(),
            pattern_tests: vec![PatternTest::Checkerboard, PatternTest::AddressInData],
            policy: DataPolicy::Full,
            seed: 7,
        }
    }
}

/// Builds the seven test sequences of Section IV as schedulable
/// [`TestRun`]s, indexed `0..=6` for tests 1–7.
///
/// Each run first configures its target infrastructure over the
/// configuration scan ring (the step a hand-written test program can get
/// wrong — which the Virtual ATE then catches).
pub fn build_test_runs(soc: &JpegEncoderSoc, plan: &SocTestPlan) -> Vec<TestRun> {
    build_test_runs_traced(soc, plan, None)
}

/// [`build_test_runs`] with observability: when a recorder is given, every
/// pattern source additionally records its run as a
/// [`tve_obs::SpanKind::Burst`] span on its `src/<name>` track.
pub fn build_test_runs_traced(
    soc: &JpegEncoderSoc,
    plan: &SocTestPlan,
    recorder: Option<&Rc<Recorder>>,
) -> Vec<TestRun> {
    let cfg = &soc.config;
    let mut runs = Vec::new();

    // Test 1: BIST of the full-scan processor core.
    {
        let ring = Rc::clone(&soc.ring);
        let mut src = BistSource::new(
            &soc.handle,
            "T1 proc BIST",
            Rc::clone(&soc.bus) as Rc<dyn TamIf>,
            PROC_WRAPPER_ADDR,
            initiators::BIST_PROC,
            cfg.proc_scan,
            plan.bist_proc_patterns,
            plan.policy,
            plan.seed ^ 1,
        );
        if let Some(rec) = recorder {
            src = src.with_recorder(Rc::clone(rec));
        }
        runs.push(TestRun::new("T1 proc BIST", async move {
            ring.write(RING_PROC, WrapperMode::Bist.encode()).await;
            src.run().await
        }));
    }

    // Test 2: deterministic logic test of the processor, patterns in ATE.
    {
        let ring = Rc::clone(&soc.ring);
        let src = AteSource {
            handle: soc.handle.clone(),
            name: "T2 proc det".to_string(),
            port: Rc::clone(&soc.ebi) as Rc<dyn TamIf>,
            wrapper_addr: PROC_WRAPPER_ADDR,
            read_back: ReadBack::Combined,
            initiator: initiators::ATE,
            scan: cfg.proc_scan,
            patterns: plan.det_proc_patterns,
            policy: plan.policy,
            seed: plan.seed ^ 2,
            recorder: recorder.map(Rc::clone),
        };
        runs.push(TestRun::new("T2 proc det", async move {
            ring.write(RING_EBI, 1).await;
            ring.write(RING_PROC, WrapperMode::IntTest.encode()).await;
            src.run().await
        }));
    }

    // Test 3: deterministic logic test with 50x compressed test data.
    {
        let ring = Rc::clone(&soc.ring);
        let src = CompressedAteSource {
            handle: soc.handle.clone(),
            name: "T3 proc det 50x".to_string(),
            port: Rc::clone(&soc.ebi) as Rc<dyn TamIf>,
            codec_addr: CODEC_ADDR,
            compressed_bits: match plan.policy {
                DataPolicy::Volume => soc.codec.compressed_bits(),
                // Full data: the compressed stream is one reseeding seed.
                DataPolicy::Full => 64,
            },
            compacted_bits: soc.codec.compacted_bits(),
            codec: soc
                .reseeding
                .clone()
                .map(|c| c as Rc<dyn tve_tpg::Compressor>),
            cares_per_cube: 24,
            initiator: initiators::ATE,
            scan: cfg.proc_scan,
            patterns: plan.comp_proc_patterns,
            policy: plan.policy,
            seed: plan.seed ^ 3,
            recorder: recorder.map(Rc::clone),
        };
        runs.push(TestRun::new("T3 proc det 50x", async move {
            ring.write(RING_EBI, 1).await;
            ring.write(RING_PROC, WrapperMode::IntTest.encode()).await;
            ring.write(RING_CODEC, 1).await;
            src.run().await
        }));
    }

    // Test 4: BIST of the color conversion core.
    {
        let ring = Rc::clone(&soc.ring);
        let mut src = BistSource::new(
            &soc.handle,
            "T4 color BIST",
            Rc::clone(&soc.bus) as Rc<dyn TamIf>,
            COLOR_WRAPPER_ADDR,
            initiators::BIST_COLOR,
            cfg.color_scan,
            plan.bist_color_patterns,
            plan.policy,
            plan.seed ^ 4,
        );
        if let Some(rec) = recorder {
            src = src.with_recorder(Rc::clone(rec));
        }
        runs.push(TestRun::new("T4 color BIST", async move {
            ring.write(RING_COLOR, WrapperMode::Bist.encode()).await;
            src.run().await
        }));
    }

    // Test 5: deterministic logic test of the DCT core.
    {
        let ring = Rc::clone(&soc.ring);
        let src = AteSource {
            handle: soc.handle.clone(),
            name: "T5 dct det".to_string(),
            port: Rc::clone(&soc.ebi) as Rc<dyn TamIf>,
            wrapper_addr: DCT_WRAPPER_ADDR,
            read_back: ReadBack::Combined,
            initiator: initiators::ATE,
            scan: cfg.dct_scan,
            patterns: plan.det_dct_patterns,
            policy: plan.policy,
            seed: plan.seed ^ 5,
            recorder: recorder.map(Rc::clone),
        };
        runs.push(TestRun::new("T5 dct det", async move {
            ring.write(RING_EBI, 1).await;
            ring.write(RING_DCT, WrapperMode::IntTest.encode()).await;
            src.run().await
        }));
    }

    // Test 6: controller-driven array BIST of the embedded memory.
    {
        let controller = Rc::clone(&soc.controller);
        let p = MemoryTestPlan {
            name: "T6 mem march (ctrl)".to_string(),
            march: plan.march.clone(),
            patterns: plan.pattern_tests.clone(),
            base_addr: MEM_BASE,
            words: cfg.memory_words,
            op_overhead: Duration::cycles(cfg.controller_op_overhead),
            // The dedicated BIST engine pipelines its accesses; the deep
            // posted queue lets it recover bandwidth lost while long scan
            // bursts hold the bus (and thus saturate a contended TAM).
            posted_depth: 128,
            policy: plan.policy,
        };
        runs.push(TestRun::new("T6 mem march (ctrl)", async move {
            controller.run_memory_test(&p).await
        }));
    }

    // Test 7: the processor drives the same array tests from L1 cache.
    {
        let processor = Rc::clone(&soc.processor);
        let p = MemoryTestPlan {
            name: "T7 mem march (proc)".to_string(),
            march: plan.march.clone(),
            patterns: plan.pattern_tests.clone(),
            base_addr: MEM_BASE,
            words: cfg.memory_words,
            op_overhead: Duration::cycles(cfg.processor_op_overhead),
            // Load/store loop: each access completes before the next.
            posted_depth: 1,
            policy: plan.policy,
        };
        runs.push(TestRun::new("T7 mem march (proc)", async move {
            processor.run_memory_test(&p).await
        }));
    }

    runs
}

/// The four test schedules of Section IV (test indices are zero-based:
/// test *k* of the paper is index `k-1`).
pub fn paper_schedules() -> [Schedule; 4] {
    [
        // 1) Sequential: tests 1, 2, 4, 5, 7.
        Schedule::new(
            "schedule 1 (seq, uncompressed)",
            vec![vec![0], vec![1], vec![3], vec![4], vec![6]],
        ),
        // 2) Sequential: tests 1, 3, 4, 5, 6.
        Schedule::new(
            "schedule 2 (seq, compressed)",
            vec![vec![0], vec![2], vec![3], vec![4], vec![5]],
        ),
        // 3) Concurrent {1,5}, then {2,4}, then 7.
        Schedule::new(
            "schedule 3 (conc, uncompressed)",
            vec![vec![0, 4], vec![1, 3], vec![6]],
        ),
        // 4) Concurrent {1,5}, then {3,4,6}.
        Schedule::new(
            "schedule 4 (conc, compressed)",
            vec![vec![0, 4], vec![2, 3, 5]],
        ),
    ]
}

/// Power figures of one simulated scenario (present when the SoC config
/// enables the power model).
#[derive(Debug, Clone)]
pub struct PowerSummary {
    /// Peak windowed power.
    pub peak: f64,
    /// Average power over the schedule.
    pub average: f64,
    /// Total energy (power x cycles).
    pub energy: f64,
    /// Per-component energy, alphabetically.
    pub per_source: Vec<(String, f64)>,
}

/// Table-I-style metrics of one simulated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioMetrics {
    /// Schedule name.
    pub schedule: String,
    /// Peak TAM utilization in `[0, 1]`.
    pub peak_utilization: f64,
    /// Average TAM utilization in `[0, 1]`.
    pub avg_utilization: f64,
    /// Test length in cycles.
    pub total_cycles: u64,
    /// Host CPU time spent simulating.
    pub cpu: std::time::Duration,
    /// Power figures, when metered.
    pub power: Option<PowerSummary>,
    /// The underlying per-test results.
    pub result: ScheduleResult,
}

impl ScenarioMetrics {
    /// FNV-1a digest of every simulation-determined field — everything
    /// except host CPU times, which vary run to run. Two runs of the same
    /// scenario must produce equal digests regardless of host load or
    /// how many farm workers ran alongside; see `tve-sched`'s farm
    /// determinism tests.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        eat(self.schedule.as_bytes());
        eat(&self.peak_utilization.to_bits().to_le_bytes());
        eat(&self.avg_utilization.to_bits().to_le_bytes());
        eat(&self.total_cycles.to_le_bytes());
        if let Some(p) = &self.power {
            eat(&p.peak.to_bits().to_le_bytes());
            eat(&p.average.to_bits().to_le_bytes());
            eat(&p.energy.to_bits().to_le_bytes());
            for (name, energy) in &p.per_source {
                eat(name.as_bytes());
                eat(&energy.to_bits().to_le_bytes());
            }
        }
        for slot in &self.result.slots {
            let o = &slot.outcome;
            eat(&(slot.phase as u64).to_le_bytes());
            eat(o.name.as_bytes());
            eat(&o.patterns.to_le_bytes());
            eat(&o.stimulus_bits.to_le_bytes());
            eat(&o.response_bits.to_le_bytes());
            eat(&o.signature.unwrap_or(0).to_le_bytes());
            eat(&o.mismatches.to_le_bytes());
            eat(&o.errors.to_le_bytes());
            for addr in &o.failing_addresses {
                eat(&addr.to_le_bytes());
            }
            eat(&o.start.cycles().to_le_bytes());
            eat(&o.end.cycles().to_le_bytes());
        }
        h
    }
}

impl fmt::Display for ScenarioMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: peak {:.0}%, avg {:.0}%, {:.1} Mcycles, {:.2?} CPU",
            self.schedule,
            self.peak_utilization * 100.0,
            self.avg_utilization * 100.0,
            self.total_cycles as f64 / 1e6,
            self.cpu
        )
    }
}

/// Builds a fresh SoC, executes `schedule` over the plan's test sequences,
/// and reports the Table I metrics for that scenario.
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
) -> Result<ScenarioMetrics, ScheduleError> {
    run_scenario_impl(config, plan, schedule, None, |_| {})
}

/// [`run_scenario`] with a preparation hook: `prepare` runs on the freshly
/// built SoC before any test sequence is constructed or executed — the
/// injection point of a fault campaign (stuck scan cells, memory faults,
/// WIR faults, broken ring segments).
///
/// With a no-op hook this is exactly [`run_scenario`].
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario_prepared<F: FnOnce(&JpegEncoderSoc)>(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    prepare: F,
) -> Result<ScenarioMetrics, ScheduleError> {
    run_scenario_impl(config, plan, schedule, None, prepare)
}

/// [`run_scenario_prepared`] with observability: the recorder is attached
/// before `prepare` runs, and the recorded [`TraceLog`] is returned — a
/// campaign derives time-to-detection from its `Test` spans.
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario_prepared_traced<F: FnOnce(&JpegEncoderSoc)>(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    storage: StoragePolicy,
    prepare: F,
) -> Result<(ScenarioMetrics, TraceLog), ScheduleError> {
    let rec = Rc::new(Recorder::new(storage));
    let metrics = run_scenario_impl(config, plan, schedule, Some(&rec), prepare)?;
    Ok((metrics, rec.take_log()))
}

/// [`run_scenario`] with observability: builds the SoC with a
/// [`Recorder`] of the given storage policy attached to every block, runs
/// the scenario, and returns the metrics together with the recorded
/// [`TraceLog`] (export it with [`tve_obs::write_chrome_trace`] or
/// [`tve_obs::write_spans_csv`]).
///
/// Tracing is pure observation: the metrics — including
/// [`ScenarioMetrics::digest`] — are identical to an untraced
/// [`run_scenario`] of the same scenario.
///
/// # Errors
///
/// Returns [`ScheduleError`] if `schedule` is not well-formed for the
/// seven-test list.
pub fn run_scenario_traced(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    storage: StoragePolicy,
) -> Result<(ScenarioMetrics, TraceLog), ScheduleError> {
    let rec = Rc::new(Recorder::new(storage));
    let metrics = run_scenario_impl(config, plan, schedule, Some(&rec), |_| {})?;
    Ok((metrics, rec.take_log()))
}

fn run_scenario_impl<F: FnOnce(&JpegEncoderSoc)>(
    config: &SocConfig,
    plan: &SocTestPlan,
    schedule: &Schedule,
    recorder: Option<&Rc<Recorder>>,
    prepare: F,
) -> Result<ScenarioMetrics, ScheduleError> {
    let mut sim = Simulation::new();
    let soc = JpegEncoderSoc::build(&sim.handle(), config.clone());
    if let Some(rec) = recorder {
        soc.attach_recorder(rec);
    }
    prepare(&soc);
    let tests = build_test_runs_traced(&soc, plan, recorder);
    let result = execute_schedule_traced(&mut sim, tests, schedule, recorder)?;
    soc.bus.observe_monitor_until(sim.now());
    if let Some(rec) = recorder {
        // Keep the trace's observation span consistent with the monitor's,
        // so utilization recomputed from spans matches the monitor exactly.
        rec.observe_until(sim.now());
    }
    let monitor = soc.bus.monitor();
    // Average over the full observed activity span (simulation start to
    // last bus activity): consistent with the windows peak detection uses.
    let span = monitor.last_activity_end();
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
    Ok(ScenarioMetrics {
        schedule: schedule.name.clone(),
        peak_utilization: monitor.peak_utilization(),
        avg_utilization: monitor.average_utilization(span),
        total_cycles: result.total_cycles,
        cpu: result.wall,
        power,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_config() -> SocConfig {
        SocConfig {
            memory_words: 64,
            ..SocConfig::small()
        }
    }

    #[test]
    fn paper_schedules_are_well_formed() {
        for s in paper_schedules() {
            s.validate(7).unwrap();
        }
    }

    #[test]
    fn all_four_scenarios_run_clean_on_miniature() {
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        for schedule in paper_schedules() {
            let m = run_scenario(&cfg, &plan, &schedule).unwrap();
            assert!(m.result.clean(), "{schedule:?}: {}", m.result);
            assert!(m.total_cycles > 0);
            assert!(m.peak_utilization > 0.0 && m.peak_utilization <= 1.0);
            assert!(m.avg_utilization > 0.0 && m.avg_utilization <= 1.0);
            assert!(m.peak_utilization >= m.avg_utilization);
        }
    }

    #[test]
    fn concurrent_schedules_are_shorter_sequential_equal_volume() {
        // On the miniature: schedule 3 must beat schedule 1 (same tests),
        // schedule 4 must beat schedule 2.
        let cfg = mini_config();
        let plan = SocTestPlan {
            policy: DataPolicy::Volume,
            ..SocTestPlan::small()
        };
        let s = paper_schedules();
        let m: Vec<_> = s
            .iter()
            .map(|sched| run_scenario(&cfg, &plan, sched).unwrap())
            .collect();
        assert!(
            m[2].total_cycles < m[0].total_cycles,
            "concurrency must shorten schedule 1: {} vs {}",
            m[2].total_cycles,
            m[0].total_cycles
        );
        assert!(
            m[3].total_cycles < m[1].total_cycles,
            "concurrency must shorten schedule 2: {} vs {}",
            m[3].total_cycles,
            m[1].total_cycles
        );
    }

    #[test]
    fn full_policy_produces_signatures() {
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        let m = run_scenario(&cfg, &plan, &paper_schedules()[0]).unwrap();
        let t1 = m.result.slot("T1 proc BIST").unwrap();
        assert!(t1.outcome.signature.is_some());
        let t2 = m.result.slot("T2 proc det").unwrap();
        assert!(t2.outcome.signature.is_some());
    }

    #[test]
    fn traced_scenario_is_bit_identical_and_captures_spans() {
        use tve_obs::{SpanKind, StoragePolicy};
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        let schedule = &paper_schedules()[2];
        let plain = run_scenario(&cfg, &plan, schedule).unwrap();
        let (traced, log) =
            run_scenario_traced(&cfg, &plan, schedule, StoragePolicy::Unbounded).unwrap();
        assert_eq!(plain.digest(), traced.digest(), "tracing must not perturb");
        // Every instrumented layer shows up: bus transfers, wrapper scans,
        // ring rotations, schedule phases and per-test spans.
        let tracks = log.tracks();
        assert!(tracks.contains(&"system-bus/TAM"), "{tracks:?}");
        assert!(tracks.contains(&"proc-wrapper"), "{tracks:?}");
        assert!(tracks.contains(&"config-ring"), "{tracks:?}");
        assert!(tracks.contains(&"schedule"), "{tracks:?}");
        assert!(tracks.contains(&"tests"), "{tracks:?}");
        assert!(log
            .spans_on("system-bus/TAM", SpanKind::Transfer)
            .next()
            .is_some());
        assert_eq!(
            log.spans_on("schedule", SpanKind::Phase).count(),
            schedule.phases.len()
        );
        // An Off recorder keeps no spans and still changes nothing.
        let (off, off_log) =
            run_scenario_traced(&cfg, &plan, schedule, StoragePolicy::Off).unwrap();
        assert_eq!(off.digest(), plain.digest());
        assert!(off_log.spans.is_empty());
    }

    #[test]
    fn prepared_hook_injects_faults_and_noop_matches_plain() {
        use crate::soc::WrappedCore;
        use tve_core::StuckCell;
        let cfg = mini_config();
        let plan = SocTestPlan::small();
        let schedule = &paper_schedules()[0];
        let plain = run_scenario(&cfg, &plan, schedule).unwrap();
        let noop = run_scenario_prepared(&cfg, &plan, schedule, |_| {}).unwrap();
        assert_eq!(plain.digest(), noop.digest(), "no-op hook must be inert");
        let faulty = run_scenario_prepared(&cfg, &plan, schedule, |soc| {
            soc.wrapper_of(WrappedCore::Processor)
                .inject_fault(Some(StuckCell {
                    chain: 0,
                    position: 3,
                    value: true,
                }));
        })
        .unwrap();
        assert_ne!(
            plain.digest(),
            faulty.digest(),
            "stuck cell must move the digest"
        );
    }

    #[test]
    fn scaled_plan_divides_counts() {
        let p = SocTestPlan::paper_scaled(100);
        assert_eq!(p.bist_proc_patterns, 1000);
        assert_eq!(p.det_dct_patterns, 100);
    }
}
