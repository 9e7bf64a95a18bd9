//! Differential proof that the accurate-mode lone-runner fast paths are
//! unobservable: the kernel's in-place time advance, the bus's
//! synchronous transfer and DMI grant, and the posted memory-test
//! engine's inline lane.
//!
//! Each seeded case runs one generated memory-test scenario twice on the
//! same SoC model. The reference run adds a pair of "ticker" tasks that
//! `wait(1)` until the tested work ends: with a ticker due every cycle no
//! other task is ever alone, and the two tickers keep each other off the
//! fast path too, so the reference is the pure event-driven schedule.
//! The plain run takes every fast path the kernel can prove safe. The two
//! must agree on everything the model exposes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tve::core::{DataPolicy, MemoryTestPlan, TestOutcome};
use tve::memtest::{Fault, MarchTest, PatternTest};
use tve::sim::{Duration, Simulation, Time};
use tve::soc::{initiators, JpegEncoderSoc, PowerParams, SocConfig, MEM_BASE};
use tve::tlm::{ArbiterPolicy, Command, InitiatorId, TamIfExt};

/// One contending initiator: `(gap before, command, word offset, bits)`
/// per transfer.
type Contender = (InitiatorId, Vec<(u64, Command, u32, u64)>);

/// A generated scenario.
#[derive(Debug)]
struct Scenario {
    config: SocConfig,
    plan: MemoryTestPlan,
    start_delay: u64,
    faults: Vec<Fault>,
    contenders: Vec<Contender>,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let words = rng.gen_range(16u32..=256);
    let mut config = SocConfig::small();
    config.memory_words = words;
    config.bus_overhead = rng.gen_range(0u64..=3);
    config.monitor_window = Duration::cycles(rng.gen_range(16u64..=512));
    config.arbiter = [
        ArbiterPolicy::Fcfs,
        ArbiterPolicy::RoundRobin,
        ArbiterPolicy::Priority,
    ][rng.gen_range(0usize..3)];
    if rng.gen_bool(0.3) {
        config.power = Some(PowerParams::default());
    }
    let marches = [
        MarchTest::mats(),
        MarchTest::mats_plus(),
        MarchTest::mats_plus_plus(),
        MarchTest::march_x(),
        MarchTest::march_y(),
        MarchTest::march_b(),
        MarchTest::march_c_minus(),
    ];
    let march = marches[rng.gen_range(0..marches.len())].clone();
    let patterns = [
        PatternTest::Checkerboard,
        PatternTest::Solid(rng.gen()),
        PatternTest::AddressInData,
    ]
    .into_iter()
    .filter(|_| rng.gen_bool(0.4))
    .collect();
    let posted = rng.gen_bool(0.5);
    let plan = MemoryTestPlan {
        name: "memtest".to_string(),
        march,
        patterns,
        base_addr: MEM_BASE,
        words,
        op_overhead: Duration::cycles(rng.gen_range(0u64..=8)),
        posted_depth: if posted { rng.gen_range(2usize..=8) } else { 1 },
        policy: if rng.gen_bool(0.5) {
            DataPolicy::Full
        } else {
            DataPolicy::Volume
        },
    };
    let faults = (0..rng.gen_range(0usize..=3))
        .map(|_| {
            let addr = rng.gen_range(0..words);
            let bit = rng.gen_range(0u8..32);
            match rng.gen_range(0u32..3) {
                0 => Fault::stuck_at(addr, bit, rng.gen()),
                1 => Fault::transition(addr, bit, rng.gen()),
                _ => Fault::address_alias(addr, rng.gen_range(0..words)),
            }
        })
        .collect();
    let others = [
        initiators::ATE,
        initiators::BIST_PROC,
        initiators::BIST_COLOR,
        initiators::PROCESSOR,
    ];
    let contenders = (0..rng.gen_range(0usize..=2))
        .map(|i| {
            let transfers = (0..rng.gen_range(1usize..=24))
                .map(|_| {
                    let cmd = if rng.gen_bool(0.5) {
                        Command::Write
                    } else {
                        Command::Read
                    };
                    let len = rng.gen_range(1u32..=4);
                    let offset = rng.gen_range(0..=words - len);
                    (rng.gen_range(0u64..=40), cmd, offset, 32 * len as u64)
                })
                .collect();
            (others[i + rng.gen_range(0usize..=2)], transfers)
        })
        .collect();
    Scenario {
        config,
        plan,
        start_delay: rng.gen_range(0u64..=20),
        faults,
        contenders,
    }
}

/// The bus monitor's figures; floats as bits, so equality is exact.
#[derive(Debug, PartialEq)]
struct MonitorFigures {
    transfers: u64,
    busy: u64,
    per_initiator: Vec<(InitiatorId, u64)>,
    peak: u64,
    average: u64,
    last_activity_end: Time,
}

/// The power meter's figures, floats as bits.
#[derive(Debug, PartialEq)]
struct PowerFigures {
    peak: u64,
    average: u64,
    energy: u64,
    per_source: Vec<(String, u64)>,
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: TestOutcome,
    contender_log: Vec<(u8, u64, Option<Vec<u32>>)>,
    end: Time,
    memory_ops: (u64, u64),
    wrapper: tve::core::WrapperStats,
    monitor: MonitorFigures,
    power: Option<PowerFigures>,
    timed_waits: u64,
}

fn run(s: &Scenario, with_tickers: bool) -> Observed {
    let mut sim = Simulation::new();
    let h = sim.handle();
    let soc = JpegEncoderSoc::build(&h, s.config.clone());
    for fault in &s.faults {
        soc.memory.inject(*fault);
    }
    let done = Rc::new(Cell::new(false));
    let ticks = Rc::new(Cell::new(0u64));
    if with_tickers {
        for _ in 0..2 {
            let (h, done, ticks) = (h.clone(), Rc::clone(&done), Rc::clone(&ticks));
            sim.spawn(async move {
                while !done.get() {
                    h.wait(Duration::cycles(1)).await;
                    ticks.set(ticks.get() + 1);
                }
            });
        }
    }
    let log = Rc::new(RefCell::new(Vec::new()));
    let contenders: Vec<_> = s
        .contenders
        .iter()
        .map(|(initiator, transfers)| {
            let (h, bus, log) = (h.clone(), Rc::clone(&soc.bus), Rc::clone(&log));
            let (initiator, transfers) = (*initiator, transfers.clone());
            h.clone().spawn(async move {
                for (gap, cmd, offset, bits) in transfers {
                    h.wait(Duration::cycles(gap)).await;
                    let addr = MEM_BASE + offset;
                    let data = match cmd {
                        Command::Write => {
                            let words = vec![offset ^ 0xA5A5_0000; bits as usize / 32];
                            bus.write(initiator, addr, &words, bits)
                                .await
                                .ok()
                                .map(|()| words)
                        }
                        _ => bus.read(initiator, addr, bits).await.ok(),
                    };
                    log.borrow_mut().push((initiator.0, h.now().cycles(), data));
                }
            })
        })
        .collect();
    let controller = Rc::clone(&soc.controller);
    let plan = s.plan.clone();
    let start_delay = s.start_delay;
    let main = {
        let (h, done) = (h.clone(), Rc::clone(&done));
        sim.spawn(async move {
            h.wait(Duration::cycles(start_delay)).await;
            let outcome = controller.run_memory_test(&plan).await;
            for c in contenders {
                c.await;
            }
            done.set(true);
            (outcome, h.now())
        })
    };
    sim.run();
    let (outcome, end) = main.try_take().expect("scenario completes");
    soc.bus.observe_monitor_until(end);
    let monitor = soc.bus.monitor();
    let monitor = MonitorFigures {
        transfers: monitor.transfer_count(),
        busy: monitor.total_busy_cycles(),
        per_initiator: monitor.per_initiator().collect(),
        peak: monitor.peak_utilization().to_bits(),
        average: monitor
            .average_utilization(monitor.last_activity_end())
            .to_bits(),
        last_activity_end: monitor.last_activity_end(),
    };
    let power = soc.power_meter.as_ref().map(|meter| {
        let mut m = meter.borrow_mut();
        m.observe_until(end);
        PowerFigures {
            peak: m.peak_power().to_bits(),
            average: m.average_power(m.last_activity_end()).to_bits(),
            energy: m.total_energy().to_bits(),
            per_source: m
                .per_source()
                .map(|(k, v)| (k.to_string(), v.to_bits()))
                .collect(),
        }
    });
    let contender_log = log.take();
    Observed {
        outcome,
        contender_log,
        end,
        memory_ops: soc.memory.op_counts(),
        wrapper: soc.mem_wrapper.stats(),
        monitor,
        power,
        timed_waits: sim.kernel_stats().1 - ticks.get(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lone_runner_paths_match_the_event_driven_reference(seed in any::<u64>()) {
        let s = scenario(seed);
        let reference = run(&s, true);
        let fast = run(&s, false);
        prop_assert_eq!(&fast, &reference, "scenario: {:?}", s);
    }
}

/// The generator does reach the fast paths: a lone posted march takes
/// far fewer polls than its ticked reference, with the same result.
#[test]
fn the_fast_paths_engage() {
    let mut s = scenario(1);
    s.contenders.clear();
    s.config.power = None;
    s.config.bus_overhead = 1;
    s.plan.posted_depth = 4;
    s.plan.op_overhead = Duration::cycles(6);
    assert_eq!(run(&s, false), run(&s, true));
    let mut sim = Simulation::new();
    let soc = JpegEncoderSoc::build(&sim.handle(), s.config.clone());
    let controller = Rc::clone(&soc.controller);
    let plan = s.plan.clone();
    sim.spawn(async move { controller.run_memory_test(&plan).await });
    sim.run();
    let (polls, timed_waits) = sim.kernel_stats();
    let ops = s.plan.total_ops();
    assert_eq!(
        timed_waits,
        2 * ops,
        "one overhead wait and one transfer per op"
    );
    assert!(
        polls < 16,
        "inline lane skipped the queue: {polls} polls for {ops} ops"
    );
}
