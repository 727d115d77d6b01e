//! Byte-identity across transmission-dispatch modes: a full figure
//! scenario must produce exactly the same `SimReport` (every time
//! series, drop counter and logic report, compared via the complete
//! `Debug` rendering) whether the engine coalesces
//! back-to-back transmissions into a link's departure train
//! (`DispatchMode::Train`, the default) or schedules one `TxDone`
//! checkpoint per packet (`DispatchMode::PerPacket`). The train is a
//! pure event-coalescing substitution — departures carry their own
//! timestamps, so when the link's accounting runs cannot be
//! observable. Any divergence is a batching bug.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::telemetry::RingProbe;
use netsim::DispatchMode;
use scenarios::exec::{run_parallel, run_serial};
use scenarios::runner::Scenario;
use scenarios::{Discipline, PaperFigure};
use sim_core::time::SimTime;

fn compressed(figure: PaperFigure, seed: u64) -> Scenario {
    let mut s = figure.scenario(seed);
    s.horizon = SimTime::from_secs(20);
    s
}

/// The report of `scenario` run under `dispatch`, rendered in full.
fn report_in(scenario: &Scenario, discipline: &dyn Discipline, dispatch: DispatchMode) -> String {
    let scenario = Scenario {
        dispatch,
        ..scenario.clone()
    };
    format!("{:?}", scenario.run(discipline).report)
}

#[test]
fn train_and_per_packet_agree_on_a_full_figure_scenario() {
    // Figure 3/4: the paper's 20-flow chain dynamics under Corelite —
    // the densest workload (timers, markers, feedback, drops).
    let figure = PaperFigure::Fig3;
    let scenario = compressed(figure, 1);
    let discipline = figure.discipline();
    let train = report_in(&scenario, discipline.as_ref(), DispatchMode::Train);
    let per_packet = report_in(&scenario, discipline.as_ref(), DispatchMode::PerPacket);
    assert_eq!(
        train,
        per_packet,
        "dispatch modes diverged on {}",
        figure.name()
    );
    // The default path is the train.
    assert_eq!(scenario.dispatch, DispatchMode::Train);
    let default = format!("{:?}", scenario.run(discipline.as_ref()).report);
    assert_eq!(default, train);
}

#[test]
fn every_figure_agrees_across_dispatch_modes() {
    // Shorter horizon, but every figure: covers CSFQ (whose core logic
    // reads instantaneous queue lengths per packet), min-rate
    // contracts, and the sources/selectors each figure exercises.
    for figure in PaperFigure::ALL {
        let mut scenario = figure.scenario(1);
        scenario.horizon = SimTime::from_secs(8);
        let discipline = figure.discipline();
        let train = report_in(&scenario, discipline.as_ref(), DispatchMode::Train);
        let per_packet = report_in(&scenario, discipline.as_ref(), DispatchMode::PerPacket);
        assert_eq!(
            train,
            per_packet,
            "dispatch modes diverged on {}",
            figure.name()
        );
    }
}

#[test]
fn fat_tree_agrees_across_dispatch_modes() {
    // Multi-path topology: trains matter most where many links carry
    // interleaved back-to-back bursts.
    let scenario = Scenario::fat_tree_mix(SimTime::from_secs(15), 7);
    let figure = PaperFigure::Fig3;
    let discipline = figure.discipline();
    let train = report_in(&scenario, discipline.as_ref(), DispatchMode::Train);
    let per_packet = report_in(&scenario, discipline.as_ref(), DispatchMode::PerPacket);
    assert_eq!(train, per_packet, "dispatch modes diverged on fat_tree_mix");

    // The wide k=8 instance (8 leaves x 4 spines) from the scaling
    // benches: more links, more concurrent trains per tick.
    let scenario = Scenario::fat_tree_k_mix(8, 4, SimTime::from_secs(10), 7);
    let train = report_in(&scenario, discipline.as_ref(), DispatchMode::Train);
    let per_packet = report_in(&scenario, discipline.as_ref(), DispatchMode::PerPacket);
    assert_eq!(
        train, per_packet,
        "dispatch modes diverged on fat_tree_k_mix"
    );
}

#[test]
fn probe_streams_agree_across_dispatch_modes() {
    // Telemetry must be a pure function of the logical event stream:
    // the same scenario probed under trains and under per-packet
    // checkpoints yields byte-identical JSONL (Fig5 = Corelite's
    // per-epoch hooks, Fig6 = CSFQ's probe-gated sampling timer).
    for figure in [PaperFigure::Fig5, PaperFigure::Fig6] {
        let scenario = compressed(figure, 1);
        let discipline = figure.discipline();
        let stream = |dispatch: DispatchMode| {
            let probe = Rc::new(RefCell::new(RingProbe::with_capacity(1 << 16)));
            let scenario = Scenario {
                dispatch,
                ..scenario.clone()
            };
            scenario.run_observed(discipline.as_ref(), probe.clone());
            let jsonl = probe.borrow().to_jsonl();
            assert!(
                !jsonl.is_empty(),
                "{}: probe recorded nothing",
                figure.name()
            );
            jsonl
        };
        assert_eq!(
            stream(DispatchMode::Train),
            stream(DispatchMode::PerPacket),
            "probe streams diverged across dispatch modes on {}",
            figure.name()
        );
    }
}

#[test]
fn dispatch_modes_agree_under_serial_and_parallel_exec() {
    let figure = PaperFigure::Fig5;
    let discipline = figure.discipline();
    let seeds: Vec<u64> = (1..=4).collect();
    let train_work = |seed: u64| {
        report_in(
            &compressed(figure, seed),
            discipline.as_ref(),
            DispatchMode::Train,
        )
    };
    let per_packet_work = |seed: u64| {
        report_in(
            &compressed(figure, seed),
            discipline.as_ref(),
            DispatchMode::PerPacket,
        )
    };
    let train_serial = run_serial(seeds.clone(), train_work);
    let train_parallel = run_parallel(seeds.clone(), train_work);
    let per_packet_serial = run_serial(seeds.clone(), per_packet_work);
    let per_packet_parallel = run_parallel(seeds, per_packet_work);
    assert_eq!(train_serial, train_parallel);
    assert_eq!(per_packet_serial, per_packet_parallel);
    assert_eq!(train_serial, per_packet_serial);
    // Non-vacuous: different seeds produce different results.
    assert!(train_serial.windows(2).any(|w| w[0] != w[1]));
}
