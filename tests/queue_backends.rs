//! Byte-identity across event-queue backends: a full figure scenario
//! must produce exactly the same `SimReport` (every time series, drop
//! counter and logic report, compared via the complete `Debug`
//! rendering) whether the engine runs on the timer wheel or the seed
//! binary heap — and whether the sweep executes serially or in
//! parallel. The wheel is a pure data-structure substitution; any
//! divergence is an ordering bug.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::telemetry::RingProbe;
use scenarios::exec::{run_parallel, run_serial};
use scenarios::runner::Scenario;
use scenarios::{Discipline, PaperFigure};
use sim_core::event::QueueBackend;
use sim_core::time::SimTime;

fn compressed(figure: PaperFigure, seed: u64) -> Scenario {
    let mut s = figure.scenario(seed);
    s.horizon = SimTime::from_secs(20);
    s
}

/// The report of `scenario` run on `backend`, rendered in full.
fn report_on(scenario: &Scenario, discipline: &dyn Discipline, backend: QueueBackend) -> String {
    let scenario = Scenario {
        backend,
        ..scenario.clone()
    };
    format!("{:?}", scenario.run(discipline).report)
}

#[test]
fn wheel_and_heap_agree_on_a_full_figure_scenario() {
    // Figure 3/4: the paper's 20-flow chain dynamics under Corelite —
    // the densest workload (timers, markers, feedback, drops).
    let figure = PaperFigure::Fig3;
    let scenario = compressed(figure, 1);
    let discipline = figure.discipline();
    let wheel = report_on(&scenario, discipline.as_ref(), QueueBackend::Wheel);
    let heap = report_on(&scenario, discipline.as_ref(), QueueBackend::Heap);
    assert_eq!(wheel, heap, "queue backends diverged on {}", figure.name());
    // The default path is the wheel.
    assert_eq!(scenario.backend, QueueBackend::Wheel);
    let default = format!("{:?}", scenario.run(discipline.as_ref()).report);
    assert_eq!(default, wheel);
}

#[test]
fn every_figure_agrees_across_backends() {
    // Shorter horizon, but every figure: covers CSFQ, min-rate
    // contracts, and the sources/selectors each figure exercises.
    for figure in PaperFigure::ALL {
        let mut scenario = figure.scenario(1);
        scenario.horizon = SimTime::from_secs(8);
        let discipline = figure.discipline();
        let wheel = report_on(&scenario, discipline.as_ref(), QueueBackend::Wheel);
        let heap = report_on(&scenario, discipline.as_ref(), QueueBackend::Heap);
        assert_eq!(wheel, heap, "queue backends diverged on {}", figure.name());
    }
}

#[test]
fn probe_streams_agree_across_backends() {
    // Telemetry must be a pure function of the event stream: the same
    // scenario probed on the wheel and on the heap yields byte-identical
    // JSONL. Covers both the Corelite per-epoch hooks and CSFQ's
    // probe-gated sampling timer (Fig5 = Corelite, Fig6 = CSFQ).
    for figure in [PaperFigure::Fig5, PaperFigure::Fig6] {
        let scenario = compressed(figure, 1);
        let discipline = figure.discipline();
        let stream = |backend: QueueBackend| {
            let probe = Rc::new(RefCell::new(RingProbe::with_capacity(1 << 16)));
            let scenario = Scenario {
                backend,
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
            stream(QueueBackend::Wheel),
            stream(QueueBackend::Heap),
            "probe streams diverged across backends on {}",
            figure.name()
        );
    }
}

#[test]
fn backends_agree_under_serial_and_parallel_exec() {
    let figure = PaperFigure::Fig5;
    let discipline = figure.discipline();
    let seeds: Vec<u64> = (1..=4).collect();
    let wheel_work = |seed: u64| {
        report_on(
            &compressed(figure, seed),
            discipline.as_ref(),
            QueueBackend::Wheel,
        )
    };
    let heap_work = |seed: u64| {
        report_on(
            &compressed(figure, seed),
            discipline.as_ref(),
            QueueBackend::Heap,
        )
    };
    let wheel_serial = run_serial(seeds.clone(), wheel_work);
    let wheel_parallel = run_parallel(seeds.clone(), wheel_work);
    let heap_serial = run_serial(seeds.clone(), heap_work);
    let heap_parallel = run_parallel(seeds, heap_work);
    assert_eq!(wheel_serial, wheel_parallel);
    assert_eq!(heap_serial, heap_parallel);
    assert_eq!(wheel_serial, heap_serial);
    // Non-vacuous: different seeds produce different results.
    assert!(wheel_serial.windows(2).any(|w| w[0] != w[1]));
}
