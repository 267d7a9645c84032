//! Mid-run cancellation of the in-process SPMD engines (dist, multilevel,
//! IQS baseline).
//!
//! Every virtual rank runs the same rank body the process workers run, with
//! a collective cancel vote at each checkpoint. A token fired by the first
//! progress report must therefore stop *every* rank at the next checkpoint:
//! the run returns `Err(Cancelled)` (no rank is stranded in a collective)
//! and no further progress is reported. An uncancelled control must leave
//! the amplitudes untouched.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_core::{
    BaselineConfig, CancelToken, Cancelled, DistConfig, DistributedSimulator, ExecControl,
    FusedSinglePlan, FusedTwoLevelPlan, IqsBaseline, MultilevelConfig, MultilevelSimulator,
};
use hisvsim_dag::CircuitDag;
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_statevec::{StateVector, DEFAULT_FUSION_WIDTH};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const RANKS: usize = 4;
const QUBITS: usize = 12;
/// Working-set limit of the single-level dist plan (small, so many parts).
const DIST_LIMIT: usize = 5;
/// Second-level limit of the two-level plan.
const SECOND_LIMIT: usize = 3;
/// A rank stranded inside a collective would hang the run forever; a
/// cancelled run must come back well within this.
const BOUND: Duration = Duration::from_secs(60);

type Engine = Box<dyn Fn(&ExecControl) -> Result<StateVector, Cancelled> + Send + Sync>;

fn circuit() -> Circuit {
    generators::qft(QUBITS)
}

fn dist_engine() -> (Engine, StateVector) {
    let circuit = circuit();
    let dag = CircuitDag::from_circuit(&circuit);
    let partition = Strategy::DagP.partition(&dag, DIST_LIMIT).unwrap();
    let plan = FusedSinglePlan::build(&circuit, &dag, partition, DEFAULT_FUSION_WIDTH);
    assert!(plan.parts.len() >= 2, "need several part checkpoints");
    let sim = DistributedSimulator::new(DistConfig::new(RANKS).with_limit(DIST_LIMIT));
    let uncontrolled = sim.run_with_fused_plan(&circuit, &plan).state;
    let engine: Engine = Box::new(move |control| {
        sim.run_with_fused_plan_controlled(&circuit, &plan, control)
            .map(|run| run.state)
    });
    (engine, uncontrolled)
}

fn multilevel_engine() -> (Engine, StateVector) {
    let circuit = circuit();
    let dag = CircuitDag::from_circuit(&circuit);
    let local = QUBITS - RANKS.trailing_zeros() as usize;
    let ml = MultilevelPartitioner::default()
        .partition(&dag, local, SECOND_LIMIT)
        .unwrap();
    let plan = FusedTwoLevelPlan::build(&circuit, &dag, ml, DEFAULT_FUSION_WIDTH);
    let sim = MultilevelSimulator::new(MultilevelConfig::new(RANKS, SECOND_LIMIT));
    let uncontrolled = sim.run_with_fused_plan(&circuit, &plan).state;
    let engine: Engine = Box::new(move |control| {
        sim.run_with_fused_plan_controlled(&circuit, &plan, control)
            .map(|run| run.state)
    });
    (engine, uncontrolled)
}

fn baseline_engine() -> (Engine, StateVector) {
    let circuit = circuit();
    let sim = IqsBaseline::new(BaselineConfig::new(RANKS));
    let uncontrolled = sim.run(&circuit).state;
    let engine: Engine =
        Box::new(move |control| sim.run_controlled(&circuit, control).map(|run| run.state));
    (engine, uncontrolled)
}

/// Run `engine` on its own thread under `control`, failing the test if it
/// does not return within [`BOUND`].
fn run_bounded(
    name: &str,
    engine: &Arc<Engine>,
    control: ExecControl,
) -> Result<StateVector, Cancelled> {
    let (tx, rx) = mpsc::channel();
    let engine = Arc::clone(engine);
    std::thread::spawn(move || {
        let _ = tx.send(engine(&control));
    });
    rx.recv_timeout(BOUND)
        .unwrap_or_else(|_| panic!("{name}: run did not return within {BOUND:?}"))
}

fn check_engine(name: &str, (engine, uncontrolled): (Engine, StateVector)) {
    let engine = Arc::new(engine);

    // An inert control is the uncontrolled run, bit for bit.
    let inert = run_bounded(name, &engine, ExecControl::new()).expect("inert control");
    assert_eq!(
        inert, uncontrolled,
        "{name}: inert control changed the state"
    );

    // A live but never-fired control changes nothing either, and its
    // progress stream walks every checkpoint up to the total.
    let seen: Arc<Mutex<Vec<(u64, u64)>>> = Arc::default();
    let sink = Arc::clone(&seen);
    let observed = ExecControl::new()
        .with_cancel(CancelToken::new())
        .with_progress(move |done, total| sink.lock().unwrap().push((done, total)));
    let state = run_bounded(name, &engine, observed).expect("uncancelled control");
    assert_eq!(
        state, uncontrolled,
        "{name}: progress sink changed the state"
    );
    let seen = seen.lock().unwrap().clone();
    assert!(
        seen.len() >= 2,
        "{name}: need at least two checkpoints, saw {}",
        seen.len()
    );
    let &(done, total) = seen.last().unwrap();
    assert_eq!(done, total, "{name}: progress must end at the gate total");

    // Fire the token from the first progress report: every rank must stop
    // at the very next checkpoint.
    let token = CancelToken::new();
    let reports = Arc::new(AtomicUsize::new(0));
    let control = {
        let token = token.clone();
        let reports = Arc::clone(&reports);
        ExecControl::new()
            .with_cancel(token.clone())
            .with_progress(move |_, _| {
                reports.fetch_add(1, Ordering::SeqCst);
                token.cancel();
            })
    };
    let result = run_bounded(name, &engine, control);
    assert!(
        matches!(result, Err(Cancelled)),
        "{name}: a run cancelled mid-flight must return Err(Cancelled)"
    );
    assert!(token.is_cancelled());
    assert_eq!(
        reports.load(Ordering::SeqCst),
        1,
        "{name}: progress was reported after the cancel"
    );
}

#[test]
fn dist_engine_stops_every_rank_at_the_next_checkpoint() {
    check_engine("dist", dist_engine());
}

#[test]
fn multilevel_engine_stops_every_rank_at_the_next_checkpoint() {
    check_engine("multilevel", multilevel_engine());
}

#[test]
fn baseline_engine_stops_every_rank_at_the_next_checkpoint() {
    check_engine("baseline", baseline_engine());
}
