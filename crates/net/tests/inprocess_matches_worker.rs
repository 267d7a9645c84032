//! The in-process SPMD engines and the process workers share one rank body
//! per engine. This suite checks that in process, with no worker spawned:
//! each engine's in-process entry point (`DistributedSimulator`,
//! `MultilevelSimulator`, `IqsBaseline`) must give the same amplitudes, bit
//! for bit, and the same communication schedule as `execute_local_reference`
//! of the equivalent `ShippedJob` — the worker's own dispatch path, run over
//! the channel world. Same partition, fusion width, strategy and dispatch on
//! both sides.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_cluster::NetworkModel;
use hisvsim_core::{
    BaselineConfig, DistConfig, DistributedSimulator, FusedSinglePlan, FusedTwoLevelPlan,
    IqsBaseline, MultilevelConfig, MultilevelSimulator, RunReport,
};
use hisvsim_dag::CircuitDag;
use hisvsim_net::{execute_local_reference, ShippedJob};
use hisvsim_partition::{MultilevelPartitioner, Strategy};
use hisvsim_runtime::{EngineKind, PersistedPlan};
use hisvsim_statevec::{FusionStrategy, KernelDispatch, StateVector, DEFAULT_FUSION_WIDTH};

const WIDTH: usize = DEFAULT_FUSION_WIDTH;
const SECOND_LIMIT: usize = 4;

fn circuits() -> Vec<Circuit> {
    vec![generators::qft(10), generators::random_circuit(10, 120, 3)]
}

/// Every (ranks, strategy, dispatch) combination the suite covers.
fn cases() -> Vec<(usize, FusionStrategy, KernelDispatch)> {
    let mut cases = Vec::new();
    for ranks in [2usize, 4] {
        for strategy in [FusionStrategy::Window, FusionStrategy::Dag] {
            for dispatch in [KernelDispatch::Auto, KernelDispatch::Scalar] {
                cases.push((ranks, strategy, dispatch));
            }
        }
    }
    cases
}

fn shipped(
    engine: EngineKind,
    circuit: &Circuit,
    strategy: FusionStrategy,
    dispatch: KernelDispatch,
    plan: Option<PersistedPlan>,
) -> ShippedJob {
    ShippedJob {
        engine,
        circuit: circuit.clone(),
        fusion: WIDTH,
        strategy,
        dispatch,
        plan,
        trace: false,
    }
}

fn assert_same_run(
    label: &str,
    (state, report): (StateVector, RunReport),
    job: &ShippedJob,
    ranks: usize,
) {
    let (reference, reference_report) =
        execute_local_reference(job, ranks, NetworkModel::hdr100()).expect("worker body runs");
    assert_eq!(state, reference, "{label}: amplitudes differ");
    assert_eq!(
        report.comm.bytes_sent, reference_report.comm.bytes_sent,
        "{label}: bytes sent differ"
    );
    assert_eq!(
        report.comm.messages_sent, reference_report.comm.messages_sent,
        "{label}: messages sent differ"
    );
    assert_eq!(
        report.num_exchanges, reference_report.num_exchanges,
        "{label}: exchange counts differ"
    );
}

fn local_qubits(circuit: &Circuit, ranks: usize) -> usize {
    circuit.num_qubits() - ranks.trailing_zeros() as usize
}

#[test]
fn dist_engine_matches_the_worker_rank_body() {
    for circuit in circuits() {
        let dag = CircuitDag::from_circuit(&circuit);
        for (ranks, strategy, dispatch) in cases() {
            let partition = Strategy::DagP
                .partition(&dag, local_qubits(&circuit, ranks))
                .unwrap();
            let plan = FusedSinglePlan::build_with_strategy(
                &circuit,
                &dag,
                partition.clone(),
                WIDTH,
                strategy,
            );
            let run = DistributedSimulator::new(
                DistConfig::new(ranks)
                    .with_fusion_strategy(strategy)
                    .with_kernel_dispatch(dispatch),
            )
            .run_with_fused_plan(&circuit, &plan);
            let job = shipped(
                EngineKind::Dist,
                &circuit,
                strategy,
                dispatch,
                Some(PersistedPlan::Single(partition)),
            );
            let label = format!(
                "dist {} {ranks} ranks {strategy} {dispatch:?}",
                circuit.name
            );
            assert_same_run(&label, (run.state, run.report), &job, ranks);
        }
    }
}

#[test]
fn multilevel_engine_matches_the_worker_rank_body() {
    for circuit in circuits() {
        let dag = CircuitDag::from_circuit(&circuit);
        for (ranks, strategy, dispatch) in cases() {
            let ml = MultilevelPartitioner::default()
                .partition(&dag, local_qubits(&circuit, ranks), SECOND_LIMIT)
                .unwrap();
            let plan =
                FusedTwoLevelPlan::build_with_strategy(&circuit, &dag, ml.clone(), WIDTH, strategy);
            let run = MultilevelSimulator::new(
                MultilevelConfig::new(ranks, SECOND_LIMIT)
                    .with_fusion_strategy(strategy)
                    .with_kernel_dispatch(dispatch),
            )
            .run_with_fused_plan(&circuit, &plan);
            let job = shipped(
                EngineKind::Multilevel,
                &circuit,
                strategy,
                dispatch,
                Some(PersistedPlan::Two(ml)),
            );
            let label = format!(
                "multilevel {} {ranks} ranks {strategy} {dispatch:?}",
                circuit.name
            );
            assert_same_run(&label, (run.state, run.report), &job, ranks);
        }
    }
}

#[test]
fn baseline_engine_matches_the_worker_rank_body() {
    for circuit in circuits() {
        for (ranks, strategy, dispatch) in cases() {
            let run = IqsBaseline::new(
                BaselineConfig::new(ranks)
                    .with_fusion(WIDTH)
                    .with_fusion_strategy(strategy)
                    .with_kernel_dispatch(dispatch),
            )
            .run(&circuit);
            let job = shipped(EngineKind::Baseline, &circuit, strategy, dispatch, None);
            let label = format!(
                "baseline {} {ranks} ranks {strategy} {dispatch:?}",
                circuit.name
            );
            assert_same_run(&label, (run.state, run.report), &job, ranks);
        }
    }
}
