//! The traced run's per-layer probes. Each probe times one call into a
//! crate's public API from outside, over the workload's distinct circuits,
//! and records a benchmark span around it; spans of one circuit share a
//! job id. Times are sums over the probed circuits (one pass each).

use crate::check::near_reference;
use crate::loadgen::{network, Bench};
use crate::report::Metrics;
use crate::workload::{Scale, Workload, WorkloadPlan};
use hisvsim_circuit::{generators, Circuit, Complex64};
use hisvsim_cluster::{run_spmd, RankComm};
use hisvsim_core::profile::{hierarchical_access_trace, TraceOptions};
use hisvsim_core::{
    BaselineConfig, DistConfig, DistState, DistributedSimulator, HierConfig, HierarchicalSimulator,
    IqsBaseline,
};
use hisvsim_dag::CircuitDag;
use hisvsim_memmodel::{replay_amplitude_indices, HierarchyConfig};
use hisvsim_net::{ShippedJob, WorkerPool};
use hisvsim_partition::Strategy;
use hisvsim_runtime::{
    Backend, EngineKind, EngineSelector, PersistedPlan, PlanEffort, Planner, SimJob,
};
use hisvsim_service::{JobEvent, JobFailure};
use hisvsim_statevec::prelude::apply_circuit_with;
use hisvsim_statevec::{
    ApplyOptions, FusedCircuit, FusionStrategy, KernelDispatch, StateVector, DEFAULT_FUSION_WIDTH,
};
use std::time::Instant;

/// Time `f` and record a `bench` span named after the layer call, tagged
/// with the probe's job id.
fn timed<R>(name: &'static str, job: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = hisvsim_obs::span("bench", name).detail(job.to_string());
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Per-layer sums over the probed circuits.
#[derive(Default)]
struct Sums {
    fuse_s: f64,
    sweep_s: f64,
    swept_bytes: f64,
    fused_ops: f64,
    unfused_s: f64,
    dag_s: f64,
    part_s: [f64; 3],
    parts: [f64; 3],
    replay_s: f64,
    planner_fast_s: f64,
    planner_thorough_s: f64,
    engine_s: [f64; 3],
    exchanges: f64,
    comm_wall_s: f64,
    bytes_sent: f64,
    messages_sent: f64,
    regret: f64,
    ship_gather_s: f64,
    rank_compute_s: f64,
    rank_comm_wall_s: f64,
}

/// The working-set limit the service plans this circuit at.
fn plan_limit(plan: &WorkloadPlan, circuit: &Circuit, slot: usize) -> usize {
    let spec = &plan.hot[slot];
    let engine = spec.engine.unwrap_or(EngineKind::Hier);
    let limit = spec.limit.unwrap_or(
        EngineSelector::default()
            .decide(circuit, Some(engine))
            .limit,
    );
    if plan.processes > 0 {
        limit.min(circuit.num_qubits() - plan.processes.trailing_zeros() as usize)
    } else {
        limit
    }
}

/// Run every layer probe and add its metrics. Errors are wrong results
/// (cross-engine disagreement) or failed calls.
pub fn probe_layers(plan: &WorkloadPlan, bench: &Bench, m: &mut Metrics) -> Result<(), String> {
    let selector = EngineSelector::default();
    let net = network();
    let workload = plan.workload.name();
    // The pool-dist workload probes its own resident pool; the others spawn
    // a 2-process pool for the transport probe.
    let own_pool;
    let pool: &WorkerPool = match &bench.pool {
        Some(pool) => pool,
        None => {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            own_pool = WorkerPool::with_worker_binary(2, exe);
            &own_pool
        }
    };
    let mut s = Sums::default();
    let mut engine_rows = Vec::new();
    for (slot, spec) in plan.hot.iter().enumerate() {
        let c = &*spec.circuit;
        let n = c.num_qubits();
        let job = format!("job={workload}-probe{slot} {}", c.name);

        // statevec: fuse, fused sweep (the kernels' own threading), and the
        // plain unfused single-threaded baseline, which doubles as the
        // reference every engine below is checked against.
        let (fused, t) = timed("statevec:fuse", &job, || {
            FusedCircuit::with_strategy(c, DEFAULT_FUSION_WIDTH, FusionStrategy::Auto)
        });
        s.fuse_s += t;
        let mut state = StateVector::zero_state(n);
        let ((), t) = timed("statevec:sweep", &job, || {
            fused.apply(&mut state, &ApplyOptions::default())
        });
        s.sweep_s += t;
        s.fused_ops += fused.num_ops() as f64;
        s.swept_bytes += fused.num_ops() as f64 * (32u64 << n) as f64;
        let mut reference = StateVector::zero_state(n);
        let ((), t) = timed("statevec:unfused", &job, || {
            apply_circuit_with(&mut reference, c, &ApplyOptions::sequential())
        });
        s.unfused_s += t;
        let check = |what: &str, got: &StateVector| {
            near_reference(got, &reference).map_err(|e| format!("{} {what}: {e}", c.name))
        };
        check("fused sweep", &state)?;
        drop(state);

        // dag and partition: every strategy at the limit the service plans
        // at; the three partitions are the finalists memmodel scores.
        let (dag, t) = timed("dag:build", &job, || CircuitDag::from_circuit(c));
        s.dag_s += t;
        let limit = plan_limit(plan, c, slot);
        let mut finalists = Vec::new();
        for (i, strategy) in Strategy::ALL.iter().enumerate() {
            let (p, t) = timed("partition", &job, || strategy.partition(&dag, limit));
            let p = p.map_err(|e| format!("{} {}: {e}", c.name, strategy.name()))?;
            s.part_s[i] += t;
            s.parts[i] += p.num_parts() as f64;
            finalists.push(p);
        }
        for p in &finalists {
            let (_, t) = timed("memmodel:replay", &job, || {
                let trace = hierarchical_access_trace(c, &dag, p, TraceOptions::default());
                replay_amplitude_indices(HierarchyConfig::cascade_lake(), trace)
            });
            s.replay_s += t;
        }
        for (effort, sum) in [
            (PlanEffort::Fast, &mut s.planner_fast_s),
            (PlanEffort::Thorough, &mut s.planner_thorough_s),
        ] {
            let (p, t) = timed("runtime:plan_single", &job, || {
                Planner::new(effort).plan_single(c, &dag, limit)
            });
            p.map_err(|e| format!("{} planner: {e}", c.name))?;
            *sum += t;
        }

        // core: each engine on a prebuilt plan, with the limits the selector
        // gives it when forced; Auto's pick is compared with the fastest.
        let mut times = [0.0f64; 3];
        let (run, t) = timed("core:baseline", &job, || {
            IqsBaseline::new(BaselineConfig::new(1).with_network(net)).run(c)
        });
        check("baseline", &run.state)?;
        drop(run);
        times[0] = t;
        let hier = selector.decide(c, Some(EngineKind::Hier));
        let hier_plan = Planner::new(PlanEffort::Fast)
            .plan_single_fused(
                c,
                &dag,
                hier.limit,
                DEFAULT_FUSION_WIDTH,
                FusionStrategy::Auto,
            )
            .map_err(|e| e.to_string())?;
        let (run, t) = timed("core:hier", &job, || {
            HierarchicalSimulator::new(HierConfig::new(hier.limit).with_strategy(Strategy::DagP))
                .run_with_fused_plan(c, &hier_plan)
        });
        check("hier", &run.state)?;
        drop(run);
        times[1] = t;
        let dist = selector.decide(c, Some(EngineKind::Dist));
        let dist_plan = Planner::new(PlanEffort::Fast)
            .plan_single_fused(
                c,
                &dag,
                dist.limit,
                DEFAULT_FUSION_WIDTH,
                FusionStrategy::Auto,
            )
            .map_err(|e| e.to_string())?;
        let (run, t) = timed("core:dist", &job, || {
            DistributedSimulator::new(
                DistConfig::new(dist.ranks)
                    .with_limit(dist.limit)
                    .with_network(net),
            )
            .run_with_fused_plan(c, &dist_plan)
        });
        check("dist", &run.state)?;
        times[2] = t;
        s.exchanges += run.report.num_exchanges as f64;
        s.comm_wall_s += run.report.comm.wall_time_s;
        s.bytes_sent += run.report.comm.bytes_sent as f64;
        s.messages_sent += run.report.comm.messages_sent as f64;
        drop(run);
        for (sum, t) in s.engine_s.iter_mut().zip(times) {
            *sum += t;
        }
        let auto = selector.decide(c, None).engine;
        let best = times.iter().copied().fold(f64::INFINITY, f64::min);
        let auto_s = match auto {
            EngineKind::Baseline => times[0],
            EngineKind::Hier => times[1],
            EngineKind::Dist => times[2],
            EngineKind::Multilevel => f64::NAN,
        };
        s.regret = s.regret.max(auto_s / best);
        engine_rows.push(format!(
            "engine-choice {workload} {} auto={} baseline_s={:.4} hier_s={:.4} dist_s={:.4} regret={:.3}",
            c.name,
            auto.name(),
            times[0],
            times[1],
            times[2],
            auto_s / best
        ));

        // net: the same dist partition shipped to worker processes.
        let shipped = ShippedJob {
            engine: EngineKind::Dist,
            circuit: c.clone(),
            fusion: DEFAULT_FUSION_WIDTH,
            strategy: FusionStrategy::Auto,
            dispatch: KernelDispatch::default(),
            plan: Some(PersistedPlan::Single(dist_plan.partition.clone())),
            trace: hisvsim_obs::enabled(),
        };
        let (outcome, t) = timed("net:execute_detailed", &job, || {
            pool.execute_detailed(&shipped, net)
        });
        let (state, _, ranks) = outcome.map_err(|e| format!("{} pool: {e}", c.name))?;
        check("pool", &state)?;
        s.ship_gather_s += t;
        s.rank_compute_s += ranks.iter().map(|r| r.compute_time_s).fold(0.0, f64::max);
        s.rank_comm_wall_s += ranks.iter().map(|r| r.comm.wall_time_s).fold(0.0, f64::max);
    }
    for row in engine_rows {
        println!("{row}");
    }

    m.set("statevec.sweep_s", s.sweep_s, "s");
    m.set(
        "statevec.gbps_computed",
        s.swept_bytes / s.sweep_s / 1e9,
        "GB/s",
    );
    m.set("statevec.fused_ops", s.fused_ops, "count");
    m.set("statevec.fuse_s", s.fuse_s, "s");
    m.set("statevec.unfused_s", s.unfused_s, "s");
    m.set("dag.build_s", s.dag_s, "s");
    for (i, name) in ["nat", "dfs", "dagp"].iter().enumerate() {
        m.set(format!("partition.{name}_s"), s.part_s[i], "s");
        m.set(format!("partition.{name}_parts"), s.parts[i], "count");
    }
    m.set("memmodel.replay_s", s.replay_s, "s");
    for (i, name) in ["baseline", "hier", "dist"].iter().enumerate() {
        m.set(format!("core.engine_s.{name}"), s.engine_s[i], "s");
    }
    m.set("core.exchanges", s.exchanges, "count");
    m.set("cluster.comm_wall_s", s.comm_wall_s, "s");
    m.set("cluster.bytes_sent", s.bytes_sent, "bytes");
    m.set("cluster.messages_sent", s.messages_sent, "count");
    m.set("runtime.planner_fast_s", s.planner_fast_s, "s");
    m.set("runtime.planner_thorough_s", s.planner_thorough_s, "s");
    m.set("runtime.auto_regret", s.regret, "ratio");
    let stats = pool.metrics();
    m.set("net.ship_gather_s", s.ship_gather_s, "s");
    m.set("net.rank_compute_s", s.rank_compute_s, "s");
    m.set("net.rank_comm_wall_s", s.rank_comm_wall_s, "s");
    m.set(
        "net.unattributed_s",
        s.ship_gather_s - s.rank_compute_s - s.rank_comm_wall_s,
        "s",
    );
    m.set(
        "net.launch_s",
        stats.launch_seconds_total / stats.worlds_spawned.max(1) as f64,
        "s",
    );
    m.set("net.worlds_spawned", stats.worlds_spawned as f64, "count");
    Ok(())
}

/// A k-local/k-global layout swap on 2 in-process ranks (k = 1, the only
/// global bit): the top local qubit trades places with the global one, so
/// half of every slice crosses ranks. One untimed swap warms the slices;
/// the next two are timed. Returns (seconds per exchange, GB/s sent).
pub fn exchange_probe(n: usize, job: &str) -> (f64, f64) {
    let per_rank = run_spmd::<Complex64, (f64, u64), _>(2, network(), |mut comm| {
        let mut state = DistState::new(&mut comm, n);
        swap_top_local(&mut state);
        let sent_before = state.comm_stats().bytes_sent;
        let _span = hisvsim_obs::span("bench", "core:redistribute").detail(job.to_string());
        let start = Instant::now();
        swap_top_local(&mut state);
        swap_top_local(&mut state);
        let seconds = start.elapsed().as_secs_f64();
        (seconds, state.comm_stats().bytes_sent - sent_before)
    });
    let seconds = per_rank.iter().map(|r| r.0).fold(0.0, f64::max) / 2.0;
    let bytes: u64 = per_rank.iter().map(|r| r.1).sum::<u64>() / 2;
    (seconds, bytes as f64 / seconds / 1e9)
}

/// Swap the top local position with the lowest global one.
fn swap_top_local<C: RankComm<Complex64>>(state: &mut DistState<'_, C>) {
    let l = state.local_qubits();
    let mut layout = state.layout().to_vec();
    let a = layout
        .iter()
        .position(|&p| p == l - 1)
        .expect("layout is a permutation");
    let b = layout
        .iter()
        .position(|&p| p == l)
        .expect("layout is a permutation");
    layout.swap(a, b);
    state.redistribute(layout);
}

/// Submit one long job of the workload's kind, cancel it as soon as it
/// starts executing, and time `cancel()` until `wait()` returns. Returns
/// the seconds and whether the job really ended cancelled.
pub fn cancel_probe(plan: &WorkloadPlan, bench: &Bench) -> (f64, bool) {
    let smoke = plan.scale == Scale::Smoke;
    let job = match plan.workload {
        Workload::PoolDist => SimJob::new(generators::qft(if smoke { 10 } else { 21 }))
            .with_engine(EngineKind::Dist)
            .with_backend(Backend::Process),
        _ => {
            let n = if smoke { 10 } else { 20 };
            SimJob::new(generators::qft(n))
                .with_engine(EngineKind::Hier)
                .with_limit(n / 2)
        }
    };
    let handle = bench.service.submit(job);
    let events = handle.progress();
    while let Ok(event) = events.recv() {
        if matches!(event, JobEvent::Executing { .. }) {
            break;
        }
    }
    let _span = hisvsim_obs::span("bench", "service:cancel")
        .detail(format!("job={}-cancel", plan.workload.name()));
    let start = Instant::now();
    handle.cancel();
    let outcome = handle.wait();
    let seconds = start.elapsed().as_secs_f64();
    (seconds, matches!(outcome, Err(JobFailure::Cancelled)))
}
