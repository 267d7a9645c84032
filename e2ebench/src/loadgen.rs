//! The service under test: set-up with its warm-up pass and correctness
//! gate, and the closed client loop that produces the end-to-end numbers.

use crate::check::{near_reference, state_hash};
use crate::report::median;
use crate::workload::{JobSpec, WorkloadPlan};
use hisvsim_dag::CircuitDag;
use hisvsim_net::{execute_local_reference, ShippedJob, WorkerPool};
use hisvsim_runtime::{
    CachedPlan, EngineSelector, JobResult, PlanKey, Planner, ProcessBackend, SchedulerConfig,
};
use hisvsim_service::{ServiceConfig, SimService};
use hisvsim_statevec::{run_circuit, FusionStrategy, KernelDispatch, DEFAULT_FUSION_WIDTH};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A started service (plus worker pool) with a warm plan cache.
pub struct Bench {
    pub service: SimService,
    pub pool: Option<Arc<WorkerPool>>,
    /// Amplitude hash of each hot job's first run, by hot slot.
    pub expected: Vec<u64>,
}

impl Bench {
    pub fn shutdown(self) {
        if let Err(e) = self.service.shutdown() {
            eprintln!("service shutdown: {e}");
        }
        if let Some(pool) = self.pool {
            pool.shutdown();
        }
    }
}

/// Start the service (and, for a pool workload, the worker pool) and run
/// the warm-up pass: every hot job once, which plans and caches every hot
/// plan, spawns the worker world and touches every allocation size.
/// Returns the bench and the set-up seconds; the correctness gate runs
/// after the clock stops.
pub fn start(plan: &WorkloadPlan) -> Result<(Bench, f64), String> {
    let clock = Instant::now();
    let pool = (plan.processes > 0).then(|| {
        let exe = std::env::current_exe().expect("the benchmark binary has a path");
        Arc::new(WorkerPool::with_worker_binary(plan.processes, exe))
    });
    let mut scheduler = SchedulerConfig::default()
        .with_workers(plan.service_workers)
        .with_max_resident(plan.service_workers)
        .with_effort(plan.effort);
    if let Some(pool) = &pool {
        scheduler = scheduler.with_process_backend(Arc::clone(pool) as Arc<dyn ProcessBackend>);
    }
    let service = SimService::start(ServiceConfig::new().with_scheduler(scheduler));
    let handles: Vec<_> = plan
        .hot
        .iter()
        .map(|spec| service.submit(spec.to_sim_job()))
        .collect();
    let results: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    let seconds = clock.elapsed().as_secs_f64();
    drop(handles);

    let mut expected = Vec::with_capacity(results.len());
    for (spec, result) in plan.hot.iter().zip(results) {
        let result = result.map_err(|e| format!("warm-up {}: {e}", spec.circuit.name))?;
        expected.push(result_hash(&result)?);
    }
    Ok((
        Bench {
            service,
            pool,
            expected,
        },
        seconds,
    ))
}

fn result_hash(result: &JobResult) -> Result<u64, String> {
    result
        .state
        .as_ref()
        .map(state_hash)
        .ok_or_else(|| format!("{} returned no state", result.circuit_name))
}

/// The set-up correctness gate, run once per process outside every timed
/// region: each hot circuit's warm-up result must match the flat reference
/// within `TOL`; a pool job must also be bit-identical to
/// `execute_local_reference` of the same `ShippedJob` (the service's own
/// cached plan).
pub fn verify_setup(plan: &WorkloadPlan, bench: &Bench) -> Result<(), String> {
    for (slot, spec) in plan.hot.iter().enumerate() {
        let result = bench
            .service
            .submit(spec.to_sim_job())
            .wait()
            .map_err(|e| format!("{}: {e}", spec.circuit.name))?;
        let state = result.state.as_ref().ok_or("no state returned")?;
        if state_hash(state) != bench.expected[slot] {
            return Err(format!(
                "{}: repeated run is not bit-identical to the warm-up run",
                spec.circuit.name
            ));
        }
        near_reference(state, &run_circuit(&spec.circuit))
            .map_err(|e| format!("{}: {e}", spec.circuit.name))?;
        if let Some(pool) = &bench.pool {
            let shipped = shipped_job(plan, &bench.service, spec)?;
            let (reference, _) = execute_local_reference(&shipped, pool.workers(), network())
                .map_err(|e| format!("{}: local reference: {e}", spec.circuit.name))?;
            if state_hash(&reference) != bench.expected[slot] {
                return Err(format!(
                    "{}: pool result is not bit-identical to the in-process reference",
                    spec.circuit.name
                ));
            }
        }
    }
    Ok(())
}

pub fn network() -> hisvsim_cluster::NetworkModel {
    EngineSelector::default().network
}

/// The `ShippedJob` the service sends the pool for `spec`, rebuilt from the
/// service's plan cache (a miss means the key drifted, which is an error).
pub fn shipped_job(
    plan: &WorkloadPlan,
    service: &SimService,
    spec: &JobSpec,
) -> Result<ShippedJob, String> {
    let circuit = &*spec.circuit;
    let engine = spec.engine.ok_or("pool jobs force an engine")?;
    let mut decision = EngineSelector::default().decide(circuit, Some(engine));
    let local = circuit.num_qubits() - plan.processes.trailing_zeros() as usize;
    decision.limit = spec.limit.unwrap_or(decision.limit).min(local);
    let key = PlanKey {
        fingerprint: circuit.fingerprint(),
        limit: decision.limit,
        second_limit: 0,
        fusion: DEFAULT_FUSION_WIDTH,
        strategy: FusionStrategy::default(),
        effort: plan.effort,
    };
    let (cached, hit) = service
        .cache()
        .get_or_plan(key, || {
            let dag = CircuitDag::from_circuit(circuit);
            Planner::new(plan.effort)
                .plan_single_fused(circuit, &dag, key.limit, key.fusion, key.strategy)
                .map(|p| CachedPlan::Single(Arc::new(p)))
        })
        .map_err(|e| e.to_string())?;
    if !hit {
        return Err(format!("{}: plan not in the service cache", circuit.name));
    }
    Ok(ShippedJob {
        engine,
        circuit: circuit.clone(),
        fusion: DEFAULT_FUSION_WIDTH,
        strategy: FusionStrategy::default(),
        dispatch: KernelDispatch::default(),
        plan: Some(cached.to_persisted()),
        trace: hisvsim_obs::enabled(),
    })
}

/// One completed (or failed) job of the closed loop.
pub struct Sample {
    pub latency_s: f64,
    /// `None` when the job failed; otherwise what the layers reported.
    pub result: Option<JobResult>,
    /// Failed, or a wrong result.
    pub error: Option<String>,
    /// Submission time on the obs clock the job timeline is stamped with.
    pub submitted_us: u64,
    /// The job's slot in the hot catalogue; `None` for a fresh circuit.
    pub hot: Option<usize>,
}

/// What one closed-loop window produced.
pub struct LoopOutcome {
    pub samples: Vec<Sample>,
    pub window_s: f64,
}

impl LoopOutcome {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| s.error.is_some()).count() as u64
    }

    /// Sorted latencies of the jobs that completed correctly.
    pub fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.error.is_none())
            .map(|s| s.latency_s)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The geometric mean, over the `slots` circuits of the hot catalogue,
    /// of each circuit's median latency (correct jobs only); NaN when a
    /// circuit has no correct job in the window.
    pub fn hot_median_gmean(&self, slots: usize) -> f64 {
        let mut by_slot = vec![Vec::new(); slots];
        for sample in self.samples.iter().filter(|s| s.error.is_none()) {
            if let Some(slot) = sample.hot {
                by_slot[slot].push(sample.latency_s);
            }
        }
        let logs: f64 = by_slot.iter().map(|v| median(v).ln()).sum();
        (logs / slots as f64).exp()
    }
}

/// Run `plan.clients` closed-loop clients for `seconds`: each draws the
/// next job of the seeded stream, submits it, waits, and only then checks
/// the result (outside the latency) and draws again. `first_index` offsets
/// the stream so consecutive windows of one run submit different jobs.
pub fn closed_loop(
    plan: &WorkloadPlan,
    bench: &Bench,
    seconds: f64,
    first_index: u64,
) -> LoopOutcome {
    let next = AtomicU64::new(first_index);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..plan.clients {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let spec = plan.job(index);
                    let job = spec.to_sim_job();
                    let span = hisvsim_obs::span("bench", "job");
                    let submitted_us = hisvsim_obs::now_us();
                    let submitted = Instant::now();
                    let handle = bench.service.submit(job);
                    let outcome = handle.wait();
                    let latency_s = submitted.elapsed().as_secs_f64();
                    // `#<id>` is the service job id the runtime's own
                    // `job` spans carry, linking the two in the trace.
                    drop(span.detail(format!(
                        "job={}-{index} #{} {}",
                        plan.workload.name(),
                        handle.id(),
                        spec.circuit.name
                    )));
                    drop(handle);
                    let (result, error) = match outcome {
                        Ok(result) => {
                            let error = check_result(bench, &spec, &result).err();
                            (Some(result), error)
                        }
                        Err(e) => (None, Some(e.to_string())),
                    };
                    if let Some(error) = &error {
                        eprintln!("job {index} ({}): {error}", spec.circuit.name);
                    }
                    mine.push(Sample {
                        latency_s,
                        result: result.map(drop_state),
                        error,
                        submitted_us,
                        hot: spec.hot,
                    });
                }
                samples.lock().expect("sample list").extend(mine);
            });
        }
    });
    LoopOutcome {
        samples: samples.into_inner().expect("sample list"),
        window_s: start.elapsed().as_secs_f64(),
    }
}

/// Keep a sample's report but not its amplitudes (bounded memory).
fn drop_state(mut result: JobResult) -> JobResult {
    result.state = None;
    result
}

/// A hot job must be bit-identical to its warm-up run; a fresh one must
/// match the flat reference within `TOL`. Shots must add up.
fn check_result(bench: &Bench, spec: &JobSpec, result: &JobResult) -> Result<(), String> {
    let state = result.state.as_ref().ok_or("no state returned")?;
    match spec.hot {
        Some(slot) => {
            if state_hash(state) != bench.expected[slot] {
                return Err("amplitudes differ from the first run of this job".to_string());
            }
        }
        None => near_reference(state, &run_circuit(&spec.circuit))?,
    }
    let shots: usize = result.counts.values().sum();
    if shots != spec.shots || result.z_expectations.len() != spec.observables.len() {
        return Err(format!(
            "{shots} shots / {} expectations, asked for {} / {}",
            result.z_expectations.len(),
            spec.shots,
            spec.observables.len()
        ));
    }
    Ok(())
}
