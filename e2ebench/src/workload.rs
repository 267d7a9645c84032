//! The three seeded workloads: which distinct ("hot") jobs each one
//! repeats, how the job stream is drawn from the seed, and how the service
//! under test is configured for it.

use hisvsim_circuit::{generators, Circuit};
use hisvsim_runtime::{Backend, EngineKind, PlanEffort, SimJob};
use std::sync::Arc;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Thorough planning on 14–16 qubit jobs; a quarter are plan-cache misses.
    PlanMix,
    /// 20–22 qubit `Auto` jobs on a warm cache: kernel sweeps dominate.
    LocalSweep,
    /// 18–19 qubit `Dist` jobs on a 2-process worker pool.
    PoolDist,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PlanMix, Workload::LocalSweep, Workload::PoolDist];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanMix => "plan-mix",
            Workload::LocalSweep => "local-sweep",
            Workload::PoolDist => "pool-dist",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size, or the tiny size of the smoke mode (same code paths, circuits
/// of 6–10 qubits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// One job the clients submit: the circuit plus the per-job knobs.
#[derive(Clone)]
pub struct JobSpec {
    pub circuit: Arc<Circuit>,
    /// Index into the hot set, or `None` for a fresh (never repeated) circuit.
    pub hot: Option<usize>,
    pub engine: Option<EngineKind>,
    pub limit: Option<usize>,
    pub shots: usize,
    pub observables: Vec<usize>,
    pub seed: u64,
    pub backend: Backend,
}

impl JobSpec {
    pub fn to_sim_job(&self) -> SimJob {
        let mut job = SimJob::new((*self.circuit).clone())
            .with_shots(self.shots)
            .with_observables(self.observables.clone())
            .with_seed(self.seed)
            .with_backend(self.backend);
        if let Some(engine) = self.engine {
            job = job.with_engine(engine);
        }
        if let Some(limit) = self.limit {
            job = job.with_limit(limit);
        }
        job
    }
}

/// A workload instantiated from a seed: its hot set, its job stream and the
/// service shape it runs against.
pub struct WorkloadPlan {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    /// Client threads driving the closed loop.
    pub clients: usize,
    /// `SimService` worker threads (and resident-state slots).
    pub service_workers: usize,
    /// Worker processes of the `WorkerPool` (0: no pool).
    pub processes: usize,
    pub effort: PlanEffort,
    /// Distinct repeated jobs; the warm-up pass runs each once.
    pub hot: Vec<JobSpec>,
    /// Every `fresh_every`-th job is a fresh circuit (0: never).
    fresh_every: u64,
}

/// SplitMix64: a tiny, well-mixed, seedable stream for job draws (the
/// circuits themselves come from the generators' own seeded RNG).
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn observables(n: usize) -> Vec<usize> {
    vec![0, n / 2, n - 1]
}

impl WorkloadPlan {
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Self {
        let smoke = scale == Scale::Smoke;
        // The hot circuits are a fixed catalogue, the same for every seed, so
        // runs with different seeds stay comparable; the seed drives the job
        // order, the shot seeds and every fresh circuit.
        let catalogue_seed = |slot: u64| splitmix(0x4869_5356_5349_4D00 ^ slot);
        let hot_job = |circuit: Circuit, slot: usize| JobSpec {
            observables: observables(circuit.num_qubits()),
            circuit: Arc::new(circuit),
            hot: Some(slot),
            engine: None,
            limit: None,
            shots: 0,
            seed: 0,
            backend: Backend::Local,
        };
        match workload {
            Workload::PlanMix => {
                // (circuit, engine, working-set limit): L2-sized working sets
                // so planning, not the sweeps, sets the cost of a miss.
                let shapes: Vec<(Circuit, EngineKind, usize)> = if smoke {
                    vec![
                        (generators::qft(8), EngineKind::Hier, 4),
                        (
                            generators::qaoa(8, 1, catalogue_seed(1)),
                            EngineKind::Multilevel,
                            4,
                        ),
                        (
                            generators::random_circuit(8, 60, catalogue_seed(2)),
                            EngineKind::Hier,
                            4,
                        ),
                        (
                            generators::grover(7, 1, catalogue_seed(3)),
                            EngineKind::Multilevel,
                            4,
                        ),
                    ]
                } else {
                    vec![
                        (generators::qft(16), EngineKind::Hier, 12),
                        (generators::qft(14), EngineKind::Multilevel, 11),
                        (
                            generators::qaoa(15, 2, catalogue_seed(1)),
                            EngineKind::Hier,
                            11,
                        ),
                        (
                            generators::qaoa(16, 1, catalogue_seed(2)),
                            EngineKind::Multilevel,
                            12,
                        ),
                        (
                            generators::random_circuit(16, 250, catalogue_seed(3)),
                            EngineKind::Hier,
                            12,
                        ),
                        (
                            generators::random_circuit(15, 200, catalogue_seed(4)),
                            EngineKind::Multilevel,
                            11,
                        ),
                        (
                            generators::grover(15, 1, catalogue_seed(5)),
                            EngineKind::Hier,
                            11,
                        ),
                        (
                            generators::grover(16, 1, catalogue_seed(6)),
                            EngineKind::Multilevel,
                            12,
                        ),
                    ]
                };
                let hot = shapes
                    .into_iter()
                    .enumerate()
                    .map(|(slot, (circuit, engine, limit))| JobSpec {
                        engine: Some(engine),
                        limit: Some(limit),
                        shots: 256,
                        ..hot_job(circuit, slot)
                    })
                    .collect();
                WorkloadPlan {
                    workload,
                    seed,
                    scale,
                    clients: 2,
                    service_workers: 2,
                    processes: 0,
                    effort: PlanEffort::Thorough,
                    hot,
                    fresh_every: 4,
                }
            }
            Workload::LocalSweep => {
                let circuits = if smoke {
                    vec![
                        generators::qft(10),
                        generators::qaoa(9, 1, catalogue_seed(1)),
                        generators::ising(10, 1),
                        generators::random_circuit(10, 80, catalogue_seed(2)),
                    ]
                } else {
                    vec![
                        generators::qft(20),
                        generators::qft(22),
                        generators::qaoa(20, 1, catalogue_seed(1)),
                        generators::ising(20, 1),
                        generators::random_circuit(20, 200, catalogue_seed(2)),
                    ]
                };
                let hot = circuits
                    .into_iter()
                    .enumerate()
                    .map(|(slot, circuit)| JobSpec {
                        shots: 64,
                        ..hot_job(circuit, slot)
                    })
                    .collect();
                WorkloadPlan {
                    workload,
                    seed,
                    scale,
                    clients: 2,
                    service_workers: 2,
                    processes: 0,
                    effort: PlanEffort::Fast,
                    hot,
                    fresh_every: 0,
                }
            }
            Workload::PoolDist => {
                let circuits = if smoke {
                    vec![
                        generators::qft(8),
                        generators::qaoa(8, 1, catalogue_seed(1)),
                        generators::random_circuit(8, 60, catalogue_seed(2)),
                    ]
                } else {
                    vec![
                        generators::qft(18),
                        generators::qft(19),
                        generators::qaoa(18, 1, catalogue_seed(1)),
                        generators::random_circuit(18, 200, catalogue_seed(2)),
                        generators::random_circuit(19, 150, catalogue_seed(3)),
                    ]
                };
                let hot = circuits
                    .into_iter()
                    .enumerate()
                    .map(|(slot, circuit)| JobSpec {
                        engine: Some(EngineKind::Dist),
                        backend: Backend::Process,
                        shots: 64,
                        ..hot_job(circuit, slot)
                    })
                    .collect();
                WorkloadPlan {
                    workload,
                    seed,
                    scale,
                    clients: 1,
                    service_workers: 1,
                    processes: 2,
                    effort: PlanEffort::Fast,
                    hot,
                    fresh_every: 0,
                }
            }
        }
    }

    /// The `index`-th job of the closed-loop stream. Deterministic in
    /// `(seed, index)`, so the stream is the same whichever client draws it.
    pub fn job(&self, index: u64) -> JobSpec {
        let draw = splitmix(self.seed ^ splitmix(index.wrapping_mul(0x2545_F491_4F6C_DD1D)));
        if self.fresh_every > 0 && index % self.fresh_every == self.fresh_every - 1 {
            return self.fresh_job(index / self.fresh_every, draw);
        }
        // Hot jobs come in cycles, each a seeded permutation of the whole
        // hot set, so every run sees the same mix whatever its length.
        let ordinal = match self.fresh_every {
            0 => index,
            f => index / f * (f - 1) + index % f,
        };
        let h = self.hot.len() as u64;
        let mut order: Vec<usize> = (0..self.hot.len()).collect();
        let cycle = splitmix(self.seed ^ splitmix(ordinal / h));
        for i in (1..order.len()).rev() {
            order.swap(i, (splitmix(cycle ^ i as u64) % (i as u64 + 1)) as usize);
        }
        let mut job = self.hot[order[(ordinal % h) as usize]].clone();
        job.seed = splitmix(draw);
        job
    }

    /// A plan-mix job on a circuit no other job shares (a plan-cache miss).
    /// Family and width cycle deterministically so every seed sees the same
    /// mix of planning costs; only the gates differ.
    fn fresh_job(&self, k: u64, draw: u64) -> JobSpec {
        let smoke = self.scale == Scale::Smoke;
        let n = if smoke { 8 } else { 14 + (k / 2 % 3) as usize };
        let gen_seed = splitmix(draw ^ 0xF2E5);
        // Single-level hier plans: under Thorough effort they pay for the
        // whole portfolio plus locality scoring.
        let circuit = if k.is_multiple_of(2) {
            generators::random_circuit(n, if smoke { 60 } else { 200 }, gen_seed)
        } else {
            generators::qaoa(n, 1, gen_seed)
        };
        JobSpec {
            observables: observables(n),
            circuit: Arc::new(circuit),
            hot: None,
            engine: Some(EngineKind::Hier),
            limit: Some(if smoke { 4 } else { n - 3 }),
            shots: 256,
            seed: splitmix(draw),
            backend: Backend::Local,
        }
    }
}
