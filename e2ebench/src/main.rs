//! End-to-end job benchmark for HiSVSIM-RS.
//!
//! ```text
//! e2ebench --workload <plan-mix|local-sweep|pool-dist|all> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --smoke
//! ```
//!
//! `--trace 0` drives `SimService` jobs through the workload's closed loop
//! and prints the end-to-end metrics; `--trace 1` runs the same workload
//! with the span recorder on, times every layer from outside, and prints
//! the per-layer metrics. Each workload's run ends with its JSON result
//! line (`all` runs the three in turn). See
//! `README.md` beside this file for the metric → layer → workload map.
//!
//! `e2ebench worker <control_addr> <rank>` is the worker-process mode the
//! pool spawns (the benchmark binary is its own worker binary).

mod check;
mod layers;
mod loadgen;
mod report;
mod workload;

use loadgen::{closed_loop, start, verify_setup, Bench, LoopOutcome};
use report::{mean, median, peak_rss_mib, percentile, Metrics};
use std::process::ExitCode;
use workload::{Scale, Workload, WorkloadPlan};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Where traced runs write their Chrome trace.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The metric names this benchmark is held to.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Options {
    /// `None`: every workload in turn.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The outcome of one run: metrics plus the result-line counters.
struct RunResult {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("--smoke") {
        return smoke();
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\nusage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --smoke");
            return ExitCode::FAILURE;
        }
    };
    let workloads = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut correct = true;
    for workload in workloads {
        let plan = WorkloadPlan::new(workload, options.seed, Scale::Full);
        let result = if options.trace {
            traced_run(&plan, options.seconds)
        } else {
            measured_run(&plan, options.seconds)
        };
        match result {
            Ok(run) => {
                run.metrics.print(workload.name());
                println!(
                    "{}",
                    run.metrics
                        .result_line(run.correct, run.attempted, run.failed)
                );
                correct &= run.correct;
            }
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                correct = false;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                workload = Some(Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn worker(args: &[String]) -> ExitCode {
    let (Some(addr), Some(rank)) = (args.first(), args.get(1).and_then(|r| r.parse().ok())) else {
        eprintln!("usage: e2ebench worker <control_addr> <rank>");
        return ExitCode::FAILURE;
    };
    match hisvsim_net::run_worker(addr, rank) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {rank}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Start the service and run the set-up correctness gate.
fn set_up(plan: &WorkloadPlan) -> Result<(Bench, f64), String> {
    let (bench, seconds) = start(plan)?;
    verify_setup(plan, &bench)?;
    Ok((bench, seconds))
}

fn print_loop(plan: &WorkloadPlan, label: &str, outcome: &LoopOutcome) {
    let attempted = outcome.samples.len();
    let failed = outcome.failed();
    println!(
        "{label} {}: {} clients, {} service workers, {} processes; {attempted} jobs in {:.2} s; \
         error_rate = {} ({failed} of {attempted})",
        plan.workload.name(),
        plan.clients,
        plan.service_workers,
        plan.processes,
        outcome.window_s,
        failed as f64 / attempted.max(1) as f64,
    );
    // Fresh plan-mix circuits share names with hot ones; keep them apart.
    let mut by_circuit: std::collections::BTreeMap<(&str, bool), Vec<f64>> = Default::default();
    for sample in &outcome.samples {
        if let Some(result) = &sample.result {
            by_circuit
                .entry((result.circuit_name.as_str(), sample.hot.is_none()))
                .or_default()
                .push(sample.latency_s);
        }
    }
    for ((circuit, fresh), latencies) in by_circuit {
        let fresh = if fresh { " (fresh)" } else { "" };
        println!(
            "  {circuit}{fresh}: {} jobs, median latency {:.4} s",
            latencies.len(),
            median(&latencies)
        );
    }
}

/// The untraced run: end-to-end metrics only.
fn measured_run(plan: &WorkloadPlan, seconds: f64) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    for repeat in 0..SETUP_REPEATS {
        let (next, s) = if repeat == 0 {
            set_up(plan)?
        } else {
            start(plan)?
        };
        setup_s.push(s);
        if let Some(previous) = bench.replace(next) {
            let same = bench.as_ref().map(|b| &b.expected) == Some(&previous.expected);
            previous.shutdown();
            if !same {
                return Err("a repeated set-up changed the warm-up results".to_string());
            }
        }
    }
    let bench = bench.expect("at least one set-up");
    println!("set-ups {}: {setup_s:?} s", plan.workload.name());
    let steal_before = cpu_ticks();
    let outcome = closed_loop(plan, &bench, seconds, 0);
    if let (Some(before), Some(after)) = (steal_before, cpu_ticks()) {
        let (steal, total) = (after.0 - before.0, after.1 - before.1);
        println!(
            "cpu steal during the window: {:.3} of {total} ticks (hypervisor contention; \
             latencies rise with it)",
            steal as f64 / total.max(1) as f64
        );
    }
    let mut rss = peak_rss_mib(None).unwrap_or(f64::NAN);
    if let Some(pool) = &bench.pool {
        for pid in pool.worker_pids() {
            rss += peak_rss_mib(Some(pid)).unwrap_or(f64::NAN);
        }
    }
    bench.shutdown();
    print_loop(plan, "measured", &outcome);

    let latencies = outcome.latencies();
    println!(
        "samples {}: {} latencies, {} beyond p90",
        plan.workload.name(),
        latencies.len(),
        latencies.len() - (0.9 * latencies.len() as f64).ceil() as usize
    );
    let mut m = Metrics::default();
    // Each hot circuit's latencies form a mode of their own; the median of
    // all jobs falls in a gap between two modes, where a shift of a few
    // jobs moves it by a fifth. The per-circuit medians do not.
    m.set("job_p50_s", outcome.hot_median_gmean(plan.hot.len()), "s");
    m.set("job_p90_s", percentile(&latencies, 0.9), "s");
    m.set(
        "jobs_per_s",
        latencies.len() as f64 / outcome.window_s,
        "1/s",
    );
    m.set("setup_s", median(&setup_s), "s");
    m.set("peak_rss_mib", rss, "MiB");
    let failed = outcome.failed();
    Ok(RunResult {
        metrics: m,
        correct: failed == 0 && !latencies.is_empty(),
        attempted: outcome.samples.len() as u64,
        failed,
    })
}

/// The traced run: half the window untraced, half with the span recorder
/// on, then every layer probe; per-layer metrics.
fn traced_run(plan: &WorkloadPlan, seconds: f64) -> Result<RunResult, String> {
    let (bench, _) = set_up(plan)?;
    let untraced = closed_loop(plan, &bench, seconds / 2.0, 0);
    print_loop(plan, "untraced", &untraced);

    hisvsim_obs::set_enabled(true);
    let _ = hisvsim_obs::drain();
    let cache_before = bench.service.cache_stats();
    let traced = closed_loop(plan, &bench, seconds / 2.0, 1 << 32);
    let cache = bench.service.cache_stats().since(&cache_before);
    let mut spans = hisvsim_obs::drain();
    print_loop(plan, "traced", &traced);

    let mut m = Metrics::default();
    let done: Vec<_> = traced
        .samples
        .iter()
        .filter(|s| s.error.is_none())
        .filter_map(|s| s.result.as_ref().map(|r| (s, r)))
        .collect();
    let phase = |r: &hisvsim_runtime::JobResult, name: &str| {
        r.timeline()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.dur_us as f64 / 1e6)
            .sum::<f64>()
    };
    let per_job = |f: &dyn Fn(&loadgen::Sample, &hisvsim_runtime::JobResult) -> f64| {
        mean(&done.iter().map(|(s, r)| f(s, r)).collect::<Vec<_>>())
    };
    // Queue wait: submission to the start of the runner's plan phase, both
    // on the obs clock (a client woken by the `Planning` event on a loaded
    // 2-core box would add its own wake-up delay).
    let queue = |s: &loadgen::Sample, r: &hisvsim_runtime::JobResult| {
        r.timeline()
            .iter()
            .find(|span| span.name == "plan")
            .map_or(f64::NAN, |span| {
                span.ts_us.saturating_sub(s.submitted_us) as f64 / 1e6
            })
    };
    m.set("runtime.plan_s", per_job(&|_, r| r.plan_time_s), "s");
    m.set(
        "runtime.execute_s",
        per_job(&|_, r| phase(r, "execute")),
        "s",
    );
    m.set(
        "runtime.postprocess_s",
        per_job(&|_, r| phase(r, "postprocess")),
        "s",
    );
    m.set("runtime.cache_hit_ratio", cache.hit_rate(), "ratio");
    m.set("service.queue_wait_s", per_job(&|s, r| queue(s, r)), "s");
    m.set(
        "service.overhead_s",
        per_job(&|s, r| s.latency_s - r.wall_time_s),
        "s",
    );
    m.set(
        "unattributed_s",
        per_job(&|s, r| {
            s.latency_s
                - queue(s, r)
                - r.plan_time_s
                - phase(r, "execute")
                - phase(r, "postprocess")
        }),
        "s",
    );
    let program_spans = spans.iter().filter(|s| s.cat != "bench").count();
    m.set(
        "obs.spans_per_job",
        program_spans as f64 / done.len().max(1) as f64,
        "count",
    );
    m.set(
        "obs.trace_overhead_ratio",
        traced.hot_median_gmean(plan.hot.len()) / untraced.hot_median_gmean(plan.hot.len()),
        "ratio",
    );

    let (cancel_s, cancelled) = layers::cancel_probe(plan, &bench);
    m.set("service.cancel_latency_s", cancel_s, "s");
    let mut correct = cancelled || plan.scale == Scale::Smoke;
    if !cancelled {
        println!("cancel probe: the job finished before the cancel landed");
    }
    for n in [20, 22] {
        let (s, gbps) =
            layers::exchange_probe(n, &format!("job={}-exchange{n}", plan.workload.name()));
        m.set(format!("core.exchange_s.q{n}"), s, "s");
        m.set(format!("core.exchange_gbps.q{n}"), gbps, "GB/s");
    }
    if let Err(e) = layers::probe_layers(plan, &bench, &mut m) {
        eprintln!("layer probe: {e}");
        correct = false;
    }
    spans.extend(hisvsim_obs::drain());
    hisvsim_obs::set_enabled(false);
    bench.shutdown();
    write_trace(plan, &spans);

    let failed = untraced.failed() + traced.failed();
    Ok(RunResult {
        metrics: m,
        correct: correct && failed == 0 && !done.is_empty(),
        attempted: (untraced.samples.len() + traced.samples.len()) as u64,
        failed,
    })
}

/// (steal, total) CPU ticks from the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn write_trace(plan: &WorkloadPlan, spans: &[hisvsim_obs::SpanRecord]) {
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        plan.workload.name(),
        plan.seed
    );
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, hisvsim_obs::chrome_trace_json(spans)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", spans.len()),
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

/// Names of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let value = serde_json::value_from_str(&text).map_err(|e| e.to_string())?;
    value
        .get_field(list)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|entry| {
            entry
                .get_field("name")
                .and_then(|n| n.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("an entry of {list} has no name"))
        })
        .collect()
}

/// Tiny-size self-check: every workload in both modes must be correct and
/// print exactly the metrics `BENCHMARK.json` declares, and the correctness
/// gates must catch a deliberately wrong state.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let plan = WorkloadPlan::new(workload, 1, Scale::Smoke);
            let list = if trace { "per_layer" } else { "end_to_end" };
            let run = if trace {
                traced_run(&plan, 1.0)
            } else {
                measured_run(&plan, 1.0)
            };
            let verdict = run.and_then(|run| {
                run.metrics.print(workload.name());
                let mut printed: Vec<String> = run.metrics.names().map(str::to_string).collect();
                let mut wanted = declared(list)?;
                printed.sort();
                wanted.sort();
                if printed != wanted {
                    return Err(format!(
                        "printed metrics {printed:?} differ from BENCHMARK.json {list} {wanted:?}"
                    ));
                }
                if !run.correct {
                    return Err(format!(
                        "{} of {} jobs wrong or failed",
                        run.failed, run.attempted
                    ));
                }
                Ok(())
            });
            if let Err(e) = verdict {
                println!("smoke {} {list}: FAILED: {e}", workload.name());
                ok = false;
            } else {
                println!("smoke {} {list}: ok", workload.name());
            }
        }
    }
    match check::gates_catch_wrong_results() {
        Ok(()) => println!("smoke correctness gates: ok"),
        Err(e) => {
            println!("smoke correctness gates: FAILED: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
