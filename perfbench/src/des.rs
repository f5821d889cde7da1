//! The DES workloads: `paper_regular`, `figures_n150` and `city_10k`.
//!
//! A single-world workload builds its [`World`] with `World::new`, steps
//! it to the horizon (the loop `World::run` runs, with a clock read at
//! every boundary of simulated time so the host time of each slice is
//! known), checks `World::check_invariants`, finishes it into a
//! [`RunResult`] and checks `check_result`. `figures_n150` runs the four
//! algorithms through `run_replications`, the path `reproduce` takes, then
//! steps replication 0 of each algorithm on its own to time slices, check
//! invariants and hold the stepped fingerprint to the replicated one.
//!
//! Traced runs repeat the operation with the observability sink on and
//! read the layer counters and spans the program exports through
//! `RunResult.obs`; `city_10k` adds a [`ShardedWorld`] run at two shards
//! on two threads.

use std::time::{Duration, Instant};

use manet_des::{SimDuration, SimTime};
use manet_obs::ObsConfig;
use manet_sim::experiments::ExperimentCfg;
use manet_sim::runner::replication_seed;
use manet_sim::{check_result, run_replications, RunResult, Scenario, ShardedWorld, World};
use p2p_core::AlgoKind;

use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::{Outcome, Scale};

/// World builds timed per run for `setup_s` (per algorithm on
/// `figures_n150`); the run reports their median.
const SETUP_BUILDS: usize = 5;

/// The shape of one DES workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Total nodes.
    pub nodes: usize,
    /// Simulated horizon, seconds.
    pub horizon_s: u64,
    /// Algorithms run, in order.
    pub algos: Vec<AlgoKind>,
    /// Replications per algorithm (through `run_replications` when > 1).
    pub reps: usize,
    /// Operations per untraced run, each on its own derived seed; the run
    /// reports their medians.
    pub ops: usize,
    /// Simulated time per timed slice: long enough that every slice
    /// spans the protocols' periodic timers, so slices carry similar work
    /// and their median does not jump between a light and a heavy mode.
    pub slice: SimDuration,
    /// Build the city variant (Table 2 density over a larger area).
    pub city: bool,
}

impl Shape {
    /// `paper_regular`: the 200-node, 900 s Regular hot-path scenario.
    pub fn paper_regular(scale: Scale) -> Shape {
        let (nodes, horizon_s, ops) = match scale {
            Scale::Full => (200, 900, 2),
            Scale::Smoke => (30, 60, 1),
        };
        Shape {
            nodes,
            horizon_s,
            algos: vec![AlgoKind::Regular],
            reps: 1,
            ops,
            slice: SimDuration::from_secs(5),
            city: false,
        }
    }

    /// `figures_n150`: the four algorithms at 150 nodes, two replications
    /// each, on a 300 s horizon.
    pub fn figures_n150(scale: Scale) -> Shape {
        let (nodes, horizon_s, ops) = match scale {
            Scale::Full => (150, 300, 2),
            Scale::Smoke => (20, 60, 1),
        };
        Shape {
            nodes,
            horizon_s,
            algos: AlgoKind::ALL.to_vec(),
            reps: 2,
            ops,
            slice: SimDuration::from_secs(5),
            city: false,
        }
    }

    /// `city_10k`: 10,000 nodes at Table 2 density for 60 s.
    pub fn city_10k(scale: Scale) -> Shape {
        let (nodes, horizon_s, ops) = match scale {
            Scale::Full => (10_000, 60, 2),
            Scale::Smoke => (300, 10, 1),
        };
        Shape {
            nodes,
            horizon_s,
            algos: vec![AlgoKind::Regular],
            reps: 1,
            ops,
            slice: SimDuration::from_secs(1),
            city: true,
        }
    }

    /// The scenario of `algo`, with the observability sink on or off.
    pub fn scenario(&self, algo: AlgoKind, observed: bool) -> Scenario {
        let mut s = if self.reps > 1 {
            // The figure pipeline's own scenario, at a shorter horizon.
            let mut cfg = ExperimentCfg::default_scale(self.nodes);
            cfg.duration_secs = self.horizon_s;
            cfg.scenario(algo)
        } else {
            // The bench scenario: full Table 2 shape, 5 s join window.
            let mut s = Scenario::quick(self.nodes, algo, self.horizon_s);
            s.join_window = SimDuration::from_secs(5);
            s
        };
        if self.city {
            // 200 m² per node, the Table 2 density (50 nodes on 100 m²).
            s.area_side = (self.nodes as f64 * 200.0).sqrt();
        }
        s.obs = if observed {
            ObsConfig::enabled()
        } else {
            ObsConfig::disabled()
        };
        s.validate();
        s
    }

    /// Parameters for the provenance record.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        let algos: Vec<&str> = self.algos.iter().map(|a| a.name()).collect();
        vec![
            ("nodes", self.nodes.to_string()),
            ("horizon_s", self.horizon_s.to_string()),
            ("algos", algos.join("+")),
            ("reps", self.reps.to_string()),
            ("ops", self.ops.to_string()),
            ("slice_s", self.slice.as_secs_f64().to_string()),
        ]
    }
}

/// One stepped replication.
struct Stepped {
    /// Host time from the first event to the `RunResult`.
    run: Duration,
    /// Host time of each slice of simulated time, microseconds.
    slices_us: Vec<f64>,
    result: RunResult,
}

/// Step `world` to its horizon, timing each `slice` of simulated time,
/// then check its live invariants (into `findings`), finish it and check
/// the conservation laws (into `errors`).
fn step_world(
    mut world: World,
    scenario: &Scenario,
    slice: SimDuration,
    spans: &mut Spans,
    errors: &mut Vec<String>,
    findings: &mut Vec<String>,
) -> Stepped {
    let sp = spans.open("sim.step_loop");
    let mut slices_us = Vec::new();
    let mut boundary = SimTime::ZERO + slice;
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    let mut mark = t0;
    while let Some(t) = world.step() {
        now = t;
        if t >= boundary {
            let at = Instant::now();
            slices_us.push((at - mark).as_secs_f64() * 1e6);
            mark = at;
            while boundary <= t {
                boundary += slice;
            }
        }
    }
    let looped = t0.elapsed();
    slices_us.push(mark.elapsed().as_secs_f64() * 1e6);
    spans.close(sp);

    let sp = spans.open("sim.check_invariants");
    let algo = scenario.algo.name();
    findings.extend(
        world
            .check_invariants(now)
            .into_iter()
            .map(|v| format!("{algo}: {v}")),
    );
    spans.close(sp);

    let sp = spans.open("sim.finish");
    let t1 = Instant::now();
    let result = world.finish();
    let run = looped + t1.elapsed();
    spans.close(sp);

    let sp = spans.open("sim.check_result");
    errors.extend(check_result(scenario, &result));
    spans.close(sp);
    Stepped {
        run,
        slices_us,
        result,
    }
}

/// Median host time of [`SETUP_BUILDS`] `World::new` calls on `scenario`,
/// and the last world built.
fn build_world(scenario: &Scenario, seed: u64, spans: &mut Spans) -> (Vec<f64>, World) {
    let mut times = Vec::with_capacity(SETUP_BUILDS);
    let mut world = None;
    for _ in 0..SETUP_BUILDS {
        let scenario = scenario.clone();
        let sp = spans.open("des.world_new");
        let t = Instant::now();
        let w = World::new(scenario, seed);
        times.push(t.elapsed().as_secs_f64());
        spans.close(sp);
        world = Some(w);
    }
    (times, world.expect("at least one build"))
}

/// Untraced measurements of one operation of a workload.
struct Measured {
    setup_s: Vec<f64>,
    run_s: f64,
    slices_us: Vec<f64>,
    /// Host seconds per algorithm (through `run_replications` on
    /// `figures_n150`, the stepped run otherwise).
    per_algo_s: Vec<(AlgoKind, f64)>,
    /// Every replication's result, in algorithm then replication order.
    results: Vec<RunResult>,
    /// Replications that broke a conservation law or a cross-check.
    failed: u64,
}

/// Run one operation of `shape` untraced.
fn measure(
    shape: &Shape,
    seed: u64,
    spans: &mut Spans,
    errors: &mut Vec<String>,
    findings: &mut Vec<String>,
) -> Measured {
    let mut m = Measured {
        setup_s: Vec::new(),
        run_s: 0.0,
        slices_us: Vec::new(),
        per_algo_s: Vec::new(),
        results: Vec::new(),
        failed: 0,
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for &algo in &shape.algos {
        let scenario = shape.scenario(algo, false);
        if shape.reps > 1 {
            let sp = spans.open(&format!("sim.run_replications.{}", algo.name()));
            let t = Instant::now();
            let results = run_replications(&scenario, shape.reps, seed, threads);
            let secs = t.elapsed().as_secs_f64();
            spans.close(sp);
            m.run_s += secs;
            m.per_algo_s.push((algo, secs));
            let mut bad: Vec<bool> = results
                .iter()
                .map(|r| {
                    let violations = check_result(&scenario, r);
                    errors.extend(violations.iter().cloned());
                    !violations.is_empty()
                })
                .collect();
            // Replication 0 again, stepped: slice timing, live invariants,
            // and the stepped result must be the replicated one.
            let (setup, world) = build_world(&scenario, replication_seed(seed, 0), spans);
            m.setup_s.extend(setup);
            let before = errors.len();
            let stepped = step_world(world, &scenario, shape.slice, spans, errors, findings);
            if stepped.result.fingerprint() != results[0].fingerprint() {
                errors.push(format!(
                    "{}: stepped replication 0 fingerprint {:016x} differs from run_replications {:016x}",
                    algo.name(),
                    stepped.result.fingerprint(),
                    results[0].fingerprint()
                ));
            }
            bad[0] |= errors.len() > before;
            m.failed += bad.iter().filter(|&&b| b).count() as u64;
            m.slices_us.extend(stepped.slices_us);
            m.results.extend(results);
        } else {
            let (setup, world) = build_world(&scenario, seed, spans);
            m.setup_s.extend(setup);
            let before = errors.len();
            let stepped = step_world(world, &scenario, shape.slice, spans, errors, findings);
            m.failed += u64::from(errors.len() > before);
            m.run_s += stepped.run.as_secs_f64();
            m.per_algo_s.push((algo, stepped.run.as_secs_f64()));
            m.slices_us.extend(stepped.slices_us);
            m.results.push(stepped.result);
        }
    }
    m
}

/// Run a DES workload untraced: `shape.ops` operations on seeds derived
/// from `seed`. When `traced`: one untraced and one traced operation plus
/// the per-layer read-out. A run that outlasts `cap` stops with an error.
pub fn run(shape: &Shape, seed: u64, cap: Duration, traced: bool, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::new(shape.params());
    let started = Instant::now();
    let n_ops = if traced { 1 } else { shape.ops };
    let mut ops: Vec<Measured> = Vec::new();
    while ops.len() < n_ops {
        let op_seed = replication_seed(seed, ops.len());
        let sp = spans.open("des.operation");
        let m = measure(shape, op_seed, spans, &mut out.errors, &mut out.findings);
        spans.close(sp);
        out.attempted += m.results.len() as u64;
        out.failed += m.failed;
        // Every replication of the first operation; the rest repeat it
        // with other seeds.
        for r in m.results.iter().filter(|_| ops.is_empty()) {
            out.note(format!(
                "replication events={} fingerprint={:016x} peak_queue_depth={} queries={} answers={}",
                r.events,
                r.fingerprint(),
                r.peak_queue_depth,
                r.queries_issued,
                r.answers_received
            ));
        }
        ops.push(m);
        if started.elapsed() > cap {
            out.errors.push(format!(
                "the run took {:.1} s for {} of {n_ops} operations, past its {} s cap",
                started.elapsed().as_secs_f64(),
                ops.len(),
                cap.as_secs_f64()
            ));
            break;
        }
    }

    let run_s = median(&ops.iter().map(|m| m.run_s).collect::<Vec<_>>());
    let qps: Vec<f64> = ops
        .iter()
        .map(|m| {
            m.results
                .iter()
                .map(|r| r.queries_issued as f64)
                .sum::<f64>()
                / m.run_s
        })
        .collect();
    let slices: Vec<f64> = ops
        .iter()
        .flat_map(|m| m.slices_us.iter().copied())
        .collect();
    let setups: Vec<f64> = ops.iter().flat_map(|m| m.setup_s.iter().copied()).collect();
    let mx = &mut out.metrics;
    mx.set("setup_s", median(&setups));
    mx.set("run_s", run_s);
    mx.set("reply_p50_us", quantile(&slices, 0.5));
    mx.set("sim.slice_p99_us", quantile(&slices, 0.99));
    mx.set("capacity_qps", median(&qps));
    out.note(format!(
        "operations={} slices={} (host time per {} s of simulated time)",
        ops.len(),
        slices.len(),
        shape.slice.as_secs_f64()
    ));
    if traced {
        let untraced = ops.pop().expect("one operation");
        traced_layers(shape, replication_seed(seed, 0), &untraced, spans, &mut out);
    }
    out
}

/// The traced operation and the per-layer read-out.
fn traced_layers(
    shape: &Shape,
    seed: u64,
    untraced: &Measured,
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut traced: Vec<RunResult> = Vec::new();
    let mut traced_s = 0.0;
    for &algo in &shape.algos {
        let scenario = shape.scenario(algo, true);
        let sp = spans.open(&format!("des.traced.{}", algo.name()));
        // Timed like the untraced operation: `run_replications` builds its
        // worlds inside, a stepped world is built before the clock starts.
        let results = if shape.reps > 1 {
            let t = Instant::now();
            let results = run_replications(&scenario, shape.reps, seed, threads);
            traced_s += t.elapsed().as_secs_f64();
            results
        } else {
            let world = World::new(scenario.clone(), seed);
            let t = Instant::now();
            let result = world.run();
            traced_s += t.elapsed().as_secs_f64();
            vec![result]
        };
        spans.close(sp);
        for r in &results {
            out.errors.extend(check_result(&scenario, r));
        }
        traced.extend(results);
    }
    for (t, u) in traced.iter().zip(&untraced.results) {
        if t.fingerprint() != u.fingerprint() {
            out.errors.push(format!(
                "traced fingerprint {:016x} differs from untraced {:016x}",
                t.fingerprint(),
                u.fingerprint()
            ));
        }
    }
    let violations = out.findings.len() as f64;
    let mx = &mut out.metrics;
    mx.set("sim.invariant_violations", violations);
    mx.set("obs.tax", traced_s / untraced.run_s - 1.0);
    for (algo, secs) in &untraced.per_algo_s {
        let name = match algo {
            AlgoKind::Basic => "core.run_s.basic",
            AlgoKind::Regular => "core.run_s.regular",
            AlgoKind::Random => "core.run_s.random",
            AlgoKind::Hybrid => "core.run_s.hybrid",
        };
        mx.set(name, *secs);
    }

    let sum = |f: &dyn Fn(&RunResult) -> f64| traced.iter().map(f).sum::<f64>();
    let counter =
        |r: &RunResult, name: &str| r.obs.registry.counter_by_name(name).unwrap_or(0) as f64;
    let span_s = |r: &RunResult, name: &str| {
        r.obs
            .spans
            .rows()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, d, _)| d.as_secs_f64())
            .sum::<f64>()
    };
    let fanout = |r: &RunResult| {
        r.obs
            .registry
            .hists()
            .find(|(n, _)| *n == "radio.broadcast_fanout")
            .map_or((0.0, 0.0), |(_, h)| (h.sum() as f64, h.count() as f64))
    };
    let events = sum(&|r| r.events as f64);
    mx.set("des.events", events);
    mx.set("des.events_per_s", events / untraced.run_s);
    mx.set("des.pop_s", sum(&|r| span_s(r, "des.pop")));
    mx.set(
        "des.peak_queue_depth",
        traced.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0) as f64,
    );
    mx.set(
        "des.calendar_retunes",
        sum(&|r| counter(r, "des.calendar.retunes")),
    );
    mx.set("sim.dispatch_s", sum(&|r| span_s(r, "sim.dispatch")));
    mx.set(
        "sim.dispatch.deliver",
        sum(&|r| counter(r, "des.dispatch.deliver")),
    );
    mx.set(
        "sim.dispatch.node_timer",
        sum(&|r| counter(r, "des.dispatch.node_timer")),
    );
    mx.set("sim.dispatch.sub", sum(&|r| counter(r, "des.dispatch.sub")));
    mx.set(
        "radio.plan_broadcast_s",
        sum(&|r| span_s(r, "radio.plan_broadcast")),
    );
    mx.set("radio.tx_planned", sum(&|r| counter(r, "radio.tx_planned")));
    mx.set("radio.tx_lost", sum(&|r| counter(r, "radio.tx_lost")));
    let (fan_sum, fan_n) = traced
        .iter()
        .map(fanout)
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    mx.set("radio.fanout_mean", fan_sum / fan_n.max(1.0));
    let rreq_dup = sum(&|r| counter(r, "aodv.rreq_dup_dropped"));
    let flood_dup = sum(&|r| counter(r, "aodv.flood_dup_dropped"));
    mx.set(
        "aodv.rreqs_originated",
        sum(&|r| counter(r, "aodv.rreqs_originated")),
    );
    mx.set("aodv.rreq_dup_dropped", rreq_dup);
    mx.set("aodv.flood_dup_dropped", flood_dup);
    let received = sum(&|r| r.phy_total.frames_received as f64);
    mx.set("aodv.dup_ratio", (rreq_dup + flood_dup) / received.max(1.0));
    mx.set(
        "core.conns_established",
        sum(&|r| r.conns_established as f64),
    );
    mx.set("core.conns_closed", sum(&|r| r.conns_closed as f64));
    let queries = sum(&|r| r.queries_issued as f64);
    let answers = sum(&|r| r.answers_received as f64);
    mx.set("content.queries_issued", queries);
    mx.set("content.answers_received", answers);
    mx.set("content.answer_ratio", answers / queries.max(1.0));

    if shape.city {
        let scenario = shape.scenario(AlgoKind::Regular, false);
        let sp = spans.open("sim.sharded_run");
        let t = Instant::now();
        let r = ShardedWorld::new(scenario.clone(), seed, 2).run(2);
        let secs = t.elapsed().as_secs_f64();
        spans.close(sp);
        out.errors.extend(check_result(&scenario, &r));
        out.note(format!(
            "sharded(2 shards, 2 threads) events={} fingerprint={:016x} run_s={secs}",
            r.events,
            r.fingerprint()
        ));
        let mx = &mut out.metrics;
        mx.set("sim.sharded_run_s", secs);
        mx.set("sim.sharded_speedup", untraced.run_s / secs);
        mx.set("sim.sharded_events", r.events as f64);
    }
}
