//! The repository's benchmark: DES throughput on the paper, figure and
//! city scenarios, real-time stack latency and capacity, and a traced run
//! that attributes the work to layers. See `README.md`.

pub mod des;
pub mod echo;
pub mod metrics;
pub mod provenance;
pub mod spans;
pub mod stats;
mod sys;

use std::time::Duration;

use metrics::Metrics;
use spans::Spans;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table 2 Regular scenario at 200 nodes over 900 s.
    PaperRegular,
    /// All four algorithms at 150 nodes through `run_replications`.
    FiguresN150,
    /// 10,000 nodes at Table 2 density.
    City10k,
    /// One real-time node answering an open-loop query generator.
    RtEcho,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` declares all but `PaperRegular`
    /// (see `README.md`, "Workloads").
    pub const ALL: [Workload; 4] = [
        Workload::PaperRegular,
        Workload::FiguresN150,
        Workload::City10k,
        Workload::RtEcho,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRegular => "paper_regular",
            Workload::FiguresN150 => "figures_n150",
            Workload::City10k => "city_10k",
            Workload::RtEcho => "rt_echo",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's, or a shrunken one for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs that finish in a second or two.
    Smoke,
}

/// What one run measured and checked.
pub struct Outcome {
    /// Operations attempted: DES replications or `rt_echo` requests.
    pub attempted: u64,
    /// Operations that failed: a replication that broke an invariant or
    /// cross-check, a request unanswered or answered past the limit.
    pub failed: u64,
    /// Measured values.
    pub metrics: Metrics,
    /// Output-correctness violations; any makes the run incorrect.
    pub errors: Vec<String>,
    /// `World::check_invariants` violations. Reported on every run and
    /// counted by `sim.invariant_violations`, but not gated: at the commit
    /// that introduced this benchmark the paper scenarios break two of
    /// those invariants (see `README.md`, "Known gaps").
    pub findings: Vec<String>,
    /// Human-readable report lines (fingerprints, event counts, …).
    pub notes: Vec<String>,
    /// Workload parameters, for the provenance record.
    pub params: Vec<(&'static str, String)>,
}

impl Outcome {
    /// An empty outcome for a workload with these parameters.
    pub fn new(params: Vec<(&'static str, String)>) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            errors: Vec::new(),
            findings: Vec::new(),
            notes: Vec::new(),
            params,
        }
    }

    /// Add a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.attempted > 0
    }
}

/// A run measures a fixed amount of work, sized to take about the
/// `--seconds` that `BENCHMARK.json` sets; `--seconds` only caps it. A run
/// still going after this many times `--seconds` stops with an error.
pub const CAP_FACTOR: f64 = 4.0;

/// Run `workload` from `seed`, capped at [`CAP_FACTOR`] times `seconds`;
/// traced runs record spans into `spans` and report the per-layer metrics.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: &mut Spans,
) -> Outcome {
    let cap = Duration::from_secs_f64(seconds * CAP_FACTOR);
    let shape = match workload {
        Workload::PaperRegular => des::Shape::paper_regular(scale),
        Workload::FiguresN150 => des::Shape::figures_n150(scale),
        Workload::City10k => des::Shape::city_10k(scale),
        Workload::RtEcho => {
            let cfg = match scale {
                Scale::Full => echo::EchoCfg::full(),
                Scale::Smoke => echo::EchoCfg::smoke(),
            };
            return echo::run(&cfg, seed, cap, traced, spans);
        }
    };
    des::run(&shape, seed, cap, traced, spans)
}

/// Peak resident set size of this process, MB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
