//! The `rt_echo` workload: the real-time substrate in one process.
//!
//! One [`RtNode`] serves on a loopback UDP socket from its own thread. A
//! single-threaded open-loop generator on a second thread owns a second
//! socket, which every peer id of the node's address book maps to. It
//! sends valid encoded frames on a fixed schedule: an AODV `Data` frame
//! carrying a content `Query` for a file the node holds, each with a fresh
//! query id, which the node answers with a `QueryHit`. Every reply is
//! decoded and matched against its request; latency runs from the
//! request's *due* time, so a stall anywhere (node, kernel or generator)
//! is charged to every request it delays.
//!
//! A phase is one node lifetime: bind, [`RtNode::new`], warm-up until the
//! first request is answered (the phase's set-up time), then one load: a
//! schedule at a fixed rate, or a series of closed-loop bursts. The node
//! runs for a fixed wall time that covers the set-up allowance, the load
//! and the drain window.

use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::time::{Duration, Instant};

use manet_aodv::{AodvCfg, Data, Msg};
use manet_des::{NodeId, Rng, SimTime, TraceCtx};
use manet_obs::{ObsConfig, ObsReport};
use manet_rt::{FaultShim, RtNode, RtReport};
use manet_sim::runner::replication_seed;
use manet_sim::FaultPlan;
use p2p_content::{Catalog, ContentMsg, FileId, QueryCfg, QueryEngine, QueryId};
use p2p_core::{build_algo, AlgoKind, OverlayParams};
use p2p_stack::{decode_frame, encode_frame, AppMsg, FrameUp, ObsSink, SendDown, StackMachine};

use crate::spans::Spans;
use crate::stats::{median, quantile, windowed_quantile};
use crate::sys::{pin_to_cpu, set_recv_buffer, wait_readable};
use crate::Outcome;

/// The node under test.
pub const NODE: NodeId = NodeId(0);

/// Largest datagram the generator expects.
const MAX_DATAGRAM: usize = 2048;

/// How long a node may take from thread start to its first answer.
const SETUP_ALLOWANCE: Duration = Duration::from_millis(150);

/// Gap between warm-up probes while waiting for the first answer.
const PROBE_GAP: Duration = Duration::from_micros(500);

/// The generator spins through gaps shorter than this instead of sleeping.
const SPIN_BELOW: Duration = Duration::from_micros(200);

/// Extra wait after the last request's latency limit before the phase
/// gives up on outstanding replies.
const DRAIN_GRACE: Duration = Duration::from_millis(5);

/// Receive buffer requested for both sockets. Host scheduling stalls of a
/// few milliseconds then queue datagrams instead of dropping them, so the
/// stack's own throughput, not the kernel default buffer, sets capacity.
const RECV_BUFFER: i32 = 4 << 20;

/// Peer ids in the node's address book, all mapped to the generator.
pub const ORIGINS: u32 = 4;

/// The fixed nominal offered rate for the latency figures, requests/s.
pub const NOMINAL_RATE: f64 = 50_000.0;

/// A request answered later than this after its due time failed; the
/// capacity search holds the p99 under it too. Host stalls on the
/// reference VM have lasted up to 135 ms, so the limit sits well above
/// them: a request fails for the node's sake, not the host's.
pub const LIMIT: Duration = Duration::from_millis(250);

/// The capacity ladder: rate `k` is `LADDER_BASE · 2^(k / LADDER_STEPS)`.
const LADDER_BASE: f64 = 2_000.0;

/// Ladder steps per doubling of the rate.
const LADDER_STEPS: u32 = 16;

/// A capacity step whose generator began its median send more than this
/// many request gaps late was limited by the generator, not the node, and
/// does not pass. A generator that keeps up sends each request within a
/// turn or two of its loop, a few gaps at most. One that cannot keep up
/// falls further behind with every request: a shortfall of 0.1 % leaves
/// its median request 250 µs late on a 0.5 s step, 50 gaps at
/// 200,000/s. The median decides, not the p99, because host stalls set
/// the lag p99 at any rate.
pub const LAG_GAPS: f64 = 10.0;

/// Requests a burst keeps unanswered at most.
const BURST_WINDOW: usize = 64;

/// The burst phase's node serves for as long as its requests take at this
/// rate, requests/s; a slower node fails the requests left over.
const BURST_FLOOR_RATE: f64 = 40_000.0;

/// Parameters of the `rt_echo` workload.
#[derive(Clone, Debug)]
pub struct EchoCfg {
    /// Rounds per run. Each round is a nominal phase, a burst phase and a
    /// capacity search, and the run reports the median over rounds of
    /// each, so a host slowdown of a few seconds spoils one round only.
    pub rounds: usize,
    /// Length of each round's nominal schedule.
    pub nominal: Duration,
    /// Ladder index each search starts from.
    pub ladder_start: u32,
    /// Highest ladder index.
    pub ladder_top: u32,
    /// Length of each capacity probe's schedule.
    pub probe: Duration,
    /// Bursts per round; the run reports the median time to drain one.
    pub bursts: usize,
    /// Requests per burst.
    pub burst_len: usize,
}

impl EchoCfg {
    /// The benchmark's workload.
    pub fn full() -> EchoCfg {
        EchoCfg {
            rounds: 3,
            nominal: Duration::from_secs(1),
            ladder_start: 96,
            ladder_top: 128,
            probe: Duration::from_millis(500),
            bursts: 2,
            burst_len: 50_000,
        }
    }

    /// A shrunken workload for the package's tests.
    pub fn smoke() -> EchoCfg {
        EchoCfg {
            rounds: 1,
            nominal: Duration::from_millis(300),
            ladder_start: 16,
            ladder_top: 32,
            probe: Duration::from_millis(100),
            bursts: 1,
            burst_len: 500,
        }
    }
}

/// Offered rate of ladder step `k`, requests/s.
pub(crate) fn ladder_rate(k: u32) -> f64 {
    LADDER_BASE * 2f64.powf(k as f64 / LADDER_STEPS as f64)
}

/// One request of a schedule.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// The peer id the request claims to come from.
    pub origin: NodeId,
    /// Its query sequence number (unique within a node lifetime).
    pub seq: u32,
    /// The file asked for; the node holds every file.
    pub file: FileId,
}

/// The encoded frame of `req`: a `Data` frame from `req.origin` to the
/// node carrying a one-hop content query.
pub(crate) fn request_frame(req: &Request) -> Vec<u8> {
    let msg = Msg::Data(Data {
        src: req.origin,
        dst: NODE,
        hops: 0,
        payload: AppMsg::Content(ContentMsg::Query {
            id: QueryId {
                origin: req.origin,
                seq: req.seq,
            },
            file: req.file,
            ttl: 1,
            p2p_hops: 0,
        }),
        ctx: TraceCtx::NONE,
    });
    encode_frame(req.origin, &msg)
}

/// `n` requests drawn from `rng`, with sequence numbers from `seq0`.
pub fn requests(rng: &mut Rng, origins: u32, n: usize, seq0: u32) -> Vec<Request> {
    let n_files = u64::from(Catalog::default().n_files);
    (0..n)
        .map(|i| Request {
            origin: NodeId(1 + (i as u32 % origins)),
            seq: seq0 + i as u32,
            file: FileId(rng.below(n_files) as u16),
        })
        .collect()
}

/// The stack under test: the Regular algorithm and a query engine
/// holding the whole catalogue, with the observability seam armed when
/// `traced`.
pub(crate) fn node_machine(seed: u64, traced: bool) -> StackMachine {
    let algo = build_algo(
        AlgoKind::Regular,
        NODE,
        OverlayParams::default(),
        0,
        Rng::new(seed).fork(1),
    );
    let catalog = Catalog::default();
    let files: BTreeSet<FileId> = (0..catalog.n_files).map(FileId).collect();
    let engine = QueryEngine::new(
        NODE,
        QueryCfg::default(),
        catalog,
        files,
        Rng::new(seed).fork(2),
    );
    let mut m = StackMachine::new(NODE, AodvCfg::default(), algo, engine);
    if traced {
        m.set_obs(ObsSink::armed(0, &ObsConfig::default(), 0, seed));
    }
    m
}

/// What the generator saw of one schedule.
#[derive(Debug, Default)]
pub struct Drive {
    /// Due time of each request, nanoseconds from the schedule start.
    pub due_ns: Vec<u64>,
    /// How late the generator began to send each request, nanoseconds.
    pub lag_ns: Vec<u64>,
    /// Arrival of each request's reply, nanoseconds from the schedule
    /// start (`None` = unanswered).
    pub reply_ns: Vec<Option<u64>>,
    /// Datagrams that did not decode.
    pub decode_errors: u64,
    /// Replies that decoded but matched no outstanding request, named
    /// the wrong file or node, or answered a request twice.
    pub mismatched: u64,
    /// Other valid frames from the node (overlay probes, route requests).
    pub other_frames: u64,
    /// Every reply frame received and request frame sent, when capturing.
    pub captured: Vec<Vec<u8>>,
}

impl Drive {
    /// Latency of each answered request from its due time, microseconds;
    /// unanswered requests read as infinitely late.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.reply_ns)
            .map(|(&due, r)| r.map_or(f64::INFINITY, |r| r.saturating_sub(due) as f64 / 1e3))
            .collect()
    }

    /// Requests unanswered or answered later than `limit`.
    pub fn failed(&self, limit: Duration) -> u64 {
        let limit_us = limit.as_secs_f64() * 1e6;
        self.latencies_us()
            .iter()
            .filter(|&&l| l > limit_us)
            .count() as u64
    }

    /// The `q`-quantile of how late the generator began its sends,
    /// microseconds.
    pub fn lag_us(&self, q: f64) -> f64 {
        let lags: Vec<f64> = self.lag_ns.iter().map(|&l| l as f64 / 1e3).collect();
        quantile(&lags, q)
    }

    /// Seconds from the first due time to the last reply.
    pub fn span_s(&self) -> f64 {
        let first = self.due_ns.first().copied().unwrap_or(0);
        let last = self
            .reply_ns
            .iter()
            .flatten()
            .max()
            .copied()
            .unwrap_or(first);
        (last - first) as f64 / 1e9
    }
}

/// Match one datagram against the outstanding requests; true when it
/// answered one. Replies to earlier warm-up probes (sequence numbers in
/// `stale`) are expected and count as other frames.
fn on_datagram(
    bytes: &[u8],
    reqs: &[Request],
    stale: &Range<u32>,
    at_ns: u64,
    d: &mut Drive,
) -> bool {
    let Ok(FrameUp { from, msg }) = decode_frame(bytes) else {
        d.decode_errors += 1;
        return false;
    };
    let Msg::Data(data) = msg else {
        d.other_frames += 1;
        return false;
    };
    let AppMsg::Content(ContentMsg::QueryHit { id, file, .. }) = data.payload else {
        d.other_frames += 1;
        return false;
    };
    if stale.contains(&id.seq) {
        d.other_frames += 1;
        return false;
    }
    let i = reqs
        .first()
        .map_or(usize::MAX, |r| id.seq.wrapping_sub(r.seq) as usize);
    let ok = reqs.get(i).is_some_and(|req| {
        from == NODE
            && data.src == NODE
            && data.dst == req.origin
            && id.origin == req.origin
            && file == req.file
    });
    match d.reply_ns.get_mut(i) {
        Some(slot @ None) if ok => {
            *slot = Some(at_ns);
            true
        }
        _ => {
            d.mismatched += 1;
            false
        }
    }
}

/// One datagram from the non-blocking `sock`, or `None` when none is
/// queued.
fn recv(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<Option<usize>> {
    loop {
        match sock.recv_from(buf) {
            Ok((len, _)) => return Ok(Some(len)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Send `reqs` to `target` at `rate` requests/s, open loop, starting
/// `start`: request `i` is due at `start + i / rate`. Between sends the
/// generator drains replies. Returns once every request is answered or
/// `wait` has passed since the last due time.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    sock: &UdpSocket,
    target: SocketAddr,
    reqs: &[Request],
    stale: &Range<u32>,
    rate: f64,
    wait: Duration,
    start: Instant,
    capture: bool,
) -> io::Result<Drive> {
    let frames: Vec<Vec<u8>> = reqs.iter().map(request_frame).collect();
    let n = reqs.len();
    let mut d = Drive {
        due_ns: (0..n).map(|i| (i as f64 * 1e9 / rate) as u64).collect(),
        lag_ns: Vec::with_capacity(n),
        reply_ns: vec![None; n],
        ..Drive::default()
    };
    let give_up = d.due_ns.last().copied().unwrap_or(0) + wait.as_nanos() as u64;
    let mut buf = [0u8; MAX_DATAGRAM];
    let mut next = 0usize;
    let mut answered = 0usize;
    loop {
        let mut now = start.elapsed().as_nanos() as u64;
        while next < n && d.due_ns[next] <= now {
            d.lag_ns.push(now - d.due_ns[next]);
            sock.send_to(&frames[next], target)?;
            now = start.elapsed().as_nanos() as u64;
            next += 1;
        }
        if next == n && (answered == n || now > give_up) {
            if capture {
                d.captured.extend(frames);
            }
            return Ok(d);
        }
        while let Some(len) = recv(sock, &mut buf)? {
            let at = start.elapsed().as_nanos() as u64;
            if on_datagram(&buf[..len], reqs, stale, at, &mut d) {
                answered += 1;
                if capture {
                    d.captured.push(buf[..len].to_vec());
                }
            }
        }
        // Short gaps are spun through: a sleeping thread's wake-up would be
        // charged to the next reply's latency.
        let now = start.elapsed().as_nanos() as u64;
        let wake = if next < n { d.due_ns[next] } else { give_up };
        let gap = Duration::from_nanos(wake.saturating_sub(now));
        if gap < SPIN_BELOW {
            std::thread::yield_now();
        } else {
            wait_readable(sock, gap);
        }
    }
}

/// Send `reqs` to `target` back to back, keeping at most `BURST_WINDOW`
/// of them unanswered, until every one is answered or none has been for
/// `LIMIT`. A request is due when it is sent, so `span_s` is the time the
/// burst took to drain.
pub fn burst(
    sock: &UdpSocket,
    target: SocketAddr,
    reqs: &[Request],
    stale: &Range<u32>,
) -> io::Result<Drive> {
    let frames: Vec<Vec<u8>> = reqs.iter().map(request_frame).collect();
    let n = reqs.len();
    let mut d = Drive {
        due_ns: Vec::with_capacity(n),
        reply_ns: vec![None; n],
        ..Drive::default()
    };
    let limit = LIMIT.as_nanos() as u64;
    let mut buf = [0u8; MAX_DATAGRAM];
    let mut answered = 0usize;
    let mut progress = 0u64;
    let start = Instant::now();
    loop {
        while d.due_ns.len() < n && d.due_ns.len() - answered < BURST_WINDOW {
            d.due_ns.push(start.elapsed().as_nanos() as u64);
            sock.send_to(&frames[d.due_ns.len() - 1], target)?;
        }
        if answered == n || start.elapsed().as_nanos() as u64 > progress + limit {
            return Ok(d);
        }
        match recv(sock, &mut buf)? {
            Some(len) => {
                let at = start.elapsed().as_nanos() as u64;
                if on_datagram(&buf[..len], reqs, stale, at, &mut d) {
                    answered += 1;
                    progress = at;
                }
            }
            None => std::thread::yield_now(),
        }
    }
}

/// One node lifetime.
#[derive(Debug)]
pub(crate) struct Phase<T> {
    /// Bind, `RtNode::new` and the first answered request.
    pub setup: Duration,
    /// What the generator measured.
    pub load: T,
    /// The node's own tallies.
    pub report: RtReport,
    /// The node's observability report, when traced.
    pub obs: Option<ObsReport>,
}

/// Run one phase: a fresh node that serves for `serve` beyond the set-up
/// allowance, warmed up with probes numbered from `warm_seq0`, then loaded
/// by `load` on the generator's thread. `load` gets the generator socket,
/// the node's address and the warm-up probes' sequence numbers.
pub(crate) fn phase<T: Send>(
    seed: u64,
    serve: Duration,
    warm_seq0: u32,
    traced: bool,
    load: impl FnOnce(&UdpSocket, SocketAddr, &Range<u32>) -> io::Result<T> + Send,
) -> io::Result<Phase<T>> {
    let t0 = Instant::now();
    let gen = UdpSocket::bind("127.0.0.1:0")?;
    gen.set_nonblocking(true)?;
    set_recv_buffer(&gen, RECV_BUFFER)?;
    let node_sock = UdpSocket::bind("127.0.0.1:0")?;
    set_recv_buffer(&node_sock, RECV_BUFFER)?;
    let gen_addr = gen.local_addr()?;
    let peers = (1..=ORIGINS).map(|o| (NodeId(o), gen_addr)).collect();
    let mut node = RtNode::new(
        node_machine(seed, traced),
        node_sock,
        peers,
        FaultShim::new(&FaultPlan::default(), seed),
    )?;
    let node_addr = node.local_addr()?;
    let lifetime = SETUP_ALLOWANCE + serve;

    std::thread::scope(|s| {
        let server = s.spawn(move || {
            pin_to_cpu(0);
            let report = node.run(lifetime, Duration::ZERO);
            let obs = node.obs_report().cloned();
            report.map(|r| (r, obs))
        });
        let client = s.spawn(|| {
            pin_to_cpu(1);
            let mut rng = Rng::new(seed).fork(4);
            let (setup, stale) = warm_up(&gen, node_addr, &mut rng, warm_seq0, t0)?;
            Ok::<_, io::Error>((setup, load(&gen, node_addr, &stale)?))
        });
        let served = server.join().expect("node thread panicked");
        let driven = client.join().expect("generator thread panicked");
        let ((setup, load), (report, obs)) = (driven?, served?);
        Ok(Phase {
            setup,
            load,
            report,
            obs,
        })
    })
}

/// A phase that offers `n` requests at `rate` on an open-loop schedule.
pub(crate) fn schedule_phase(
    seed: u64,
    rate: f64,
    n: usize,
    traced: bool,
    capture: bool,
) -> io::Result<Phase<Drive>> {
    let reqs = requests(&mut Rng::new(seed).fork(3), ORIGINS, n, 0);
    let schedule = Duration::from_secs_f64(n as f64 / rate);
    let serve = schedule + LIMIT + DRAIN_GRACE * 2;
    phase(seed, serve, n as u32, traced, |gen, node, stale| {
        let wait = LIMIT + DRAIN_GRACE;
        drive(gen, node, &reqs, stale, rate, wait, Instant::now(), capture)
    })
}

/// A phase that sends `cfg.bursts` bursts of `cfg.burst_len` requests,
/// one after the other.
pub(crate) fn burst_phase(cfg: &EchoCfg, seed: u64) -> io::Result<Phase<Vec<Drive>>> {
    let total = cfg.bursts * cfg.burst_len;
    let reqs = requests(&mut Rng::new(seed).fork(5), ORIGINS, total, 0);
    let serve = Duration::from_secs_f64(total as f64 / BURST_FLOOR_RATE) + LIMIT;
    phase(seed, serve, total as u32, false, |gen, node, stale| {
        reqs.chunks(cfg.burst_len)
            .map(|chunk| burst(gen, node, chunk, stale))
            .collect()
    })
}

/// Probe until the node answers. Returns the time since `t0` and the
/// sequence numbers of the probes sent, whose late replies may still
/// arrive.
fn warm_up(
    gen: &UdpSocket,
    node: SocketAddr,
    rng: &mut Rng,
    seq0: u32,
    t0: Instant,
) -> io::Result<(Duration, Range<u32>)> {
    let mut seq = seq0;
    while t0.elapsed() < SETUP_ALLOWANCE {
        let probe = requests(rng, ORIGINS, 1, seq);
        let stale = seq0..seq;
        let d = drive(
            gen,
            node,
            &probe,
            &stale,
            1.0,
            PROBE_GAP,
            Instant::now(),
            false,
        )?;
        seq += 1;
        if d.reply_ns[0].is_some() {
            return Ok((t0.elapsed(), seq0..seq));
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        "the node did not answer within the set-up allowance",
    ))
}

/// Outcome of one capacity probe.
#[derive(Debug)]
pub(crate) struct Probe {
    /// Ladder index.
    pub k: u32,
    /// Offered rate, requests/s.
    pub offered: f64,
    /// Replies within the limit per second of schedule.
    pub served: f64,
    /// Whether the node met the limit with no growing backlog.
    pub met: bool,
    /// The median and p99 of the generator's send lag, microseconds.
    pub lag_us: [f64; 2],
    /// The probe's phase set-up time.
    pub setup: Duration,
}

impl Probe {
    /// Whether the generator kept to the schedule: its median send lag
    /// within `LAG_GAPS` gaps between requests.
    pub fn generator_kept_up(&self) -> bool {
        self.lag_us[0] <= LAG_GAPS * 1e6 / self.offered
    }

    /// Whether the step passed: the node met the limit under a generator
    /// that kept up.
    pub fn pass(&self) -> bool {
        self.met && self.generator_kept_up()
    }
}

/// Requests per window of the reported p99 (see [`windowed_quantile`]):
/// the smallest window whose p99 still has ten samples beyond it.
pub(crate) const WINDOW: usize = 1000;

/// Whether a schedule kept its p99 under `LIMIT` with no growing
/// backlog: the p99 from due time over all requests (unanswered ones
/// counting as infinitely late) within the limit, and the median latency
/// of the last tenth of the schedule no more than twice that of the
/// first tenth plus 100 µs.
pub(crate) fn meets_limit(d: &Drive) -> bool {
    let lat = d.latencies_us();
    if lat.is_empty() {
        return false;
    }
    let tenth = (lat.len() / 10).max(1);
    let head = quantile(&lat[..tenth], 0.5);
    let tail = quantile(&lat[lat.len() - tenth..], 0.5);
    quantile(&lat, 0.99) <= LIMIT.as_secs_f64() * 1e6 && tail <= 2.0 * head + 100.0
}

/// The generator's and the node's decode and matching tallies, as an
/// error when any is non-zero.
fn wire_errors(d: &Drive, report: &RtReport) -> Result<(), String> {
    if d.decode_errors + d.mismatched + report.decode_errors == 0 {
        return Ok(());
    }
    Err(format!(
        "{} undecodable and {} mismatched replies, {} undecodable requests",
        d.decode_errors, d.mismatched, report.decode_errors
    ))
}

/// Probe ladder step `k`.
pub(crate) fn probe(cfg: &EchoCfg, seed: u64, k: u32) -> io::Result<Probe> {
    let offered = ladder_rate(k);
    let n = (offered * cfg.probe.as_secs_f64()).ceil() as usize;
    let p = schedule_phase(seed ^ ((k as u64) << 32), offered, n, false, false)?;
    let d = &p.load;
    wire_errors(d, &p.report).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("{e} at {offered:.0}/s"))
    })?;
    let within = n as u64 - d.failed(LIMIT);
    Ok(Probe {
        k,
        offered,
        served: within as f64 / (n as f64 / offered),
        met: meets_limit(d),
        lag_us: [d.lag_us(0.5), d.lag_us(0.99)],
        setup: p.setup,
    })
}

/// Find the highest ladder step that passes: from `ladder_start`, double
/// the rate while steps pass (or halve it while they fail) until the
/// outcome flips, then bisect that doubling. Returns every probe made, in
/// order.
pub(crate) fn capacity_search(cfg: &EchoCfg, seed: u64) -> io::Result<Vec<Probe>> {
    let mut probes: Vec<Probe> = Vec::new();
    // Host scheduling stalls only ever fail a step, never pass one, so a
    // failed step is retried once and passes if either attempt did.
    let run = |k: u32, probes: &mut Vec<Probe>| -> io::Result<bool> {
        for attempt in 0..2u64 {
            let p = probe(cfg, seed ^ (attempt << 48), k)?;
            let pass = p.pass();
            probes.push(p);
            if pass {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let step = LADDER_STEPS;
    let mut k = cfg.ladder_start.min(cfg.ladder_top);
    // Step `lo` passed and step `hi` failed.
    let (mut lo, mut hi);
    if run(k, &mut probes)? {
        loop {
            if k == cfg.ladder_top {
                return Ok(probes);
            }
            let up = (k + step).min(cfg.ladder_top);
            if !run(up, &mut probes)? {
                (lo, hi) = (k, up);
                break;
            }
            k = up;
        }
    } else {
        loop {
            if k == 0 {
                return Ok(probes);
            }
            let down = k.saturating_sub(step);
            if run(down, &mut probes)? {
                (lo, hi) = (down, k);
                break;
            }
            k = down;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run(mid, &mut probes)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(probes)
}

/// The highest passing probe of a search, or the lowest probe when none
/// passed.
pub(crate) fn capacity(probes: &[Probe]) -> Option<&Probe> {
    probes
        .iter()
        .filter(|p| p.pass())
        .max_by_key(|p| p.k)
        .or_else(|| probes.iter().min_by_key(|p| p.k))
}

/// Per-frame costs of the wire codec and the stack, measured by replaying
/// captured frames through the public calls.
#[derive(Debug)]
pub(crate) struct Replay {
    /// Mean `decode_frame` time per frame, ns.
    pub decode_ns: f64,
    /// Mean `StackMachine::on_frame` time per request frame, ns.
    pub on_frame_ns: f64,
    /// Mean `encode_frame` time per frame the stack sent, ns.
    pub encode_ns: f64,
    /// Mean size of the captured frames, bytes.
    pub bytes_per_frame: f64,
    /// Frames replayed.
    pub frames: usize,
}

/// Replay `captured` datagrams: decode every one, feed the requests to a
/// fresh joined machine at 10 µs intervals, and encode everything it
/// sends. Fails when a frame does not decode or a request goes
/// unanswered.
pub(crate) fn replay(captured: &[Vec<u8>], seed: u64) -> Result<Replay, String> {
    let t = Instant::now();
    let decoded: Vec<FrameUp> = captured
        .iter()
        .map(|b| decode_frame(b).map_err(|e| format!("captured frame does not decode: {e}")))
        .collect::<Result<_, _>>()?;
    let decode = t.elapsed();

    let mut m = node_machine(seed, false);
    let _ = m.join(SimTime::ZERO);
    let requests: Vec<FrameUp> = decoded.into_iter().filter(|f| f.from != NODE).collect();
    let t = Instant::now();
    let mut sent = Vec::with_capacity(requests.len());
    for (i, f) in requests.iter().enumerate() {
        let now = SimTime::from_ticks(10 * (i as u64 + 1));
        sent.extend(m.on_frame(now, f.clone()).frames);
    }
    let on_frame = t.elapsed();
    let hits = sent
        .iter()
        .filter(|s| matches!(s, SendDown::Unicast { msg: Msg::Data(d), .. } if matches!(d.payload, AppMsg::Content(ContentMsg::QueryHit { .. }))))
        .count();
    if hits != requests.len() {
        return Err(format!(
            "replay: {} requests drew {hits} answers",
            requests.len()
        ));
    }
    let t = Instant::now();
    let mut bytes = 0usize;
    for s in &sent {
        let msg = match s {
            SendDown::Broadcast(msg) | SendDown::Unicast { msg, .. } => msg,
        };
        bytes += std::hint::black_box(encode_frame(NODE, msg)).len();
    }
    let encode = t.elapsed();
    std::hint::black_box(bytes);
    let per = |d: Duration, n: usize| d.as_nanos() as f64 / n.max(1) as f64;
    Ok(Replay {
        decode_ns: per(decode, captured.len()),
        on_frame_ns: per(on_frame, requests.len()),
        encode_ns: per(encode, sent.len()),
        bytes_per_frame: captured.iter().map(Vec::len).sum::<usize>() as f64
            / captured.len().max(1) as f64,
        frames: captured.len(),
    })
}

/// Run the `rt_echo` workload. Untraced: `cfg.rounds` rounds of a
/// nominal phase for latency, a burst phase for drain time and a capacity
/// search; a run that outlasts `cap` stops with an error. Traced: one
/// nominal phase with the node's observability seam armed and every frame
/// captured, then the replay of the captured frames through the codec and
/// the stack.
pub fn run(cfg: &EchoCfg, seed: u64, cap: Duration, traced: bool, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::new(vec![
        ("origins", ORIGINS.to_string()),
        ("nominal_rate", NOMINAL_RATE.to_string()),
        ("rounds", cfg.rounds.to_string()),
        ("nominal_s", cfg.nominal.as_secs_f64().to_string()),
        ("limit_ms", (LIMIT.as_secs_f64() * 1e3).to_string()),
        ("ladder_base", LADDER_BASE.to_string()),
        ("ladder_steps", LADDER_STEPS.to_string()),
        ("probe_s", cfg.probe.as_secs_f64().to_string()),
        ("bursts", cfg.bursts.to_string()),
        ("burst_len", cfg.burst_len.to_string()),
        ("burst_window", BURST_WINDOW.to_string()),
    ]);
    let run = if traced {
        run_traced(cfg, seed, spans, &mut out)
    } else {
        run_rounds(cfg, seed, cap, &mut out)
    };
    if let Err(e) = run {
        out.errors.push(format!("rt_echo: {e}"));
    }
    out
}

/// Run one nominal phase from `seed`, count its requests into `out` and
/// report it; returns the phase and its request latencies from due time.
fn nominal_phase(
    cfg: &EchoCfg,
    seed: u64,
    traced: bool,
    out: &mut Outcome,
) -> io::Result<(Phase<Drive>, Vec<f64>)> {
    let n = (NOMINAL_RATE * cfg.nominal.as_secs_f64()).round() as usize;
    let nominal = schedule_phase(seed, NOMINAL_RATE, n, traced, traced)?;
    let d = &nominal.load;
    if let Err(e) = wire_errors(d, &nominal.report) {
        out.errors.push(format!("nominal phase: {e}"));
    }
    let lat = d.latencies_us();
    out.attempted += n as u64;
    out.failed += d.failed(LIMIT);
    out.note(format!(
        "nominal: {n} requests at {NOMINAL_RATE}/s, p50 {:.1} us, p99 over all {:.1} us, \
         max {:.1} us, {} other frames from the node, generator lag p50 {:.1} us, p99 {:.1} us",
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
        quantile(&lat, 1.0),
        d.other_frames,
        d.lag_us(0.5),
        d.lag_us(0.99),
    ));
    Ok((nominal, lat))
}

fn run_traced(cfg: &EchoCfg, seed: u64, spans: &mut Spans, out: &mut Outcome) -> io::Result<()> {
    let sp = spans.open("rt.nominal_phase");
    let (nominal, lat) = nominal_phase(cfg, seed, true, out)?;
    spans.close(sp);
    out.metrics.set(
        "loadgen.reply_p99_us",
        windowed_quantile(&lat, WINDOW, 0.99),
    );
    traced_layers(&nominal, seed, spans, out)?;
    set_setup(out, &[nominal.setup.as_secs_f64()]);
    Ok(())
}

fn run_rounds(cfg: &EchoCfg, seed: u64, cap: Duration, out: &mut Outcome) -> io::Result<()> {
    let started = Instant::now();
    let (mut setups, mut p50s, mut drains, mut caps) = (vec![], vec![], vec![], vec![]);
    for round in 0..cfg.rounds {
        if started.elapsed() > cap {
            out.errors.push(format!(
                "the run passed its {} s cap after {round} of {} rounds",
                cap.as_secs_f64(),
                cfg.rounds
            ));
            break;
        }
        let seed = replication_seed(seed, round);
        let (nominal, lat) = nominal_phase(cfg, seed, false, out)?;
        setups.push(nominal.setup.as_secs_f64());
        p50s.push(quantile(&lat, 0.5));
        if round == 0 {
            // Memory is read after the first, fixed-size nominal phase: the
            // capacity probes size their buffers by whichever rates the
            // search happens to visit.
            out.metrics.set("peak_rss_mb", crate::peak_rss_mb());
        }

        let bursts = burst_phase(cfg, seed)?;
        setups.push(bursts.setup.as_secs_f64());
        let mut drained = Vec::new();
        for d in &bursts.load {
            if let Err(e) = wire_errors(d, &bursts.report) {
                out.errors.push(format!("burst phase: {e}"));
            }
            out.attempted += d.reply_ns.len() as u64;
            out.failed += d.failed(LIMIT);
            drained.push(d.span_s());
        }
        out.note(format!(
            "bursts of {} requests, at most {BURST_WINDOW} unanswered, drained in {} s",
            cfg.burst_len,
            drained
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        drains.extend(drained);

        let probes = capacity_search(cfg, seed)?;
        setups.extend(probes.iter().map(|p| p.setup.as_secs_f64()));
        let top = capacity(&probes).expect("a search makes at least one probe");
        let steps: Vec<String> = probes
            .iter()
            .map(|p| {
                let mark = match (p.met, p.generator_kept_up()) {
                    (true, true) => "+",
                    (false, true) => "-",
                    (_, false) => "~",
                };
                format!(
                    "{:.0}{mark}(lag {:.1}/{:.1})",
                    p.offered, p.lag_us[0], p.lag_us[1]
                )
            })
            .collect();
        out.note(format!(
            "capacity search: {:.0}/s via {} (+ pass, - node missed the limit, \
             ~ generator fell behind; generator lag p50/p99 in us)",
            top.served,
            steps.join(" ")
        ));
        caps.push(top.served);
    }
    let mx = &mut out.metrics;
    mx.set("reply_p50_us", median(&p50s));
    mx.set("run_s", median(&drains));
    mx.set("capacity_qps", median(&caps));
    set_setup(out, &setups);
    Ok(())
}

fn set_setup(out: &mut Outcome, setups: &[f64]) {
    out.metrics.set("setup_s", median(setups));
    out.note(format!("set-up samples: {}", setups.len()));
}

/// Per-layer read-out of a traced nominal phase.
fn traced_layers(
    nominal: &Phase<Drive>,
    seed: u64,
    spans: &mut Spans,
    out: &mut Outcome,
) -> io::Result<()> {
    let obs = nominal
        .obs
        .as_ref()
        .ok_or_else(|| io::Error::other("traced node returned no observability report"))?;
    let counter = |name: &str| obs.registry.counter_by_name(name).unwrap_or(0) as f64;
    let loop_s: f64 = obs
        .spans
        .rows()
        .filter(|(n, _, _)| *n == "rt.loop")
        .map(|(_, d, _)| d.as_secs_f64())
        .sum();
    let rx = counter("rt.dgram_rx");
    let decode_errors = counter("rt.decode_errors");
    if decode_errors > 0.0 {
        out.errors
            .push(format!("node counted {decode_errors} decode errors"));
    }
    let mx = &mut out.metrics;
    mx.set("rt.loop_s", loop_s);
    mx.set("rt.dgram_rx", rx);
    mx.set("rt.dgram_tx", counter("rt.dgram_tx"));
    mx.set(
        "rt.wakeups_per_dgram",
        counter("rt.epoll_wakeups") / rx.max(1.0),
    );
    mx.set("rt.decode_errors", decode_errors);
    mx.set("loadgen.lag_p99_us", nominal.load.lag_us(0.99));

    let sp = spans.open("stack.replay");
    let replayed = replay(&nominal.load.captured, seed);
    spans.close(sp);
    match replayed {
        Ok(r) => {
            let mx = &mut out.metrics;
            mx.set("stack.on_frame_ns", r.on_frame_ns);
            mx.set("wire.decode_ns", r.decode_ns);
            mx.set("wire.encode_ns", r.encode_ns);
            mx.set("wire.bytes_per_frame", r.bytes_per_frame);
            out.note(format!("replayed {} captured frames", r.frames));
        }
        Err(e) => out.errors.push(e),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_at(k: u32, offered: f64, lag_p50_us: f64) -> Probe {
        Probe {
            k,
            offered,
            served: offered,
            met: true,
            lag_us: [lag_p50_us, 10_000.0],
            setup: Duration::ZERO,
        }
    }

    #[test]
    fn a_step_the_generator_fell_behind_on_does_not_pass() {
        // 200,000/s leaves 5 us between requests.
        assert!(probe_at(0, 200_000.0, 50.0).pass());
        assert!(!probe_at(0, 200_000.0, 51.0).pass());
        assert!(probe_at(0, 20_000.0, 500.0).pass());
        let failed = Probe {
            met: false,
            ..probe_at(0, 20_000.0, 0.5)
        };
        assert!(!failed.pass());
        // The search reports the highest step that passed.
        let probes = [probe_at(1, 100_000.0, 0.5), probe_at(2, 200_000.0, 900.0)];
        assert_eq!(capacity(&probes).map(|p| p.k), Some(1));
    }
}
