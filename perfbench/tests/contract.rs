//! The benchmark's own checks: its declared metrics, a shrunken run of
//! every workload, and due-time latency accounting in `rt_echo`.

use std::net::UdpSocket;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use manet_aodv::{Data, Msg};
use manet_des::{Rng, TraceCtx};
use manet_obs::json::Value;
use p2p_content::ContentMsg;
use p2p_stack::{decode_frame, encode_frame, AppMsg, FrameUp};
use perfbench::echo::{self, NODE};
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::spans::Spans;
use perfbench::{run, Scale, Workload};

/// Timing-sensitive tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Value {
    let path = perfbench::provenance::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn declared_metrics_and_workloads_match_benchmark_json() {
    let doc = benchmark_json();
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), pairs(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), pairs(PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "metric name {name:?}");
    }
    for w in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
    {
        let name = w.get("name").and_then(Value::as_str).expect("name");
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn every_shrunken_workload_runs_clean_and_reports_every_metric() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in Workload::ALL {
        for traced in [false, true] {
            let mut spans = Spans::new(traced);
            let mut out = run(workload, Scale::Smoke, 5, 60.0, traced, &mut spans);
            out.metrics.set("peak_rss_mb", perfbench::peak_rss_mb());
            let name = workload.name();
            assert!(out.correct(), "{name} traced={traced}: {:?}", out.errors);
            assert!(out.attempted > 0, "{name}: nothing attempted");
            assert_eq!(out.failed, 0, "{name} traced={traced}: operations failed");
            let entries = out.metrics.entries(traced).expect("every metric measured");
            let want = if traced { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = entries.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, want, "{name} traced={traced}");
            assert!(entries.iter().all(|(_, v, _)| v.is_finite()));
            if traced {
                assert!(
                    !spans.all().is_empty(),
                    "{name}: traced run recorded no spans"
                );
            }
        }
    }
}

/// A responder that sleeps until `until`, then answers every query it
/// received with a well-formed `QueryHit`.
fn stalled_responder(sock: UdpSocket, until: Instant, expect: usize) {
    std::thread::sleep(until.saturating_duration_since(Instant::now()));
    let mut buf = [0u8; 2048];
    for _ in 0..expect {
        let (len, from) = sock.recv_from(&mut buf).expect("request arrives");
        let FrameUp { msg, .. } = decode_frame(&buf[..len]).expect("request decodes");
        let Msg::Data(d) = msg else {
            panic!("request is not a data frame")
        };
        let AppMsg::Content(ContentMsg::Query { id, file, .. }) = d.payload else {
            panic!("request is not a query")
        };
        let hit = Msg::Data(Data {
            src: NODE,
            dst: d.src,
            hops: 0,
            payload: AppMsg::Content(ContentMsg::QueryHit {
                id,
                file,
                p2p_hops: 1,
            }),
            ctx: TraceCtx::NONE,
        });
        sock.send_to(&encode_frame(NODE, &hit), from)
            .expect("reply sent");
    }
}

#[test]
fn rt_echo_latency_runs_from_due_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 40;
    let stall = Duration::from_millis(100);
    let behind = Duration::from_millis(20);
    let responder = UdpSocket::bind("127.0.0.1:0").expect("bind responder");
    let target = responder.local_addr().expect("addr");
    let gen = UdpSocket::bind("127.0.0.1:0").expect("bind generator");
    gen.set_nonblocking(true).expect("non-blocking");
    let reqs = echo::requests(&mut Rng::new(1), 4, N, 0);

    // The schedule started `behind` ago, so the generator begins late,
    // and the responder answers nothing until `stall` after the start.
    let start = Instant::now() - behind;
    let d = std::thread::scope(|s| {
        s.spawn(|| stalled_responder(responder, start + stall, N));
        echo::drive(
            &gen,
            target,
            &reqs,
            &(0..0),
            1000.0,
            Duration::from_secs(1),
            start,
            false,
        )
        .expect("drive")
    });

    assert_eq!(
        d.reply_ns.iter().flatten().count(),
        N,
        "every request answered"
    );
    assert_eq!(d.decode_errors + d.mismatched, 0);
    let lat = d.latencies_us();
    for (i, &l) in lat.iter().enumerate() {
        let due_us = d.due_ns[i] as f64 / 1e3;
        assert!(
            l >= stall.as_secs_f64() * 1e6 - due_us,
            "request {i} due at {due_us} us reports {l} us"
        );
    }
    // Request 0 went out `behind` late; timed from its send it would read
    // about `stall - behind`. Timed from due time it carries the full stall.
    assert!(d.lag_ns[0] as f64 >= behind.as_nanos() as f64 * 0.9);
    assert!(lat[0] >= stall.as_secs_f64() * 1e6);
    assert_eq!(d.failed(Duration::from_millis(20)), N as u64);
}

#[test]
fn the_same_seed_gives_the_same_replications() {
    let fingerprints = |seed| {
        let out = run(
            Workload::PaperRegular,
            Scale::Smoke,
            seed,
            60.0,
            false,
            &mut Spans::new(false),
        );
        out.notes
            .into_iter()
            .filter(|n| n.starts_with("replication"))
            .collect::<Vec<_>>()
    };
    assert_eq!(fingerprints(9), fingerprints(9));
    assert_ne!(fingerprints(9), fingerprints(10));
}
