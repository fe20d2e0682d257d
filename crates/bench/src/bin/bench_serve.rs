//! `bench_serve` — measures what the `banger serve` daemon's
//! content-hashed caches buy, writing `BENCH_serve.json`:
//!
//! - **cold vs warm request latency** through the request dispatcher
//!   (`serve::ops::handle`): cold = the entry is evicted before every
//!   request, so parse + diagnose + schedule + render all rerun; warm =
//!   the same request replayed against the resident entry (one
//!   stat+read+rehash of the source file plus a cache lookup);
//! - **socket round-trip latency** against a live daemon on a
//!   Unix-domain socket (framing + JSON + dispatch, warm);
//! - **sustained throughput** under concurrent clients hammering warm
//!   mixed check/schedule requests.
//!
//! ```text
//! cargo run --release -p banger-bench --bin bench_serve [-- --quick]
//! ```
//!
//! `--quick` shrinks the measurement budget for CI smoke runs and
//! writes `target/BENCH_serve.json` instead, so a smoke run never
//! replaces the committed full-run record.
//!
//! Timings are the **minimum of batch means** (same estimator as the
//! other bench records): the host is small and noisy; the minimum
//! estimates the uncontended cost most stably. Throughput numbers on a
//! 1-CPU host measure protocol + dispatch overhead, not parallel
//! speedup — client threads and the daemon share the core.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Minimum batch-mean wall time of `f` in nanoseconds.
fn best_ns<F: FnMut()>(budget_ms: u128, mut f: F) -> f64 {
    f(); // warmup
    let t0 = Instant::now();
    f();
    let per = t0.elapsed().as_nanos().max(1);
    let batch = ((5_000_000 / per).max(1) as u64).min(16_384);
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0u32;
    while batches < 3 || (started.elapsed().as_millis() < budget_ms && batches < 1_000) {
        let s = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(s.elapsed().as_nanos() as f64 / batch as f64);
        batches += 1;
    }
    best
}

#[cfg(not(unix))]
fn main() {
    eprintln!("bench_serve requires a Unix platform (unix-domain sockets)");
}

#[cfg(unix)]
fn main() {
    use banger::serve::ops;
    use banger::serve::{Client, ProjectStore, Request, Server};

    let quick = std::env::args().any(|a| a == "--quick");
    let (budget_ms, sustained_per_client) = if quick { (20, 50u32) } else { (150, 500u32) };

    let lu3 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/projects/lu3.bang"
    );
    let lu3 = std::fs::canonicalize(lu3).expect("lu3 example exists");
    let lu3 = lu3.to_str().expect("utf-8 path");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // ---- dispatcher-level cold vs warm -------------------------------
    let store = ProjectStore::new();
    let mut sched_req = Request::for_path("schedule", lu3);
    sched_req.heuristic = "ETF".into();
    let check_req = Request::for_path("check", lu3);

    // Correctness gate before timing: warm and cold answers must match.
    let cold_resp = ops::handle(&store, &sched_req);
    assert!(cold_resp.ok, "{}", cold_resp.error);
    let warm_resp = ops::handle(&store, &sched_req);
    assert!(warm_resp.cached, "second request must be warm");
    assert_eq!(cold_resp.output, warm_resp.output);

    let sched_cold_ns = best_ns(budget_ms, || {
        store.evict(lu3);
        black_box(ops::handle(&store, black_box(&sched_req)));
    });
    ops::handle(&store, &sched_req); // re-warm
    let sched_warm_ns = best_ns(budget_ms, || {
        black_box(ops::handle(&store, black_box(&sched_req)));
    });
    let check_cold_ns = best_ns(budget_ms, || {
        store.evict(lu3);
        black_box(ops::handle(&store, black_box(&check_req)));
    });
    ops::handle(&store, &check_req);
    let check_warm_ns = best_ns(budget_ms, || {
        black_box(ops::handle(&store, black_box(&check_req)));
    });
    let _ = write!(
        json,
        "  \"schedule\": {{\n    \
         \"cold_best_ns\": {sched_cold_ns:.0},\n    \
         \"warm_best_ns\": {sched_warm_ns:.0},\n    \
         \"warm_speedup\": {:.2}\n  }},\n",
        sched_cold_ns / sched_warm_ns
    );
    let _ = write!(
        json,
        "  \"check\": {{\n    \
         \"cold_best_ns\": {check_cold_ns:.0},\n    \
         \"warm_best_ns\": {check_warm_ns:.0},\n    \
         \"warm_speedup\": {:.2}\n  }},\n",
        check_cold_ns / check_warm_ns
    );

    // ---- socket round-trips against a live daemon --------------------
    let sock = std::env::temp_dir().join(format!("banger-bench-serve-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let server = std::sync::Arc::new(Server::bind(&sock).expect("bind"));
    let handle = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || server.serve().expect("serve"))
    };
    for _ in 0..100 {
        if Client::connect(&sock).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let mut client = Client::connect(&sock).expect("connect");
    let ping = Request::new("ping");
    client.request(&sched_req).expect("warm the daemon");
    let ping_ns = best_ns(budget_ms, || {
        black_box(client.request(&ping).expect("ping"));
    });
    let sched_rt_ns = best_ns(budget_ms, || {
        black_box(client.request(&sched_req).expect("schedule"));
    });
    let _ = write!(
        json,
        "  \"socket\": {{\n    \
         \"ping_roundtrip_best_ns\": {ping_ns:.0},\n    \
         \"schedule_warm_roundtrip_best_ns\": {sched_rt_ns:.0}\n  }},\n"
    );
    // Free its handler: the sustained phase measures the whole pool.
    drop(client);

    // ---- sustained throughput under concurrent clients ---------------
    let clients = 4u32;
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let sock = sock.clone();
            let sched_req = sched_req.clone();
            let check_req = check_req.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock).expect("connect");
                for i in 0..sustained_per_client {
                    let req = if (t + i) % 2 == 0 {
                        &sched_req
                    } else {
                        &check_req
                    };
                    let resp = client.request(req).expect("request");
                    assert!(resp.ok, "{}", resp.error);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = started.elapsed();
    let total = u64::from(clients) * u64::from(sustained_per_client);
    let req_per_sec = total as f64 / elapsed.as_secs_f64();
    let _ = write!(
        json,
        "  \"sustained\": {{\n    \
         \"clients\": {clients},\n    \
         \"handlers\": {},\n    \
         \"requests\": {total},\n    \
         \"elapsed_ms\": {},\n    \
         \"req_per_sec\": {req_per_sec:.0}\n  }},\n",
        banger::serve::server::pool_size(),
        elapsed.as_millis()
    );

    // Clean shutdown over the protocol.
    Client::connect(&sock)
        .expect("connect")
        .request(&Request::new("shutdown"))
        .expect("shutdown");
    handle.join().expect("server thread");

    let _ = write!(
        json,
        "  \"notes\": \"cold = entry evicted before each request (parse+diagnose+schedule+render \
         rerun); warm = resident entry, one stat+read+rehash per request. Single small host; \
         minimum-of-batch-means estimator; with host_cpus=1 the sustained figure measures \
         protocol+dispatch overhead under contention, not parallel scaling.\"\n}}\n"
    );

    print!("{json}");
    let out = if quick {
        std::fs::create_dir_all("target").expect("create target/");
        "target/BENCH_serve.json"
    } else {
        "BENCH_serve.json"
    };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("wrote {out}");

    assert!(
        sched_cold_ns / sched_warm_ns >= 5.0,
        "warm schedule requests must be at least 5x faster than cold (got {:.2}x)",
        sched_cold_ns / sched_warm_ns
    );
}
