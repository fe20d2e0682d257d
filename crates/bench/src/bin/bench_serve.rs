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
//! `--quick` also shortens the sustained phase. Timing and output path
//! follow [`banger_bench::harness`]. Throughput numbers on a 1-CPU host
//! measure protocol + dispatch overhead, not parallel speedup — client
//! threads and the daemon share the core.

#[cfg(not(unix))]
fn main() {
    eprintln!("bench_serve requires a Unix platform (unix-domain sockets)");
}

#[cfg(unix)]
fn main() {
    use banger::serve::ops;
    use banger::serve::{Client, ProjectStore, Request, Server};
    use banger_bench::harness::{obj, round, Bench};
    use std::hint::black_box;
    use std::time::Instant;

    let bench = Bench::from_args("serve");
    let sustained_per_client = if bench.quick() { 50u32 } else { 500u32 };

    let lu3 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/projects/lu3.bang"
    );
    let lu3 = std::fs::canonicalize(lu3).expect("lu3 example exists");
    let lu3 = lu3.to_str().expect("utf-8 path");

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

    let sched_cold_ns = bench.best_ns(|| {
        store.evict(lu3);
        ops::handle(&store, black_box(&sched_req))
    });
    ops::handle(&store, &sched_req); // re-warm
    let sched_warm_ns = bench.best_ns(|| ops::handle(&store, black_box(&sched_req)));
    let check_cold_ns = bench.best_ns(|| {
        store.evict(lu3);
        ops::handle(&store, black_box(&check_req))
    });
    ops::handle(&store, &check_req);
    let check_warm_ns = bench.best_ns(|| ops::handle(&store, black_box(&check_req)));
    let cold_warm = |cold_ns: f64, warm_ns: f64| {
        obj([
            ("cold_best_ns", cold_ns.round().into()),
            ("warm_best_ns", warm_ns.round().into()),
            ("warm_speedup", round(cold_ns / warm_ns, 2).into()),
        ])
    };
    let mut fields = vec![
        (
            "schedule".to_string(),
            cold_warm(sched_cold_ns, sched_warm_ns),
        ),
        ("check".to_string(), cold_warm(check_cold_ns, check_warm_ns)),
    ];

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
    let ping_ns = bench.best_ns(|| client.request(&ping).expect("ping"));
    let sched_rt_ns = bench.best_ns(|| client.request(&sched_req).expect("schedule"));
    fields.push((
        "socket".to_string(),
        obj([
            ("ping_roundtrip_best_ns", ping_ns.round().into()),
            (
                "schedule_warm_roundtrip_best_ns",
                sched_rt_ns.round().into(),
            ),
        ]),
    ));
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
    fields.push((
        "sustained".to_string(),
        obj([
            ("clients", clients.into()),
            ("handlers", banger::serve::server::pool_size().into()),
            ("requests", total.into()),
            ("elapsed_ms", (elapsed.as_millis() as f64).into()),
            ("req_per_sec", req_per_sec.round().into()),
        ]),
    ));

    // Clean shutdown over the protocol.
    Client::connect(&sock)
        .expect("connect")
        .request(&Request::new("shutdown"))
        .expect("shutdown");
    handle.join().expect("server thread");

    fields.push((
        "notes".to_string(),
        "cold = entry evicted before each request (parse+diagnose+schedule+render rerun); \
         warm = resident entry, one stat+read+rehash per request. Single small host; with \
         host_cpus=1 the sustained figure measures protocol+dispatch overhead under \
         contention, not parallel scaling."
            .into(),
    ));
    bench.write(fields);

    assert!(
        sched_cold_ns / sched_warm_ns >= 5.0,
        "warm schedule requests must be at least 5x faster than cold (got {:.2}x)",
        sched_cold_ns / sched_warm_ns
    );
}
