//! Integration tests for the `banger serve` daemon: concurrent
//! clients, cache invalidation on rewrite, panic containment, the
//! handler pool's idle timeout and every shutdown trigger.
#![cfg(unix)]

use banger::serve::server::{pool_size, IDLE_TIMEOUT};
use banger::serve::{Client, Request, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tiny self-contained design: r = a, through one task.
const SMALL: &str = "\
project serve-test

machine single
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage a 1
  task t1 1 prog Id
  storage r 1
  arc a -> t1
  arc t1 -> r
end

begin-program
task Id
  in a
  out r
begin
  r := a
end
end-program
";

fn temp_path(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "banger-serve-it-{}-{name}.{ext}",
        std::process::id()
    ))
}

fn lu3() -> String {
    std::fs::read_to_string("examples/projects/lu3.bang").expect("lu3 example exists")
}

/// Starts an in-process daemon; returns (socket path, server handle).
/// The caller sends `shutdown` (or sets the flag) and joins.
fn start_server(name: &str) -> (PathBuf, Arc<Server>, std::thread::JoinHandle<()>) {
    let sock = temp_path(name, "sock");
    std::fs::remove_file(&sock).ok();
    let server = Arc::new(Server::bind(&sock).expect("bind"));
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve().expect("serve"))
    };
    // Wait until the listener accepts.
    for _ in 0..100 {
        if Client::connect(&sock).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    (sock, server, handle)
}

fn shutdown(sock: &Path, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(sock).expect("connect for shutdown");
    c.request(&Request::new("shutdown")).expect("shutdown");
    handle.join().expect("server thread");
}

/// The `check` answer computed through the library directly (no
/// daemon, no serve-side cache) — the ground truth a fresh local
/// `banger check` would print.
fn expected_check(src: &str) -> String {
    let mut p = banger::parse_project(src).unwrap();
    format!("{}\n", banger::analyze::render_report(p.diagnose()))
}

/// The ground truth for `banger gantt -H ETF`, computed like
/// [`expected_check`].
fn expected_schedule(src: &str) -> String {
    let mut p = banger::parse_project(src).unwrap();
    let s = p.schedule("ETF").unwrap();
    let gantt = p.gantt(&s).unwrap();
    let f = p.flatten().unwrap();
    let g = f.graph.clone();
    let m = p.machine().unwrap();
    format!(
        "{gantt}\nmakespan {:.3}, speedup {:.2}x, efficiency {:.0}%, {} of {} processors used\n",
        s.makespan(),
        s.speedup(&g, m),
        100.0 * s.efficiency(&g, m),
        s.processors_used(),
        m.processors()
    )
}

/// Joins the server thread, failing the test instead of hanging if
/// `serve` has not returned within `limit`.
fn join_within(handle: std::thread::JoinHandle<()>, limit: Duration) {
    let start = Instant::now();
    while !handle.is_finished() {
        assert!(
            start.elapsed() < limit,
            "serve did not return within {limit:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("server thread");
}

/// A client that has been answered once (so a handler holds its
/// connection) and then stays silent.
fn idle_client(sock: &Path) -> Client {
    let mut c = Client::connect(sock).expect("connect");
    assert!(c.request(&Request::new("ping")).unwrap().ok);
    c
}

/// N threads fire mixed check/schedule/run requests; every response
/// must be byte-identical to a fresh, daemon-independent local
/// computation of the same answer.
#[test]
fn concurrent_clients_get_fresh_local_answers() {
    let lu3_src = lu3();
    let lu3_path = temp_path("stress-lu3", "bang");
    std::fs::write(&lu3_path, &lu3_src).unwrap();
    let small_path = temp_path("stress-small", "bang");
    std::fs::write(&small_path, SMALL).unwrap();

    let expected_check = expected_check(&lu3_src);
    let expected_sched = expected_schedule(&lu3_src);
    let expected_run = {
        let mut p = banger::parse_project(SMALL).unwrap();
        let mut inputs = std::collections::BTreeMap::new();
        inputs.insert("a".to_string(), banger_calc::Value::Num(7.5));
        let report = p.run(&inputs).unwrap();
        let mut out = String::new();
        for (task, line) in &report.prints {
            out.push_str(&format!("[{task}] {line}\n"));
        }
        for (var, value) in &report.outputs {
            out.push_str(&format!("{var} = {value}\n"));
        }
        out
    };

    let (sock, server, handle) = start_server("stress");
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let sock = sock.clone();
            let lu3_path = lu3_path.clone();
            let small_path = small_path.clone();
            let expected_check = expected_check.clone();
            let expected_sched = expected_sched.clone();
            let expected_run = expected_run.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&sock).expect("connect");
                for i in 0..6 {
                    match (t + i) % 3 {
                        0 => {
                            let req = Request::for_path("check", lu3_path.to_str().unwrap());
                            let resp = client.request(&req).unwrap();
                            assert!(resp.ok, "{}", resp.error);
                            assert_eq!(resp.output, expected_check);
                        }
                        1 => {
                            let mut req = Request::for_path("schedule", lu3_path.to_str().unwrap());
                            req.heuristic = "ETF".into();
                            let resp = client.request(&req).unwrap();
                            assert!(resp.ok, "{}", resp.error);
                            assert_eq!(resp.output, expected_sched);
                        }
                        _ => {
                            let mut req = Request::for_path("run", small_path.to_str().unwrap());
                            req.inputs.insert("a".into(), banger_calc::Value::Num(7.5));
                            let resp = client.request(&req).unwrap();
                            assert!(resp.ok, "{}", resp.error);
                            assert_eq!(resp.output, expected_run);
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = server.store().stats();
    assert_eq!(stats.requests, 48, "8 threads x 6 requests");
    assert_eq!(stats.panics, 0);
    assert!(stats.hits >= 40, "warm entries dominate: {stats:?}");
    shutdown(&sock, handle);
    std::fs::remove_file(&lu3_path).ok();
    std::fs::remove_file(&small_path).ok();
}

/// Rewriting the `.bang` file between requests must discard every warm
/// cache derived from the old bytes.
#[test]
fn rewrite_between_requests_invalidates_the_cache() {
    let path = temp_path("invalidate", "bang");
    std::fs::write(&path, SMALL).unwrap();
    let (sock, server, handle) = start_server("invalidate");
    let mut client = Client::connect(&sock).expect("connect");

    let req = Request::for_path("schedule", path.to_str().unwrap());
    let v1_cold = client.request(&req).unwrap();
    assert!(v1_cold.ok, "{}", v1_cold.error);
    assert!(!v1_cold.cached);
    let v1_warm = client.request(&req).unwrap();
    assert!(v1_warm.cached, "same bytes -> warm schedule");
    assert_eq!(v1_cold.output, v1_warm.output);

    // Rewrite: double the task weight. Same path, different bytes.
    std::fs::write(&path, SMALL.replace("task t1 1", "task t1 2")).unwrap();
    let v2 = client.request(&req).unwrap();
    assert!(v2.ok, "{}", v2.error);
    assert!(!v2.cached, "hash change must force a cold rebuild");
    assert_ne!(v1_cold.output, v2.output, "new weight changes the chart");
    assert_eq!(server.store().stats().rebuilds, 1);

    // And the new bytes are warm from now on.
    let v2_warm = client.request(&req).unwrap();
    assert!(v2_warm.cached);
    assert_eq!(v2.output, v2_warm.output);

    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// A panicking request handler must not kill the daemon: the client
/// gets a structured error, the entry is poisoned-and-rebuilt, and the
/// next request succeeds.
#[test]
fn daemon_survives_a_panicking_request() {
    let path = temp_path("panic", "bang");
    std::fs::write(&path, SMALL).unwrap();
    let (sock, server, handle) = start_server("panic");
    let mut client = Client::connect(&sock).expect("connect");

    // Warm the entry first so the panic has state to poison.
    let req = Request::for_path("schedule", path.to_str().unwrap());
    assert!(client.request(&req).unwrap().ok);
    assert!(client.request(&req).unwrap().cached);

    let mut boom = req.clone();
    boom.inject_handler_panic = true;
    let resp = client.request(&boom).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("panic"), "{}", resp.error);

    // Same connection still serves; the poisoned entry rebuilt cold.
    let after = client.request(&req).unwrap();
    assert!(after.ok, "{}", after.error);
    assert!(!after.cached, "panic poisoning evicts the warm entry");
    assert!(client.request(&req).unwrap().cached);

    let stats = server.store().stats();
    assert_eq!(stats.panics, 1);
    assert!(stats.evictions >= 1);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// An executor-level injected panic is an *attributed error* (the
/// in-pipeline fault path), not a handler panic: the daemon answers
/// with the task name and its panic counter stays at zero.
#[test]
fn executor_faults_are_attributed_not_fatal() {
    let path = temp_path("exec-fault", "bang");
    std::fs::write(&path, lu3()).unwrap();
    let (sock, server, handle) = start_server("exec-fault");
    let mut client = Client::connect(&sock).expect("connect");

    let mut req = Request::for_path("run", path.to_str().unwrap());
    req.inputs.insert(
        "A".into(),
        banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
    );
    req.inputs
        .insert("b".into(), banger_calc::Value::array(vec![1.0, 2.0, 3.0]));
    let mut bad = req.clone();
    bad.inject_panic = Some("Factor.fan1".into());
    let resp = client.request(&bad).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("Factor.fan1"), "{}", resp.error);
    assert_eq!(server.store().stats().panics, 0, "attributed, not caught");

    let resp = client.request(&req).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert!(resp.output.contains("x = [1, 2, 3]"), "{}", resp.output);
    shutdown(&sock, handle);
    std::fs::remove_file(&path).ok();
}

/// Malformed frames get an error response without dropping the
/// connection or the daemon.
#[test]
fn protocol_garbage_is_answered_not_fatal() {
    use banger::serve::protocol::{read_frame, write_frame};
    use std::os::unix::net::UnixStream;

    let (sock, _server, handle) = start_server("garbage");
    let mut raw = UnixStream::connect(&sock).expect("connect");
    write_frame(&mut raw, b"this is not json").unwrap();
    let frame = read_frame(&mut raw).unwrap().expect("an answer");
    let resp = banger::serve::Response::from_json(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert!(!resp.ok);
    assert!(resp.error.contains("bad request"), "{}", resp.error);

    // The same connection still serves well-formed requests.
    write_frame(&mut raw, Request::new("ping").to_json().as_bytes()).unwrap();
    let frame = read_frame(&mut raw).unwrap().expect("an answer");
    let resp = banger::serve::Response::from_json(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert!(resp.ok);
    assert_eq!(resp.output, "pong\n");

    drop(raw);
    shutdown(&sock, handle);
}

/// `request_shutdown` from another thread (the signal-handler path
/// minus the signal) makes `serve` return and clean up the socket.
#[test]
fn programmatic_shutdown_cleans_up() {
    let (sock, server, handle) = start_server("clean");
    assert!(sock.exists());
    server.request_shutdown();
    handle.join().expect("server thread");
    assert!(!sock.exists(), "socket file removed on exit");
    assert!(server.shutdown_handle().load(Ordering::SeqCst));
}

/// A bare store to the shutdown handle (how an embedding program stops
/// its in-process daemon) ends `serve` promptly, with or without an
/// idle client holding a handler.
#[test]
fn bare_flag_store_ends_serve_even_with_an_idle_client() {
    let (sock, server, handle) = start_server("flag-bare");
    server.shutdown_handle().store(true, Ordering::SeqCst);
    join_within(handle, Duration::from_secs(1));
    assert!(!sock.exists(), "socket file removed on exit");

    let (sock, server, handle) = start_server("flag-idle");
    let mut idle = idle_client(&sock);
    let stopped = Instant::now();
    server.shutdown_handle().store(true, Ordering::SeqCst);
    join_within(handle, Duration::from_secs(1));
    assert!(
        stopped.elapsed() < IDLE_TIMEOUT,
        "serve waited for the idle timeout instead of closing the connection"
    );
    assert!(!sock.exists(), "socket file removed on exit");
    assert!(
        idle.request(&Request::new("ping")).is_err(),
        "the idle connection is closed on shutdown"
    );
}

/// The `shutdown` verb ends `serve` while another client holds an idle
/// connection, and its sender still gets the answer.
#[test]
fn shutdown_verb_ends_serve_while_another_client_idles() {
    let (sock, _server, handle) = start_server("verb-idle");
    let mut idle = idle_client(&sock);
    let stopped = Instant::now();
    let resp = Client::connect(&sock)
        .expect("connect")
        .request(&Request::new("shutdown"))
        .expect("shutdown is answered");
    assert!(resp.ok);
    assert_eq!(resp.output, "shutting down\n");
    join_within(handle, Duration::from_secs(1));
    assert!(stopped.elapsed() < IDLE_TIMEOUT);
    assert!(!sock.exists(), "socket file removed on exit");
    assert!(idle.request(&Request::new("ping")).is_err());
}

/// A client that sends half a length prefix and then goes silent holds
/// a handler only until the idle timeout; meanwhile the rest of the
/// pool keeps answering other clients.
#[test]
fn half_frame_client_is_dropped_after_the_idle_timeout() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let (sock, _server, handle) = start_server("half-frame");
    // Pin every handler but one.
    let stuck: Vec<(UnixStream, Instant)> = (1..pool_size())
        .map(|_| {
            let mut raw = UnixStream::connect(&sock).expect("connect");
            raw.write_all(&[0, 0]).unwrap();
            (raw, Instant::now())
        })
        .collect();

    let mut client = Client::connect(&sock).expect("connect");
    for _ in 0..3 {
        let asked = Instant::now();
        let resp = client.request(&Request::new("ping")).unwrap();
        assert_eq!(resp.output, "pong\n");
        assert!(
            asked.elapsed() < IDLE_TIMEOUT / 2,
            "a free handler answered late: {:?}",
            asked.elapsed()
        );
    }
    drop(client);

    for (mut raw, sent) in stuck {
        raw.set_read_timeout(Some(IDLE_TIMEOUT * 5)).unwrap();
        let mut buf = [0u8; 16];
        let n = raw.read(&mut buf).expect("the daemon closes, not the test");
        assert_eq!(n, 0, "a half frame gets no answer, only a close");
        let waited = sent.elapsed();
        assert!(
            waited >= IDLE_TIMEOUT.mul_f64(0.9),
            "dropped after {waited:?}, before the idle timeout"
        );
    }
    shutdown(&sock, handle);
}

/// Twice as many simultaneous multi-request clients as handlers: the
/// extra connections wait their turn, and every answer is byte-correct.
#[test]
fn more_clients_than_handlers_all_get_correct_answers() {
    let lu3_src = lu3();
    let lu3_path = temp_path("pool-lu3", "bang");
    std::fs::write(&lu3_path, &lu3_src).unwrap();
    let expected_check = Arc::new(expected_check(&lu3_src));
    let expected_sched = Arc::new(expected_schedule(&lu3_src));

    let (sock, server, handle) = start_server("pool");
    let clients = 2 * pool_size() + 1;
    let requests = 4;
    let go = Arc::new(std::sync::Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let sock = sock.clone();
            let path = lu3_path.to_str().unwrap().to_string();
            let (go, expected_check, expected_sched) = (
                Arc::clone(&go),
                Arc::clone(&expected_check),
                Arc::clone(&expected_sched),
            );
            std::thread::spawn(move || {
                go.wait();
                let mut client = Client::connect(&sock).expect("connect");
                for i in 0..requests {
                    let (req, expected) = if (t + i) % 2 == 0 {
                        (Request::for_path("check", &path), &expected_check)
                    } else {
                        let mut req = Request::for_path("schedule", &path);
                        req.heuristic = "ETF".into();
                        (req, &expected_sched)
                    };
                    let resp = client.request(&req).unwrap();
                    assert!(resp.ok, "{}", resp.error);
                    assert_eq!(&resp.output, expected.as_str());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let stats = server.store().stats();
    assert_eq!(stats.requests, (clients * requests) as u64);
    assert_eq!(stats.panics, 0);
    shutdown(&sock, handle);
    std::fs::remove_file(&lu3_path).ok();
}
