//! Traced in-process replay of benchmark requests.
//!
//! `tracer SPANS` replays each request read from stdin (sent by
//! perfbench/run.py) through banger's public functions, the way the
//! `banger` CLI calls them, with a span around every layer call, and
//! answers one line per request: `ok` or `fail<TAB>why`. Requests arrive
//! one at a time so the harness can interleave them with the spawned
//! CLI requests they are compared against. Spans and counters stay in
//! memory and are written to SPANS at end of input. Daemon requests go
//! to an in-process `serve::Server` over a fresh connection each, as
//! the CLI's `--connect` makes one.
//!
//! Request lines (tab-separated): `id group verb design edit args...`,
//! where verb is one of perfbench's verbs (`check`, `gantt_ETF`, ...,
//! `connect:<verb>`, `exec_counters`, `ping`), edit is 1 when a comment
//! line is appended to the design file first, and args are the CLI
//! arguments after the design file.
//!
//! SPANS lines: `req id group verb design ok note`,
//! `span id layer start_ns end_ns` and `count id name value`.

use banger::document::parse_project;
use banger::project::Project;
use banger::serve::{Client, Request, Server};
use banger_calc::Value;
use banger_exec::{ExecMode, ExecOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const SOCKET: &str = "t.sock";

/// Spans and counters of the whole replay, kept in memory.
struct Recorder {
    epoch: Instant,
    out: String,
}

/// One request being replayed.
struct Ctx<'a> {
    rec: &'a mut Recorder,
    id: &'a str,
}

impl Ctx<'_> {
    fn span<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let start = self.rec.epoch.elapsed().as_nanos();
        let v = f();
        let end = self.rec.epoch.elapsed().as_nanos();
        let _ = writeln!(self.rec.out, "span\t{}\t{layer}\t{start}\t{end}", self.id);
        v
    }

    fn count(&mut self, name: &str, value: f64) {
        let _ = writeln!(self.rec.out, "count\t{}\t{name}\t{value}", self.id);
    }
}

fn heuristic(args: &[String]) -> String {
    args.windows(2)
        .find(|w| w[0] == "-H")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "MH".to_string())
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn inputs(args: &[String]) -> Result<BTreeMap<String, Value>, String> {
    let mut out = BTreeMap::new();
    for w in args.windows(2).filter(|w| w[0] == "-i") {
        let (var, val) = w[1].split_once('=').ok_or("bad -i")?;
        let v = match val.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            Some(inner) => Value::array(
                inner
                    .split(',')
                    .filter(|p| !p.trim().is_empty())
                    .map(|p| p.trim().parse::<f64>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            None => Value::Num(val.parse::<f64>().map_err(|e| e.to_string())?),
        };
        out.insert(var.to_string(), v);
    }
    Ok(out)
}

/// read + parse, as every local verb starts.
fn load(cx: &mut Ctx, path: &str) -> Result<Project, String> {
    let text = cx.span("document.read", || std::fs::read_to_string(path));
    let text = text.map_err(|e| format!("cannot read {path}: {e}"))?;
    cx.count("document.bytes", text.len() as f64);
    cx.span("document.parse", || parse_project(&text))
        .map_err(|e| format!("{path}: {e}"))
}

/// flatten + diagnose, split out of the first call that needs them so
/// each gets its own span; later calls hit the project's caches.
fn prepare(cx: &mut Ctx, p: &mut Project) -> Result<(), String> {
    let shape = cx.span("taskgraph.flatten", || {
        p.flatten()
            .map(|f| (f.graph.task_count(), f.graph.edge_count()))
    });
    let (tasks, arcs) = shape.map_err(|e| e.to_string())?;
    cx.count("taskgraph.tasks", tasks as f64);
    cx.count("taskgraph.arcs", arcs as f64);
    let n = cx.span("analyze.diagnose", || p.diagnose().len());
    cx.count("analyze.diagnostics", n as f64);
    Ok(())
}

fn schedule(cx: &mut Ctx, p: &mut Project, h: &str) -> Result<banger_sched::Schedule, String> {
    let s = cx.span(&format!("sched.schedule.{h}"), || p.schedule(h));
    let s = s.map_err(|e| e.to_string())?;
    if h == "ETF" {
        cx.count("sched.arrival_probes", s.stats().arrival_probes as f64);
        cx.count("sched.slot_searches", s.stats().slot_searches as f64);
    }
    Ok(s)
}

fn local(cx: &mut Ctx, verb: &str, design: &str, args: &[String]) -> Result<(), String> {
    let path = format!("{design}.bang");
    let mut p = load(cx, &path)?;
    if verb == "check" {
        let diags = cx.span("analyze.diagnose", || p.diagnose().to_vec());
        cx.count("analyze.diagnostics", diags.len() as f64);
        let report = cx.span("analyze.render", || banger::analyze::render_report(&diags));
        let racy = design == "racy_pipeline";
        return match (banger::analyze::has_errors(&diags), racy) {
            (false, false) => Ok(()),
            (true, true) if report.contains("error[B001]") => Ok(()),
            _ => Err(format!("unexpected diagnostics:\n{report}")),
        };
    }
    prepare(cx, &mut p)?;
    let inputs = inputs(args)?;
    match verb {
        "gantt_ETF" | "gantt_MH" => {
            let s = schedule(cx, &mut p, &heuristic(args))?;
            cx.span("core.gantt_render", || p.gantt(&s))
                .map_err(|e| e.to_string())?;
            let line = cx.span("core.summary", || {
                let g = p.flatten().map(|f| f.graph.clone())?;
                let m = p.machine().ok_or(banger::ProjectError::NoMachine)?;
                Ok::<_, banger::ProjectError>((s.speedup(&g, m), s.efficiency(&g, m)))
            });
            line.map_err(|e| e.to_string())?;
        }
        "simulate" => {
            let s = schedule(cx, &mut p, &heuristic(args))?;
            let r = cx.span("sim.simulate", || p.simulate(&s));
            let r = r.map_err(|e| e.to_string())?;
            cx.count("sim.messages", r.stats.messages as f64);
        }
        "run" => {
            let r = cx.span("exec.cold", || p.run(&inputs));
            let r = r.map_err(|e| e.to_string())?;
            cx.count("exec.ops", r.total_ops() as f64);
        }
        "run_trace" => {
            let h = heuristic(args);
            let s = schedule(cx, &mut p, &h)?;
            let options = ExecOptions {
                mode: ExecMode::pinned(s.clone()),
                trace: true,
                ..Default::default()
            };
            let r = cx.span("exec.pinned_traced", || p.run_with(&inputs, &options));
            let r = r.map_err(|e| e.to_string())?;
            let trace = r.trace.as_ref().ok_or("traced run recorded no trace")?;
            let queue_wait = trace.summary().queue_wait;
            cx.count("exec.queue_wait_ms", queue_wait.as_secs_f64() * 1e3);
            let g = p.flatten().map_err(|e| e.to_string())?.graph.clone();
            let name_of = |t| banger::project::short_name(&g.task(t).name);
            let out = flag(args, "--trace").ok_or("run_trace without --trace")?;
            cx.span("trace.export", || {
                std::fs::write(&out, trace.chrome_json(name_of))
            })
            .map_err(|e| e.to_string())?;
            cx.span("core.gantt_render", || p.gantt(&s))
                .map_err(|e| e.to_string())?;
            cx.span("core.observed_gantt", || p.observed_gantt(trace))
                .map_err(|e| e.to_string())?;
            cx.span("trace.drift", || {
                p.drift_report(&s, trace).map(|d| d.render(name_of))
            })
            .map_err(|e| e.to_string())?;
        }
        "run_repeat" => {
            let n: u32 = flag(args, "--repeat")
                .and_then(|v| v.parse().ok())
                .ok_or("run_repeat without --repeat N")?;
            let session = cx.span("exec.route", || p.session(&ExecOptions::default()));
            let mut session = session.map_err(|e| e.to_string())?;
            for _ in 0..n {
                cx.span("exec.fire", || session.run(&inputs))
                    .map_err(|e| e.to_string())?;
            }
        }
        "exec_counters" => {
            let options = ExecOptions {
                trace: true,
                ..Default::default()
            };
            let r = cx.span("exec.greedy_traced", || p.run_with(&inputs, &options));
            let r = r.map_err(|e| e.to_string())?;
            let t = r
                .trace
                .as_ref()
                .ok_or("traced run recorded no trace")?
                .summary();
            cx.count("exec.utilization", t.utilization());
            cx.count("exec.steals", t.steals as f64);
            cx.count("exec.inline_tasks", t.inline_tasks as f64);
            cx.count("exec.cow_bytes", t.cow_bytes as f64);
        }
        other => return Err(format!("unknown verb {other:?}")),
    }
    Ok(())
}

/// A daemon request over a fresh connection; the span is named by
/// whether the daemon answered from its caches.
fn served(cx: &mut Ctx, verb: &str, design: &str, args: &[String]) -> Result<(), String> {
    let path = format!("{design}.bang");
    let mut req = match verb {
        "check" => Request::for_path("check", &path),
        "gantt_ETF" => Request::for_path("schedule", &path),
        "run" => Request::for_path("run", &path),
        other => return Err(format!("no daemon verb for {other:?}")),
    };
    req.heuristic = heuristic(args);
    req.inputs = inputs(args)?;
    let start = cx.rec.epoch.elapsed().as_nanos();
    let resp = Client::connect(Path::new(SOCKET))
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.request(&req))?;
    let end = cx.rec.epoch.elapsed().as_nanos();
    let layer = if resp.cached {
        "serve.warm_rtt"
    } else {
        "serve.cold_rtt"
    };
    let _ = writeln!(cx.rec.out, "span\t{}\t{layer}\t{start}\t{end}", cx.id);
    if !resp.ok || resp.exit != 0 {
        return Err(format!(
            "daemon answered exit {}: {}",
            resp.exit, resp.error
        ));
    }
    Ok(())
}

fn ping(cx: &mut Ctx, store: &banger::serve::ProjectStore) -> Result<(), String> {
    let resp = cx.span("serve.ping_rtt", || {
        Client::connect(Path::new(SOCKET))
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.request(&Request::new("ping")))
    })?;
    let s = store.stats();
    if s.hits + s.misses > 0 {
        cx.count(
            "serve.hit_ratio",
            s.hits as f64 / (s.hits + s.misses) as f64,
        );
    }
    if resp.ok {
        Ok(())
    } else {
        Err(resp.error)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() != 2 {
        eprintln!("usage: tracer SPANS < requests");
        std::process::exit(2);
    }
    let server = match Server::bind(Path::new(SOCKET)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tracer: cannot bind {SOCKET}: {e}");
            std::process::exit(1);
        }
    };
    let store = server.store();
    let stop = server.shutdown_handle();
    let daemon = std::thread::spawn(move || server.serve());

    let mut rec = Recorder {
        epoch: Instant::now(),
        out: String::new(),
    };
    let mut reqs = String::new();
    let mut stdout = std::io::stdout();
    for line in std::io::stdin().lines() {
        let Ok(line) = line else { break };
        let f: Vec<String> = line.split('\t').map(str::to_string).collect();
        let result = if f.len() < 5 {
            Err(format!("malformed request line {line:?}"))
        } else {
            replay(&mut rec, &store, &f)
        };
        let (ok, note) = match result {
            Ok(()) => (1, String::new()),
            Err(e) => (0, e.replace(['\t', '\n'], " ")),
        };
        let id = f.first().map(String::as_str).unwrap_or("?");
        let (group, verb, design) = match &f[..] {
            [_, g, v, d, ..] => (g.as_str(), v.as_str(), d.as_str()),
            _ => ("?", "?", "?"),
        };
        let _ = writeln!(reqs, "req\t{id}\t{group}\t{verb}\t{design}\t{ok}\t{note}");
        let reply = if ok == 1 {
            "ok".to_string()
        } else {
            format!("fail\t{note}")
        };
        if writeln!(stdout, "{reply}")
            .and_then(|_| stdout.flush())
            .is_err()
        {
            break;
        }
    }

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = daemon.join();
    if let Err(e) = std::fs::write(&argv[1], reqs + &rec.out) {
        eprintln!("tracer: cannot write {}: {e}", argv[1]);
        std::process::exit(1);
    }
}

/// Replays one request line (already split on tabs).
fn replay(
    rec: &mut Recorder,
    store: &banger::serve::ProjectStore,
    f: &[String],
) -> Result<(), String> {
    let (id, verb, design) = (&f[0], &f[2], &f[3]);
    let args = &f[5..];
    if f[4] == "1" {
        std::fs::OpenOptions::new()
            .append(true)
            .open(format!("{design}.bang"))
            .and_then(|mut file| file.write_all(b"# edited\n"))
            .map_err(|e| format!("cannot edit {design}.bang: {e}"))?;
    }
    let mut cx = Ctx { rec, id };
    if verb == "ping" {
        ping(&mut cx, store)
    } else if let Some(v) = verb.strip_prefix("connect:") {
        served(&mut cx, v, design, args)
    } else {
        local(&mut cx, verb, design, args)
    }
}
