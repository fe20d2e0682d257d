//! The command layer: every `banger` subcommand, shared by the binary's
//! local mode and the `banger serve` daemon.
//!
//! [`parse`] turns one command line into a [`Request`]; [`execute`] runs
//! it against a [`Project`] and returns the whole answer as a
//! [`Response`]: stdout, stderr, the files to write and the exit code;
//! [`print`] prints a response the same way in both modes. The daemon
//! calls [`execute`] on its cached project, so a `--connect` answer is
//! the local answer by construction. Commands neither print nor write
//! files: the process that prints the response writes its files,
//! relative to its own working directory, and a client writes only the
//! paths its own request names ([`outputs`]).

use crate::analyze::{self, Severity};
use crate::project::{short_name, OptimizeStats, Project, ProjectError};
use crate::serve::{Request, Response};
use banger_calc::{InterpConfig, Value};
use banger_exec::{ExecMode, ExecOptions, ExecReport, Session};
use banger_machine::Topology;
use std::error::Error;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Duration;

/// Every subcommand, with a one-line summary for `banger help`.
pub const COMMANDS: &[(&str, &str)] = &[
    (
        "check",
        "static analysis: races, interfaces, hygiene, body safety (B0xx); --weights for cost bounds",
    ),
    ("show", "design statistics + DOT rendering"),
    ("gantt", "schedule + ASCII Gantt chart"),
    (
        "compare",
        "run every scheduling heuristic, sorted by makespan",
    ),
    (
        "simulate",
        "message-accurate simulation: predicted vs achieved",
    ),
    ("animate", "frame-by-frame schedule replay"),
    ("advise", "bottleneck analysis + suggestions"),
    ("recommend", "rank standard machines for the design"),
    ("svg", "write gantt/speedup/utilization SVG charts"),
    ("save-schedule", "persist a schedule to a file"),
    ("verify", "validate + replay a saved schedule"),
    (
        "run",
        "execute the design on host threads (--repeat N for a warm session)",
    ),
    ("trial", "trial-run one PITS program with explicit inputs"),
    ("speedup", "speedup prediction sweep over topologies"),
    ("codegen", "emit generated Rust or C code to stdout"),
    (
        "parallelize",
        "split a reduction task n ways and rewrite the document",
    ),
    (
        "optimize",
        "graph-rewrite optimizer: dead arcs, map expansion (--expand), fusion (--fuse)",
    ),
    (
        "graph",
        "flattened task-graph statistics (--optimized first; --dot for Graphviz)",
    ),
    (
        "schedule",
        "alias of gantt (the daemon client grammar's name for it)",
    ),
    ("help", "show this list"),
];

/// Verbs that address the daemon itself rather than a project.
pub const ADMIN: &[&str] = &["ping", "stats", "shutdown", "evict"];

/// The `banger help` text.
pub fn usage_text() -> String {
    let mut out =
        String::from("usage: banger <subcommand> <file.bang> [options]\n\nsubcommands:\n");
    for (name, summary) in COMMANDS {
        let _ = writeln!(out, "  {name:<14} {summary}");
    }
    out.push_str(
        "\noptions:\n\
         \x20 -H <heuristic>   serial naive HLFET MCP ETF DLS MH DSH (default MH)\n\
         \x20 -i var=value     run/codegen inputs; arrays as [1,2,3]\n\
         \x20 -t spec,spec,... speedup topologies, e.g. single,hypercube:1,hypercube:2\n\
         \x20 -p <procs>       recommend: processor budget (default 16)\n\
         \x20 -s <path>        verify: saved schedule file\n\
         \x20 -o <path>        svg/save-schedule: output location\n\
         \x20 --format <fmt>   check: text (default) or json\n\
         \x20 --weights        check: per-task weight report — drawn weight vs the\n\
         \x20                  abstract interpreter's static cost bounds; with -i\n\
         \x20                  inputs and a clean design, also runs it and shows\n\
         \x20                  measured ops per task\n\
         \x20 --reference      trial: use the tree-walking reference interpreter\n\
         \x20 --repeat <n>     run: fire the design n times through one persistent\n\
         \x20                  session (warm worker pool; prints per-firing stats)\n\
         \x20 --trace <path>   run: execute pinned to the -H schedule with tracing,\n\
         \x20                  write Chrome trace JSON (chrome://tracing, Perfetto)\n\
         \x20                  and print the observed-vs-predicted drift report\n\
         \x20 --optimize       run/gantt: apply dead-arc elimination + task fusion\n\
         \x20                  to the design first (Outcome-preserving)\n\
         \x20 --fuse           optimize: fuse grain-packed clusters into single tasks\n\
         \x20 --expand t:n     optimize: expand dense-LU template task t into an\n\
         \x20                  n x n tiled block-LU (bit-identical results)\n\
         \x20 --emit <path>    optimize: write the rewritten document ('-' = stdout)\n\
         \x20 --optimized      graph: optimize (with fusion) before reporting\n\
         \x20 --dot            graph: print Graphviz DOT of the flattened graph\n\
         \ndaemon:\n\
         \x20 banger serve [--socket PATH]   persistent project daemon: content-hashed\n\
         \x20                  caches (parse, diagnose, compile, schedule) plus warm\n\
         \x20                  executor sessions, served over a Unix socket\n\
         \x20 --connect PATH   serve any subcommand from a running daemon (same\n\
         \x20                  output; files are written here); runs locally when\n\
         \x20                  no daemon answers\n\
         \x20 ping|stats|shutdown            daemon admin (socket: --connect PATH,\n\
         \x20                  else $BANGER_SOCKET, else <tmpdir>/banger.sock)\n\
         \x20 evict <file>     drop the daemon's cached state for one project\n\
         \nexit codes:\n\
         \x20 0  success (warnings allowed)\n\
         \x20 1  operational failure, or `check` found error-severity diagnostics\n\
         \x20 2  usage error (unknown subcommand, missing arguments)",
    );
    out
}

/// Parses the arguments after `banger` (`--connect` already removed).
/// `-H` and `-i` go to their typed fields, every other argument after
/// the project file to [`Request::args`]. `Err` is the answer itself:
/// the help text, or a usage or input error.
pub fn parse(args: &[String]) -> Result<Request, Response> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if matches!(cmd, "help" | "--help" | "-h") {
        return Err(Response::success(usage_text() + "\n"));
    }
    let usage = |msg: String| Response::failure(msg).with_exit(2);
    if matches!(cmd, "ping" | "stats" | "shutdown") {
        return Ok(Request::new(cmd));
    }
    if !ADMIN.contains(&cmd) && !COMMANDS.iter().any(|(name, _)| *name == cmd) {
        let msg = format!("unknown subcommand {cmd:?} (run `banger help` for the list)");
        return Err(usage(msg));
    }
    let Some(path) = args.get(1) else {
        let help = if cmd == "evict" {
            String::new()
        } else {
            format!("\n\n{}", usage_text())
        };
        return Err(usage(format!("{cmd} needs a <file.bang> argument{help}")));
    };
    let mut req = Request::for_path(cmd, path);
    let mut rest = args[2..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "-H" => {
                let h = rest.next().ok_or("-H needs a heuristic name");
                req.heuristic = h.map_err(Response::failure)?.clone();
            }
            "-i" => {
                let pair = rest.next().ok_or("-i needs var=value");
                let (var, value) =
                    input(pair.map_err(Response::failure)?).map_err(Response::failure)?;
                req.inputs.insert(var.to_string(), value);
            }
            _ => req.args.push(arg.clone()),
        }
    }
    Ok(req)
}

/// Parses one `-i var=value` pair; values are scalars or `[1,2,3]`.
fn input(pair: &str) -> Result<(&str, Value), String> {
    let (var, text) = pair
        .split_once('=')
        .ok_or_else(|| format!("bad input {pair:?} (want var=value)"))?;
    let t = text.trim();
    let Some(inner) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) else {
        let x = t.parse().map_err(|_| format!("bad scalar {t:?}"))?;
        return Ok((var, Value::Num(x)));
    };
    let mut vals = Vec::new();
    for part in inner.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        vals.push(
            part.parse()
                .map_err(|_| format!("bad array element {part:?}"))?,
        );
    }
    Ok((var, Value::array(vals)))
}

/// Whether the command rewrites the design. A cached project must only
/// see such a command on a clone, so it cannot change later answers.
pub fn rewrites(req: &Request) -> bool {
    let flag = |f: &str| req.args.iter().any(|a| a == f);
    match req.cmd.as_str() {
        "optimize" | "parallelize" => true,
        "gantt" | "schedule" | "run" => flag("--optimize"),
        "graph" => flag("--optimized"),
        _ => false,
    }
}

/// The files a request's own arguments ask it to write: `svg -o DIR`'s
/// three charts, `save-schedule -o`, `run --trace` and `optimize --emit`
/// (unless `-`). A daemon's answer may write these and no others.
pub fn outputs(req: &Request) -> Vec<String> {
    let value = |name: &str| {
        let args = &req.args[..];
        args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
    };
    match req.cmd.as_str() {
        "svg" => {
            let dir = value("-o").unwrap_or_else(|| ".".to_string());
            let names = ["gantt.svg", "utilization.svg", "speedup.svg"];
            names.iter().map(|n| format!("{dir}/{n}")).collect()
        }
        "save-schedule" => value("-o").into_iter().collect(),
        "run" => value("--trace").into_iter().collect(),
        "optimize" => value("--emit").filter(|p| p != "-").into_iter().collect(),
        _ => Vec::new(),
    }
}

/// Runs one command in this process: reads and parses the project file,
/// then [`execute`]s the command with no warm session.
pub fn local(req: &Request) -> Response {
    let path = req.path.as_deref().unwrap_or_default();
    match std::fs::read_to_string(req.resolve(path)) {
        Err(e) => Response::failure(format!("cannot read {path}: {e}")),
        Ok(text) => match crate::parse_project(&text) {
            Ok(mut project) => execute(req, &mut project, None),
            Err(e) => Response::failure(format!("{path}: {e}")),
        },
    }
}

/// Runs one command against `project`. `session` is the daemon's
/// warm-session slot, which a plain `run` fires (opening it on first
/// use); local mode passes `None` and runs cold. The design warnings of
/// a command that passed the analysis gate lead its stderr.
pub fn execute(
    req: &Request,
    project: &mut Project,
    session: Option<&mut Option<Session>>,
) -> Response {
    let mut cx = Cx {
        req,
        project: &mut *project,
        session,
        out: Response::success(""),
    };
    let result = match req.cmd.as_str() {
        "check" => cx.check(),
        "show" => cx.show(),
        "gantt" | "schedule" => cx.gantt(),
        "compare" => cx.compare(),
        "simulate" => cx.simulate(),
        "animate" => cx.animate(),
        "advise" => cx.advise(),
        "recommend" => cx.recommend(),
        "svg" => cx.svg(),
        "save-schedule" => cx.save_schedule(),
        "verify" => cx.verify(),
        "run" => cx.run(),
        "trial" => cx.trial(),
        "speedup" => cx.speedup(),
        "codegen" => cx.codegen(),
        "parallelize" => cx.parallelize(),
        "optimize" => cx.optimize(),
        "graph" => cx.graph(),
        other => Err(format!("unknown subcommand {other:?}").into()),
    };
    let mut resp = cx.out;
    if let Some(warnings) = project.take_warnings() {
        resp.notes.insert_str(0, &warnings);
    }
    if let Err(e) = result {
        resp.ok = false;
        resp.exit = 1;
        resp.error = e.to_string();
    }
    resp
}

/// Prints a response, local or from the daemon: writes its files
/// (relative to this process's working directory), then stdout, stderr
/// and the error line. Returns the exit code. A closed stdout stops the
/// stdout output quietly instead of panicking.
pub fn print(resp: &Response) -> i32 {
    for (path, body) in &resp.files {
        let path = std::path::Path::new(path);
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        let written = dir.map_or(Ok(()), std::fs::create_dir_all);
        if let Err(e) = written.and_then(|()| std::fs::write(path, body)) {
            return print(&Response::failure(format!(
                "cannot write {}: {e}",
                path.display()
            )));
        }
    }
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(resp.output.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            return print(&Response::failure(format!("cannot write to stdout: {e}")));
        }
    }
    let mut stderr = std::io::stderr().lock();
    let _ = stderr.write_all(resp.notes.as_bytes());
    if !resp.ok {
        let _ = writeln!(stderr, "banger: {}", resp.error);
    }
    match (resp.ok, resp.exit) {
        (false, 0) => 1,
        (_, code) => code,
    }
}

type CmdResult<T = ()> = Result<T, Box<dyn Error>>;

/// One command in progress: its request, project and growing answer.
struct Cx<'a> {
    req: &'a Request,
    project: &'a mut Project,
    session: Option<&'a mut Option<Session>>,
    out: Response,
}

/// Appends one line to the command's stdout.
macro_rules! say {
    ($cx:expr, $($fmt:tt)*) => {{
        let _ = writeln!($cx.out.output, $($fmt)*);
    }};
}

/// Appends one line to the command's stderr.
macro_rules! note {
    ($cx:expr, $($fmt:tt)*) => {{
        let _ = writeln!($cx.out.notes, $($fmt)*);
    }};
}

impl<'a> Cx<'a> {
    fn flag(&self, name: &str) -> bool {
        self.req.args.iter().any(|a| a == name)
    }

    /// The argument after the first `name`.
    fn value(&self, name: &str) -> Option<&'a str> {
        let args = &self.req.args[..];
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
    }

    // banger check <file> [--format text|json] [--weights [-i var=value]...]
    // Plain check prints diagnostics (JSON: a bare array, schema unchanged).
    // --weights appends the per-task weight report; when inputs are given
    // and the design is error-free, the design also runs once so the
    // report can show measured ops next to the static bounds (JSON: one
    // object with "diagnostics" and "weights" keys).
    fn check(&mut self) -> CmdResult {
        let format = self.value("--format").unwrap_or("text");
        let diags = self.project.diagnose().to_vec();
        let weights = if self.flag("--weights") {
            let inputs = &self.req.inputs;
            let measured = if !inputs.is_empty() && !analyze::has_errors(&diags) {
                Some(self.project.run(inputs)?)
            } else {
                None
            };
            Some(self.project.weight_report(measured.as_ref())?)
        } else {
            None
        };
        match (format, &weights) {
            ("text", _) => {
                say!(self, "{}", analyze::render_report(&diags));
                if let Some(rows) = &weights {
                    say!(self, "{}", crate::render_weight_table(rows));
                }
            }
            ("json", None) => say!(self, "{}", analyze::render_json(&diags)),
            ("json", Some(rows)) => say!(
                self,
                "{{\"diagnostics\": {},\n\"weights\": {}}}",
                analyze::render_json(&diags),
                crate::weight_rows_json(rows)
            ),
            (other, _) => Err(format!(
                "unknown check format {other:?} (want text or json)"
            ))?,
        }
        let n = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        if n > 0 {
            let s = if n == 1 { "" } else { "s" };
            Err(format!("design has {n} error-severity diagnostic{s}"))?;
        }
        Ok(())
    }

    fn show(&mut self) -> CmdResult {
        let p = &mut *self.project;
        let design = p.design();
        say!(
            self,
            "project {} — design depth {}, {} leaf tasks, {} programs",
            p.name(),
            design.depth(),
            design.leaf_task_count(),
            p.library().len()
        );
        let dot = banger_taskgraph::dot::hiergraph_to_dot(design);
        match p.machine() {
            Some(m) => say!(self, "machine: {}", m.describe()),
            None => say!(self, "machine: (none defined)"),
        }
        self.flat_stats()?;
        say!(self, "\n{dot}");
        Ok(())
    }

    /// The flattened graph's statistics and its inputs and outputs.
    fn flat_stats(&mut self) -> CmdResult {
        let f = self.project.flatten()?;
        let stats = banger_taskgraph::analysis::stats(&f.graph);
        say!(
            self,
            "flattened: {} tasks, {} arcs, width {}, depth {}, cp {:.2}, avg parallelism {:.2}",
            stats.tasks,
            stats.edges,
            stats.width,
            stats.depth,
            stats.cp_length,
            stats.average_parallelism
        );
        fn vars(ports: &[banger_taskgraph::hierarchy::ExternalPort]) -> Vec<&str> {
            ports.iter().map(|p| p.var.as_str()).collect()
        }
        say!(
            self,
            "inputs: {:?}  outputs: {:?}",
            vars(&f.inputs),
            vars(&f.outputs)
        );
        Ok(())
    }

    fn gantt(&mut self) -> CmdResult {
        self.maybe_optimize()?;
        let s = self.project.schedule(&self.req.heuristic)?;
        say!(self, "{}", self.project.gantt(&s)?);
        let (g, m) = self.project.graph_and_machine()?;
        say!(
            self,
            "makespan {:.3}, speedup {:.2}x, efficiency {:.0}%, {} of {} processors used",
            s.makespan(),
            s.speedup(g, m),
            100.0 * s.efficiency(g, m),
            s.processors_used(),
            m.processors()
        );
        Ok(())
    }

    fn compare(&mut self) -> CmdResult {
        let rows = self.project.compare_heuristics()?;
        say!(
            self,
            "{:<14} {:>10} {:>9} {:>11} {:>7}",
            "heuristic",
            "makespan",
            "speedup",
            "efficiency",
            "procs"
        );
        for r in rows {
            say!(
                self,
                "{:<14} {:>10.3} {:>8.2}x {:>10.0}% {:>7}",
                r.heuristic,
                r.makespan,
                r.speedup,
                100.0 * r.efficiency,
                r.processors_used
            );
        }
        Ok(())
    }

    fn simulate(&mut self) -> CmdResult {
        let h = &self.req.heuristic;
        let s = self.project.schedule(h)?;
        let r = self.project.simulate(&s)?;
        say!(
            self,
            "{h}: predicted {:.3}, achieved {:.3} (ratio {:.3})",
            r.predicted_makespan,
            r.achieved_makespan(),
            r.compare()
        );
        say!(
            self,
            "traffic: {} messages, {} link hops, {:.3} time units queueing",
            r.stats.messages,
            r.stats.hops,
            r.stats.queue_delay
        );
        Ok(())
    }

    fn animate(&mut self) -> CmdResult {
        let s = self.project.schedule(&self.req.heuristic)?;
        let r = self.project.simulate(&s)?;
        let (g, m) = self.project.graph_and_machine()?;
        let options = crate::animate::AnimateOptions::default();
        say!(
            self,
            "{}",
            crate::animate::animate(g, m.processors(), &r, options)
        );
        Ok(())
    }

    fn advise(&mut self) -> CmdResult {
        let s = self.project.schedule(&self.req.heuristic)?;
        let (g, m) = self.project.graph_and_machine()?;
        let advice = crate::advisor::advise(g, m, &s);
        say!(self, "{}", crate::advisor::render(g, &advice));
        Ok(())
    }

    // banger recommend <file> [-p maxprocs] — sweep the standard machine
    // candidates (MH on each) and print them ranked by makespan.
    fn recommend(&mut self) -> CmdResult {
        let max_procs = match self.value("-p") {
            Some(p) => p
                .parse::<usize>()
                .map_err(|_| format!("bad processor budget {p:?} (want a number)"))?,
            None => 16,
        };
        if max_procs == 0 {
            Err("processor budget must be at least 1")?;
        }
        let params = self
            .project
            .machine()
            .map(|m| *m.params())
            .unwrap_or_default();
        let choices = self.project.recommend_machine(max_procs, params)?;
        say!(
            self,
            "machine search — {} (budget {max_procs})",
            self.project.name()
        );
        self.out
            .output
            .push_str(&crate::advisor::render_machine_search(&choices));
        Ok(())
    }

    // banger svg <file> [-H h] [-o dir] — gantt.svg, speedup.svg and
    // utilization.svg into dir (default: the current directory).
    fn svg(&mut self) -> CmdResult {
        let dir = self.value("-o").unwrap_or(".");
        let s = self.project.schedule(&self.req.heuristic)?;
        let (g, m) = self.project.graph_and_machine()?;
        let gantt = crate::svg::gantt_svg(&s, m.processors(), g);
        let util = crate::svg::utilization_svg(&s, m.processors());
        let params = *m.params();
        let topologies = [
            Topology::single(),
            Topology::hypercube(1),
            Topology::hypercube(2),
            Topology::hypercube(3),
        ];
        let points = self.project.predict_speedup(&topologies, params)?;
        let title = format!("{} — predicted speedup", self.project.name());
        let speedup = crate::svg::speedup_svg(&title, &points);
        for (name, body) in [
            ("gantt.svg", gantt),
            ("utilization.svg", util),
            ("speedup.svg", speedup),
        ] {
            let path = format!("{dir}/{name}");
            note!(self, "wrote {path}");
            self.out.files.push((path, body));
        }
        Ok(())
    }

    // banger save-schedule <file> [-H h] [-o path] — the schedule in the
    // schedule text format (stdout by default).
    fn save_schedule(&mut self) -> CmdResult {
        let s = self.project.schedule(&self.req.heuristic)?;
        let text = banger_sched::textfmt::to_text(&s);
        match self.value("-o") {
            Some(path) => {
                note!(self, "wrote {path} ({} placements)", s.placements().len());
                self.out.files.push((path.to_string(), text));
            }
            None => self.out.output.push_str(&text),
        }
        Ok(())
    }

    // banger verify <file> -s schedule.txt — validates a saved schedule
    // against the project's design and machine, then replays it on the
    // simulator.
    fn verify(&mut self) -> CmdResult {
        let path = self.value("-s").ok_or("verify needs -s <schedule file>")?;
        let text = std::fs::read_to_string(self.req.resolve(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let s = banger_sched::textfmt::from_text(&text)?;
        let (g, m) = self.project.graph_and_machine()?;
        s.validate(g, m).map_err(|e| format!("INVALID: {e}"))?;
        let r = self.project.simulate(&s)?;
        say!(
            self,
            "VALID: {} placements, makespan {:.3}; simulation achieves {:.3} (ratio {:.3})",
            s.placements().len(),
            s.makespan(),
            r.achieved_makespan(),
            r.compare()
        );
        Ok(())
    }

    // banger run <file> [-i var=value]... [--repeat N] [--trace out.json [-H h]]
    // Plain runs use the greedy work-stealing pool. With --repeat N the
    // design fires N times through one persistent exec::Session (warm
    // worker pool, routing tables, and slab store reused per firing) and
    // the last firing's outputs print, with per-firing latency stats.
    // With --trace, the design runs pinned to the -H schedule (default
    // MH) with event tracing on: the Chrome trace JSON goes to out.json,
    // and the predicted vs observed Gantt charts, the per-task drift
    // report, and the aggregate trace counters print alongside the
    // outputs. --optimize rewrites the design first (dead arcs + fusion).
    fn run(&mut self) -> CmdResult {
        self.maybe_optimize()?;
        let req = self.req;
        let inputs = &req.inputs;
        let trace_path = self.value("--trace");
        if self.flag("--trace") && trace_path.is_none() {
            Err("--trace needs an output path (e.g. --trace out.json)")?;
        }
        if self.flag("--repeat") {
            let n = self
                .value("--repeat")
                .ok_or("--repeat needs a count (e.g. --repeat 1000)")?;
            let n: u32 = n
                .parse()
                .map_err(|_| format!("--repeat needs a positive count, got {n:?}"))?;
            if n == 0 {
                Err("--repeat needs a count of at least 1")?;
            }
            if trace_path.is_some() {
                Err("--repeat and --trace are mutually exclusive")?;
            }
            let mut session = self.project.session(&ExecOptions::default())?;
            let (mut report, mut total, mut best) = (None, Duration::ZERO, Duration::MAX);
            for _ in 0..n {
                let r = session.run(inputs)?;
                total += r.wall;
                best = best.min(r.wall);
                report = Some(r);
            }
            self.print_run(&report.ok_or("--repeat produced no firing report")?);
            note!(
                self,
                "({n} firings on {} warm workers: total {total:?}, mean {:?}, best {best:?})",
                session.workers(),
                total / n,
            );
            return Ok(());
        }
        let Some(trace_path) = trace_path else {
            let report = self.fire()?;
            self.print_run(&report);
            return Ok(());
        };

        // Traced run: schedule, execute pinned to it, then compare.
        let h = &req.heuristic;
        let schedule = self.project.schedule(h)?;
        let options = ExecOptions {
            mode: ExecMode::pinned(schedule.clone()),
            trace: true,
            ..Default::default()
        };
        let report = self.project.run_with(inputs, &options)?;
        self.print_run(&report);
        let trace = report
            .trace
            .as_ref()
            .ok_or("traced run recorded no trace")?;
        let g = self.project.flatten()?.graph.clone();
        let name_of = move |t| short_name(&g.task(t).name);
        self.out
            .files
            .push((trace_path.to_string(), trace.chrome_json(&name_of)));
        note!(
            self,
            "wrote {trace_path} (load in chrome://tracing or Perfetto)"
        );
        say!(self, "\npredicted ({h}):");
        say!(self, "{}", self.project.gantt(&schedule)?);
        say!(self, "observed:");
        say!(self, "{}", self.project.observed_gantt(trace)?);
        let drift = self.project.drift_report(&schedule, trace)?;
        say!(self, "{}", drift.render(&name_of));
        note!(self, "{}", trace.summary().render());
        Ok(())
    }

    /// One plain firing: through the lent warm session when there is one
    /// (a failed firing drops it, so the next request rebuilds the
    /// pool), else cold. Executor fault injection always runs cold, so
    /// it cannot reach the warm pool.
    fn fire(&mut self) -> CmdResult<ExecReport> {
        let inputs = &self.req.inputs;
        let inject_panic = self.req.inject_panic.clone();
        match self.session.as_deref_mut() {
            Some(slot) if inject_panic.is_none() => {
                self.project.gate()?;
                let mut session = match slot.take() {
                    Some(s) => s,
                    None => self.project.session(&ExecOptions::default())?,
                };
                let report = session.run(inputs).map_err(ProjectError::from)?;
                *slot = Some(session);
                Ok(report)
            }
            _ => {
                let options = ExecOptions {
                    inject_panic,
                    ..Default::default()
                };
                Ok(self.project.run_with(inputs, &options)?)
            }
        }
    }

    fn print_run(&mut self, report: &ExecReport) {
        for (task, line) in &report.prints {
            say!(self, "[{task}] {line}");
        }
        for (var, value) in &report.outputs {
            say!(self, "{var} = {value}");
        }
        note!(
            self,
            "({} task runs, wall {:?})",
            report.runs.len(),
            report.wall
        );
    }

    // banger trial <file> <program> [-i var=value]... [--reference]
    // Runs one PITS program through the compiled VM (default) or the
    // tree-walking reference interpreter (--reference); both produce
    // identical outcomes.
    fn trial(&mut self) -> CmdResult {
        let program = self.req.args.first().filter(|a| !a.starts_with('-'));
        let program = program.ok_or("trial needs a <program> name")?;
        let config = InterpConfig {
            reference: self.flag("--reference"),
            ..Default::default()
        };
        let outcome = self
            .project
            .trial_run_with(program, &self.req.inputs, config)?;
        for line in &outcome.prints {
            say!(self, "{line}");
        }
        for (var, value) in &outcome.outputs {
            say!(self, "{var} = {value}");
        }
        let engine = if config.reference { "reference" } else { "vm" };
        note!(self, "({} ops, {engine} engine)", outcome.ops);
        Ok(())
    }

    fn speedup(&mut self) -> CmdResult {
        let specs = self
            .value("-t")
            .unwrap_or("single,hypercube:1,hypercube:2,hypercube:3");
        let topologies = specs.split(',').map(|s| Topology::parse(s.trim()));
        let topologies = topologies.collect::<Result<Vec<_>, _>>()?;
        let params = self
            .project
            .machine()
            .map(|m| *m.params())
            .unwrap_or_default();
        let points = self.project.predict_speedup(&topologies, params)?;
        let title = format!("predicted speedup — {}", self.project.name());
        say!(self, "{}", crate::speedup_chart(&title, &points, 40));
        Ok(())
    }

    // banger parallelize <file> <task> <chunks> — prints the transformed
    // document to stdout (redirect to save).
    fn parallelize(&mut self) -> CmdResult {
        let task = self
            .req
            .args
            .first()
            .ok_or("parallelize needs a task name")?;
        let chunks = self
            .req
            .args
            .get(1)
            .ok_or("parallelize needs a chunk count")?;
        let chunks: usize = chunks.parse().map_err(|_| "bad chunk count")?;
        let names = self.project.parallelize_task(task, chunks)?;
        note!(
            self,
            "expanded {task:?} into {} chunks: {names:?}",
            names.len()
        );
        self.out
            .output
            .push_str(&crate::print_project(self.project));
        Ok(())
    }

    /// Applies the optimizer first when `--optimize` is among the options
    /// (used by `run` and `gantt`).
    fn maybe_optimize(&mut self) -> CmdResult {
        if self.flag("--optimize") {
            let stats = self.project.optimize(true)?;
            self.opt_stats(&stats);
        }
        Ok(())
    }

    fn opt_stats(&mut self, stats: &OptimizeStats) {
        let d = &stats.dce;
        note!(
            self,
            "dce: removed {} arcs, {} input decls, {} locals, {} ports; dropped {} programs",
            d.arcs_removed,
            d.inputs_trimmed,
            d.locals_trimmed,
            d.ports_removed,
            d.programs_dropped,
        );
        if let Some(f) = &stats.fuse {
            note!(
                self,
                "fuse: {} -> {} tasks ({} clusters fused, {} rejected), est. parallel time {:.1} -> {:.1}",
                f.tasks_before,
                f.tasks_after,
                f.clusters_fused,
                f.clusters_rejected,
                f.estimated_pt_before,
                f.estimated_pt_after,
            );
        }
    }

    // banger optimize <file> [--expand task:tiles] [--fuse] [--emit out.bang]
    // Map expansion runs first (it creates the task-parallel structure),
    // then dead-arc elimination and — with --fuse — task fusion. The
    // rewritten document goes to --emit's path ('-' for stdout).
    fn optimize(&mut self) -> CmdResult {
        if self.flag("--expand") {
            let spec = self
                .value("--expand")
                .ok_or("--expand needs task:tiles (e.g. --expand fact:16)")?;
            let (task, tiles) = spec
                .split_once(':')
                .ok_or_else(|| format!("bad --expand {spec:?} (want task:tiles)"))?;
            let tiles: usize = tiles
                .parse()
                .map_err(|_| format!("bad tile count {tiles:?}"))?;
            let st = self.project.expand_task(task, tiles)?;
            note!(
                self,
                "expanded {task:?} into {0}x{0} tiles of {1}x{1} ({2} tasks, {3} programs added)",
                st.tiles,
                st.block,
                st.tasks_added,
                st.programs_added
            );
        }
        let stats = self.project.optimize(self.flag("--fuse"))?;
        self.opt_stats(&stats);
        let f = self.project.flatten()?;
        let (tasks, arcs) = (f.graph.task_count(), f.graph.edge_count());
        note!(self, "optimized design: {tasks} tasks, {arcs} arcs");
        match self.value("--emit") {
            Some("-") => self
                .out
                .output
                .push_str(&crate::print_project(self.project)),
            Some(path) => {
                note!(self, "wrote {path}");
                let doc = crate::print_project(self.project);
                self.out.files.push((path.to_string(), doc));
            }
            None if self.flag("--emit") => Err("--emit needs an output path ('-' for stdout)")?,
            None => {}
        }
        Ok(())
    }

    // banger graph <file> [--optimized] [--dot]
    // Reports the *flattened* task graph (what the scheduler and router
    // actually see), unlike `show`, which renders the hierarchy.
    fn graph(&mut self) -> CmdResult {
        if self.flag("--optimized") {
            let stats = self.project.optimize(true)?;
            self.opt_stats(&stats);
        }
        if self.flag("--dot") {
            let f = self.project.flatten()?;
            say!(
                self,
                "{}",
                banger_taskgraph::dot::taskgraph_to_dot(&f.graph)
            );
            return Ok(());
        }
        self.flat_stats()
    }

    fn codegen(&mut self) -> CmdResult {
        let lang = self.req.args.first().map_or("rust", String::as_str);
        let s = self.project.schedule(&self.req.heuristic)?;
        let inputs = &self.req.inputs;
        let code = match lang {
            "rust" => self.project.generate_rust(&s, inputs)?,
            "c" => self.project.generate_c(&s, inputs)?,
            other => Err(format!("unknown language {other:?} (rust|c)"))?,
        };
        self.out.output.push_str(&code);
        Ok(())
    }
}
