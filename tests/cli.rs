//! Integration tests for the `banger` CLI on the bundled `.bang` project.

use std::path::PathBuf;
use std::process::Command;

fn banger() -> Command {
    // The CLI lives in another workspace package, so CARGO_BIN_EXE_* is not
    // set here; locate it next to this test executable
    // (target/debug/deps/this_test -> target/debug/banger) and build it on
    // demand the first time.
    let mut dir = std::env::current_exe().expect("test exe path");
    dir.pop(); // deps/
    dir.pop(); // debug/
    let path: PathBuf = dir.join("banger");
    if !path.exists() {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "banger", "--bin", "banger"])
            .status()
            .expect("cargo build runs");
        assert!(status.success(), "building the banger CLI failed");
    }
    Command::new(path)
}

fn project_path() -> &'static str {
    "examples/projects/heat_probe.bang"
}

fn run_ok(args: &[&str]) -> String {
    let out = banger().args(args).output().expect("CLI runs");
    assert!(
        out.status.success(),
        "banger {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn show_reports_design() {
    let out = run_ok(&["show", project_path()]);
    assert!(out.contains("project heat_probe"));
    assert!(out.contains("5 leaf tasks"));
    assert!(out.contains("digraph"));
    assert!(out.contains("inputs: [\"left\", \"right\"]"));
}

#[test]
fn gantt_renders_schedule() {
    let out = run_ok(&["gantt", project_path()]);
    assert!(out.contains("Gantt chart — MH"));
    assert!(out.contains("P0"));
    assert!(out.contains("makespan"));
    // Alternate heuristic selection works.
    let out2 = run_ok(&["gantt", project_path(), "-H", "ETF"]);
    assert!(out2.contains("Gantt chart — ETF"));
}

#[test]
fn compare_lists_all_heuristics() {
    let out = run_ok(&["compare", project_path()]);
    for h in ["serial", "HLFET", "MCP", "ETF", "DLS", "MH", "DSH"] {
        assert!(out.contains(h), "missing {h} in:\n{out}");
    }
}

#[test]
fn recommend_ranks_standard_machines() {
    let out = run_ok(&["recommend", project_path(), "-p", "4"]);
    assert!(
        out.contains("machine search — heat_probe (budget 4)"),
        "{out}"
    );
    for m in ["single", "hypercube-1", "hypercube-2", "ring-4", "star-4"] {
        assert!(out.contains(m), "missing {m} in:\n{out}");
    }
    // Ranked by makespan: the serial machine can never beat the top row.
    let first = out.lines().nth(2).unwrap();
    assert!(!first.starts_with("single"), "{out}");
    // Deterministic across invocations (the sweep runs on worker threads).
    assert_eq!(out, run_ok(&["recommend", project_path(), "-p", "4"]));

    let err = banger()
        .args(["recommend", project_path(), "-p", "0"])
        .output()
        .expect("CLI runs");
    assert!(!err.status.success());
    assert!(String::from_utf8_lossy(&err.stderr).contains("at least 1"));
}

#[test]
fn run_executes_with_inputs() {
    let out = run_ok(&["run", project_path(), "-i", "left=100", "-i", "right=0"]);
    assert!(out.contains("summary = ["), "{out}");
    // Steady-state endpoints of the relaxed halves straddle 50 degrees.
    let inner = out
        .lines()
        .find(|l| l.starts_with("summary"))
        .unwrap()
        .split_once('[')
        .unwrap()
        .1
        .trim_end_matches(']');
    let vals: Vec<f64> = inner
        .split(',')
        .map(|s| s.trim().parse().unwrap())
        .collect();
    assert!(vals[0] > vals[1], "lower half is hotter: {vals:?}");
    assert!((vals[2] - 50.0).abs() < 10.0, "midpoint near 50: {vals:?}");
}

#[test]
fn run_trace_emits_chrome_json_and_drift_report() {
    let trace_path = std::env::temp_dir().join("banger_cli_test_trace.json");
    let out = banger()
        .args([
            "run",
            project_path(),
            "-i",
            "left=100",
            "-i",
            "right=0",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("CLI runs");
    assert!(
        out.status.success(),
        "traced run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    // The normal run output still prints, plus both Gantt charts and
    // the per-task drift table.
    assert!(stdout.contains("summary = ["), "{stdout}");
    assert!(stdout.contains("predicted (MH):"), "{stdout}");
    assert!(stdout.contains("observed:"), "{stdout}");
    assert!(stdout.contains("drift report"), "{stdout}");
    assert!(stdout.contains("makespan: predicted"), "{stdout}");
    assert!(stderr.contains("task runs in"), "{stderr}");
    assert!(stderr.contains("CoW copies"), "{stderr}");

    // The file is valid Chrome trace-format JSON: an object with a
    // traceEvents array of M/X/C phase events carrying pid/tid/ts.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let json = parse_json(text.trim()).expect("trace file is valid JSON");
    assert_eq!(
        json.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let Some(Json::Arr(events)) = json.get("traceEvents") else {
        panic!("traceEvents missing or not an array");
    };
    assert!(!events.is_empty());
    let mut complete = 0;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("event has ph");
        assert!(
            matches!(ph, "M" | "X" | "C" | "i"),
            "unexpected phase {ph:?}"
        );
        if ph == "X" {
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
            assert!(e.get("name").and_then(Json::as_str).is_some());
            // Complete events are task spans or queue-wait intervals.
            if e.get("cat").and_then(Json::as_str) == Some("task") {
                complete += 1;
            }
        }
    }
    // One task-span complete event per task run (5 tasks in heat_probe).
    assert_eq!(complete, 5, "{text}");
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn run_trace_without_path_is_a_usage_error() {
    let err = banger()
        .args(["run", project_path(), "--trace"])
        .output()
        .expect("CLI runs");
    assert!(!err.status.success());
    assert!(
        String::from_utf8_lossy(&err.stderr).contains("--trace needs an output path"),
        "{}",
        String::from_utf8_lossy(&err.stderr)
    );
}

#[test]
fn trial_runs_single_program_on_both_engines() {
    let vm = run_ok(&[
        "trial",
        project_path(),
        "Init",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    assert!(vm.contains("rod0 = [100,"), "{vm}");
    let tree = run_ok(&[
        "trial",
        project_path(),
        "Init",
        "-i",
        "left=100",
        "-i",
        "right=0",
        "--reference",
    ]);
    // Identical stdout (outputs and prints) from both engines; the op
    // count on stderr must match too.
    assert_eq!(vm, tree);
    let ops_of = |reference: bool| {
        let mut args = vec![
            "trial",
            project_path(),
            "Init",
            "-i",
            "left=100",
            "-i",
            "right=0",
        ];
        if reference {
            args.push("--reference");
        }
        let out = banger().args(&args).output().unwrap();
        assert!(out.status.success());
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        err.split_once(" ops")
            .unwrap()
            .0
            .rsplit('(')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(ops_of(false), ops_of(true));

    // Unknown program fails cleanly; missing program name is a usage error.
    let bad = banger()
        .args(["trial", project_path(), "NoSuch"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("no program named"));
    let none = banger().args(["trial", project_path()]).output().unwrap();
    assert!(!none.status.success());
}

#[test]
fn advise_reports_bottlenecks() {
    let out = run_ok(&["advise", project_path()]);
    assert!(out.contains("binding chain"), "{out}");
    assert!(out.contains("suggestions:"), "{out}");
}

#[test]
fn animate_renders_frames() {
    let out = run_ok(&["animate", project_path()]);
    assert!(out.contains("Animation"), "{out}");
    assert!(out.contains("t="), "{out}");
}

#[test]
fn parallelize_rewrites_document() {
    // `init` is top-level but not a reduction: expect a clean error.
    let out = banger()
        .args(["parallelize", project_path(), "init", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot parallelize"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Tasks nested inside compounds are reported as unknown (the transform
    // works on top-level nodes).
    let out2 = banger()
        .args(["parallelize", project_path(), "lower", "4"])
        .output()
        .unwrap();
    assert!(!out2.status.success());
    assert!(
        String::from_utf8_lossy(&out2.stderr).contains("no program"),
        "{}",
        String::from_utf8_lossy(&out2.stderr)
    );
}

#[test]
fn svg_writes_three_files() {
    let dir = std::env::temp_dir().join("banger_svg_test");
    let _ = std::fs::remove_dir_all(&dir);
    run_ok(&["svg", project_path(), "-o", dir.to_str().unwrap()]);
    for name in ["gantt.svg", "speedup.svg", "utilization.svg"] {
        let body = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(body.starts_with("<svg"), "{name}");
        assert!(body.trim_end().ends_with("</svg>"), "{name}");
    }
}

#[test]
fn simulate_reports_ratio() {
    let out = run_ok(&["simulate", project_path()]);
    assert!(out.contains("predicted"));
    assert!(out.contains("ratio"));
    assert!(out.contains("messages"));
}

#[test]
fn speedup_chart_renders() {
    let out = run_ok(&[
        "speedup",
        project_path(),
        "-t",
        "single,hypercube:1,hypercube:2",
    ]);
    assert!(out.contains("predicted speedup"));
    assert!(out.contains("1 procs"));
    assert!(out.contains("4 procs"));
}

#[test]
fn codegen_emits_rust_and_c() {
    let rust = run_ok(&[
        "codegen",
        project_path(),
        "rust",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    assert!(rust.contains("fn main()"));
    assert!(rust.contains("task_RelaxLower"));
    let c = run_ok(&[
        "codegen",
        project_path(),
        "c",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    assert!(c.contains("MPI_Init"));
}

#[test]
fn save_and_verify_schedule_round_trip() {
    let path = std::env::temp_dir().join("banger_cli_test.sched");
    run_ok(&[
        "save-schedule",
        project_path(),
        "-H",
        "DSH",
        "-o",
        path.to_str().unwrap(),
    ]);
    let out = run_ok(&["verify", project_path(), "-s", path.to_str().unwrap()]);
    assert!(out.contains("VALID"), "{out}");
    assert!(out.contains("ratio"), "{out}");

    // Corrupt the schedule: verification must fail.
    let mut text = std::fs::read_to_string(&path).unwrap();
    text = text.replacen("primary", "copy", 1);
    std::fs::write(&path, text).unwrap();
    let bad = banger()
        .args(["verify", project_path(), "-s", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("INVALID"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );
}

#[test]
fn matmul_project_computes_identity_product() {
    let a = "A=[1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1]";
    let b = "B=[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36]";
    let out = run_ok(&["run", "examples/projects/matmul.bang", "-i", a, "-i", b]);
    // Identity * B = B.
    assert!(out.contains("C = [1, 2, 3, 4, 5, 6,"), "{out}");
    assert!(out.contains("35, 36]"), "{out}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = banger()
        .args(["gantt", "/no/such/file.bang"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Unknown subcommands exit 2 with a pointed message, not a usage dump.
    let out2 = banger()
        .args(["frobnicate", project_path()])
        .output()
        .unwrap();
    assert_eq!(out2.status.code(), Some(2));
    let err2 = String::from_utf8_lossy(&out2.stderr);
    assert!(err2.contains("unknown subcommand"), "{err2}");
    assert!(err2.contains("frobnicate"), "{err2}");

    // A known subcommand with no file also exits 2.
    let out3 = banger().args(["gantt"]).output().unwrap();
    assert_eq!(out3.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out3.stderr).contains("file.bang"));

    let out4 = banger()
        .args(["run", project_path(), "-i", "notapair"])
        .output()
        .unwrap();
    assert!(!out4.status.success());
    assert!(String::from_utf8_lossy(&out4.stderr).contains("var=value"));
}

#[test]
fn help_lists_every_subcommand_and_exit_codes() {
    let out = banger().args(["help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "check",
        "show",
        "gantt",
        "compare",
        "simulate",
        "animate",
        "advise",
        "recommend",
        "svg",
        "save-schedule",
        "verify",
        "run",
        "trial",
        "speedup",
        "codegen",
        "parallelize",
    ] {
        assert!(text.contains(cmd), "help is missing {cmd}:\n{text}");
    }
    assert!(text.contains("exit codes"), "{text}");
    // `--help` is an alias.
    let alias = banger().args(["--help"]).output().unwrap();
    assert_eq!(alias.status.code(), Some(0));
}

fn racy_path() -> &'static str {
    "examples/projects/racy_pipeline.bang"
}

#[test]
fn check_passes_clean_designs() {
    let out = run_ok(&["check", project_path()]);
    assert!(out.contains("0 errors"), "{out}");
    let out2 = run_ok(&["check", "examples/projects/matmul.bang"]);
    assert!(out2.contains("0 errors"), "{out2}");
}

#[test]
fn check_reports_race_and_exits_nonzero() {
    let out = banger().args(["check", racy_path()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("B001"), "{text}");
    assert!(text.contains("sensor_a"), "{text}");
    assert!(text.contains("sensor_b"), "{text}");
    assert!(text.contains("reading"), "{text}");
    // Error-severity findings also refuse scheduling and execution.
    let gantt = banger().args(["gantt", racy_path()]).output().unwrap();
    assert_eq!(gantt.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&gantt.stderr).contains("B001"),
        "{}",
        String::from_utf8_lossy(&gantt.stderr)
    );
}

// ---- A minimal JSON reader (no serde in the workspace) -----------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let v = parse_value_at(&chars, &mut i)?;
    skip_ws(&chars, &mut i);
    if i != chars.len() {
        return Err(format!("trailing garbage at {i}"));
    }
    Ok(v)
}

fn skip_ws(c: &[char], i: &mut usize) {
    while *i < c.len() && c[*i].is_whitespace() {
        *i += 1;
    }
}

fn parse_value_at(c: &[char], i: &mut usize) -> Result<Json, String> {
    skip_ws(c, i);
    match c.get(*i) {
        Some('[') => {
            *i += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(c, i);
                if c.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(Json::Arr(items));
                }
                if !items.is_empty() {
                    if c.get(*i) != Some(&',') {
                        return Err(format!("expected , at {i}"));
                    }
                    *i += 1;
                }
                items.push(parse_value_at(c, i)?);
            }
        }
        Some('{') => {
            *i += 1;
            let mut pairs = Vec::new();
            loop {
                skip_ws(c, i);
                if c.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(Json::Obj(pairs));
                }
                if !pairs.is_empty() {
                    if c.get(*i) != Some(&',') {
                        return Err(format!("expected , at {i}"));
                    }
                    *i += 1;
                    skip_ws(c, i);
                }
                let Json::Str(key) = parse_value_at(c, i)? else {
                    return Err(format!("expected string key at {i}"));
                };
                skip_ws(c, i);
                if c.get(*i) != Some(&':') {
                    return Err(format!("expected : at {i}"));
                }
                *i += 1;
                pairs.push((key, parse_value_at(c, i)?));
            }
        }
        Some('"') => {
            *i += 1;
            let mut s = String::new();
            loop {
                match c.get(*i) {
                    None => return Err("unterminated string".into()),
                    Some('"') => {
                        *i += 1;
                        return Ok(Json::Str(s));
                    }
                    Some('\\') => {
                        *i += 1;
                        match c.get(*i) {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            Some('r') => s.push('\r'),
                            Some('t') => s.push('\t'),
                            Some('u') => {
                                let hex: String = c[*i + 1..*i + 5].iter().collect();
                                let n = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(n).ok_or("bad codepoint")?);
                                *i += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *i += 1;
                    }
                    Some(&ch) => {
                        s.push(ch);
                        *i += 1;
                    }
                }
            }
        }
        Some('t') if c[*i..].starts_with(&['t', 'r', 'u', 'e']) => {
            *i += 4;
            Ok(Json::Bool(true))
        }
        Some('f') if c[*i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *i += 5;
            Ok(Json::Bool(false))
        }
        Some('n') if c[*i..].starts_with(&['n', 'u', 'l', 'l']) => {
            *i += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *i;
            while *i < c.len() && (c[*i].is_ascii_digit() || "+-.eE".contains(c[*i])) {
                *i += 1;
            }
            let s: String = c[start..*i].iter().collect();
            s.parse::<f64>().map(Json::Num).map_err(|e| e.to_string())
        }
        None => Err("empty input".into()),
    }
}

#[test]
fn check_json_round_trips_without_serde() {
    let out = banger()
        .args(["check", racy_path(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = parse_json(text.trim()).expect("check --format json emits valid JSON");
    let Json::Arr(items) = &parsed else {
        panic!("expected a JSON array, got {parsed:?}");
    };
    assert!(!items.is_empty());
    for item in items {
        let code = item.get("code").and_then(Json::as_str).expect("code field");
        assert!(
            code.len() == 4 && code.starts_with('B'),
            "unexpected code {code:?}"
        );
        let sev = item
            .get("severity")
            .and_then(Json::as_str)
            .expect("severity field");
        assert!(sev == "error" || sev == "warning", "{sev}");
        assert!(item.get("message").and_then(Json::as_str).is_some());
    }
    let b001 = items
        .iter()
        .find(|i| i.get("code").and_then(Json::as_str) == Some("B001"))
        .expect("B001 present");
    let Some(Json::Arr(nodes)) = b001.get("nodes") else {
        panic!("B001 carries nodes: {b001:?}");
    };
    let names: Vec<&str> = nodes.iter().filter_map(Json::as_str).collect();
    assert!(
        names.contains(&"sensor_a") && names.contains(&"sensor_b"),
        "{names:?}"
    );

    // A diagnostic-free design yields an empty array, also valid JSON.
    let clean = run_ok(&["check", "examples/projects/matmul.bang", "--format", "json"]);
    assert_eq!(parse_json(clean.trim()), Ok(Json::Arr(vec![])));
}

#[test]
fn check_weights_prints_static_cost_table() {
    let out = run_ok(&["check", "examples/projects/lu3.bang", "--weights"]);
    assert!(out.contains("static bounds"), "{out}");
    assert!(out.contains("Factor.fan1"), "{out}");
    // Every LU body is literal-bound loops: the bounds collapse.
    assert!(out.contains("(exact)"), "{out}");
}

#[test]
fn check_weights_json_with_measured_run() {
    // Without inputs: an object with diagnostics + weights, measured null.
    let out = run_ok(&["check", project_path(), "--weights", "--format", "json"]);
    let json = parse_json(out.trim()).expect("valid JSON");
    let Some(Json::Arr(diags)) = json.get("diagnostics") else {
        panic!("diagnostics array missing: {json:?}");
    };
    // heat_probe's relax kernels index with statically-unknown bounds.
    assert!(diags
        .iter()
        .any(|d| d.get("code").and_then(Json::as_str) == Some("B041")));
    let Some(Json::Arr(rows)) = json.get("weights") else {
        panic!("weights array missing: {json:?}");
    };
    assert_eq!(rows.len(), 5, "{json:?}");
    for row in rows {
        assert!(row.get("task").and_then(Json::as_str).is_some());
        assert!(matches!(row.get("drawn"), Some(Json::Num(_))));
        assert_eq!(row.get("measured"), Some(&Json::Null));
    }
    // The relax kernels loop over an unknown-length rod: upper bound
    // unbounded, serialized as null (never `inf`).
    let lower = rows
        .iter()
        .find(|r| r.get("task").and_then(Json::as_str) == Some("Relax.lower"))
        .expect("Relax.lower row");
    let stat = lower.get("static").expect("static object");
    assert_eq!(stat.get("ops_hi"), Some(&Json::Null), "{stat:?}");
    assert_eq!(stat.get("exact"), Some(&Json::Bool(false)));

    // With inputs the design runs once and measured ops land in-bounds.
    let out = run_ok(&[
        "check",
        project_path(),
        "--weights",
        "--format",
        "json",
        "-i",
        "left=100",
        "-i",
        "right=0",
    ]);
    let json = parse_json(out.trim()).expect("valid JSON");
    let Some(Json::Arr(rows)) = json.get("weights") else {
        panic!("weights array missing: {json:?}");
    };
    for row in rows {
        let Some(Json::Num(m)) = row.get("measured") else {
            panic!("measured missing after a run: {row:?}");
        };
        let stat = row.get("static").expect("static object");
        let Some(Json::Num(lo)) = stat.get("ops_lo") else {
            panic!("ops_lo missing: {stat:?}");
        };
        assert!(lo <= m, "{row:?}");
        if let Some(Json::Num(hi)) = stat.get("ops_hi") {
            assert!(m <= hi, "{row:?}");
        }
    }
}

#[test]
fn check_reports_body_safety_errors_and_exits_nonzero() {
    // A design whose only defect is a PITS body bug: a definite read of
    // an unassigned variable. B040 must gate exactly like graph errors.
    let path = std::env::temp_dir().join("banger_cli_test_badread.bang");
    std::fs::write(
        &path,
        "project badread\n\
         \n\
         machine full:2\n\
         \x20 speed 1\n\
         \x20 process-startup 0.1\n\
         \x20 msg-startup 0.5\n\
         \x20 rate 8\n\
         end\n\
         \n\
         design\n\
         \x20 storage src 1\n\
         \x20 task t 10 prog Bad\n\
         \x20 storage dst 1\n\
         \x20 arc src -> t\n\
         \x20 arc t -> dst\n\
         end\n\
         \n\
         begin-program\n\
         task Bad\n\
         \x20 in src\n\
         \x20 out dst\n\
         \x20 local q\n\
         begin\n\
         \x20 dst := q + src\n\
         end\n\
         end-program\n",
    )
    .unwrap();
    let out = banger()
        .args(["check", path.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = parse_json(text.trim()).expect("valid JSON");
    let Json::Arr(items) = &parsed else {
        panic!("expected a bare array without --weights, got {parsed:?}");
    };
    let b040 = items
        .iter()
        .find(|i| i.get("code").and_then(Json::as_str) == Some("B040"))
        .expect("B040 present");
    assert_eq!(
        b040.get("severity").and_then(Json::as_str),
        Some("error"),
        "{b040:?}"
    );
    // Execution refuses the same design with the same code.
    let run = banger()
        .args(["run", path.to_str().unwrap(), "-i", "src=1"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&run.stderr).contains("B040"),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    std::fs::remove_file(&path).ok();
}

/// Kills the daemon child on drop so a failing assertion cannot leak a
/// background process into the test runner.
#[cfg(unix)]
struct DaemonGuard(std::process::Child);

#[cfg(unix)]
impl Drop for DaemonGuard {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Full child-process round trip: `banger serve` in the background,
/// `banger --connect` clients against it, byte-identical stdout (and
/// stderr, design warnings included, except for `run`'s wall-clock
/// line) vs local mode, clean shutdown over the protocol. The daemon's
/// own stderr carries nothing on a request's behalf.
#[cfg(unix)]
#[test]
fn serve_daemon_round_trip() {
    let sock = std::env::temp_dir().join(format!("banger-cli-serve-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let log = sock.with_extension("log");
    let child = banger()
        .args(["serve", "--socket", sock.to_str().unwrap()])
        .stderr(std::fs::File::create(&log).unwrap())
        .spawn()
        .expect("daemon starts");
    let mut guard = DaemonGuard(child);
    // The daemon is up once the socket answers.
    let mut up = false;
    for _ in 0..200 {
        if std::os::unix::net::UnixStream::connect(&sock).is_ok() {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(up, "daemon never opened {}", sock.display());
    let connect: &[&str] = &["--connect", sock.to_str().unwrap()];

    let ping = banger().args(connect).arg("ping").output().unwrap();
    assert!(ping.status.success());
    assert_eq!(String::from_utf8_lossy(&ping.stdout), "pong\n");

    // check / gantt / run through the daemon == local mode, twice each
    // (second pass exercises the warm caches).
    let lu3 = "examples/projects/lu3.bang";
    let local_lu3 = banger().args(["gantt", lu3, "-H", "ETF"]).output().unwrap();
    assert!(
        String::from_utf8_lossy(&local_lu3.stderr).contains("warning[B014]"),
        "{}",
        String::from_utf8_lossy(&local_lu3.stderr)
    );
    for args in [
        vec!["check", project_path()],
        vec!["gantt", project_path(), "-H", "ETF"],
        vec!["gantt", lu3, "-H", "ETF"],
        vec!["run", project_path(), "-i", "left=100", "-i", "right=0"],
    ] {
        let local = banger().args(&args).output().unwrap();
        for pass in ["cold", "warm"] {
            let daemon = banger().args(connect).args(&args).output().unwrap();
            assert_eq!(
                daemon.status.code(),
                local.status.code(),
                "{args:?} ({pass}) exit codes differ"
            );
            assert_eq!(
                String::from_utf8_lossy(&daemon.stdout),
                String::from_utf8_lossy(&local.stdout),
                "{args:?} ({pass}) stdout differs"
            );
            if args[0] != "run" {
                assert_eq!(
                    String::from_utf8_lossy(&daemon.stderr),
                    String::from_utf8_lossy(&local.stderr),
                    "{args:?} ({pass}) stderr differs"
                );
            }
        }
    }

    // A design with error-severity diagnostics keeps its exit-1 contract.
    let racy = "examples/projects/racy_pipeline.bang";
    let local = banger().args(["check", racy]).output().unwrap();
    let daemon = banger()
        .args(connect)
        .args(["check", racy])
        .output()
        .unwrap();
    assert_eq!(local.status.code(), Some(1));
    assert_eq!(daemon.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&daemon.stdout),
        String::from_utf8_lossy(&local.stdout)
    );

    let stats = banger().args(connect).arg("stats").output().unwrap();
    let text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(text.starts_with("requests "), "{text}");
    assert!(text.contains("panics 0"), "{text}");

    let bye = banger().args(connect).arg("shutdown").output().unwrap();
    assert!(bye.status.success());
    let status = guard.0.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status {status:?}");
    assert!(!sock.exists(), "socket file removed on shutdown");
    let daemon_log = std::fs::read_to_string(&log).unwrap();
    assert_eq!(
        daemon_log.lines().count(),
        2,
        "only the listening and shut-down lines: {daemon_log}"
    );
    std::fs::remove_file(&log).ok();
}

/// Starts `banger serve` on `sock` with its working directory at `cwd`
/// and waits until it answers.
#[cfg(unix)]
fn spawn_daemon(sock: &std::path::Path, cwd: &std::path::Path) -> DaemonGuard {
    std::fs::remove_file(sock).ok();
    let guard = DaemonGuard(
        banger()
            .args(["serve", "--socket", sock.to_str().unwrap()])
            .current_dir(cwd)
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("daemon starts"),
    );
    for _ in 0..200 {
        if std::os::unix::net::UnixStream::connect(sock).is_ok() {
            return guard;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("daemon never opened {}", sock.display());
}

/// A daemon started in one directory answers relative paths sent from
/// another exactly as local mode does there: the project file and the
/// `verify -s` schedule resolve against the client's working directory,
/// and the file `save-schedule -o` writes lands there too.
#[cfg(unix)]
#[test]
fn connect_resolves_relative_paths_against_the_client_cwd() {
    let root = std::env::temp_dir().join(format!("banger-cli-cwd-{}", std::process::id()));
    let (daemon_dir, client_dir) = (root.join("daemon"), root.join("client"));
    std::fs::create_dir_all(&daemon_dir).unwrap();
    std::fs::create_dir_all(&client_dir).unwrap();
    std::fs::copy("examples/projects/lu3.bang", client_dir.join("lu3.bang")).unwrap();
    let sock = root.join("d.sock");
    let mut guard = spawn_daemon(&sock, &daemon_dir);
    let connect = ["--connect", sock.to_str().unwrap()];

    let saved = banger()
        .args(connect)
        .args(["save-schedule", "lu3.bang", "-H", "ETF", "-o", "s.txt"])
        .current_dir(&client_dir)
        .output()
        .unwrap();
    assert!(saved.status.success(), "{saved:?}");
    assert!(
        client_dir.join("s.txt").exists(),
        "the client writes the file"
    );
    assert!(
        !daemon_dir.join("s.txt").exists(),
        "the daemon writes nothing"
    );

    for args in [
        vec!["check", "lu3.bang"],
        vec!["gantt", "lu3.bang", "-H", "ETF"],
        vec!["verify", "lu3.bang", "-s", "s.txt"],
    ] {
        let local = banger()
            .args(&args)
            .current_dir(&client_dir)
            .output()
            .unwrap();
        let daemon = banger()
            .args(connect)
            .args(&args)
            .current_dir(&client_dir)
            .output()
            .unwrap();
        assert!(local.status.success(), "{args:?}: {local:?}");
        assert_eq!(daemon.status.code(), local.status.code(), "{args:?}");
        assert_eq!(daemon.stdout, local.stdout, "{args:?} stdout differs");
        assert_eq!(daemon.stderr, local.stderr, "{args:?} stderr differs");
    }
    let stats = banger().args(connect).arg("stats").output().unwrap();
    let text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(text.starts_with("requests 5 "), "all served: {text}");

    let bye = banger().args(connect).arg("shutdown").output().unwrap();
    assert!(bye.status.success());
    assert!(guard.0.wait().expect("daemon exits").success());
    std::fs::remove_dir_all(&root).ok();
}

/// A reader that closes stdout early gets a quiet exit, not a panic.
#[test]
fn closed_stdout_is_not_a_panic() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = banger()
        .args(["check", project_path()])
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

/// SIGTERM stops a daemon promptly and cleanly even while a client
/// holds an idle connection: exit 0, socket file removed.
#[cfg(unix)]
#[test]
fn serve_exits_on_sigterm_with_an_idle_client() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let sock = std::env::temp_dir().join(format!("banger-cli-sigterm-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let child = banger()
        .args(["serve", "--socket", sock.to_str().unwrap()])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    let mut guard = DaemonGuard(child);
    let mut idle = None;
    for _ in 0..200 {
        if let Ok(s) = std::os::unix::net::UnixStream::connect(&sock) {
            idle = Some(s);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let mut idle = idle.unwrap_or_else(|| panic!("daemon never opened {}", sock.display()));
    // Half a length prefix: a handler now waits on this connection.
    idle.write_all(&[0, 0]).unwrap();

    let term = Command::new("kill")
        .args(["-TERM", &guard.0.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let sent = Instant::now();
    let status = loop {
        if let Some(status) = guard.0.try_wait().expect("wait on daemon") {
            break status;
        }
        assert!(
            sent.elapsed() < Duration::from_secs(5),
            "daemon still running 5 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "daemon exit status {status:?}");
    assert!(!sock.exists(), "socket file removed on SIGTERM");
    let mut buf = [0u8; 4];
    assert_eq!(
        idle.read(&mut buf).unwrap_or(0),
        0,
        "idle connection closed"
    );
}

/// Without a daemon, `--connect` falls back to local execution instead
/// of failing.
#[cfg(unix)]
#[test]
fn connect_falls_back_to_local_without_a_daemon() {
    let sock =
        std::env::temp_dir().join(format!("banger-cli-fallback-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let local = run_ok(&["gantt", project_path()]);
    let out = banger()
        .args(["--connect", sock.to_str().unwrap(), "gantt", project_path()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), local);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("running locally"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `cli::outputs` names exactly the files each file-writing command
/// returns, so the client's check on a daemon's answer never refuses a
/// real one.
#[test]
fn outputs_name_every_file_a_command_writes() {
    let lines: [&[&str]; 6] = [
        &["svg", project_path(), "-o", "charts"],
        &["svg", project_path()],
        &["save-schedule", project_path(), "-o", "s.txt"],
        &[
            "run",
            project_path(),
            "-i",
            "left=1",
            "-i",
            "right=0",
            "--trace",
            "t.json",
        ],
        &["optimize", project_path(), "--emit", "opt.bang"],
        &["optimize", project_path(), "--emit", "-"],
    ];
    for line in lines {
        let args: Vec<String> = line.iter().map(|a| a.to_string()).collect();
        let req = banger::cli::parse(&args).expect("parses");
        let resp = banger::cli::local(&req);
        assert!(resp.ok, "{line:?}: {}", resp.error);
        let written: Vec<&String> = resp.files.iter().map(|(p, _)| p).collect();
        let named = banger::cli::outputs(&req);
        assert_eq!(written, named.iter().collect::<Vec<_>>(), "{line:?}");
    }
}

/// Whatever answers on the socket cannot make the client write a file
/// its request did not name: such an answer is refused whole, for
/// subcommands and admin verbs alike, and nothing is written.
#[cfg(unix)]
#[test]
fn connect_refuses_files_the_request_did_not_name() {
    use banger::serve::protocol::{read_frame, write_frame};
    use banger::serve::Response;

    let root = std::env::temp_dir().join(format!("banger-cli-files-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let client_dir = root.join("client");
    std::fs::create_dir_all(&client_dir).unwrap();
    let sock = root.join("fake.sock");
    let victim = root.join("victim.txt");
    let charts = root.join("charts");
    let mut answer = Response::success("fine\n");
    answer.files = vec![
        (
            format!("{}/gantt.svg", charts.display()),
            "<svg/>".to_string(),
        ),
        (victim.display().to_string(), "overwritten\n".to_string()),
        ("../escaped.txt".to_string(), "overwritten\n".to_string()),
    ];
    let lines = [
        vec!["check", project_path()],
        vec!["svg", project_path(), "-o", charts.to_str().unwrap()],
        vec!["stats"],
    ];
    let listener = std::os::unix::net::UnixListener::bind(&sock).unwrap();
    let answers = lines.len();
    let fake = std::thread::spawn(move || {
        for stream in listener.incoming().take(answers) {
            let mut stream = stream.unwrap();
            read_frame(&mut stream).unwrap();
            write_frame(&mut stream, answer.to_json().as_bytes()).unwrap();
        }
    });
    for args in &lines {
        let out = banger()
            .args(["--connect", sock.to_str().unwrap()])
            .args(args)
            .current_dir(&client_dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(stderr.contains("did not name"), "{args:?}: {stderr}");
        assert!(!victim.exists(), "{args:?} wrote {}", victim.display());
        assert!(!charts.exists(), "{args:?} wrote into {}", charts.display());
        assert!(!root.join("escaped.txt").exists(), "{args:?} wrote ../");
    }
    fake.join().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
