//! Wire protocol: length-prefixed JSON frames, and the request /
//! response schemas.
//!
//! ## Framing
//!
//! One frame = a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON. Frames above [`MAX_FRAME`] are rejected (a
//! corrupted length prefix must not make the server allocate gigabytes).
//! A clean EOF *between* frames is a normal connection close.
//!
//! ## Requests
//!
//! A request is one parsed `banger` command line (see
//! [`cli::parse`](crate::cli::parse)): the subcommand, the project file,
//! the cross-command `-H` and `-i` values, every other argument in order,
//! and the client's working directory.
//!
//! ```json
//! {"cmd": "gantt", "path": "lu3.bang", "heuristic": "ETF", "cwd": "/home/u/designs"}
//! {"cmd": "run", "path": "p.bang", "heuristic": "MH", "inputs": {"a": 2.5, "v": [1, 2, 3]},
//!  "args": ["--trace", "out.json"], "cwd": "/home/u"}
//! {"cmd": "check", "path": "p.bang", "heuristic": "MH", "args": ["--format", "json"], "cwd": "/home/u"}
//! {"cmd": "ping"}   {"cmd": "stats"}   {"cmd": "evict", "path": "..."}   {"cmd": "shutdown"}
//! ```
//!
//! Fault-injection hooks (testing only): `"inject_panic": "<task>"` on a
//! `run` forwards to [`ExecOptions::inject_panic`](banger_exec::ExecOptions)
//! (an *attributed executor error*, not a handler crash), while
//! `"inject_handler_panic": true` on any command panics inside the
//! request handler itself — the daemon must survive it.
//!
//! ## Responses
//!
//! ```json
//! {"ok": true, "cached": true, "exit": 0, "output": "...", "notes": "...", "error": ""}
//! {"ok": false, "cached": false, "exit": 1, "output": "", "notes": "", "error": "...",
//!  "files": {"out.json": "..."}}
//! ```
//!
//! `output` is the command's whole stdout and `notes` its whole stderr,
//! both produced by the same command layer local mode runs; `error` is
//! the failure printed last as `banger: <error>`. `files` holds the
//! files the command asks to write, by the path the user gave; the
//! client writes them relative to its own working directory, so the
//! daemon never writes a file. The client refuses an answer carrying
//! any path its request did not name
//! ([`cli::outputs`](crate::cli::outputs)). `cached` means the project entry was
//! warm: the request did not parse the source.

use banger_calc::Value;
use banger_taskgraph::json::{self, Json};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one frame's payload, in bytes.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary; EOF
/// mid-frame and oversized lengths are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// One request: a parsed `banger` invocation. Unknown JSON fields are
/// ignored so old daemons tolerate newer clients.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// A subcommand (`check`, `gantt`, `run`, ...; `schedule` is the
    /// alias of `gantt`) or an admin verb (`ping`, `stats`, `evict`,
    /// `shutdown`).
    pub cmd: String,
    /// Project file path as given, resolved against `cwd`; absent for
    /// verbs that address the daemon itself.
    pub path: Option<String>,
    /// `-H`: scheduling heuristic (default `MH`).
    pub heuristic: String,
    /// `-i`: external input values.
    pub inputs: BTreeMap<String, Value>,
    /// Every other argument after the project file, in order.
    pub args: Vec<String>,
    /// The client's working directory; relative paths resolve against it.
    pub cwd: String,
    /// Testing: forward to the executor's per-task panic injection.
    pub inject_panic: Option<String>,
    /// Testing: panic inside the request handler itself.
    pub inject_handler_panic: bool,
}

impl Request {
    /// A request with defaults for everything but the verb, recording
    /// the current working directory.
    pub fn new(cmd: impl Into<String>) -> Self {
        let cwd = std::env::current_dir().unwrap_or_default();
        Request {
            cmd: cmd.into(),
            path: None,
            heuristic: "MH".to_string(),
            inputs: BTreeMap::new(),
            args: Vec::new(),
            cwd: cwd.to_string_lossy().into_owned(),
            inject_panic: None,
            inject_handler_panic: false,
        }
    }

    /// A request addressing a project file.
    pub fn for_path(cmd: impl Into<String>, path: impl Into<String>) -> Self {
        let mut r = Request::new(cmd);
        r.path = Some(path.into());
        r
    }

    /// `path` resolved against the request's working directory.
    pub fn resolve(&self, path: &str) -> PathBuf {
        Path::new(&self.cwd).join(path)
    }

    /// Renders the request as one JSON object.
    pub fn to_json(&self) -> String {
        let mut pairs = vec![("cmd".to_string(), Json::Str(self.cmd.clone()))];
        if let Some(p) = &self.path {
            pairs.push(("path".to_string(), Json::Str(p.clone())));
        }
        pairs.push(("heuristic".to_string(), Json::Str(self.heuristic.clone())));
        if !self.inputs.is_empty() {
            let fields = self
                .inputs
                .iter()
                .map(|(k, v)| (k.clone(), value_to_json(v)))
                .collect();
            pairs.push(("inputs".to_string(), Json::Obj(fields)));
        }
        if !self.args.is_empty() {
            let args = self.args.iter().map(|a| Json::Str(a.clone())).collect();
            pairs.push(("args".to_string(), Json::Arr(args)));
        }
        pairs.push(("cwd".to_string(), Json::Str(self.cwd.clone())));
        if let Some(t) = &self.inject_panic {
            pairs.push(("inject_panic".to_string(), Json::Str(t.clone())));
        }
        if self.inject_handler_panic {
            pairs.push(("inject_handler_panic".to_string(), Json::Bool(true)));
        }
        Json::Obj(pairs).render()
    }

    /// Parses a request from JSON text.
    pub fn from_json(text: &str) -> Result<Request, String> {
        let v = json::parse(text)?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request needs a \"cmd\" string")?
            .to_string();
        let text = |key| v.get(key).and_then(Json::as_str).map(str::to_string);
        let mut req = Request::new(cmd);
        req.path = text("path");
        req.heuristic = text("heuristic").unwrap_or(req.heuristic);
        req.cwd = text("cwd").unwrap_or(req.cwd);
        req.inject_panic = text("inject_panic");
        for arg in v.get("args").and_then(Json::as_arr).unwrap_or_default() {
            let arg = arg.as_str().ok_or("\"args\" must be strings")?;
            req.args.push(arg.to_string());
        }
        if let Some(Json::Obj(fields)) = v.get("inputs") {
            for (name, val) in fields {
                req.inputs.insert(
                    name.clone(),
                    json_to_value(val).map_err(|e| format!("bad input {name:?}: {e}"))?,
                );
            }
        }
        req.inject_handler_panic = v
            .get("inject_handler_panic")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        Ok(req)
    }
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Num(n) => Json::Num(*n),
        Value::Array(vs) => Json::Arr(vs.iter().map(|x| Json::Num(*x)).collect()),
    }
}

fn json_to_value(v: &Json) -> Result<Value, String> {
    match v {
        Json::Num(n) => Ok(Value::Num(*n)),
        Json::Arr(items) => {
            let mut vals = Vec::with_capacity(items.len());
            for item in items {
                vals.push(item.as_num().ok_or("array elements must be numbers")?);
            }
            Ok(Value::array(vals))
        }
        _ => Err("inputs must be numbers or arrays of numbers".into()),
    }
}

/// The answer to one request, from the daemon or from local mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Whether the command succeeded; a failure prints `error` last.
    pub ok: bool,
    /// The project entry was warm: the request did not parse the source.
    pub cached: bool,
    /// Process exit code (0 success, 1 failure, 2 usage error).
    pub exit: i32,
    /// The command's stdout.
    pub output: String,
    /// The command's stderr, before the `error` line.
    pub notes: String,
    /// Failure description when `ok` is false.
    pub error: String,
    /// Files to write, as (path as given, contents), in order.
    pub files: Vec<(String, String)>,
}

impl Response {
    /// A successful response with the given stdout payload.
    pub fn success(output: impl Into<String>) -> Self {
        Response {
            ok: true,
            cached: false,
            exit: 0,
            output: output.into(),
            notes: String::new(),
            error: String::new(),
            files: Vec::new(),
        }
    }

    /// A failed response with the given error description.
    pub fn failure(error: impl Into<String>) -> Self {
        Response {
            ok: false,
            exit: 1,
            error: error.into(),
            ..Response::success("")
        }
    }

    /// Marks whether the project entry was warm.
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// Sets the exit code.
    pub fn with_exit(mut self, exit: i32) -> Self {
        self.exit = exit;
        self
    }

    /// Renders the response as one JSON object.
    pub fn to_json(&self) -> String {
        let files = self.files.iter();
        let files = files.map(|(p, body)| (p.clone(), Json::Str(body.clone())));
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(self.ok)),
            ("cached".to_string(), Json::Bool(self.cached)),
            ("exit".to_string(), Json::Num(f64::from(self.exit))),
            ("output".to_string(), Json::Str(self.output.clone())),
            ("notes".to_string(), Json::Str(self.notes.clone())),
            ("error".to_string(), Json::Str(self.error.clone())),
            ("files".to_string(), Json::Obj(files.collect())),
        ])
        .render()
    }

    /// Parses a response from JSON text.
    pub fn from_json(text: &str) -> Result<Response, String> {
        let v = json::parse(text)?;
        let text = |key| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut files = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("files") {
            for (path, body) in pairs {
                let body = body.as_str().ok_or("file contents must be strings")?;
                files.push((path.clone(), body.to_string()));
            }
        }
        Ok(Response {
            ok: v
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("response needs an \"ok\" bool")?,
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            exit: v.get("exit").and_then(Json::as_num).unwrap_or(0.0) as i32,
            output: text("output"),
            notes: text("notes"),
            error: text("error"),
            files,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let mut req = Request::for_path("run", "/tmp/x.bang");
        req.heuristic = "ETF".into();
        req.inputs.insert("a".into(), Value::Num(2.5));
        req.inputs
            .insert("v".into(), Value::array(vec![1.0, 2.0, 3.0]));
        req.inject_panic = Some("w3".into());
        let back = Request::from_json(&req.to_json()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn response_round_trip() {
        let mut resp = Response::success("line1\nline2 \"quoted\"\n")
            .cached(true)
            .with_exit(1);
        resp.notes = "(3 task runs)".to_string();
        let back = Response::from_json(&resp.to_json()).unwrap();
        assert_eq!(resp, back);
        let fail = Response::failure("boom: \\path\\");
        assert_eq!(fail, Response::from_json(&fail.to_json()).unwrap());
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::from_json("{}").is_err());
        assert!(Request::from_json("not json").is_err());
        assert!(Request::from_json("{\"cmd\": 7}").is_err());
        assert!(Request::from_json("{\"cmd\": \"run\", \"inputs\": {\"a\": \"str\"}}").is_err());
    }

    #[test]
    fn frame_round_trip_and_guards() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"cmd\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"second"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        // Oversized length prefix is rejected without allocating.
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());

        // EOF mid-frame is an error, not a clean close.
        let mut partial = Vec::new();
        write_frame(&mut partial, b"hello").unwrap();
        partial.truncate(partial.len() - 2);
        let mut r = &partial[..];
        assert!(read_frame(&mut r).is_err());
    }
}
