//! Request dispatch: the admin verbs, and for every subcommand "look up
//! the project entry, then run the command layer on it".
//!
//! The answer is whatever [`cli::execute`] returns for the cached
//! project, so it is the local answer by construction;
//! [`Response::cached`] reports whether the entry was warm.

use super::protocol::{Request, Response};
use super::store::ProjectStore;
use crate::cli;
use std::sync::atomic::Ordering;

/// Dispatches one request against the store. Panics are *not* caught
/// here — the server wraps this call in `catch_unwind` and poisons the
/// affected entry (see [`super::server`]).
pub fn handle(store: &ProjectStore, req: &Request) -> Response {
    store.counters.requests.fetch_add(1, Ordering::Relaxed);
    if req.inject_handler_panic {
        panic!("injected fault: inject_handler_panic requested");
    }
    match req.cmd.as_str() {
        "ping" => Response::success("pong\n"),
        "stats" => Response::success(store.stats().render()),
        "evict" => match &req.path {
            None => Response::failure("evict needs a \"path\""),
            Some(path) if store.evict(req.resolve(path)) => Response::success("evicted\n"),
            Some(_) => Response::success("not cached\n"),
        },
        // `shutdown` is intercepted by the server before dispatch; seeing
        // it here means a non-server caller (e.g. a unit test).
        "shutdown" => Response::success("shutting down\n"),
        _ => with_entry(store, req),
    }
}

/// Syncs the request's entry with the file's current bytes, then runs
/// the command under the per-entry lock: on a clone when it rewrites
/// the design, else on the cached project with the entry's warm
/// session lent to `run`.
fn with_entry(store: &ProjectStore, req: &Request) -> Response {
    let Some(path) = &req.path else {
        return Response::failure(format!("{} needs a \"path\"", req.cmd));
    };
    let (slot, _canon, source, hash) = match store.lookup(req.resolve(path)) {
        Ok(x) => x,
        Err(e) => return Response::failure(format!("cannot read {path}: {e}")),
    };
    let mut entry = slot.lock();
    let (state, warm) = match entry.ensure(&source, hash, &store.counters) {
        Ok(x) => x,
        Err(e) => return Response::failure(format!("{path}: {e}")),
    };
    let resp = if cli::rewrites(req) {
        cli::execute(req, &mut state.project.clone(), None)
    } else {
        cli::execute(req, &mut state.project, Some(&mut state.session))
    };
    resp.cached(warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn temp_bang(name: &str, body: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("banger-ops-{}-{name}.bang", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(body.as_bytes()).unwrap();
        path
    }

    fn lu3_source() -> String {
        let root = env!("CARGO_MANIFEST_DIR");
        std::fs::read_to_string(format!("{root}/../../examples/projects/lu3.bang")).unwrap()
    }

    #[test]
    fn schedule_is_cached_and_stable() {
        let path = temp_bang("sched", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("schedule", path.to_str().unwrap());
        req.heuristic = "ETF".into();
        let cold = handle(&store, &req);
        assert!(cold.ok, "{}", cold.error);
        assert!(!cold.cached);
        assert!(cold.output.contains("makespan"), "{}", cold.output);
        let warm = handle(&store, &req);
        assert!(warm.cached);
        assert_eq!(cold.output, warm.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_and_unknown_heuristic() {
        let path = temp_bang("check", &lu3_source());
        let store = ProjectStore::new();
        let resp = handle(&store, &Request::for_path("check", path.to_str().unwrap()));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.exit, 0);
        let mut bad = Request::for_path("schedule", path.to_str().unwrap());
        bad.heuristic = "NOPE".into();
        let resp = handle(&store, &bad);
        assert!(!resp.ok);
        assert!(resp.error.contains("unknown heuristic"), "{}", resp.error);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_reuses_the_session() {
        let path = temp_bang("run", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("run", path.to_str().unwrap());
        // A = identity, b = [1,2,3] -> x = [1,2,3].
        req.inputs.insert(
            "A".into(),
            banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
        );
        req.inputs
            .insert("b".into(), banger_calc::Value::array(vec![1.0, 2.0, 3.0]));
        let first = handle(&store, &req);
        assert!(first.ok, "{}", first.error);
        assert!(!first.cached, "first run builds the pool");
        assert!(first.output.contains("x = [1, 2, 3]"), "{}", first.output);
        let second = handle(&store, &req);
        assert!(second.cached, "second run reuses the warm pool");
        assert_eq!(first.output, second.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn executor_panic_is_attributed_and_contained() {
        let path = temp_bang("inject", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("run", path.to_str().unwrap());
        req.inputs.insert(
            "A".into(),
            banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
        );
        req.inputs
            .insert("b".into(), banger_calc::Value::array(vec![1.0, 2.0, 3.0]));
        let mut bad = req.clone();
        bad.inject_panic = Some("Factor.fan1".into());
        let resp = handle(&store, &bad);
        assert!(!resp.ok);
        assert!(resp.error.contains("Factor.fan1"), "{}", resp.error);
        // The entry survives: a clean run on the same store succeeds.
        let resp = handle(&store, &req);
        assert!(resp.ok, "{}", resp.error);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewriting_commands_leave_the_cached_project_alone() {
        let path = temp_bang("rewrite", &lu3_source());
        let path = path.to_str().unwrap();
        let store = ProjectStore::new();
        let gantt = || handle(&store, &Request::for_path("gantt", path));
        let before = gantt();
        assert!(before.ok, "{}", before.error);
        for (cmd, flags) in [
            ("optimize", &["--fuse", "--emit", "-"][..]),
            ("gantt", &["--optimize"]),
        ] {
            let mut req = Request::for_path(cmd, path);
            req.args = flags.iter().map(|a| a.to_string()).collect();
            assert!(crate::cli::rewrites(&req));
            let resp = handle(&store, &req);
            assert!(resp.ok, "{}", resp.error);
        }
        let after = gantt();
        assert!(after.cached);
        assert_eq!(before.output, after.output);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ping_stats_evict() {
        let store = ProjectStore::new();
        assert_eq!(handle(&store, &Request::new("ping")).output, "pong\n");
        let resp = handle(&store, &Request::new("stats"));
        assert!(resp.output.starts_with("requests 2"), "{}", resp.output);
        let resp = handle(&store, &Request::for_path("evict", "/nonexistent.bang"));
        assert_eq!(resp.output, "not cached\n");
        assert!(!handle(&store, &Request::new("nonsense")).ok);
    }
}
