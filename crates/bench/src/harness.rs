//! The one harness behind the `bench_*` binaries: one estimator, one
//! record writer, one metadata block and one `--quick` rule.
//!
//! Every record is a JSON object whose first three fields are the
//! metadata block — `host_cpus`, `estimator` and `quick` — so numbers
//! taken on different hosts, or by a smoke run, are never mistaken for
//! each other. A full run writes `BENCH_<name>.json` at the repo root
//! (the committed record); a `--quick` run uses a short time budget and
//! writes `target/BENCH_<name>.json`, so it never replaces the
//! committed record.

use banger_taskgraph::json::Json;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The statistic [`Bench::best_ns`] reports, as recorded in every
/// record's `estimator` field. The hosts these records come from are
/// small and noisy; the minimum over batches estimates the uncontended
/// cost far more stably than a grand mean.
pub const ESTIMATOR: &str =
    "min of batch means: ~5 ms batches, >= 3 batches, 150 ms budget (20 ms with --quick)";

/// Calls per batch aim at this much wall time.
const BATCH_TARGET_NS: u128 = 5_000_000;
const MAX_BATCH: u128 = 16_384;
const MIN_BATCHES: u32 = 3;
const MAX_BATCHES: u32 = 1_000;

/// One bench binary's run: its record name and whether it is a quick run.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    name: &'static str,
    quick: bool,
}

impl Bench {
    /// A run of the bench whose record is `BENCH_<name>.json`.
    fn new(name: &'static str, quick: bool) -> Bench {
        Bench { name, quick }
    }

    /// Parses the command line. `--quick` is the only flag; any other
    /// argument exits with status 2 rather than silently running the full
    /// bench and replacing the committed record.
    pub fn from_args(name: &'static str) -> Bench {
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            if arg == "--quick" {
                quick = true;
            } else {
                eprintln!("bench_{name}: unknown argument {arg:?} (usage: bench_{name} [--quick])");
                std::process::exit(2);
            }
        }
        Bench::new(name, quick)
    }

    /// Whether this is a `--quick` smoke run.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Minimum batch-mean wall time of one call of `f`, in nanoseconds.
    ///
    /// The first call warms up and sizes the batch to ~5 ms; a call
    /// that costs more than that runs alone in its batch. Batches repeat
    /// until the time budget is spent, at least three times.
    pub fn best_ns<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let budget = Duration::from_millis(if self.quick { 20 } else { 150 });
        let first = Instant::now();
        black_box(f());
        let per_call = first.elapsed().as_nanos().max(1);
        let batch = (BATCH_TARGET_NS / per_call).clamp(1, MAX_BATCH) as u32;
        let started = Instant::now();
        let mut best = f64::INFINITY;
        let mut batches = 0;
        while batches < MIN_BATCHES || (started.elapsed() < budget && batches < MAX_BATCHES) {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            best = best.min(t.elapsed().as_nanos() as f64 / f64::from(batch));
            batches += 1;
        }
        best
    }

    /// The record: the metadata block followed by `fields`.
    fn record(&self, fields: Vec<(String, Json)>) -> Json {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let meta = [
            ("host_cpus", Json::from(host_cpus)),
            ("estimator", ESTIMATOR.into()),
            ("quick", self.quick.into()),
        ];
        let meta = meta.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Obj(meta.chain(fields).collect())
    }

    /// Where the record goes: `BENCH_<name>.json` at the repo root, or
    /// under the repo's `target/` for a quick run.
    fn path(&self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the repo root");
        let dir = if self.quick {
            root.join("target")
        } else {
            root.to_path_buf()
        };
        dir.join(format!("BENCH_{}.json", self.name))
    }

    /// Writes the record — the metadata block, then `fields` — indented,
    /// to the run's path (see the module docs) and echoes it to stdout.
    pub fn write(&self, fields: Vec<(String, Json)>) {
        let text = self.record(fields).render_pretty() + "\n";
        let path = self.path();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        }
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        print!("{text}");
        eprintln!("wrote {}", path.display());
    }
}

/// A JSON object from fixed field names.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `x` rounded to `digits` decimal places, so records carry no
/// false precision.
pub fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_taskgraph::json::parse;

    #[test]
    fn record_carries_metadata_and_parses() {
        let bench = Bench::new("probe", true);
        let fields = vec![("row".to_string(), obj([("best_ns", 12.0.into())]))];
        let text = bench.record(fields).render_pretty();
        let back = parse(&text).expect("record parses");
        assert!(back.get("host_cpus").and_then(Json::as_num).unwrap() >= 1.0);
        assert_eq!(
            back.get("estimator").and_then(Json::as_str),
            Some(ESTIMATOR)
        );
        assert_eq!(back.get("quick").and_then(Json::as_bool), Some(true));
        assert_eq!(
            back.get("row").and_then(|r| r.get("best_ns")),
            Some(&Json::Num(12.0))
        );
        assert!(bench.path().ends_with("target/BENCH_probe.json"));
        assert!(!Bench::new("probe", false)
            .path()
            .ends_with("target/BENCH_probe.json"));
    }
}
