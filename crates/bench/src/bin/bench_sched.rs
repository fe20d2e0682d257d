//! `bench_sched` — measures the scheduling-sweep layer and the scheduler
//! scale rework, writing `BENCH_sched.json` (best ns per sweep, sequential
//! vs parallel, per-run engine probe counts, and `sched_scale` entries
//! pitting the optimised schedulers against the retained naive references
//! on large graphs) so the perf trajectory is tracked across PRs.
//!
//! ```text
//! cargo run --release -p banger-bench --bin bench_sched [-- --quick]
//! ```
//!
//! Timing and output path follow [`banger_bench::harness`].

use banger_bench as xb;
use banger_bench::harness::{obj, round, Bench};
use banger_sched::reference;
use banger_taskgraph::analysis::GraphAnalysis;
use banger_taskgraph::generators;
use banger_taskgraph::json::Json;

fn main() {
    let bench = Bench::from_args("sched");
    // Workers are planned honestly: `available_parallelism` capped by the
    // sweep's item count (BANGER_SWEEP_WORKERS still overrides for
    // experiments, but this benchmark no longer forces a fake count). On
    // a single-CPU host the sweep runs sequentially and the record says
    // so instead of claiming a speedup.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // LU at n = 9 (62 tasks) makes each sweep item heavy enough that
    // per-item engine work, not sweep bookkeeping, dominates — fan-out
    // has something to pay for on multi-core hosts.
    let g = generators::lu_hierarchical(9).flatten().unwrap().graph;
    let machines = xb::hypercube_suite();

    // Correctness gate before timing anything.
    let seq_points = xb::speedup_points_sequential(&g, &machines);
    let par_points = xb::speedup_points_parallel(&g, &machines);
    assert_eq!(
        seq_points, par_points,
        "parallel sweep must be bit-identical"
    );

    let seq_ns = bench.best_ns(|| xb::speedup_points_sequential(&g, &machines));
    let par_ns = bench.best_ns(|| xb::speedup_points_parallel(&g, &machines));
    let (predict_schedules, predict_stats) =
        banger_sched::sweep::sweep_machines_stats("MH", &g, &machines).expect("MH is known");

    let cmp_g = generators::gauss_elimination(10, 2.0, 1.0);
    let cmp_m = xb::bench_machine();
    let names: Vec<&str> = banger_sched::HEURISTIC_NAMES
        .iter()
        .chain(["DSH"].iter())
        .copied()
        .collect();
    let cmp_seq_ns = bench.best_ns(|| {
        for name in &names {
            std::hint::black_box(banger_sched::run_heuristic(name, &cmp_g, &cmp_m).unwrap());
        }
    });
    let cmp_par_ns =
        bench.best_ns(|| banger_sched::sweep::sweep_heuristics(&names, &cmp_g, &cmp_m));
    let cmp_workers = banger_sched::sweep::planned_workers(names.len());

    // Engine probe counts for one predict_speedup sweep, summed from the
    // per-run `SchedStats` each schedule carries (the old process-global
    // atomics let concurrent sweeps contaminate each other's counts).
    let (arrival_probes, slot_searches) = predict_schedules
        .iter()
        .map(|s| s.stats())
        .fold((0u64, 0u64), |(a, s), st| {
            (a + st.arrival_probes, s + st.slot_searches)
        });

    let sweep = |seq_ns: f64, par_ns: f64, planned: usize, engaged: usize| {
        let mut row = vec![
            ("sequential_best_ns".to_string(), seq_ns.round().into()),
            ("parallel_best_ns".to_string(), par_ns.round().into()),
        ];
        row.extend(speedup_fields(planned, engaged, host_cpus, seq_ns / par_ns));
        Json::Obj(row)
    };
    let fields = vec![
        (
            "predict_speedup_lu9_hypercube_1_64".to_string(),
            sweep(
                seq_ns,
                par_ns,
                predict_stats.planned_workers,
                predict_stats.engaged_workers,
            ),
        ),
        (
            "compare_heuristics_gauss10".to_string(),
            sweep(cmp_seq_ns, cmp_par_ns, cmp_workers, cmp_workers),
        ),
        (
            "engine_probes_per_predict_sweep".to_string(),
            obj([
                ("arrival_probes", arrival_probes.into()),
                ("slot_searches", slot_searches.into()),
            ]),
        ),
        ("sched_scale".to_string(), sched_scale(&bench)),
    ];
    bench.write(fields);
}

/// The `sched_scale` record: the 100k-task headline (optimised HLFET/MCP
/// wall time and probes versus the retained linear-selection references),
/// plus the ETF/DLS pair-scan cache before/after at a size where the
/// quadratic reference is still affordable. Each call here outlasts a
/// harness batch, so every `*wall_ms` is the fastest single run.
fn sched_scale(bench: &Bench) -> Json {
    let m = xb::bench_machine(); // hypercube-3, Figure 3 params
    let big = generators::layered_random(2026, 200, 500, 3, (1.0, 20.0), (0.5, 10.0));
    assert_eq!(big.task_count(), 100_000);
    let a = GraphAnalysis::analyze(&big);

    let mut fields = vec![
        ("graph".to_string(), big.name().into()),
        ("tasks".to_string(), big.task_count().into()),
        ("edges".to_string(), big.edge_count().into()),
        ("machine".to_string(), m.topology().name().into()),
    ];
    for name in ["HLFET", "MCP"] {
        let opt = banger_sched::run_heuristic_with(name, &big, &m, &a).unwrap();
        opt.validate(&big, &m).expect("scale schedule valid");
        let refr = reference::run_reference_with(name, &big, &m, &a).unwrap();
        assert_eq!(opt, refr, "{name} must stay bit-identical at 100k");
        let wall = bench.best_ns(|| banger_sched::run_heuristic_with(name, &big, &m, &a).unwrap());
        let ref_wall = bench.best_ns(|| reference::run_reference_with(name, &big, &m, &a).unwrap());
        let row = obj([
            ("wall_ms", round(wall / 1e6, 1).into()),
            ("reference_wall_ms", round(ref_wall / 1e6, 1).into()),
            ("arrival_probes", opt.stats().arrival_probes.into()),
            (
                "reference_arrival_probes",
                refr.stats().arrival_probes.into(),
            ),
            ("makespan", round(opt.makespan(), 1).into()),
        ]);
        fields.push((name.to_string(), row));
    }

    // ETF/DLS before/after: the pair-scan cache's probe reduction, at a
    // size where the reference's full rescans still terminate promptly.
    let mid = generators::stencil(40, 50, 2.0, 1.0);
    let ma = GraphAnalysis::analyze(&mid);
    let mut pair = Vec::new();
    for name in ["ETF", "DLS"] {
        let opt = banger_sched::run_heuristic_with(name, &mid, &m, &ma).unwrap();
        let refr = reference::run_reference_with(name, &mid, &m, &ma).unwrap();
        assert_eq!(opt, refr, "{name} must stay bit-identical");
        let wall = bench.best_ns(|| banger_sched::run_heuristic_with(name, &mid, &m, &ma).unwrap());
        let ref_wall =
            bench.best_ns(|| reference::run_reference_with(name, &mid, &m, &ma).unwrap());
        let row = obj([
            ("wall_ms", round(wall / 1e6, 2).into()),
            ("reference_wall_ms", round(ref_wall / 1e6, 2).into()),
            ("arrival_probes", opt.stats().arrival_probes.into()),
            (
                "reference_arrival_probes",
                refr.stats().arrival_probes.into(),
            ),
            ("slot_searches", opt.stats().slot_searches.into()),
            ("reference_slot_searches", refr.stats().slot_searches.into()),
        ]);
        pair.push((name.to_string(), row));
    }
    fields.push(("pair_scan_cache_stencil_40x50".to_string(), Json::Obj(pair)));
    Json::Obj(fields)
}

/// Fields for one experiment's parallelism claim. With more than one
/// worker the measured speedup stands on its own (a ~1.0x on a host
/// with fewer CPUs than workers is the honest reading, not a bug); with
/// one planned worker the "parallel" path was the sequential loop, so
/// the speedup is null and a note records that no parallelism claim is
/// being made.
fn speedup_fields(
    planned: usize,
    engaged: usize,
    host_cpus: usize,
    speedup: f64,
) -> Vec<(String, Json)> {
    let note = if planned <= 1 {
        Some(format!("host_cpus: {host_cpus} — one planned worker, sweep ran as the sequential loop; no parallel speedup to claim"))
    } else if planned > host_cpus {
        Some("more sweep workers than host CPUs: threads time-share one core, so ~1.0x or below is expected here".to_string())
    } else {
        None
    };
    let speedup = if planned > 1 {
        round(speedup, 2).into()
    } else {
        Json::Null
    };
    let mut fields = vec![
        ("planned_workers".to_string(), planned.into()),
        ("engaged_workers".to_string(), engaged.into()),
        ("speedup".to_string(), speedup),
    ];
    fields.extend(note.map(|n| ("note".to_string(), n.into())));
    fields
}
