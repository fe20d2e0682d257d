//! `bench_exec` — measures executor data movement and per-firing
//! overhead, writing `BENCH_exec.json`: the pre-zero-copy gather/publish
//! baseline (string matched, two deep copies per input; see
//! `banger_bench::dataflow`) versus the dense-routed Arc-backed executor
//! — both cold (`execute`, which builds routing tables and a store per
//! call) and warm (a persistent [`Session`] firing, where workers,
//! routes, and the slab store are reused). A `repeat` workload times the
//! same firing cold versus warm on a multi-worker pool, isolating what
//! [`Session`] amortises.
//!
//! ```text
//! cargo run --release -p banger-bench --bin bench_exec [-- --quick]
//! ```
//!
//! `--quick` also shrinks the arrays for CI smoke runs (a clone
//! regression still shows; the numbers are just noisier). Timing and
//! output path follow [`banger_bench::harness`].

use banger_bench::dataflow;
use banger_bench::harness::{obj, round, Bench};
use banger_calc::InterpConfig;
use banger_exec::{execute, ExecMode, ExecOptions, Session};
use std::hint::black_box;

fn main() {
    let bench = Bench::from_args("exec");
    let quick = bench.quick();
    let (arr, fan_readers, pipe_stages, lu_n) = if quick {
        (4_096, 8, 8, 5)
    } else {
        (65_536, 16, 24, 9)
    };

    let workloads = [
        dataflow::fanout(arr, fan_readers),
        dataflow::pipeline(arr, pipe_stages),
        dataflow::lu(lu_n),
    ];
    let labels = [
        format!("fanout_{arr}x{fan_readers}"),
        format!("pipeline_{arr}x{pipe_stages}"),
        format!("lu_n{lu_n}"),
    ];

    let cfg = InterpConfig::default();
    let one_worker = ExecOptions {
        mode: ExecMode::Greedy { workers: 1 },
        ..ExecOptions::default()
    };

    let mut fields = Vec::new();
    for (w, label) in workloads.iter().zip(&labels) {
        // Correctness gate before timing: the replica and the executor
        // must agree on the design's outputs.
        let old_out = dataflow::run_oldstyle(w, cfg);
        let new_out = execute(&w.design, &w.lib, &w.external, &one_worker).unwrap();
        assert_eq!(
            format!("{old_out:?}"),
            format!("{:?}", new_out.outputs),
            "{label}: old-style replica and executor must agree"
        );

        let old_ns = bench.best_ns(|| dataflow::run_oldstyle(black_box(w), cfg));
        let cold_ns =
            bench.best_ns(|| execute(&w.design, &w.lib, &w.external, &one_worker).unwrap());
        let mut session = Session::new(&w.design, &w.lib, &one_worker).unwrap();
        let warm_ns = bench.best_ns(|| session.run(&w.external).unwrap());
        drop(session);

        // One traced warm firing on the worker pool: the aggregate
        // counters go into the report so trace-level regressions (copy
        // storms, queue backup, steal storms) show up in the benchmark
        // record, not just in timings.
        let traced = ExecOptions {
            mode: ExecMode::Greedy { workers: 4 },
            trace: true,
            ..ExecOptions::default()
        };
        // A single firing's wall clock is at the mercy of the host
        // scheduler; trace several and keep the steadiest (minimum-wall)
        // one as the representative steady-state record.
        let mut traced_session = Session::new(&w.design, &w.lib, &traced).unwrap();
        traced_session.run(&w.external).unwrap(); // warm the pool
        let report = (0..10)
            .map(|_| traced_session.run(&w.external).unwrap())
            .min_by_key(|r| r.wall)
            .unwrap();
        let s = report.trace.as_ref().expect("traced run").summary();

        let row = obj([
            ("tasks", w.design.graph.task_count().into()),
            ("oldstyle_gather_best_ns", old_ns.round().into()),
            ("cold_exec_best_ns", cold_ns.round().into()),
            ("warm_session_best_ns", warm_ns.round().into()),
            ("speedup", round(old_ns / warm_ns, 2).into()),
            ("cold_speedup", round(old_ns / cold_ns, 2).into()),
            (
                "trace",
                obj([
                    ("workers", s.workers.into()),
                    ("tasks_per_sec", s.tasks_per_sec().round().into()),
                    ("utilization", round(s.utilization(), 3).into()),
                    ("queue_wait_ns", (s.queue_wait.as_nanos() as f64).into()),
                    ("steals", s.steals.into()),
                    ("inline_tasks", s.inline_tasks.into()),
                    ("cow_copies", s.cow_copies.into()),
                    ("cow_bytes", s.cow_bytes.into()),
                    ("input_bytes", s.bytes_in.into()),
                ]),
            ),
        ]);
        fields.push((label.clone(), row));
    }

    // Fused LU: the same LU design after the graph-rewrite optimizer
    // (dead-arc elimination + task fusion). The baseline column is the
    // *unfused* old-style replica, the same yardstick as the `lu_n*`
    // row, so the two rows compare directly: the gap between their
    // speedups is what fusion reclaims in per-task dispatch overhead.
    {
        let unfused = dataflow::lu(lu_n);
        let fused = dataflow::lu_fused(lu_n);
        let base = execute(
            &unfused.design,
            &unfused.lib,
            &unfused.external,
            &one_worker,
        )
        .unwrap();
        let got = execute(&fused.design, &fused.lib, &fused.external, &one_worker).unwrap();
        assert_eq!(
            format!("{:?}", base.outputs),
            format!("{:?}", got.outputs),
            "fused LU outputs must be byte-identical to the original"
        );
        assert_eq!(
            base.total_ops(),
            got.total_ops(),
            "fusion must preserve the total operation count"
        );

        let old_ns = bench.best_ns(|| dataflow::run_oldstyle(black_box(&unfused), cfg));
        let cold_ns = bench
            .best_ns(|| execute(&fused.design, &fused.lib, &fused.external, &one_worker).unwrap());
        let mut session = Session::new(&fused.design, &fused.lib, &one_worker).unwrap();
        let warm_ns = bench.best_ns(|| session.run(&fused.external).unwrap());
        let row = obj([
            ("tasks_before", unfused.design.graph.task_count().into()),
            ("tasks", fused.design.graph.task_count().into()),
            ("total_ops", got.total_ops().into()),
            ("oldstyle_unfused_best_ns", old_ns.round().into()),
            ("cold_exec_best_ns", cold_ns.round().into()),
            ("warm_session_best_ns", warm_ns.round().into()),
            ("speedup", round(old_ns / warm_ns, 2).into()),
            ("cold_speedup", round(old_ns / cold_ns, 2).into()),
        ]);
        fields.push((format!("lu_n{lu_n}_fused"), row));
    }

    // Map-expanded tiled LU: one dense template node expanded to
    // thousands of tasks, then driven schedule -> pinned traced
    // execution end to end. The correctness gate demands bit-identical
    // factors against the single-task dense template.
    {
        use banger_machine::{Machine, MachineParams, Topology};
        let (tn, tiles) = if quick { (64, 4) } else { (256, 16) };
        let w = dataflow::tiled_lu(tn, tiles);
        // The dense template is one task doing ~2/3 n^3 operations; give
        // the interpreter headroom beyond its default step budget.
        let big_steps = ExecOptions {
            mode: ExecMode::Greedy { workers: 1 },
            interp: InterpConfig {
                max_steps: 500_000_000,
                ..InterpConfig::default()
            },
            ..ExecOptions::default()
        };
        let dense = dataflow::dense_lu(tn);
        let want = execute(&dense.design, &dense.lib, &dense.external, &big_steps).unwrap();
        let got = execute(&w.design, &w.lib, &w.external, &one_worker).unwrap();
        assert_eq!(
            format!("{:?}", want.outputs),
            format!("{:?}", got.outputs),
            "tiled LU factor must be bit-identical to the dense template"
        );

        let machine = Machine::new(Topology::hypercube(2), MachineParams::default());
        let schedule = banger_sched::run_heuristic("ETF", &w.design.graph, &machine)
            .expect("ETF heuristic exists");
        let pinned = ExecOptions {
            mode: ExecMode::pinned(schedule.clone()),
            trace: true,
            ..ExecOptions::default()
        };
        let report = execute(&w.design, &w.lib, &w.external, &pinned).unwrap();
        let s = report.trace.as_ref().expect("traced run").summary();

        let mut session = Session::new(&w.design, &w.lib, &one_worker).unwrap();
        let warm_ns = bench.best_ns(|| session.run(&w.external).unwrap());
        let row = obj([
            ("tiles", tiles.into()),
            ("tasks", w.design.graph.task_count().into()),
            ("arcs", w.design.graph.edge_count().into()),
            ("total_ops", report.total_ops().into()),
            ("etf_makespan", schedule.makespan().round().into()),
            (
                "pinned_traced_wall_ns",
                (report.wall.as_nanos() as f64).into(),
            ),
            ("warm_session_best_ns", warm_ns.round().into()),
            (
                "trace",
                obj([
                    ("workers", s.workers.into()),
                    ("tasks_per_sec", s.tasks_per_sec().round().into()),
                    ("utilization", round(s.utilization(), 3).into()),
                    ("cow_copies", s.cow_copies.into()),
                    ("cow_bytes", s.cow_bytes.into()),
                ]),
            ),
        ]);
        fields.push((format!("tiled_lu_n{tn}"), row));
    }

    // Repeated-firing workload: the same small-grain design fired
    // thousands of times. Cold pays routing-table build, store
    // allocation, and worker spawn on every call; a warm `Session`
    // keeps all three across firings.
    {
        let (len, readers) = if quick { (32, 4) } else { (64, 8) };
        let w = dataflow::fanout(len, readers);
        let workers = 4;
        let pool = ExecOptions {
            mode: ExecMode::Greedy { workers },
            ..ExecOptions::default()
        };
        let cold_ns = bench.best_ns(|| execute(&w.design, &w.lib, &w.external, &pool).unwrap());
        let mut session = Session::new(&w.design, &w.lib, &pool).unwrap();
        let warm_ns = bench.best_ns(|| session.run(&w.external).unwrap());
        let row = obj([
            ("workers", workers.into()),
            ("cold_exec_best_ns", cold_ns.round().into()),
            ("warm_session_best_ns", warm_ns.round().into()),
            ("warm_speedup", round(cold_ns / warm_ns, 2).into()),
        ]);
        fields.push((format!("repeat_fanout_{len}x{readers}"), row));
    }
    bench.write(fields);
}
