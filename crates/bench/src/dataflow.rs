//! Dataflow data-movement workloads for the `bench_exec` binary
//! (BENCH_exec.json).
//!
//! Three shapes stress the executor's gather/publish path rather than
//! its compute: a **wide fan-out** (one producer's large array consumed
//! by many readers), a **deep pipeline** (one array handed stage to
//! stage), and the paper's **LU design** end to end. Each comes with an
//! [`run_oldstyle`] baseline — a faithful replica of the pre-zero-copy
//! executor's data movement: string-matched gather into name-keyed
//! `BTreeMap`s with a deep array copy per consumer edge, single
//! threaded. The replica drives the *same* compiled VM, so any measured
//! gap is data movement, not compute. Like the old runtime, it copies
//! each input twice: once on the consumer edge at gather, and once more
//! when the run boundary binds VM registers by value.

use banger_calc::vm::Vm;
use banger_calc::{InterpConfig, ProgramLibrary, Value};
use banger_taskgraph::hierarchy::{Flattened, HierGraph};
use std::collections::BTreeMap;

/// A design plus its program library and external inputs — everything
/// `execute` (or [`run_oldstyle`]) needs.
pub struct Workload {
    /// Short machine-readable name.
    pub name: &'static str,
    /// The flattened design.
    pub design: Flattened,
    /// Task programs.
    pub lib: ProgramLibrary,
    /// External input-port values.
    pub external: BTreeMap<String, Value>,
}

/// One producer building an `len`-element array, fanned out to `readers`
/// consumer tasks that each read a single element. The array moves over
/// `readers` arcs; the old runtime copied it per arc, the zero-copy
/// runtime bumps a refcount per arc.
pub fn fanout(len: usize, readers: usize) -> Workload {
    let mut h = HierGraph::new("fanout");
    let src = h.add_task_with_program("make", 1.0, "Make");
    let mut lib = ProgramLibrary::new();
    lib.add_source(&format!(
        "task Make out big begin big := fill({len}, 2) end"
    ))
    .unwrap();
    for i in 0..readers {
        let r = h.add_task_with_program(format!("read{i}"), 1.0, format!("Read{i}"));
        h.add_arc(src, r, "big", len as f64).unwrap();
        let o = h.add_storage(format!("o{i}"), 1.0);
        h.add_flow(r, o).unwrap();
        lib.add_source(&format!(
            "task Read{i} in big out o{i} begin o{i} := big[{}] end",
            i + 1
        ))
        .unwrap();
    }
    Workload {
        name: "fanout",
        design: h.flatten().unwrap(),
        lib,
        external: BTreeMap::new(),
    }
}

/// A `stages`-deep pipeline handing one `len`-element array from stage
/// to stage unchanged (`v1 := v0`), with a final scalar read so the
/// array itself is pure transit. Old runtime: one deep copy per stage;
/// zero-copy runtime: one refcount bump per stage.
pub fn pipeline(len: usize, stages: usize) -> Workload {
    let mut h = HierGraph::new("pipeline");
    let mut lib = ProgramLibrary::new();
    let src = h.add_task_with_program("stage0", 1.0, "S0");
    lib.add_source(&format!("task S0 out v1 begin v1 := fill({len}, 1) end"))
        .unwrap();
    let mut prev = src;
    for i in 1..stages {
        let t = h.add_task_with_program(format!("stage{i}"), 1.0, format!("S{i}"));
        h.add_arc(prev, t, format!("v{i}"), len as f64).unwrap();
        lib.add_source(&format!(
            "task S{i} in v{i} out v{} begin v{} := v{i} end",
            i + 1,
            i + 1
        ))
        .unwrap();
        prev = t;
    }
    let last = h.add_task_with_program("tail", 1.0, "Tail");
    h.add_arc(prev, last, format!("v{stages}"), len as f64)
        .unwrap();
    let o = h.add_storage("x", 1.0);
    h.add_flow(last, o).unwrap();
    lib.add_source(&format!(
        "task Tail in v{stages} out x begin x := v{stages}[1] end"
    ))
    .unwrap();
    Workload {
        name: "pipeline",
        design: h.flatten().unwrap(),
        lib,
        external: BTreeMap::new(),
    }
}

/// The paper's Figure-1 LU decomposition design for an `n`-by-`n`
/// system, programs and inputs included.
pub fn lu(n: usize) -> Workload {
    let (a, b) = banger::lu::test_system(n);
    Workload {
        name: "lu",
        design: banger_taskgraph::generators::lu_hierarchical(n)
            .flatten()
            .unwrap(),
        lib: banger::lu::lu_program_library(n),
        external: banger::lu::lu_inputs(&a, &b),
    }
}

/// The paper's LU design after the graph-rewrite optimizer: dead-arc
/// elimination followed by task fusion along `grain::pack`'s clusters.
/// Outcome-preserving by the optimizer's contract — same output values,
/// same total operation count — so any timing gap against [`lu`] is
/// pure per-task dispatch overhead reclaimed.
pub fn lu_fused(n: usize) -> Workload {
    let w = lu(n);
    let (dced, dlib, _) = banger_opt::eliminate_dead(&w.design, &w.lib).unwrap();
    let (fused, flib, _) = banger_opt::fuse(&dced, &dlib).unwrap();
    Workload {
        name: "lu_fused",
        design: fused,
        lib: flib,
        external: w.external,
    }
}

/// A single dense-LU template task over an `n`-by-`n` diagonally
/// dominant system — the overhead-free (and parallelism-free) baseline
/// for [`tiled_lu`].
pub fn dense_lu(n: usize) -> Workload {
    let mut h = HierGraph::new("dense_lu");
    let s_in = h.add_storage("a", (n * n) as f64);
    let t = h.add_task_with_program("fact", (n * n * n) as f64, "DenseLU");
    let s_out = h.add_storage("lu", (n * n) as f64);
    h.add_flow(s_in, t).unwrap();
    h.add_flow(t, s_out).unwrap();
    let mut lib = ProgramLibrary::new();
    lib.add(banger_opt::dense_lu_program("DenseLU", "a", "lu", n));
    let (a, _) = banger::lu::test_system(n);
    Workload {
        name: "dense_lu",
        design: h.flatten().unwrap(),
        lib,
        external: [("a".to_string(), Value::array(a))].into_iter().collect(),
    }
}

/// [`dense_lu`] after map expansion into a `tiles`-by-`tiles` block-LU
/// (scatter / gemm-chain / kernel / relabel / gather tasks). Values are
/// bit-identical to the dense template; the task count grows from 1 to
/// thousands, so this is the executor-at-scale workload.
pub fn tiled_lu(n: usize, tiles: usize) -> Workload {
    let mut h = HierGraph::new("tiled_lu");
    let s_in = h.add_storage("a", (n * n) as f64);
    let t = h.add_task_with_program("fact", (n * n * n) as f64, "DenseLU");
    let s_out = h.add_storage("lu", (n * n) as f64);
    h.add_flow(s_in, t).unwrap();
    h.add_flow(t, s_out).unwrap();
    let mut lib = ProgramLibrary::new();
    lib.add(banger_opt::dense_lu_program("DenseLU", "a", "lu", n));
    banger_opt::expand_dense_lu(&mut h, "fact", &mut lib, tiles).unwrap();
    let (a, _) = banger::lu::test_system(n);
    Workload {
        name: "tiled_lu",
        design: h.flatten().unwrap(),
        lib,
        external: [("a".to_string(), Value::array(a))].into_iter().collect(),
    }
}

/// A structurally independent deep copy — the movement cost the old
/// runtime paid implicitly on every consumer edge.
fn deep(v: &Value) -> Value {
    match v {
        Value::Num(n) => Value::Num(*n),
        Value::Array(a) => Value::array(a.as_ref().clone()),
    }
}

/// The pre-zero-copy executor's data movement, replicated: topological
/// single-threaded execution, per-task string-matched gather into a
/// name-keyed `BTreeMap` with a deep copy per consumer edge, name-keyed
/// publish maps. Drives the same compiled VM as `execute`. Returns the
/// design's output-port values.
pub fn run_oldstyle(w: &Workload, cfg: InterpConfig) -> BTreeMap<String, Value> {
    let g = &w.design.graph;
    let mut indeg: Vec<usize> = g.task_ids().map(|t| g.in_degree(t)).collect();
    let mut ready: Vec<_> = g.task_ids().filter(|t| indeg[t.index()] == 0).collect();
    let mut store: Vec<Option<BTreeMap<String, Value>>> = vec![None; g.task_count()];
    let mut vm = Vm::new();
    while let Some(t) = ready.pop() {
        // Per-run name resolution, as the old runner did.
        let name = g.task(t).program.as_deref().expect("task has program");
        let prog = w.lib.get_compiled(name).expect("program exists");
        let mut inputs: BTreeMap<String, Value> = BTreeMap::new();
        'vars: for var in prog.input_names() {
            for &e in g.in_edges(t) {
                let edge = g.edge(e);
                if edge.label == var {
                    let produced = store[edge.src.index()]
                        .as_ref()
                        .expect("predecessor completed");
                    inputs.insert(var.to_string(), deep(&produced[var]));
                    continue 'vars;
                }
            }
            inputs.insert(var.to_string(), deep(&w.external[var]));
        }
        // The old runtime's VM bound registers by value as well: every
        // input was structurally copied a second time out of the gather
        // map at the run boundary.
        let bound: BTreeMap<String, Value> =
            inputs.iter().map(|(k, v)| (k.clone(), deep(v))).collect();
        let out = vm.run(&prog, &bound, cfg).expect("task runs");
        store[t.index()] = Some(out.outputs);
        for s in g.successors(t) {
            let d = &mut indeg[s.index()];
            *d -= 1;
            if *d == 0 {
                ready.push(s);
            }
        }
    }
    let mut outputs = BTreeMap::new();
    for port in &w.design.outputs {
        let vals = store[port.tasks[0].index()].as_ref().expect("completed");
        outputs.insert(port.var.clone(), vals[&port.var].clone());
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_exec::{execute, ExecMode, ExecOptions};

    /// The old-style replica and the real executor agree on every
    /// workload — the correctness gate bench_exec relies on.
    #[test]
    fn oldstyle_matches_execute() {
        for w in [fanout(64, 4), pipeline(64, 6), lu(5)] {
            let old = run_oldstyle(&w, InterpConfig::default());
            let new = execute(
                &w.design,
                &w.lib,
                &w.external,
                &ExecOptions {
                    mode: ExecMode::Greedy { workers: 1 },
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                format!("{old:?}"),
                format!("{:?}", new.outputs),
                "{} outputs diverged",
                w.name
            );
        }
    }
}
