//! `bench_calc` — measures the PITS execution engines and writes
//! `BENCH_calc.json`: tree-walking interpreter vs compiled register VM
//! on the Figure 4 SquareRoot kernel and the LU pivot-column kernel,
//! so the language-layer perf trajectory is tracked across PRs.
//!
//! ```text
//! cargo run --release -p banger-bench --bin bench_calc [-- --quick]
//! ```
//!
//! Timing and output path follow [`banger_bench::harness`].

use banger_bench::harness::{obj, round, Bench};
use banger_calc::{compile, interp, vm, InterpConfig, Value};
use std::collections::BTreeMap;

/// A numeric-integration task body: the loop-dominated shape (many
/// iterations, scalar math) whose per-iteration dispatch cost is what
/// the VM exists to crush.
const PI_SRC: &str = "\
task Pi
  in n
  out p
  local i, x, h
begin
  h := 1 / n
  p := 0
  for i := 1 to n do
    x := (i - 0.5) * h
    p := p + 4 / (1 + x * x)
  end
  p := p * h
end";

fn main() {
    let bench = Bench::from_args("calc");
    let sqrt_prog = banger_calc::parser::parse_program(banger::figures::SQUARE_ROOT_SRC).unwrap();
    let sqrt_inputs: BTreeMap<String, Value> =
        [("a".to_string(), Value::Num(2.0))].into_iter().collect();

    let pi_prog = banger_calc::parser::parse_program(PI_SRC).unwrap();
    let pi_inputs: BTreeMap<String, Value> = [("n".to_string(), Value::Num(1_000.0))]
        .into_iter()
        .collect();

    let lib = banger::lu::lu_program_library(9);
    let fan1 = lib.get("fan1").unwrap().clone();
    let (a, _b) = banger::lu::test_system(9);
    let fan1_inputs: BTreeMap<String, Value> =
        [("A".to_string(), Value::array(a))].into_iter().collect();

    let cfg = InterpConfig::default();
    let mut fields = Vec::new();
    for (name, prog, inputs) in [
        ("pi_n1000", &pi_prog, &pi_inputs),
        ("sqrt_fig4", &sqrt_prog, &sqrt_inputs),
        ("lu_fan1_n9", &fan1, &fan1_inputs),
    ] {
        let compiled = compile(prog);

        // Correctness gate before timing anything: identical outcome,
        // ops byte-for-byte equal (ops is the scheduler's task weight).
        let tree = interp::run(prog, inputs).unwrap();
        let fast = vm::run_compiled(&compiled, inputs, cfg).unwrap();
        assert_eq!(
            format!("{tree:?}"),
            format!("{fast:?}"),
            "{name}: engines must be observationally identical"
        );

        let tree_ns = bench.best_ns(|| interp::run(prog, inputs).unwrap());
        let mut machine = vm::Vm::new();
        let vm_ns = bench.best_ns(|| machine.run(&compiled, inputs, cfg).unwrap());
        let compile_and_run_ns = bench.best_ns(|| vm::compile_and_run(prog, inputs, cfg).unwrap());

        let row = obj([
            ("ops", tree.ops.into()),
            ("tree_walk_best_ns", tree_ns.round().into()),
            ("vm_best_ns", vm_ns.round().into()),
            ("compile_and_run_best_ns", compile_and_run_ns.round().into()),
            ("vm_speedup", round(tree_ns / vm_ns, 2).into()),
        ]);
        fields.push((name.to_string(), row));
    }
    bench.write(fields);
}
