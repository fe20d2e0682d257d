#![warn(missing_docs)]

//! # banger-taskgraph — PITL hierarchical dataflow graphs
//!
//! This crate implements the *programming-in-the-large* (PITL) layer of the
//! Banger environment (Lewis, ICPP 1994): a parallel program is a
//! **hierarchical dataflow graph** whose nodes are either primitive
//! sequential tasks (written in the PITS calculator language), compound
//! nodes that expand into lower-level dataflow graphs, or *storage* items
//! (the open rectangles of the paper's Figure 1); arcs carry named data
//! values and induce precedence.
//!
//! Two graph representations are provided:
//!
//! * [`hierarchy::HierGraph`] — the user-facing hierarchical design, exactly
//!   what Banger's graph editor manipulated;
//! * [`graph::TaskGraph`] — the flat weighted DAG the scheduler consumes,
//!   produced by [`hierarchy::HierGraph::flatten`].
//!
//! The crate also contains graph [`analysis`] (topological order, critical
//! path, t-/b-levels, parallelism profile), workload [`generators`] used by
//! the benchmark harness (the paper's LU decomposition design of Figure 1
//! and a family of classic scheduling workloads), and [`dot`] rendering for
//! instant visual feedback.
//!
//! ## Example
//!
//! ```
//! use banger_taskgraph::graph::TaskGraph;
//!
//! let mut g = TaskGraph::new("demo");
//! let a = g.add_task("load", 10.0);
//! let b = g.add_task("compute", 50.0);
//! let c = g.add_task("store", 5.0);
//! g.add_edge(a, b, 8.0, "x").unwrap();
//! g.add_edge(b, c, 8.0, "y").unwrap();
//! assert_eq!(g.topo_order().unwrap(), vec![a, b, c]);
//! assert_eq!(g.critical_path_length(), 65.0);
//! ```

pub mod analysis;
pub mod dot;
pub mod error;
pub mod generators;
pub mod graph;
pub mod hierarchy;
pub mod json;
pub mod textfmt;

pub use error::GraphError;
pub use graph::{EdgeId, Task, TaskGraph, TaskId};
pub use hierarchy::{HierGraph, HierNodeId, NodeKind};
