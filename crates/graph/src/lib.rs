//! # manet-graph — graph analysis for overlays and radio topologies
//!
//! Two consumers:
//!
//! * analysis of the instantaneous radio connectivity graph
//!   (`World::connectivity_graph` in `manet-sim`): BFS hop distances
//!   ([`Graph::bfs_distances`]) and connected components. The simulator's
//!   Fig 5–6 "minimum number of hops" metric searches the spatial grid
//!   directly and is tested against this graph's BFS;
//! * the small-world discussion (§6.1.2): clustering coefficient,
//!   characteristic path length and the Watts–Strogatz comparison against
//!   random-graph baselines ([`SmallWorld`]).

pub mod analysis;
pub mod graph;

pub use analysis::{small_world, SmallWorld};
pub use graph::Graph;
