//! The paper's Fig 5–6 oracle distance: "the minimum number of hops from
//! the source to the peer holding the requested information", measured on
//! the instantaneous radio connectivity graph.
//!
//! The graph is never materialised on the hot path. [`OracleScratch::nearest`]
//! runs a breadth-first search straight over the [`SpatialGrid`] and stops
//! at the first up holder it reaches, so a completed query costs the
//! requirer's neighbourhood out to the nearest holder rather than a range
//! query per node in the world. [`connectivity_graph`] builds the same
//! relation as an explicit [`Graph`] for analysis and as the reference the
//! search is tested against.

use std::collections::VecDeque;

use manet_des::NodeId;
use manet_geom::SpatialGrid;
use manet_graph::Graph;

/// The radio connectivity graph over `up.len()` nodes: an edge between
/// every two up nodes the grid places within `range` metres of each other.
/// A node that is down or absent from the grid has no edges.
pub(crate) fn connectivity_graph(grid: &SpatialGrid, range: f64, up: &[bool]) -> Graph {
    let mut g = Graph::new(up.len());
    let mut buf = Vec::new();
    for (id, pos) in grid.iter() {
        if !up[id as usize] {
            continue;
        }
        grid.query_range(pos, range, id, &mut buf);
        for &nb in &buf {
            if nb > id && up[nb as usize] {
                g.add_edge(id, nb);
            }
        }
    }
    g
}

/// Reusable buffers for the oracle search, owned by the world so the
/// metrics hook allocates nothing in steady state.
///
/// The per-node marks are generation-stamped: `seen[v] == stamp` means
/// `v` was reached by the current search, `target[v] == stamp` that `v`
/// is one of its up holders. Starting a search bumps `stamp` instead of
/// clearing n-sized arrays; only a wrap of the counter clears them.
#[derive(Debug, Default)]
pub(crate) struct OracleScratch {
    seen: Vec<u32>,
    target: Vec<u32>,
    stamp: u32,
    /// BFS frontier: `(node, hops from the requirer)`.
    queue: VecDeque<(u32, u32)>,
    /// Range-query result buffer.
    buf: Vec<u32>,
}

impl OracleScratch {
    /// Hop distance from `from` to the nearest up node in `holders` over
    /// [`connectivity_graph`]`(grid, range, up)`, or `None` when no up
    /// holder is reachable. Also returns how many nodes the search
    /// expanded (range-queried).
    ///
    /// Breadth-first discovery assigns every node its minimum hop count,
    /// and nodes are discovered in non-decreasing distance order, so the
    /// first holder discovered is a nearest one and the search stops
    /// there.
    pub(crate) fn nearest(
        &mut self,
        grid: &SpatialGrid,
        range: f64,
        up: &[bool],
        from: NodeId,
        holders: &[NodeId],
    ) -> (Option<u32>, u64) {
        let src = from.index();
        if !up[src] {
            // A down requirer has no links and is not an up holder.
            return (None, 0);
        }
        let stamp = self.next_stamp(up.len());
        for h in holders {
            if up[h.index()] {
                self.target[h.index()] = stamp;
            }
        }
        if self.target[src] == stamp {
            return (Some(0), 0);
        }
        self.seen[src] = stamp;
        self.queue.clear();
        self.queue.push_back((from.0, 0));
        let mut expanded = 0u64;
        while let Some((v, d)) = self.queue.pop_front() {
            let Some(pos) = grid.position(v) else {
                continue;
            };
            expanded += 1;
            grid.query_range(pos, range, v, &mut self.buf);
            for &w in &self.buf {
                let w_ix = w as usize;
                if !up[w_ix] || self.seen[w_ix] == stamp {
                    continue;
                }
                if self.target[w_ix] == stamp {
                    return (Some(d + 1), expanded);
                }
                self.seen[w_ix] = stamp;
                self.queue.push_back((w, d + 1));
            }
        }
        (None, expanded)
    }

    /// Start a new search over `n` nodes: size the marks and advance the
    /// stamp, clearing the marks when the counter wraps so no mark left
    /// by an earlier search can match.
    fn next_stamp(&mut self, n: usize) -> u32 {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.target.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.target.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::{Point, Rect};
    use manet_testkit::{prop_assert_eq, properties, vec_of, Config, Gen, Strategy};

    /// One oracle input: node positions (`None` = absent from the grid),
    /// radio range, up mask, holder list (duplicates and down holders
    /// allowed) and requirer.
    #[derive(Clone, Debug)]
    struct Case {
        side: f64,
        range: f64,
        cell: f64,
        positions: Vec<Option<(f64, f64)>>,
        up: Vec<bool>,
        holders: Vec<NodeId>,
        from: NodeId,
    }

    impl Case {
        fn grid(&self) -> SpatialGrid {
            let mut grid = SpatialGrid::new(Rect::sized(self.side, self.side), self.cell);
            for (id, p) in self.positions.iter().enumerate() {
                if let Some((x, y)) = *p {
                    grid.upsert(id as u32, Point::new(x, y));
                }
            }
            grid
        }

        /// The minimum over up holders of the connectivity graph's BFS
        /// distances from the requirer.
        fn reference(&self) -> Option<u32> {
            let dist =
                connectivity_graph(&self.grid(), self.range, &self.up).bfs_distances(self.from.0);
            self.holders
                .iter()
                .filter(|h| self.up[h.index()])
                .filter_map(|h| dist[h.index()])
                .min()
        }

        fn oracle(&self, scratch: &mut OracleScratch) -> Option<u32> {
            let grid = self.grid();
            scratch
                .nearest(&grid, self.range, &self.up, self.from, &self.holders)
                .0
        }
    }

    /// Random cases over 1–60 nodes. Ranges run from 1/80 to 1/2 of the
    /// area's side, from "almost everyone isolated" to "everyone within
    /// two hops"; grid cells from half to twice the range. About one node
    /// in ten is down and one in twenty-five absent from the grid.
    #[derive(Clone, Copy, Debug)]
    struct AnyCase;

    impl Strategy for AnyCase {
        type Value = Case;

        fn generate(&self, g: &mut Gen) -> Case {
            let r = g.rng();
            let n = 1 + r.below(60) as usize;
            let side = (1 + r.below(20)) as f64 * 50.0;
            let range = (1 + r.below(40)) as f64 * side / 80.0;
            let cell = range * (1 + r.below(4)) as f64 / 2.0;
            let positions = (0..n)
                .map(|_| {
                    (!r.chance(0.04)).then(|| (r.range_f64(0.0, side), r.range_f64(0.0, side)))
                })
                .collect();
            let up = (0..n).map(|_| !r.chance(0.1)).collect();
            let holders = (0..r.below(6))
                .map(|_| NodeId(r.below(n as u64) as u32))
                .collect();
            let from = NodeId(r.below(n as u64) as u32);
            Case {
                side,
                range,
                cell,
                positions,
                up,
                holders,
                from,
            }
        }
    }

    properties! {
        config = Config::cases(256);

        /// The early-exit grid search agrees with a full BFS over the
        /// materialised connectivity graph, with one scratch reused across
        /// a batch of searches on different worlds.
        fn nearest_matches_full_bfs_reference(cases in vec_of(AnyCase, 1..8)) {
            let mut scratch = OracleScratch::default();
            for case in &cases {
                prop_assert_eq!(case.oracle(&mut scratch), case.reference());
            }
        }
    }

    /// Six nodes 10 m apart on a line, range 10 m: a path graph.
    fn line(up: &[bool], holders: &[u32], from: u32) -> Case {
        Case {
            side: 100.0,
            range: 10.0,
            cell: 10.0,
            positions: (0..6).map(|i| Some((5.0 + 10.0 * i as f64, 5.0))).collect(),
            up: up.to_vec(),
            holders: holders.iter().map(|&h| NodeId(h)).collect(),
            from: NodeId(from),
        }
    }

    const ALL_UP: [bool; 6] = [true; 6];

    fn check(case: &Case, expect: Option<u32>) {
        assert_eq!(case.reference(), expect, "reference for {case:?}");
        assert_eq!(
            case.oracle(&mut OracleScratch::default()),
            expect,
            "oracle for {case:?}"
        );
    }

    #[test]
    fn nearest_holder_wins() {
        check(&line(&ALL_UP, &[5, 2], 0), Some(2));
        check(&line(&ALL_UP, &[0, 5], 3), Some(2));
    }

    #[test]
    fn requirer_that_holds_the_file_is_at_distance_zero() {
        check(&line(&ALL_UP, &[5, 0], 0), Some(0));
    }

    #[test]
    fn down_requirer_reaches_nothing() {
        let mut up = ALL_UP;
        up[0] = false;
        check(&line(&up, &[1], 0), None);
        // Down, it does not count as its own holder either.
        check(&line(&up, &[0, 1], 0), None);
    }

    #[test]
    fn down_holders_do_not_count() {
        let mut up = ALL_UP;
        up[2] = false;
        up[4] = false;
        check(&line(&up, &[2, 4], 5), None);
        // The nearest *up* holder counts, however close a down one is.
        up[4] = true;
        check(&line(&up, &[2, 5], 3), Some(2));
    }

    #[test]
    fn empty_holder_list_is_unreachable() {
        check(&line(&ALL_UP, &[], 0), None);
    }

    #[test]
    fn holder_behind_a_down_relay_is_unreachable() {
        let mut up = ALL_UP;
        up[3] = false;
        check(&line(&up, &[5], 0), None);
        check(&line(&up, &[5, 1], 0), Some(1));
    }

    #[test]
    fn requirer_absent_from_grid_reaches_only_itself() {
        let mut case = line(&ALL_UP, &[1], 0);
        case.positions[0] = None;
        check(&case, None);
        case.holders.push(NodeId(0));
        check(&case, Some(0));
    }

    #[test]
    fn stamp_wrap_clears_stale_marks() {
        let near = line(&ALL_UP, &[1], 0);
        let far = line(&ALL_UP, &[5], 0);
        let mut scratch = OracleScratch::default();
        // Stamps 1..=4 mark node 1 as a target.
        for _ in 0..4 {
            assert_eq!(near.oracle(&mut scratch), Some(1));
        }
        // The searches after the wrap reuse stamps 1, 2, ...: a mark that
        // survived it would make node 1 a holder again.
        scratch.stamp = u32::MAX - 2;
        for i in 0..6 {
            assert_eq!(far.oracle(&mut scratch), Some(5), "search {i}");
        }
        assert_eq!(scratch.stamp, 4, "the stamp wrapped");
    }
}
