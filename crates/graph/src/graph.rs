//! A compact undirected graph with the traversals the metrics need.

use std::collections::VecDeque;

/// An undirected graph over dense vertex ids `0..n`.
///
/// Parallel edges are collapsed; self-loops are rejected. Neighbor lists
/// are kept sorted for deterministic iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Build from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut g = Graph::new(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|n| n.len()).sum::<usize>() / 2
    }

    /// Insert the undirected edge `a — b` (idempotent). Panics on
    /// self-loops or out-of-range vertices.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        assert_ne!(a, b, "self-loops are not allowed");
        assert!((a as usize) < self.adj.len() && (b as usize) < self.adj.len());
        if let Err(pos) = self.adj[a as usize].binary_search(&b) {
            self.adj[a as usize].insert(pos, b);
        }
        if let Err(pos) = self.adj[b as usize].binary_search(&a) {
            self.adj[b as usize].insert(pos, a);
        }
    }

    /// Whether the edge `a — b` exists.
    pub fn has_edge(&self, a: u32, b: u32) -> bool {
        self.adj
            .get(a as usize)
            .is_some_and(|ns| ns.binary_search(&b).is_ok())
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.adj[v as usize].len()
    }

    /// BFS hop distances from `src`; `None` for unreachable vertices.
    pub fn bfs_distances(&self, src: u32) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.adj.len()];
        if (src as usize) >= self.adj.len() {
            return dist;
        }
        dist[src as usize] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize].expect("queued vertices have distances");
            for &w in &self.adj[v as usize] {
                if dist[w as usize].is_none() {
                    dist[w as usize] = Some(d + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Connected components as sorted vertex lists, largest first (ties by
    /// smallest vertex).
    pub fn components(&self) -> Vec<Vec<u32>> {
        let mut seen = vec![false; self.adj.len()];
        let mut comps = Vec::new();
        for start in 0..self.adj.len() as u32 {
            if seen[start as usize] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen[start as usize] = true;
            while let Some(v) = queue.pop_front() {
                comp.push(v);
                for &w in &self.adj[v as usize] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        comps
    }

    /// Local clustering coefficient of `v`: existing links among its
    /// neighbors over all possible ones (`None` for degree < 2 — the
    /// coefficient is undefined there).
    pub fn clustering(&self, v: u32) -> Option<f64> {
        let ns = &self.adj[v as usize];
        let k = ns.len();
        if k < 2 {
            return None;
        }
        let mut links = 0usize;
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if self.has_edge(a, b) {
                    links += 1;
                }
            }
        }
        Some(links as f64 * 2.0 / (k * (k - 1)) as f64)
    }

    /// Average clustering coefficient over vertices where it is defined.
    pub fn avg_clustering(&self) -> f64 {
        let vals: Vec<f64> = (0..self.adj.len() as u32)
            .filter_map(|v| self.clustering(v))
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Characteristic path length: mean BFS distance over all *connected*
    /// ordered pairs. `None` when no pair is connected.
    pub fn characteristic_path_length(&self) -> Option<f64> {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for v in 0..self.adj.len() as u32 {
            for d in self.bfs_distances(v).into_iter().flatten() {
                if d > 0 {
                    total += d as u64;
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            None
        } else {
            Some(total as f64 / pairs as f64)
        }
    }

    /// Mean degree.
    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.adj.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn edges_are_idempotent_and_symmetric() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        Graph::new(2).add_edge(1, 1);
    }

    #[test]
    fn bfs_on_path() {
        let g = path(5);
        let d = g.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn components_sorted_largest_first() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1, 2], vec![4, 5], vec![3]]);
    }

    #[test]
    fn clustering_triangle_vs_star() {
        let triangle = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle.clustering(0), Some(1.0));
        assert_eq!(triangle.avg_clustering(), 1.0);
        let star = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(star.clustering(0), Some(0.0));
        assert_eq!(star.clustering(1), None, "degree 1: undefined");
        assert_eq!(star.avg_clustering(), 0.0);
    }

    #[test]
    fn clustering_partial() {
        // 0 connected to 1,2,3; only 1-2 linked among them: C = 1/3.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]);
        let c = g.clustering(0).unwrap();
        assert!((c - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_length_of_path_graph() {
        // Path 0-1-2: distances 1,2,1,1,2,1 -> mean 8/6.
        let g = path(3);
        let l = g.characteristic_path_length().unwrap();
        assert!((l - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn path_length_ignores_disconnected_pairs() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(g.characteristic_path_length(), Some(1.0));
        let empty = Graph::new(3);
        assert_eq!(empty.characteristic_path_length(), None);
    }

    #[test]
    fn avg_degree() {
        let g = path(5);
        assert!((g.avg_degree() - 8.0 / 5.0).abs() < 1e-12);
    }
}
