//! The *Scientific* task: breadth-first search over a synthetic graph.

use super::{scale_exec, Workload, WorkloadOutput};
use std::collections::VecDeque;
use std::time::Duration;

/// A compact adjacency-list graph.
#[derive(Debug, Clone)]
pub struct Graph {
    /// CSR row offsets, length `n + 1`.
    pub offsets: Vec<u32>,
    /// CSR column indices.
    pub edges: Vec<u32>,
}

impl Graph {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `v`.
    pub(crate) fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.edges[s..e]
    }

    /// Builds a deterministic pseudo-random graph with `n` nodes and
    /// average degree `deg`, seeded by `seed`. A ring backbone keeps it
    /// connected.
    pub fn synthetic(n: usize, deg: usize, seed: u64) -> Graph {
        assert!(n >= 2);
        let mut adj: Vec<Vec<u32>> = vec![Vec::with_capacity(deg + 2); n];
        // Ring backbone.
        for v in 0..n {
            let next = ((v + 1) % n) as u32;
            adj[v].push(next);
            adj[(v + 1) % n].push(v as u32);
        }
        // Random long-range edges.
        let mut state = seed | 1;
        let mut next_rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for v in 0..n {
            for _ in 0..deg.saturating_sub(2) / 2 {
                let u = (next_rand() % n as u64) as u32;
                if u as usize != v {
                    adj[v].push(u);
                    adj[u as usize].push(v as u32);
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for a in &adj {
            edges.extend_from_slice(a);
            offsets.push(edges.len() as u32);
        }
        Graph { offsets, edges }
    }
}

/// BFS from `root`: returns (visited count, max depth).
pub fn bfs(g: &Graph, root: u32) -> (usize, usize) {
    let n = g.nodes();
    let mut depth = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    depth[root as usize] = 0;
    q.push_back(root);
    let mut visited = 1;
    let mut max_depth = 0;
    while let Some(v) = q.pop_front() {
        let d = depth[v as usize];
        for &u in g.neighbors(v) {
            if depth[u as usize] == u32::MAX {
                depth[u as usize] = d + 1;
                max_depth = max_depth.max((d + 1) as usize);
                visited += 1;
                q.push_back(u);
            }
        }
    }
    (visited, max_depth)
}

/// The Scientific workload: traverse a 100 000-node graph (§6.6). The
/// real in-process computation uses a scaled-down instance; the full
/// size drives the execution-time model.
#[derive(Debug, Clone, Copy)]
pub struct Scientific {
    /// Nodes of the in-process instance.
    pub live_nodes: usize,
}

impl Default for Scientific {
    fn default() -> Self {
        Scientific { live_nodes: 10_000 }
    }
}

impl Workload for Scientific {
    fn name(&self) -> &'static str {
        "Scientific"
    }

    fn input_bytes(&self) -> u64 {
        // 100k nodes × ~avg-degree-8 CSR ≈ 4 MB serialized.
        4 * 1024 * 1024
    }

    fn exec_time(&self, vcpus: f64) -> Duration {
        scale_exec(Duration::from_millis(25_000), vcpus)
    }

    fn compute(&self, input: &[u8]) -> WorkloadOutput {
        // Derive the seed from the downloaded bytes so the work depends
        // on real input.
        let seed = input
            .iter()
            .take(64)
            .fold(0x9e3779b9u64, |a, &b| a.rotate_left(7) ^ b as u64);
        let g = Graph::synthetic(self.live_nodes, 8, seed);
        let (visited, depth) = bfs(&g, 0);
        WorkloadOutput::Traversal { visited, depth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_graph_fully_reachable() {
        let g = Graph::synthetic(100, 2, 42);
        let (visited, depth) = bfs(&g, 0);
        assert_eq!(visited, 100);
        assert_eq!(depth, 50); // ring eccentricity
    }

    #[test]
    fn long_range_edges_shrink_depth() {
        let ring = Graph::synthetic(2000, 2, 1);
        let small_world = Graph::synthetic(2000, 8, 1);
        let (_, d_ring) = bfs(&ring, 0);
        let (v, d_sw) = bfs(&small_world, 0);
        assert_eq!(v, 2000);
        assert!(d_sw < d_ring / 4, "{d_sw} vs {d_ring}");
    }

    #[test]
    fn graph_is_deterministic() {
        let a = Graph::synthetic(500, 6, 7);
        let b = Graph::synthetic(500, 6, 7);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.offsets, b.offsets);
    }

    #[test]
    fn workload_visits_everything() {
        let w = Scientific { live_nodes: 1000 };
        match w.compute(&[1, 2, 3, 4]) {
            WorkloadOutput::Traversal { visited, depth } => {
                assert_eq!(visited, 1000);
                assert!(depth > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
