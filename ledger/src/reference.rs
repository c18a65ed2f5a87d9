//! The reference kernel: the ledger's unit of time.
//!
//! The machines this benchmark runs on are shared, and other tenants
//! slow every thread by up to 1.5× in phases that last from seconds to
//! minutes. Raw seconds from two runs a few minutes apart are therefore
//! not comparable. The ledger runs a fixed kernel of its own next to
//! every timed phase and divides by its time: a phase that slows the
//! workload slows the kernel alike, and the quotient stays put.
//!
//! The kernel is breadth-first search over a fixed random graph that
//! fits in a core's L2 cache, split into [`SOURCES`] searches on the
//! same thread pool as the workload, so it sees the same mix of pointer
//! chasing, branches and thread scheduling. It is the ledger's own code,
//! so no change to the library moves it.

use std::hint::black_box;
use std::time::Instant;

use rayon::prelude::*;

use crate::stats::{mix, process_cpu_s};

/// Nodes of the reference graph (2¹³ nodes × 8 arcs of 4 bytes: 256 KiB).
const NODES: usize = 1 << 13;
const DEGREE: usize = 8;
/// Searches per measurement: 25–30 ms on two threads of the baseline
/// machine in a quiet phase.
const SOURCES: usize = 384;

/// The unit: wall and CPU seconds credited to one reference measurement,
/// close to what the baseline machine measures in a quiet phase
/// (0.025–0.03 s wall, 0.05–0.06 s CPU). Timings are reported in
/// *reference seconds*: measured seconds × nominal ÷ measured reference
/// time. Changing these constants rescales every timing metric.
pub const NOMINAL_WALL_S: f64 = 0.03;
pub const NOMINAL_CPU_S: f64 = 0.06;

pub struct Reference {
    /// Out-arcs of node `u`: `arcs[u * DEGREE..(u + 1) * DEGREE]`.
    arcs: Vec<u32>,
}

/// One reference measurement.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Reference {
    pub fn new() -> Self {
        // Arc j of node u goes to a pseudo-random node; arc 0 goes to
        // u + 1, so every node is reachable from every source.
        let arcs = (0..NODES * DEGREE)
            .map(|i| {
                let (u, j) = (i / DEGREE, i % DEGREE);
                if j == 0 {
                    ((u + 1) % NODES) as u32
                } else {
                    (mix(i as u64) % NODES as u64) as u32
                }
            })
            .collect();
        Reference { arcs }
    }

    /// Eccentricity sum of the first [`SOURCES`] nodes: the kernel.
    fn run(&self) -> u64 {
        let eccentricities: Vec<u64> = (0..SOURCES)
            .into_par_iter()
            .map_init(
                || (vec![u32::MAX; NODES], Vec::with_capacity(NODES)),
                |(dist, queue), source| self.bfs(source, dist, queue),
            )
            .collect();
        eccentricities.iter().sum()
    }

    fn bfs(&self, source: usize, dist: &mut [u32], queue: &mut Vec<u32>) -> u64 {
        dist.fill(u32::MAX);
        queue.clear();
        dist[source] = 0;
        queue.push(source as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &v in &self.arcs[u * DEGREE..(u + 1) * DEGREE] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u] + 1;
                    queue.push(v);
                }
            }
        }
        assert_eq!(queue.len(), NODES, "the reference graph is strongly connected");
        u64::from(dist[queue[NODES - 1] as usize])
    }

    /// Times one run of the kernel on the current thread pool.
    pub fn measure(&self) -> Sample {
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        black_box(self.run());
        Sample { wall_s: start.elapsed().as_secs_f64(), cpu_s: process_cpu_s() - cpu0 }
    }
}
