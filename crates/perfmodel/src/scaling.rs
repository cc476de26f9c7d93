//! Distributed-training strong-scaling projection (Table I).
//!
//! The MLPerf BERT submissions of the paper run on 8/16 SPR nodes; without
//! a cluster we project the time-to-train from a single-socket throughput
//! with a simple compute + allreduce model:
//! `t(nodes) = work / (nodes * sockets * throughput) + comm * log2(nodes)`
//! — a standard ring/tree-allreduce cost shape.

/// Strong-scaling model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScalingModel {
    /// Total training work in socket-minutes (single-socket time).
    pub work_socket_minutes: f64,
    /// Sockets per node.
    pub sockets_per_node: usize,
    /// Allreduce/communication minutes per log2(nodes) step.
    pub comm_minutes_per_hop: f64,
}

impl ScalingModel {
    /// Projected time-to-train in minutes on `nodes` nodes.
    pub fn time_to_train(&self, nodes: usize) -> f64 {
        let n = nodes.max(1) as f64;
        self.work_socket_minutes / (n * self.sockets_per_node as f64)
            + self.comm_minutes_per_hop * n.log2()
    }

    /// Parallel efficiency going from `a` to `b` nodes.
    pub fn scaling_efficiency(&self, a: usize, b: usize) -> f64 {
        let ta = self.time_to_train(a);
        let tb = self.time_to_train(b);
        (ta / tb) / (b as f64 / a as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_nodes_is_faster_but_sublinear() {
        let m = ScalingModel {
            work_socket_minutes: 1292.0,
            sockets_per_node: 2,
            comm_minutes_per_hop: 1.7,
        };
        let t8 = m.time_to_train(8);
        let t16 = m.time_to_train(16);
        assert!(t16 < t8);
        let eff = m.scaling_efficiency(8, 16);
        assert!(eff > 0.5 && eff < 1.0, "efficiency {eff}");
    }

    #[test]
    fn paper_ratio_shape() {
        // Calibrated to the paper's Table I: 85.91 min on 8 nodes,
        // 47.26 min on 16 (ratio ~1.82).
        let m = ScalingModel {
            work_socket_minutes: 1292.0,
            sockets_per_node: 2,
            comm_minutes_per_hop: 1.72,
        };
        let ratio = m.time_to_train(8) / m.time_to_train(16);
        assert!((ratio - 1.82).abs() < 0.15, "ratio {ratio}");
    }
}
