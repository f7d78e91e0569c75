//! Request-serving capacity limits (§5.1, "Other parameters").
//!
//! "The number of queries each node can serve in a certain period of time
//! is limited. If a request arrives at a cache that is overloaded, this
//! request is redirected to the next cache on the query path (or the
//! origin)." Time is measured in simulated requests: each window of
//! `window` consecutive requests resets the per-node served counters.
//! Origins always serve — a request can never be dropped.

use serde::{Deserialize, Serialize};

/// Per-node serving capacity configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingCapacity {
    /// Maximum requests a cache may serve per window.
    pub per_node: u32,
    /// Window length in simulated requests.
    pub window: u32,
}

/// Tracks per-node served counts across windows.
#[derive(Debug, Clone)]
pub struct CapacityTracker {
    cfg: ServingCapacity,
    served: Vec<u32>,
    current_window: u64,
}

impl CapacityTracker {
    /// Creates a tracker for `nodes` routers.
    pub fn new(cfg: ServingCapacity, nodes: usize) -> Self {
        assert!(cfg.window >= 1, "window must be >= 1");
        Self {
            cfg,
            served: vec![0; nodes],
            current_window: 0,
        }
    }

    /// Attempts to serve request number `req_idx` at `node`; returns false
    /// when the node is saturated for the current window.
    pub fn try_serve(&mut self, node: u32, req_idx: u64) -> bool {
        let window = req_idx / self.cfg.window as u64;
        if window != self.current_window {
            self.current_window = window;
            self.served.iter_mut().for_each(|c| *c = 0);
        }
        let count = &mut self.served[node as usize];
        if *count < self.cfg.per_node {
            *count += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_within_window() {
        let mut t = CapacityTracker::new(
            ServingCapacity {
                per_node: 2,
                window: 100,
            },
            4,
        );
        assert!(t.try_serve(0, 0));
        assert!(t.try_serve(0, 1));
        assert!(!t.try_serve(0, 2));
        // Other nodes unaffected.
        assert!(t.try_serve(1, 3));
    }

    #[test]
    fn window_reset() {
        let mut t = CapacityTracker::new(
            ServingCapacity {
                per_node: 1,
                window: 10,
            },
            2,
        );
        assert!(t.try_serve(0, 0));
        assert!(!t.try_serve(0, 9));
        assert!(t.try_serve(0, 10), "new window resets counters");
    }

    #[test]
    fn windows_can_be_skipped() {
        let mut t = CapacityTracker::new(
            ServingCapacity {
                per_node: 1,
                window: 5,
            },
            1,
        );
        assert!(t.try_serve(0, 0));
        assert!(t.try_serve(0, 27));
        assert!(!t.try_serve(0, 28));
    }
}
