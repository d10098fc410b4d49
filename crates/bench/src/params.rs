//! Experiment scales and shared parameters.

use std::time::Duration;

/// Which scale to run an experiment at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The paper's sizes and thread counts.
    Paper,
    /// Reduced sizes for CI runs.
    Quick,
}

impl Scale {
    /// Parses `"paper"` / `"quick"` (used by the binaries' CLI).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.trim().to_ascii_lowercase().as_str() {
            "paper" | "full" => Some(Scale::Paper),
            "quick" | "ci" => Some(Scale::Quick),
            _ => None,
        }
    }
}

/// Parameters shared by the figure definitions.
#[derive(Clone, Debug)]
pub struct FigureParams {
    /// Red-black-tree size (paper: 100 000).
    pub rbtree_nodes: u64,
    /// Hash-table size (the paper's figure caption: 10 000 elements).
    pub hashtable_elements: u64,
    /// Sorted-list size (paper: 1 000).
    pub sortedlist_elements: u64,
    /// Random-array entries (paper: 128 K).
    pub random_array_entries: u64,
    /// Thread counts swept by the throughput figures (paper: 1..20 on a
    /// 20-way Xeon).
    pub thread_counts: Vec<usize>,
    /// Measurement interval per (algorithm, thread-count) point.
    pub duration: Duration,
    /// Operations per thread for the operation-bounded experiments (the
    /// breakdown tables and the capacity ablations).
    pub ops_per_thread: u64,
}

impl FigureParams {
    /// Parameters for a scale.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Paper => FigureParams {
                rbtree_nodes: 100_000,
                hashtable_elements: 10_000,
                sortedlist_elements: 1_000,
                random_array_entries: 128 * 1024,
                thread_counts: vec![1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
                duration: Duration::from_millis(400),
                ops_per_thread: 20_000,
            },
            Scale::Quick => FigureParams {
                rbtree_nodes: 20_000,
                hashtable_elements: 4_000,
                sortedlist_elements: 512,
                random_array_entries: 32 * 1024,
                thread_counts: vec![1, 4, 8],
                duration: Duration::from_millis(120),
                ops_per_thread: 2_000,
            },
        }
    }

    /// Caps the thread sweep at the host's available parallelism so the
    /// scaling shape is not polluted by oversubscription noise.
    pub fn clamp_threads_to_host(mut self) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        self.thread_counts.retain(|&t| t <= host.max(1));
        if self.thread_counts.is_empty() {
            self.thread_counts.push(1);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_the_paper() {
        let p = FigureParams::new(Scale::Paper);
        assert_eq!(p.rbtree_nodes, 100_000);
        assert_eq!(p.sortedlist_elements, 1_000);
        assert_eq!(p.random_array_entries, 128 * 1024);
        assert_eq!(p.thread_counts.last(), Some(&20));
    }

    #[test]
    fn quick_scale_is_smaller() {
        let q = FigureParams::new(Scale::Quick);
        let p = FigureParams::new(Scale::Paper);
        assert!(q.rbtree_nodes < p.rbtree_nodes);
        assert!(q.thread_counts.len() < p.thread_counts.len());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("QUICK"), Some(Scale::Quick));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn clamping_never_leaves_an_empty_sweep() {
        let p = FigureParams::new(Scale::Paper).clamp_threads_to_host();
        assert!(!p.thread_counts.is_empty());
    }
}
