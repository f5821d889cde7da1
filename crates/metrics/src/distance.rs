//! Per-file distance and answer-count accumulators (Figs 5–6).
//!
//! For every completed query the requirer records the number of answers and
//! the *minimum* distance (in ad-hoc hops) to a peer holding the file. The
//! figures plot, per file rank, the averages of both.

/// Accumulated results for one file rank.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FileAccum {
    /// Completed queries for this file.
    pub requests: u64,
    /// Total answers across those queries.
    pub answers: u64,
    /// Sum over answered queries of the minimum ad-hoc distance.
    pub min_dist_sum: f64,
    /// Number of answered queries (those with >= 1 answer).
    pub answered: u64,
    /// Sum over answered queries of the minimum p2p distance.
    pub min_p2p_sum: f64,
    /// Sum of the *oracle* minimum ad-hoc distance: BFS over the radio
    /// connectivity graph from the requirer to the nearest holder at query
    /// time — the paper's Fig 5-6 "minimum number of hops" metric.
    pub oracle_sum: f64,
    /// Queries for which a holder was reachable (oracle defined).
    pub oracle_count: u64,
}

impl FileAccum {
    /// Average number of answers per request (paper's right axis).
    pub fn avg_answers(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.answers as f64 / self.requests as f64
        }
    }

    /// Average minimum ad-hoc distance to the file (paper's left axis).
    /// Unanswered queries contribute nothing, as in the paper (distance to
    /// a file that was not found is undefined).
    pub fn avg_min_distance(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.min_dist_sum / self.answered as f64
        }
    }

    /// Average minimum p2p (overlay) distance.
    pub fn avg_min_p2p(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.min_p2p_sum / self.answered as f64
        }
    }

    /// Average oracle minimum distance (Figs 5-6's left axis).
    pub fn avg_oracle_distance(&self) -> f64 {
        if self.oracle_count == 0 {
            0.0
        } else {
            self.oracle_sum / self.oracle_count as f64
        }
    }

    /// Fraction of requests that got at least one answer.
    pub fn success_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.answered as f64 / self.requests as f64
        }
    }

    /// Merge another accumulator (replication aggregation).
    pub fn merge(&mut self, other: &FileAccum) {
        self.requests += other.requests;
        self.answers += other.answers;
        self.min_dist_sum += other.min_dist_sum;
        self.answered += other.answered;
        self.min_p2p_sum += other.min_p2p_sum;
        self.oracle_sum += other.oracle_sum;
        self.oracle_count += other.oracle_count;
    }
}

/// Accumulators for every file rank in the catalogue.
#[derive(Clone, Debug)]
pub struct FileMetrics {
    files: Vec<FileAccum>,
}

impl FileMetrics {
    /// Metrics for `n_files` ranks.
    pub fn new(n_files: usize) -> Self {
        FileMetrics {
            files: vec![FileAccum::default(); n_files],
        }
    }

    /// Number of file ranks tracked.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when tracking no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Record one completed query for file index `file` (0-based rank).
    /// `answer_dists` yields `(adhoc_hops, p2p_hops)` per answer; `oracle`
    /// is the BFS distance from the requirer to the nearest holder over
    /// the radio connectivity graph, when one was reachable.
    pub fn record(
        &mut self,
        file: usize,
        answer_dists: impl IntoIterator<Item = (u8, u8)>,
        oracle: Option<u32>,
    ) {
        let acc = &mut self.files[file];
        acc.requests += 1;
        let mut mins: Option<(u8, u8)> = None;
        for (adhoc, p2p) in answer_dists {
            acc.answers += 1;
            mins = Some(match mins {
                Some((a, p)) => (a.min(adhoc), p.min(p2p)),
                None => (adhoc, p2p),
            });
        }
        if let Some((min_adhoc, min_p2p)) = mins {
            acc.answered += 1;
            acc.min_dist_sum += min_adhoc as f64;
            acc.min_p2p_sum += min_p2p as f64;
        }
        if let Some(d) = oracle {
            acc.oracle_count += 1;
            acc.oracle_sum += d as f64;
        }
    }

    /// The accumulator for a file index.
    pub fn file(&self, file: usize) -> &FileAccum {
        &self.files[file]
    }

    /// Merge run-level metrics into an aggregate.
    pub fn merge(&mut self, other: &FileMetrics) {
        assert_eq!(self.files.len(), other.files.len());
        for (a, b) in self.files.iter_mut().zip(&other.files) {
            a.merge(b);
        }
    }

    /// Rows `(rank, avg_min_distance, avg_answers)` for the first `k` files
    /// — the series of Figs 5–6 (the paper plots files 1..10). The distance
    /// is the oracle metric (nearest reachable holder), falling back to the
    /// observed answer distance when no oracle sample exists.
    pub fn series(&self, k: usize) -> Vec<(usize, f64, f64)> {
        self.files
            .iter()
            .take(k)
            .enumerate()
            .map(|(i, acc)| {
                let dist = if acc.oracle_count > 0 {
                    acc.avg_oracle_distance()
                } else {
                    acc.avg_min_distance()
                };
                (i + 1, dist, acc.avg_answers())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut m = FileMetrics::new(3);
        m.record(0, [(3, 2), (1, 1), (5, 4)], Some(1));
        m.record(0, [], None);
        m.record(1, [(2, 2)], Some(2));
        let f0 = m.file(0);
        assert_eq!(f0.requests, 2);
        assert_eq!(f0.answers, 3);
        assert_eq!(f0.answered, 1);
        assert_eq!(f0.avg_answers(), 1.5);
        assert_eq!(f0.avg_min_distance(), 1.0, "minimum of 3,1,5");
        assert_eq!(f0.avg_min_p2p(), 1.0);
        assert_eq!(f0.success_rate(), 0.5);
        assert_eq!(m.file(1).avg_min_distance(), 2.0);
        assert_eq!(m.file(2).requests, 0);
    }

    #[test]
    fn empty_accumulator_yields_zeroes() {
        let acc = FileAccum::default();
        assert_eq!(acc.avg_answers(), 0.0);
        assert_eq!(acc.avg_min_distance(), 0.0);
        assert_eq!(acc.success_rate(), 0.0);
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = FileMetrics::new(2);
        a.record(0, [(2, 1)], Some(2));
        let mut b = FileMetrics::new(2);
        b.record(0, [(4, 3)], Some(4));
        b.record(1, [], None);
        a.merge(&b);
        assert_eq!(a.file(0).requests, 2);
        assert_eq!(a.file(0).avg_min_distance(), 3.0);
        assert_eq!(a.file(1).requests, 1);
    }

    #[test]
    fn series_covers_first_k_ranks() {
        let mut m = FileMetrics::new(20);
        m.record(0, [(1, 1), (1, 1)], Some(1));
        m.record(9, [(4, 2)], Some(4));
        let s = m.series(10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], (1, 1.0, 2.0));
        assert_eq!(s[9], (10, 4.0, 1.0));
    }

    #[test]
    #[should_panic]
    fn merge_requires_same_shape() {
        let mut a = FileMetrics::new(2);
        let b = FileMetrics::new(3);
        a.merge(&b);
    }

    #[test]
    fn empty_catalogue_is_well_behaved() {
        let m = FileMetrics::new(0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(m.series(10).is_empty(), "series over no files is empty");
    }

    #[test]
    fn series_is_truncated_by_catalogue_size() {
        let mut m = FileMetrics::new(3);
        m.record(2, [(1, 1)], None);
        let s = m.series(10);
        assert_eq!(s.len(), 3, "cannot report more ranks than tracked");
    }

    #[test]
    fn single_answerless_query_keeps_distances_undefined() {
        let mut m = FileMetrics::new(1);
        m.record(0, [], None);
        let f = m.file(0);
        assert_eq!(f.requests, 1);
        assert_eq!(f.answered, 0);
        assert_eq!(f.avg_min_distance(), 0.0);
        assert_eq!(f.avg_min_p2p(), 0.0);
        assert_eq!(f.avg_oracle_distance(), 0.0);
        assert_eq!(f.success_rate(), 0.0);
    }

    #[test]
    fn series_falls_back_to_observed_distance_without_oracle_samples() {
        let mut m = FileMetrics::new(1);
        m.record(0, [(3, 2)], None); // holder found, but oracle undefined
        let s = m.series(1);
        assert_eq!(s[0], (1, 3.0, 1.0), "observed min distance stands in");
    }
}
