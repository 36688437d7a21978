//! Cluster→query-group scheduling for cluster-major batched execution.
//!
//! A query-major batch executor runs one task per query, and every query
//! re-streams the code blocks of every cluster it probes: a 64-query batch
//! probing overlapping clusters pulls the same blocks through the cache up
//! to 64 times. The grouped executor inverts the loop — a **planning** pass
//! routes the whole batch (probe selection per query, unchanged semantics),
//! then a [`GroupSchedule`] turns the per-query probe lists into a
//! cluster→`(query, slot)` table so the **scan** pass can iterate clusters
//! in storage order and serve every query probing a cluster from one pass
//! over its codes.
//!
//! The schedule also cuts the cluster list into contiguous *cluster-group
//! chunks* of roughly equal scan work (`stored records × group size`), one
//! work-stealing task each. Chunk boundaries depend only on the batch and
//! the index — never on the worker budget — so the grouped execution (and
//! every statistic it produces) is deterministic for a given batch
//! regardless of thread count.

/// The cluster→query-group schedule of one batch: for every probed cluster
/// (ascending storage order) the `(query, slot)` pairs that probe it —
/// `slot` being the probe's position in the query's own filter order — plus
/// the deterministic chunk partition.
#[derive(Debug, Clone)]
pub struct GroupSchedule {
    /// Distinct probed clusters, ascending.
    cluster_ids: Vec<u32>,
    /// CSR offsets into `entries`; `offsets[i]..offsets[i + 1]` covers
    /// `cluster_ids[i]`.
    offsets: Vec<u32>,
    /// `(query, slot)` pairs, grouped by cluster, query-ascending within.
    entries: Vec<(u32, u32)>,
    /// Contiguous `cluster_ids` index ranges, one work-stealing task each.
    chunks: Vec<(u32, u32)>,
}

impl GroupSchedule {
    /// Builds the schedule from per-query probe lists (`probe_lists[q]` is
    /// query `q`'s probed clusters in filter order). `first_slot` offsets
    /// the recorded slot numbers: an executor that *seeds* each query's
    /// top-k with a query-major scan of its nearest probe passes the
    /// remaining probes (`&probes[1..]`) with `first_slot = 1`, so slots
    /// still index the query's full filter-order plan. `stored(c)` reports
    /// the records a scan of cluster `c` streams, weighting the chunk cut;
    /// `chunk_work` is the target `stored × queries` work per chunk.
    ///
    /// # Panics
    ///
    /// Panics if a probe list names a cluster `≥ num_clusters` (internal
    /// misuse — probe lists come from the engines' own filter stages).
    pub fn build(
        num_clusters: usize,
        probe_lists: &[&[usize]],
        first_slot: usize,
        stored: impl Fn(usize) -> usize,
        chunk_work: usize,
    ) -> Self {
        let mut counts = vec![0u32; num_clusters + 1];
        for probes in probe_lists {
            for &c in *probes {
                counts[c + 1] += 1;
            }
        }
        for c in 0..num_clusters {
            counts[c + 1] += counts[c];
        }
        let total = counts[num_clusters] as usize;
        let mut entries = vec![(0u32, 0u32); total];
        let mut cursors = counts.clone();
        for (qi, probes) in probe_lists.iter().enumerate() {
            for (slot, &c) in probes.iter().enumerate() {
                let at = cursors[c] as usize;
                entries[at] = (qi as u32, (first_slot + slot) as u32);
                cursors[c] += 1;
            }
        }

        // Compress to the probed clusters (offsets stay valid because the
        // cumulative counts do not move across unprobed clusters) and cut
        // chunk boundaries by accumulated scan work.
        let mut cluster_ids = Vec::new();
        let mut offsets = vec![0u32];
        for c in 0..num_clusters {
            if counts[c + 1] > counts[c] {
                cluster_ids.push(c as u32);
                offsets.push(counts[c + 1]);
            }
        }
        let mut chunks = Vec::new();
        let mut start = 0usize;
        let mut work = 0usize;
        for (idx, &c) in cluster_ids.iter().enumerate() {
            let group = (offsets[idx + 1] - offsets[idx]) as usize;
            work += stored(c as usize).max(1) * group;
            if work >= chunk_work.max(1) {
                chunks.push((start as u32, (idx + 1) as u32));
                start = idx + 1;
                work = 0;
            }
        }
        if start < cluster_ids.len() {
            chunks.push((start as u32, cluster_ids.len() as u32));
        }
        Self {
            cluster_ids,
            offsets,
            entries,
            chunks,
        }
    }

    /// Number of cluster-group chunks (work-stealing tasks).
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Total scheduled `(query, probe)` visits.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Iterates chunk `ci`'s clusters in storage order, yielding each
    /// cluster id with its `(query, slot)` group.
    ///
    /// # Panics
    ///
    /// Panics if `ci >= num_chunks()`.
    pub fn chunk(&self, ci: usize) -> impl Iterator<Item = (usize, &[(u32, u32)])> {
        let (c0, c1) = self.chunks[ci];
        (c0 as usize..c1 as usize).map(move |idx| {
            (
                self.cluster_ids[idx] as usize,
                &self.entries[self.offsets[idx] as usize..self.offsets[idx + 1] as usize],
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_every_probe_exactly_once_in_cluster_order() {
        // Three queries with overlapping probes over 6 clusters.
        let probes: Vec<&[usize]> = vec![&[4, 1, 2], &[1, 5], &[2, 1, 4]];
        let sched = GroupSchedule::build(6, &probes, 0, |_| 10, 1_000_000);
        assert_eq!(sched.cluster_ids.len(), 4); // clusters 1, 2, 4, 5
        assert_eq!(sched.num_entries(), 8);
        assert_eq!(sched.num_chunks(), 1);
        let groups: Vec<(usize, Vec<(u32, u32)>)> = sched
            .chunk(0)
            .map(|(c, entries)| (c, entries.to_vec()))
            .collect();
        // Clusters ascend; queries ascend within a cluster; slots record the
        // probe's position in the query's own filter order.
        assert_eq!(
            groups,
            vec![
                (1usize, vec![(0, 1), (1, 0), (2, 1)]),
                (2, vec![(0, 2), (2, 0)]),
                (4, vec![(0, 0), (2, 2)]),
                (5, vec![(1, 1)]),
            ]
        );
    }

    #[test]
    fn chunks_cut_by_work_and_cover_all_groups() {
        let probes: Vec<&[usize]> = vec![&[0, 1, 2, 3, 4, 5, 6, 7]];
        // Every cluster stores 10 records → work 10 per group; budget 25 →
        // chunks of 3, 3, 2 clusters.
        let sched = GroupSchedule::build(8, &probes, 0, |_| 10, 25);
        assert_eq!(sched.num_chunks(), 3);
        let sizes: Vec<usize> = (0..3).map(|ci| sched.chunk(ci).count()).collect();
        assert_eq!(sizes, vec![3, 3, 2]);
        let all: Vec<usize> = (0..3)
            .flat_map(|ci| sched.chunk(ci).map(|(c, _)| c))
            .collect();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn first_slot_offsets_the_recorded_slots() {
        // A seeded executor passes &probes[1..] with first_slot = 1: the
        // recorded slots must index the original filter-order plan.
        let probes: Vec<&[usize]> = vec![&[1, 2], &[2]];
        let sched = GroupSchedule::build(3, &probes, 1, |_| 1, 1_000);
        let groups: Vec<(usize, Vec<(u32, u32)>)> = sched
            .chunk(0)
            .map(|(c, entries)| (c, entries.to_vec()))
            .collect();
        assert_eq!(
            groups,
            vec![(1usize, vec![(0, 1)]), (2, vec![(0, 2), (1, 1)])]
        );
    }

    #[test]
    fn empty_batch_schedules_nothing() {
        let sched = GroupSchedule::build(4, &[], 0, |_| 1, 100);
        assert_eq!(sched.num_chunks(), 0);
        assert_eq!(sched.cluster_ids.len(), 0);
        assert_eq!(sched.num_entries(), 0);
    }
}
