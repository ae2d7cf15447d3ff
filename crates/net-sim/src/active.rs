//! Incremental membership sets for the active-set event loop.

/// A set of node indices with O(1) insert/remove and sorted sweeps.
///
/// The runner keeps one of these per beacon-boundary handler (frame
/// start, ATIM-window end) so each handler iterates only the nodes that
/// actually need processing — O(active) per beacon instead of O(n).
/// Membership follows [`pbbf_mac::MacState::pending_work`] and is
/// refreshed at every MAC transition point.
///
/// Removal just clears the flag; stale entries in the insertion list are
/// dropped (and the list re-sorted) by the next [`ActiveSet::sweep`], so
/// updates never shift the backing vector. Sweeps yield ascending
/// indices, which the runner relies on: events scheduled for active
/// nodes must enter the queue in node order, exactly as the full
/// per-node walk scheduled them, to preserve FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use pbbf_net_sim::ActiveSet;
///
/// let mut set = ActiveSet::new(8);
/// set.set(5, true);
/// set.set(2, true);
/// set.set(5, false);
/// let mut sweep = Vec::new();
/// set.sweep(&mut sweep);
/// assert_eq!(sweep, vec![2]);
/// ```
#[derive(Debug, Clone)]
pub struct ActiveSet {
    /// Insertion-ordered members; may contain stale (cleared) or
    /// duplicate entries between sweeps.
    members: Vec<u32>,
    in_set: Vec<bool>,
    /// Live-member count, maintained on every membership transition so
    /// [`ActiveSet::len`]/[`ActiveSet::is_empty`] are O(1) — the lazy
    /// engine's quiescent-frame jump polls emptiness at every frame
    /// start.
    live: usize,
}

impl ActiveSet {
    /// Creates an empty set over indices `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            members: Vec::new(),
            in_set: vec![false; n],
            live: 0,
        }
    }

    /// Sets index `i`'s membership.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, member: bool) {
        if member && !self.in_set[i] {
            self.in_set[i] = true;
            self.live += 1;
            self.members.push(i as u32);
        } else if !member && self.in_set[i] {
            self.in_set[i] = false;
            self.live -= 1;
        }
    }

    /// Whether index `i` is currently a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        self.in_set[i]
    }

    /// Writes the current members into `out` in ascending index order
    /// (clearing it first), compacting internal storage as a side effect.
    pub fn sweep(&mut self, out: &mut Vec<u32>) {
        out.clear();
        if self.members.len() * 8 >= self.in_set.len() {
            // Dense: scanning the membership bitmap is cheaper than
            // sorting the (stale-entry-laden) insertion list, and yields
            // ascending order for free.
            out.extend(
                self.in_set
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &m)| m.then_some(i as u32)),
            );
        } else {
            let in_set = &self.in_set;
            self.members.retain(|&i| in_set[i as usize]);
            self.members.sort_unstable();
            self.members.dedup();
            out.extend_from_slice(&self.members);
        }
        self.members.clear();
        self.members.extend_from_slice(out);
    }

    /// Number of live members (O(1)).
    #[must_use]
    pub fn len(&self) -> usize {
        debug_assert_eq!(self.live, self.in_set.iter().filter(|&&b| b).count());
        self.live
    }

    /// Whether no index is a member (O(1)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_reinsert_sweeps_sorted() {
        let mut s = ActiveSet::new(10);
        for i in [7usize, 3, 9, 3, 0] {
            s.set(i, true);
        }
        s.set(9, false);
        s.set(9, true); // re-insert after removal: duplicate entry internally
        let mut out = Vec::new();
        s.sweep(&mut out);
        assert_eq!(out, vec![0, 3, 7, 9]);
        // Sweep again: compaction kept exactly the live members.
        s.sweep(&mut out);
        assert_eq!(out, vec![0, 3, 7, 9]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn removal_is_immediate() {
        let mut s = ActiveSet::new(4);
        s.set(1, true);
        s.set(2, true);
        s.set(1, false);
        assert!(!s.contains(1));
        assert!(s.contains(2));
        let mut out = Vec::new();
        s.sweep(&mut out);
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn empty_set() {
        let mut s = ActiveSet::new(3);
        assert!(s.is_empty());
        let mut out = vec![99];
        s.sweep(&mut out);
        assert!(out.is_empty());
    }
}
