//! Weighted union-find with path compression.

/// Disjoint-set forest over `0..n` with union-by-size and path compression.
///
/// Amortized near-constant-time operations; the workhorse of the
/// Newman–Ziff percolation sweep, where one sweep performs exactly one
/// union per edge of the lattice.
///
/// # Examples
///
/// ```
/// use pbbf_percolation::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(uf.union(2, 3));
/// assert_ne!(uf.find(0), uf.find(2));
/// assert!(uf.union(1, 2));
/// assert_eq!(uf.find(0), uf.find(3));
/// assert_eq!(uf.size_of(0), 4);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many elements");
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// The representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        true
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: usize) -> u32 {
        let r = self.find(x);
        self.size[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(5);
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.size_of(i), 1);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "repeat union returns false");
        assert_eq!(uf.size_of(1), 3);
        assert_eq!(uf.size_of(3), 1);
    }

    #[test]
    fn connected_transitively() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(4));
    }

    #[test]
    fn chain_union_all() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.size_of(0), n as u32);
        assert_eq!(uf.find(0), uf.find(n - 1));
    }

    #[test]
    #[should_panic]
    fn find_out_of_range_panics() {
        let mut uf = UnionFind::new(2);
        let _ = uf.find(5);
    }
}
