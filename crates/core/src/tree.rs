//! The recursive partition tree (the paper's Figure 1).

/// One node of the partition tree: the half-open index range
/// `[off, off + n)` of the tridiagonal it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeNode {
    pub off: usize,
    pub n: usize,
    /// Size of the left child (the cut is at `off + n1`); 0 for leaves.
    pub n1: usize,
    /// Child node ids in [`PartitionTree::nodes`]; `None` for leaves.
    pub children: Option<(usize, usize)>,
    /// Depth from the leaves upward (leaves are 0) — merges at equal
    /// height are independent.
    pub height: usize,
}

impl TreeNode {
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// The full partition of an `n`-sized problem into leaves of size at most
/// `min_part`, split by halving (as `dlaed0` does).
#[derive(Clone, Debug)]
pub struct PartitionTree {
    pub nodes: Vec<TreeNode>,
    pub root: usize,
    pub n: usize,
}

impl PartitionTree {
    /// Build the tree. `min_part` is clamped to at least 2.
    pub fn build(n: usize, min_part: usize) -> Self {
        let min_part = min_part.max(2);
        let mut nodes = Vec::new();
        let root = Self::build_rec(&mut nodes, 0, n, min_part);
        PartitionTree { nodes, root, n }
    }

    fn build_rec(nodes: &mut Vec<TreeNode>, off: usize, n: usize, min_part: usize) -> usize {
        if n <= min_part {
            nodes.push(TreeNode {
                off,
                n,
                n1: 0,
                children: None,
                height: 0,
            });
            return nodes.len() - 1;
        }
        let n1 = n / 2;
        let left = Self::build_rec(nodes, off, n1, min_part);
        let right = Self::build_rec(nodes, off + n1, n - n1, min_part);
        let height = nodes[left].height.max(nodes[right].height) + 1;
        nodes.push(TreeNode {
            off,
            n,
            n1,
            children: Some((left, right)),
            height,
        });
        nodes.len() - 1
    }

    /// Leaf node ids, left to right.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf())
            .collect()
    }

    /// Internal node ids in post order (children before parents) — a valid
    /// sequential merge order.
    pub fn merges_postorder(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].is_leaf())
            .collect()
        // `build_rec` pushes children before parents, so index order IS
        // post order.
    }

    /// Internal nodes grouped by height (1 = merges of leaves), each group
    /// independent — the level structure `LevelParallelDc` barriers on.
    pub fn merge_levels(&self) -> Vec<Vec<usize>> {
        let maxh = self.nodes[self.root].height;
        let mut levels = vec![Vec::new(); maxh];
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.is_leaf() {
                levels[node.height - 1].push(i);
            }
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_when_small() {
        let t = PartitionTree::build(10, 16);
        assert_eq!(t.nodes.len(), 1);
        assert!(t.nodes[t.root].is_leaf());
        assert!(t.merges_postorder().is_empty());
    }

    #[test]
    fn paper_figure1_shape() {
        // n = 1000 with min_part = 300 → four leaves of 250 (Figure 1/2).
        let t = PartitionTree::build(1000, 300);
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 4);
        for &l in &leaves {
            assert_eq!(t.nodes[l].n, 250);
        }
        assert_eq!(t.merges_postorder().len(), 3);
        let levels = t.merge_levels();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 2);
        assert_eq!(levels[1].len(), 1);
    }

    #[test]
    fn ranges_partition_the_problem() {
        let t = PartitionTree::build(137, 10);
        let mut covered = [false; 137];
        for &l in &t.leaves() {
            let node = &t.nodes[l];
            #[allow(clippy::needless_range_loop)]
            for i in node.off..node.off + node.n {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
            assert!(node.n <= 10 && node.n >= 1);
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn postorder_has_children_first() {
        let t = PartitionTree::build(64, 4);
        let order = t.merges_postorder();
        let pos = |id: usize| order.iter().position(|&x| x == id);
        for &m in &order {
            if let Some((l, r)) = t.nodes[m].children {
                for c in [l, r] {
                    if !t.nodes[c].is_leaf() {
                        assert!(pos(c).unwrap() < pos(m).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn children_meet_at_each_cut() {
        let t = PartitionTree::build(100, 20);
        let merges = t.merges_postorder();
        assert_eq!(merges.len(), t.leaves().len() - 1, "one cut per merge");
        for &m in &merges {
            let node = &t.nodes[m];
            let (l, r) = node.children.unwrap();
            assert_eq!(t.nodes[l].off, node.off);
            assert_eq!(t.nodes[l].n, node.n1);
            assert_eq!(t.nodes[r].off, node.off + node.n1);
            assert_eq!(t.nodes[r].n, node.n - node.n1);
        }
    }
}
