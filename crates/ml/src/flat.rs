//! Flat-forest inference: a fitted boosting ensemble compiled into one
//! contiguous node array.
//!
//! The boxed [`RegressionTree`](crate::RegressionTree) nodes are the natural
//! fit and on-disk representation, but traversing them pointer-chases one heap
//! allocation per node.  A [`FlatForest`] lays every node of every tree out
//! preorder in a single packed 16-byte-node array — split feature, threshold
//! (or inline leaf weight) and right-child index per node; the left child is
//! implicitly the next node — so a prediction walks index arithmetic over one
//! cache line per node.  (A four-array struct-of-arrays variant was measured
//! slower here: it touches one cache line *per array* per node.)  The
//! accumulation order is exactly the recursive ensemble's
//! (`base_score + Σ learning_rate · leaf`), so flat predictions are
//! **bit-identical** to the recursive ones — pinned by the parity proptests.

use crate::matrix::Matrix;
use crate::tree::{Node, RegressionTree};

/// Depth of a tree rooted at `node` (a bare leaf has depth 0).
fn node_depth(node: &Node) -> u32 {
    match node {
        Node::Leaf { .. } => 0,
        Node::Split { left, right, .. } => 1 + node_depth(left).max(node_depth(right)),
    }
}

/// Whether every leaf of the tree is exactly `±0.0`.
///
/// Such a tree contributes `learning_rate · ±0.0 = ±0.0` to every
/// prediction, and adding `±0.0` to the leaf-sum accumulator is a bitwise
/// no-op: the accumulator starts at `+0.0` and IEEE-754 round-to-nearest
/// addition can never produce `-0.0` from a `+0.0` starting point (exact
/// cancellation yields `+0.0`), so the accumulator is never `-0.0` and
/// `acc + ±0.0` returns `acc` bit for bit.  Boosting drives residuals to
/// exactly zero on the few-shot training sets this crate targets, so late
/// rounds routinely emit these all-zero trees — skipping their walks is pure
/// saved work, pinned bit-identical by the flat-vs-recursive parity tests.
fn all_leaves_zero(node: &Node) -> bool {
    match node {
        Node::Leaf { weight } => *weight == 0.0,
        Node::Split { left, right, .. } => all_leaves_zero(left) && all_leaves_zero(right),
    }
}

/// Sentinel in [`FlatNode::feature`] marking a leaf node (the `threshold`
/// slot then holds the leaf weight).
const LEAF: u32 = u32::MAX;

/// One packed node: 16 bytes, preorder layout (left child at `index + 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    /// Split feature index; [`LEAF`] marks a leaf.
    feature: u32,
    /// Right-child node index (`x[feature] > threshold`); unused on leaves.
    right: u32,
    /// Split threshold, or the leaf weight on leaves (leaves inline).
    threshold: f64,
}

/// A boosted ensemble compiled for cache-friendly, allocation-free inference.
///
/// Compiled by [`GradientBoosting`](crate::GradientBoosting) at fit and decode
/// time; obtain one via
/// [`GradientBoosting::forest`](crate::GradientBoosting::forest).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatForest {
    base_score: f64,
    learning_rate: f64,
    /// Every node of every tree, preorder, trees back to back.
    nodes: Vec<FlatNode>,
    /// Root node index of each tree, in boosting order.
    roots: Vec<u32>,
    /// Depth of the deepest tree (0 = every tree is a bare leaf); bounds the
    /// fixed-step level-synchronous walk of [`FlatForest::predict_row`].
    max_depth: u32,
}

impl FlatForest {
    /// Compiles a fitted ensemble into flat storage.
    ///
    /// Unfitted trees are skipped (an ensemble mid-`fit` has none); an empty
    /// tree list yields a forest that predicts `base_score` everywhere.
    pub(crate) fn compile(base_score: f64, learning_rate: f64, trees: &[RegressionTree]) -> Self {
        let mut forest = Self {
            base_score,
            learning_rate,
            ..Self::default()
        };
        forest.max_depth = trees
            .iter()
            .filter_map(RegressionTree::root_node)
            .filter(|root| !all_leaves_zero(root))
            .map(node_depth)
            .max()
            .unwrap_or(0);
        for tree in trees {
            if let Some(root) = tree.root_node() {
                // All-zero trees are bitwise no-ops (see `all_leaves_zero`):
                // dropping them here removes their walks from every predict
                // path without changing a single output bit.
                if all_leaves_zero(root) {
                    continue;
                }
                let idx = forest.push_node(root, forest.max_depth);
                forest.roots.push(idx);
            }
        }
        forest
    }

    /// Flattens `node` with `levels` walk steps left to spend, padding early
    /// leaves so every root-to-leaf path consumes exactly
    /// `max_depth` steps.
    ///
    /// A leaf reached with steps to spare gets a chain of pass-through splits
    /// above it — `x[0] <= +∞` always descends left, and the stored right
    /// child aliases the left so even a NaN probe converges — which lets
    /// [`FlatForest::predict_row`] walk a fixed step count with no
    /// leaf-reached check (an unpredictable branch) in its hot loop.  The
    /// padded tree reaches the same leaf as the original for every input, so
    /// predictions are unchanged.
    fn push_node(&mut self, node: &Node, levels: u32) -> u32 {
        let idx = u32::try_from(self.nodes.len()).expect("forest exceeds u32 node indices");
        match node {
            Node::Leaf { .. } if levels > 0 => {
                self.nodes.push(FlatNode {
                    feature: 0,
                    right: idx + 1,
                    threshold: f64::INFINITY,
                });
                let below = self.push_node(node, levels - 1);
                debug_assert_eq!(below, idx + 1, "padded child is the next node");
            }
            Node::Leaf { weight } => {
                self.nodes.push(FlatNode {
                    feature: LEAF,
                    right: 0,
                    threshold: *weight,
                });
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                self.nodes.push(FlatNode {
                    feature: u32::try_from(*feature).expect("feature index fits u32"),
                    right: 0,
                    threshold: *threshold,
                });
                // Preorder: the left subtree directly follows its parent, so
                // only the right-child index needs storing.
                let left_idx = self.push_node(left, levels - 1);
                debug_assert_eq!(left_idx, idx + 1, "left child is the next node");
                let right_idx = self.push_node(right, levels - 1);
                self.nodes[idx as usize].right = right_idx;
            }
        }
        idx
    }

    /// Number of trees the forest actually walks (all-zero no-op trees are
    /// dropped at compile time, so this can be less than the fitted
    /// ensemble's boosting-round count).
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total number of nodes across all trees.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The shrunk leaf sum of one tree for one row.
    #[inline]
    fn tree_leaf(&self, root: u32, x: &[f64]) -> f64 {
        let mut i = root as usize;
        loop {
            let node = self.nodes[i];
            if node.feature == LEAF {
                return node.threshold;
            }
            i = if x[node.feature as usize] <= node.threshold {
                i + 1
            } else {
                node.right as usize
            };
        }
    }

    /// Predicts one row: `base_score + Σ learning_rate · leaf`, trees in
    /// boosting order (bit-identical to the recursive ensemble).
    ///
    /// The walk is level-synchronous: a block of trees descends one level per
    /// pass, so the (data-dependent) node loads of independent trees overlap
    /// instead of serialising behind each other.  Compile-time padding makes
    /// every path exactly `max_depth` steps long, so the
    /// descend is a single conditional move per level with no
    /// leaf-reached check (an unpredictable branch) in the hot loop.  Leaf
    /// values are still accumulated in boosting order, so the result is
    /// bit-identical to the sequential walk.
    pub fn predict_row(&self, x: &[f64]) -> f64 {
        if x.is_empty() || self.max_depth == 0 {
            return self.predict_row_sequential(x);
        }
        // Monomorphised fixed-depth walks for the depths the models use: a
        // compile-time step count unrolls the descend loop completely.
        match self.max_depth {
            1 => self.predict_row_fixed::<1>(x),
            2 => self.predict_row_fixed::<2>(x),
            3 => self.predict_row_fixed::<3>(x),
            4 => self.predict_row_fixed::<4>(x),
            _ => self.predict_row_blocked(x),
        }
    }

    /// The plain one-tree-at-a-time walk (also the bare-leaf/empty-row path).
    fn predict_row_sequential(&self, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for &root in &self.roots {
            acc += self.learning_rate * self.tree_leaf(root, x);
        }
        self.base_score + acc
    }

    /// Fixed-depth walk, four trees at a time in locals: `D` is the padded
    /// uniform depth, so the descend is `D` unrolled conditional-move steps
    /// per tree and the four chains keep their node loads in flight together.
    fn predict_row_fixed<const D: u32>(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(self.max_depth, D);
        let mut acc = 0.0;
        let mut quads = self.roots.chunks_exact(8);
        for quad in quads.by_ref() {
            let mut idx = [0usize; 8];
            for (slot, &root) in idx.iter_mut().zip(quad) {
                *slot = root as usize;
            }
            for _ in 0..D {
                for slot in &mut idx {
                    let node = self.nodes[*slot];
                    *slot = if x[node.feature as usize] <= node.threshold {
                        *slot + 1
                    } else {
                        node.right as usize
                    };
                }
            }
            // Leaf sums stay in boosting order: the strips partition the roots
            // sequentially, so the result is bit-identical to the plain walk.
            for &slot in &idx {
                acc += self.learning_rate * self.nodes[slot].threshold;
            }
        }
        for &root in quads.remainder() {
            acc += self.learning_rate * self.tree_leaf(root, x);
        }
        self.base_score + acc
    }

    /// Level-synchronous walk for unusually deep forests: a block of trees
    /// descends one level per pass so independent node loads overlap.
    fn predict_row_blocked(&self, x: &[f64]) -> f64 {
        const BLOCK: usize = 64;
        let mut idx = [0u32; BLOCK];
        let mut acc = 0.0;
        for roots in self.roots.chunks(BLOCK) {
            let n = roots.len();
            idx[..n].copy_from_slice(roots);
            for _ in 0..self.max_depth {
                for slot in idx[..n].iter_mut() {
                    let node = self.nodes[*slot as usize];
                    *slot = if x[node.feature as usize] <= node.threshold {
                        *slot + 1
                    } else {
                        node.right
                    };
                }
            }
            for &slot in &idx[..n] {
                acc += self.learning_rate * self.nodes[slot as usize].threshold;
            }
        }
        self.base_score + acc
    }

    /// Batched prediction: scores every row of `x` into `out` (cleared
    /// first).
    ///
    /// Rows are processed eight at a time: all trees are walked for the group
    /// (one tree's nodes stay hot across the lanes) and each tree descends the
    /// eight rows together through the same fixed-depth conditional-move walk
    /// [`FlatForest::predict_row`] uses — the padded uniform depth removes
    /// the leaf-reached branch, and the eight independent descents keep
    /// their node loads in flight together.  Each row's accumulation order
    /// is still tree-major (boosting order), so every output is
    /// bit-identical to [`FlatForest::predict_row`].
    pub fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.rows(), 0.0);
        if x.rows() == 0 {
            return;
        }
        if x.cols() == 0 || self.max_depth == 0 {
            // Bare-leaf forests (and degenerate empty rows, which the padded
            // walk cannot probe): the sequential walk is exact and cheap.
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = self.predict_row_sequential(x.row(i));
            }
            return;
        }
        match self.max_depth {
            1 => self.predict_into_fixed::<1>(x, out),
            2 => self.predict_into_fixed::<2>(x, out),
            3 => self.predict_into_fixed::<3>(x, out),
            4 => self.predict_into_fixed::<4>(x, out),
            _ => self.predict_into_blocked(x, out),
        }
        for slot in out.iter_mut() {
            *slot += self.base_score;
        }
    }

    /// Fixed-depth batched walk with eight fully scalarised lanes.
    ///
    /// The walk state (one node index and one accumulator per row lane) is
    /// spelled out as named locals rather than arrays: with arrays the
    /// compiler keeps the lane state on the stack and every level pays a
    /// store-forwarding round trip, which serialises the supposedly
    /// independent descents.  Named locals stay in registers, so the eight
    /// dependent load chains (node → feature → compare → next node) actually
    /// overlap and the walk runs at memory-level-parallelism speed.
    #[allow(clippy::too_many_lines)]
    fn predict_into_fixed<const D: u32>(&self, x: &Matrix, out: &mut [f64]) {
        debug_assert_eq!(self.max_depth, D);
        const LANES: usize = 8;
        let data = x.data();
        let cols = x.cols();
        let rows = x.rows();
        let nodes = &self.nodes[..];
        let lr = self.learning_rate;
        let mut r = 0;
        while r + LANES <= rows {
            let b0 = r * cols;
            let (b1, b2, b3) = (b0 + cols, b0 + 2 * cols, b0 + 3 * cols);
            let (b4, b5, b6, b7) = (b0 + 4 * cols, b0 + 5 * cols, b0 + 6 * cols, b0 + 7 * cols);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let (mut a4, mut a5, mut a6, mut a7) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for &root in &self.roots {
                let root = root as usize;
                let (mut i0, mut i1, mut i2, mut i3) = (root, root, root, root);
                let (mut i4, mut i5, mut i6, mut i7) = (root, root, root, root);
                for _ in 0..D {
                    let n0 = nodes[i0];
                    let n1 = nodes[i1];
                    let n2 = nodes[i2];
                    let n3 = nodes[i3];
                    let n4 = nodes[i4];
                    let n5 = nodes[i5];
                    let n6 = nodes[i6];
                    let n7 = nodes[i7];
                    i0 = if data[b0 + n0.feature as usize] <= n0.threshold {
                        i0 + 1
                    } else {
                        n0.right as usize
                    };
                    i1 = if data[b1 + n1.feature as usize] <= n1.threshold {
                        i1 + 1
                    } else {
                        n1.right as usize
                    };
                    i2 = if data[b2 + n2.feature as usize] <= n2.threshold {
                        i2 + 1
                    } else {
                        n2.right as usize
                    };
                    i3 = if data[b3 + n3.feature as usize] <= n3.threshold {
                        i3 + 1
                    } else {
                        n3.right as usize
                    };
                    i4 = if data[b4 + n4.feature as usize] <= n4.threshold {
                        i4 + 1
                    } else {
                        n4.right as usize
                    };
                    i5 = if data[b5 + n5.feature as usize] <= n5.threshold {
                        i5 + 1
                    } else {
                        n5.right as usize
                    };
                    i6 = if data[b6 + n6.feature as usize] <= n6.threshold {
                        i6 + 1
                    } else {
                        n6.right as usize
                    };
                    i7 = if data[b7 + n7.feature as usize] <= n7.threshold {
                        i7 + 1
                    } else {
                        n7.right as usize
                    };
                }
                a0 += lr * nodes[i0].threshold;
                a1 += lr * nodes[i1].threshold;
                a2 += lr * nodes[i2].threshold;
                a3 += lr * nodes[i3].threshold;
                a4 += lr * nodes[i4].threshold;
                a5 += lr * nodes[i5].threshold;
                a6 += lr * nodes[i6].threshold;
                a7 += lr * nodes[i7].threshold;
            }
            out[r] = a0;
            out[r + 1] = a1;
            out[r + 2] = a2;
            out[r + 3] = a3;
            out[r + 4] = a4;
            out[r + 5] = a5;
            out[r + 6] = a6;
            out[r + 7] = a7;
            r += LANES;
        }
        while r < rows {
            let mut a = 0.0;
            for &root in &self.roots {
                a += self.learning_rate * self.tree_leaf(root, x.row(r));
            }
            out[r] = a;
            r += 1;
        }
    }

    /// Batched walk for unusually deep forests: the original
    /// one-row-at-a-time descent, still row-blocked and tree-major.
    fn predict_into_blocked(&self, x: &Matrix, out: &mut [f64]) {
        const BLOCK: usize = 64;
        let mut lo = 0;
        while lo < x.rows() {
            let hi = (lo + BLOCK).min(x.rows());
            for &root in &self.roots {
                for (i, slot) in out[lo..hi].iter_mut().enumerate() {
                    *slot += self.learning_rate * self.tree_leaf(root, x.row(lo + i));
                }
            }
            lo = hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::{GbdtParams, GradientBoosting};
    use crate::Regressor;
    use proptest::prelude::*;

    fn fitted(rows: usize, seed: u64, subsample: f64) -> (GradientBoosting, Vec<Vec<f64>>) {
        let x: Vec<Vec<f64>> = (0..rows)
            .map(|i| vec![i as f64, ((i * 7 + 3) % 11) as f64, (i % 4) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 0.5 + r[1] * r[2]).collect();
        let mut m = GradientBoosting::new(GbdtParams {
            n_estimators: 25,
            subsample,
            colsample: subsample,
            seed,
            ..GbdtParams::default()
        });
        m.fit(&x, &y).unwrap();
        (m, x)
    }

    #[test]
    fn flat_predictions_match_recursive_bit_for_bit() {
        for subsample in [1.0, 0.7] {
            let (m, x) = fitted(40, 9, subsample);
            for row in &x {
                assert_eq!(m.predict(row).to_bits(), m.predict_recursive(row).to_bits());
            }
        }
    }

    #[test]
    fn batched_predictions_match_row_by_row_bit_for_bit() {
        // 200 rows crosses the 64-row block boundary several times.
        let (m, x) = fitted(200, 3, 1.0);
        let matrix = Matrix::from_rows(&x);
        let mut out = Vec::new();
        m.forest().predict_into(&matrix, &mut out);
        assert_eq!(out.len(), x.len());
        for (row, got) in x.iter().zip(&out) {
            assert_eq!(got.to_bits(), m.forest().predict_row(row).to_bits());
        }
    }

    #[test]
    fn compiled_forest_mirrors_the_tree_list() {
        let (m, _) = fitted(30, 1, 1.0);
        assert_eq!(m.forest().tree_count(), m.tree_count());
        assert!(m.forest().node_count() >= m.tree_count());
    }

    proptest! {
        /// Flat inference is bit-identical to the recursive reference across
        /// randomly shaped, randomly subsampled fitted forests.
        #[test]
        fn flat_matches_recursive_on_random_forests(
            seed in 0u64..1000,
            n_estimators in 1usize..30,
            max_depth in 1usize..5,
            subsample in 0.4f64..1.0,
            raw in proptest::collection::vec(-50.0f64..50.0, 24..120),
        ) {
            let x: Vec<Vec<f64>> = raw.chunks_exact(3).map(<[f64]>::to_vec).collect();
            let y: Vec<f64> = x.iter().map(|r| r[0] - 2.0 * r[1] + r[2] * r[2] * 0.1).collect();
            let mut m = GradientBoosting::new(GbdtParams {
                n_estimators,
                max_depth,
                subsample,
                colsample: subsample,
                seed,
                ..GbdtParams::default()
            });
            m.fit(&x, &y).unwrap();
            let matrix = Matrix::from_rows(&x);
            let mut batched = Vec::new();
            m.forest().predict_into(&matrix, &mut batched);
            for (i, row) in x.iter().enumerate() {
                let flat = m.predict(row);
                let recursive = m.predict_recursive(row);
                prop_assert_eq!(flat.to_bits(), recursive.to_bits());
                prop_assert_eq!(batched[i].to_bits(), recursive.to_bits());
            }
        }
    }
}
