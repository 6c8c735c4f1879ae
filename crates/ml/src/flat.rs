//! Flat-forest inference: a fitted boosting ensemble compiled into a
//! threshold dictionary and complete trees of dictionary ids.
//!
//! Few-shot training sees tens of rows, so the splits of an ensemble repeat a
//! small set of `(feature, threshold)` pairs: the paper-settings model holds
//! ~35 distinct pairs per 120-tree ensemble against ~550 splits.  A
//! [`FlatForest`] stores each distinct pair once, in a per-ensemble
//! dictionary with `u16` ids assigned first-seen, and every tree as a
//! complete binary tree of the forest depth `D` (its deepest tree): `2^D − 1`
//! dictionary ids in heap order, then `2^D` leaves already multiplied by the
//! learning rate (the same IEEE product the boosting sum takes).  A leaf the
//! fit reached early is replicated down to depth `D`; both sides of a
//! replicated subtree hold the same value, so every probe — NaN included —
//! lands on the leaf the boxed tree gives.
//!
//! Scoring a row evaluates the dictionary once, `go[k] = !(x[f_k] <= t_k)`
//! (NaN goes right, as in the boxed walk), then every tree takes exactly `D`
//! steps of `i = 2i + 1 + go[ids[i]]` with no leaf-reached branch.  Leaves are
//! summed in boosting order and `base_score` is added last, so predictions are
//! **bit-identical** to the recursive walk over the boxed trees — pinned by the
//! parity proptests.  The batched walk advances [`LANES`] rows together so
//! their dependent loads and floating-point add chains overlap.

use crate::error::FitError;
use crate::matrix::Matrix;
use crate::tree::{Node, RegressionTree};

/// Deepest tree a [`FlatForest`] compiles.
///
/// A depth-`D` tree is stored complete — `2^D` leaves — so the cap bounds the
/// replication of early leaves.  [`GbdtParams::validate`](crate::GbdtParams::validate)
/// refuses a deeper `max_depth` and decoding refuses a deeper tree; every
/// ensemble the power models fit is depth 3.
pub const MAX_FOREST_DEPTH: usize = 8;

/// Rows the batched walk advances together.
const LANES: usize = 4;

/// Dictionaries up to this size keep [`FlatForest::predict_row`]'s
/// comparison vector on the stack.
const STACK_GO: usize = 256;

/// Depth of a tree rooted at `node` (a bare leaf has depth 0), and whether
/// every leaf of it is exactly `±0.0`.
///
/// An all-zero tree contributes `learning_rate · ±0.0 = ±0.0` to every
/// prediction, and adding `±0.0` to the leaf-sum accumulator is a bitwise
/// no-op: the accumulator starts at `+0.0` and IEEE-754 round-to-nearest
/// addition can never produce `-0.0` from a `+0.0` starting point (exact
/// cancellation yields `+0.0`), so the accumulator is never `-0.0` and
/// `acc + ±0.0` returns `acc` bit for bit.  Boosting drives residuals to
/// exactly zero on the few-shot training sets this crate targets, so late
/// rounds routinely emit these trees — skipping them is pure saved work,
/// pinned bit-identical by the flat-vs-recursive parity tests.
fn shape(node: &Node) -> (usize, bool) {
    match node {
        Node::Leaf { weight } => (0, *weight == 0.0),
        Node::Split { left, right, .. } => {
            let (left_depth, left_zero) = shape(left);
            let (right_depth, right_zero) = shape(right);
            (1 + left_depth.max(right_depth), left_zero && right_zero)
        }
    }
}

/// The threshold dictionary under construction: distinct
/// `(feature, threshold-bits)` pairs in first-seen order, found again in O(1)
/// through an open-addressing table kept at most half full.
struct Dictionary {
    features: Vec<u32>,
    thresholds: Vec<f64>,
    /// `id + 1` of the entry hashed to each slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: a hash keeps its top bits.
    shift: u32,
}

impl Dictionary {
    /// An empty dictionary for at most `max_entries` distinct pairs.
    fn new(max_entries: usize) -> Self {
        let size = (2 * max_entries).next_power_of_two().max(2);
        Self {
            features: Vec::new(),
            thresholds: Vec::new(),
            slots: vec![0; size],
            shift: 64 - size.trailing_zeros(),
        }
    }

    /// The id of `(feature, threshold)`, adding the pair if it is new.
    /// Thresholds match by bits, so every entry compares exactly as the
    /// splits it stands for.
    fn intern(&mut self, feature: usize, threshold: f64) -> Result<u16, FitError> {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        let feature = u32::try_from(feature).map_err(|_| FitError::ForestTooLarge)?;
        let bits = threshold.to_bits();
        let mask = self.slots.len() - 1;
        let mut slot = ((bits ^ u64::from(feature).wrapping_mul(MIX)).wrapping_mul(MIX)
            >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                0 => {
                    let id = self.features.len();
                    let id16 = u16::try_from(id).map_err(|_| FitError::ForestTooLarge)?;
                    self.features.push(feature);
                    self.thresholds.push(threshold);
                    self.slots[slot] = u32::from(id16) + 1;
                    return Ok(id16);
                }
                taken => {
                    let id = taken as usize - 1;
                    if self.features[id] == feature && self.thresholds[id].to_bits() == bits {
                        return Ok(id as u16);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Lays out the subtree `node` at heap index `i` of a tree with `levels`
/// steps left to the bottom: its splits into `ids` (the tree's `2^D − 1`
/// slots) and its shrunk leaves into `leaves` (the tree's `2^D` slots).  A
/// leaf above the bottom fills every leaf slot of its subtree.
fn lay_out(
    node: &Node,
    i: usize,
    levels: usize,
    learning_rate: f64,
    ids: &mut [u16],
    leaves: &mut [f64],
    dictionary: &mut Dictionary,
) -> Result<(), FitError> {
    match node {
        Node::Leaf { weight } => {
            let first = ((i + 1) << levels) - 1 - ids.len();
            leaves[first..first + (1 << levels)].fill(learning_rate * weight);
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            ids[i] = dictionary.intern(*feature, *threshold)?;
            let below = levels - 1;
            lay_out(
                left,
                2 * i + 1,
                below,
                learning_rate,
                ids,
                leaves,
                dictionary,
            )?;
            lay_out(
                right,
                2 * i + 2,
                below,
                learning_rate,
                ids,
                leaves,
                dictionary,
            )?;
        }
    }
    Ok(())
}

/// A boosted ensemble compiled for allocation-light, branch-free inference.
///
/// Compiled by [`GradientBoosting`](crate::GradientBoosting) at fit and decode
/// time; obtain one via
/// [`GradientBoosting::forest`](crate::GradientBoosting::forest).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatForest {
    base_score: f64,
    /// Split feature of each dictionary entry.
    features: Vec<u32>,
    /// Split threshold of each dictionary entry.
    thresholds: Vec<f64>,
    /// Depth `D` of every stored tree (0 = every tree is a bare leaf).
    depth: usize,
    /// `2^D − 1` dictionary ids per tree, heap order, trees in boosting order.
    ids: Vec<u16>,
    /// `2^D` leaves per tree, already multiplied by the learning rate.
    leaves: Vec<f64>,
}

impl FlatForest {
    /// Compiles a fitted ensemble.
    ///
    /// Unfitted trees are skipped (an ensemble mid-`fit` has none); an empty
    /// tree list yields a forest that predicts `base_score` everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::ForestTooLarge`] for a tree deeper than
    /// [`MAX_FOREST_DEPTH`], a split feature past `u32`, or more distinct
    /// `(feature, threshold)` pairs than `u16` ids address.
    pub(crate) fn compile(
        base_score: f64,
        learning_rate: f64,
        trees: &[RegressionTree],
    ) -> Result<Self, FitError> {
        let mut kept = Vec::with_capacity(trees.len());
        let mut depth = 0;
        for root in trees.iter().filter_map(RegressionTree::root_node) {
            // All-zero trees are bitwise no-ops (see `shape`): dropping them
            // removes their walks without changing a single output bit.
            let (tree_depth, all_zero) = shape(root);
            if !all_zero {
                depth = depth.max(tree_depth);
                kept.push(root);
            }
        }
        if depth > MAX_FOREST_DEPTH {
            return Err(FitError::ForestTooLarge);
        }
        let internal = (1 << depth) - 1;
        let mut ids = vec![0; kept.len() * internal];
        let mut leaves = vec![0.0; kept.len() << depth];
        let mut dictionary = Dictionary::new(ids.len());
        for (tree, root) in kept.iter().enumerate() {
            lay_out(
                root,
                0,
                depth,
                learning_rate,
                &mut ids[tree * internal..(tree + 1) * internal],
                &mut leaves[tree << depth..(tree + 1) << depth],
                &mut dictionary,
            )?;
        }
        Ok(Self {
            base_score,
            features: dictionary.features,
            thresholds: dictionary.thresholds,
            depth,
            ids,
            leaves,
        })
    }

    /// Number of trees the forest actually walks (all-zero no-op trees are
    /// dropped at compile time, so this can be less than the fitted
    /// ensemble's boosting-round count).
    pub fn tree_count(&self) -> usize {
        self.leaves.len() >> self.depth
    }

    /// Evaluates every dictionary comparison of one row into `go`
    /// (`true` = the split sends the row right).
    ///
    /// The negated `<=` is deliberate: a NaN on either side fails the
    /// comparison and goes right, exactly as in the boxed walk.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn compare(&self, x: &[f64], go: &mut [bool]) {
        for ((g, &feature), &threshold) in go.iter_mut().zip(&self.features).zip(&self.thresholds) {
            *g = !(x[feature as usize] <= threshold);
        }
    }

    /// Walks every tree for `R` rows at once, given each row's comparison
    /// vector, and returns each row's leaf sum in boosting order.
    ///
    /// Dispatches on the stored depth so that the per-tree id and leaf
    /// counts (`2^D − 1` and `2^D`) are constants: each tree's ids and leaves
    /// are then fixed-size arrays, and the walk compiles without bounds
    /// checks.
    #[inline]
    fn walk<const R: usize>(&self, go: [&[bool]; R]) -> [f64; R] {
        match self.depth {
            0 => self.walk_complete::<R, 0, 1>(go),
            1 => self.walk_complete::<R, 1, 2>(go),
            2 => self.walk_complete::<R, 3, 4>(go),
            3 => self.walk_complete::<R, 7, 8>(go),
            4 => self.walk_complete::<R, 15, 16>(go),
            5 => self.walk_complete::<R, 31, 32>(go),
            6 => self.walk_complete::<R, 63, 64>(go),
            7 => self.walk_complete::<R, 127, 128>(go),
            _ => self.walk_complete::<R, 255, 256>(go),
        }
    }

    /// [`FlatForest::walk`] over trees of `I` ids and `L` leaves each.
    #[inline]
    fn walk_complete<const R: usize, const I: usize, const L: usize>(
        &self,
        go: [&[bool]; R],
    ) -> [f64; R] {
        debug_assert_eq!(L, 1 << self.depth);
        let mut acc = [0.0; R];
        for (tree, leaves) in self.leaves.chunks_exact(L).enumerate() {
            let ids: &[u16; I] = self.ids[tree * I..(tree + 1) * I]
                .try_into()
                .expect("I ids per tree");
            let leaves: &[f64; L] = leaves.try_into().expect("L leaves per tree");
            let mut at = [0usize; R];
            for _ in 0..L.trailing_zeros() {
                for (i, go) in at.iter_mut().zip(&go) {
                    *i = 2 * *i + 1 + usize::from(go[usize::from(ids[*i])]);
                }
            }
            for (sum, i) in acc.iter_mut().zip(at) {
                *sum += leaves[i - I];
            }
        }
        acc
    }

    /// Predicts one row: `base_score + Σ learning_rate · leaf`, trees in
    /// boosting order (bit-identical to the recursive ensemble).
    ///
    /// # Panics
    ///
    /// Panics if a split feature indexes past `x`.
    pub fn predict_row(&self, x: &[f64]) -> f64 {
        let n = self.features.len();
        let mut stack = [false; STACK_GO];
        let mut heap;
        let go = if n <= STACK_GO {
            &mut stack[..n]
        } else {
            heap = vec![false; n];
            &mut heap[..]
        };
        self.compare(x, go);
        let [sum] = self.walk([go]);
        self.base_score + sum
    }

    /// Batched prediction: scores every row of `x` into `out` (cleared
    /// first), each output bit-identical to [`FlatForest::predict_row`].
    ///
    /// # Panics
    ///
    /// Panics if a split feature indexes past a row of `x`.
    pub fn predict_into(&self, x: &Matrix, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(x.rows());
        let n = self.features.len();
        let mut go = vec![false; LANES * n];
        let interleaved = x.rows() - x.rows() % LANES;
        for first in (0..interleaved).step_by(LANES) {
            for lane in 0..LANES {
                self.compare(x.row(first + lane), &mut go[lane * n..(lane + 1) * n]);
            }
            let lanes = std::array::from_fn(|lane| &go[lane * n..(lane + 1) * n]);
            out.extend(self.walk::<LANES>(lanes).map(|sum| self.base_score + sum));
        }
        for row in interleaved..x.rows() {
            self.compare(x.row(row), &mut go[..n]);
            let [sum] = self.walk([&go[..n]]);
            out.push(self.base_score + sum);
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

    /// Asserts that the row walk, the batched walk and the recursive oracle
    /// agree bit for bit on every row of `x`.
    fn assert_walks_agree(m: &GradientBoosting, x: &[Vec<f64>]) {
        let mut batched = Vec::new();
        m.forest().predict_into(&Matrix::from_rows(x), &mut batched);
        assert_eq!(batched.len(), x.len());
        for (row, got) in x.iter().zip(&batched) {
            let recursive = m.predict_recursive(row).to_bits();
            assert_eq!(m.forest().predict_row(row).to_bits(), recursive, "{row:?}");
            assert_eq!(got.to_bits(), recursive, "{row:?}");
        }
    }

    #[test]
    fn flat_predictions_match_recursive_bit_for_bit() {
        for subsample in [1.0, 0.7] {
            let (m, x) = fitted(40, 9, subsample);
            assert_walks_agree(&m, &x);
        }
    }

    #[test]
    fn batched_predictions_match_row_by_row_bit_for_bit() {
        // Every remainder of the four-row interleave, and one row alone.
        for rows in [1, 197, 198, 199, 200] {
            let (m, x) = fitted(rows.max(2), 3, 1.0);
            assert_walks_agree(&m, &x[..rows]);
        }
    }

    #[test]
    fn compiled_forest_mirrors_the_tree_list() {
        let (m, _) = fitted(30, 1, 1.0);
        assert_eq!(m.forest().tree_count(), m.tree_count());
        assert_eq!(m.forest().depth, 3);
        assert_eq!(m.forest().ids.len(), 7 * m.tree_count());
        assert!(m.forest().features.len() <= m.forest().ids.len());
    }

    #[test]
    fn all_zero_trees_are_pruned_without_changing_a_bit() {
        // Learning rate 1 and no shrinkage fit the step exactly in round one,
        // so every later round is an all-zero tree.
        let x: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| if r[0] < 12.0 { 1.0 } else { 3.0 })
            .collect();
        let mut m = GradientBoosting::new(GbdtParams {
            n_estimators: 10,
            learning_rate: 1.0,
            lambda: 0.0,
            ..GbdtParams::default()
        });
        m.fit(&x, &y).unwrap();
        assert!(m.forest().tree_count() < m.tree_count());
        assert_walks_agree(&m, &x);
        // A constant target prunes every tree: the forest is its base score.
        let mut flat = GradientBoosting::default();
        flat.fit(&x, &vec![2.5; x.len()]).unwrap();
        assert_eq!(flat.forest().tree_count(), 0);
        assert_walks_agree(&flat, &x);
    }

    #[test]
    fn bare_leaf_forests_walk_zero_steps() {
        let x: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        // Row subsampling gives each bare leaf a non-zero residual mean.
        let mut m = GradientBoosting::new(GbdtParams {
            n_estimators: 5,
            max_depth: 0,
            subsample: 0.5,
            ..GbdtParams::default()
        });
        m.fit(&x, &y).unwrap();
        assert_eq!((m.forest().depth, m.forest().tree_count()), (0, 5));
        assert!(m.forest().features.is_empty());
        assert_walks_agree(&m, &x);
    }

    #[test]
    fn dictionaries_past_256_entries_walk_the_same_path() {
        // The 128 x 32 synthetic design of the model benches.
        let x: Vec<Vec<f64>> = (0..128)
            .map(|i| {
                (0..32)
                    .map(|j| ((i * 31 + j * 17) % 97) as f64 * 0.13 + (i % 7) as f64)
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|r| r[0] * 2.0 + (r[1] * 0.3).sin() * 5.0 + r[2] * r[3] * 0.01)
            .collect();
        let mut m = GradientBoosting::default();
        m.fit(&x, &y).unwrap();
        assert!(m.forest().features.len() > STACK_GO, "dictionary too small");
        assert_walks_agree(&m, &x);
    }

    #[test]
    fn dictionary_ids_are_first_seen_and_shared() {
        let mut dictionary = Dictionary::new(4);
        assert_eq!(dictionary.intern(2, 0.5), Ok(0));
        assert_eq!(dictionary.intern(0, 0.5), Ok(1));
        assert_eq!(dictionary.intern(2, 0.5), Ok(0));
        // Thresholds match by bits: -0.0 and +0.0 are distinct entries.
        assert_eq!(dictionary.intern(2, -0.0), Ok(2));
        assert_eq!(dictionary.intern(2, 0.0), Ok(3));
        assert_eq!(dictionary.features, [2, 0, 2, 2]);
        assert_eq!(
            dictionary.intern(1 << 32, 0.0),
            Err(FitError::ForestTooLarge)
        );
    }

    /// The special values a probe row may carry in place of a drawn one.
    const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];

    proptest! {
        /// The row walk, the batched walk and the recursive reference agree
        /// bit for bit across randomly shaped, randomly subsampled forests of
        /// depth 0 (bare leaves) to 5, on training rows and on probe rows
        /// carrying NaN, ±∞ and ±0.0.
        #[test]
        fn flat_matches_recursive_on_random_forests(
            seed in 0u64..1000,
            n_estimators in 1usize..30,
            max_depth in 0usize..6,
            subsample in 0.4f64..1.0,
            raw in proptest::collection::vec(-50.0f64..50.0, 24..120),
            picks in proptest::collection::vec(0usize..12, 120),
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
            let probes: Vec<Vec<f64>> = x
                .iter()
                .flatten()
                .zip(&picks)
                .map(|(&v, &pick)| SPECIALS.get(pick).copied().unwrap_or(v))
                .collect::<Vec<f64>>()
                .chunks_exact(3)
                .map(<[f64]>::to_vec)
                .collect();
            for rows in [&x, &probes] {
                let mut batched = Vec::new();
                m.forest().predict_into(&Matrix::from_rows(rows), &mut batched);
                prop_assert_eq!(batched.len(), rows.len());
                for (row, got) in rows.iter().zip(&batched) {
                    let recursive = m.predict_recursive(row).to_bits();
                    prop_assert_eq!(m.predict(row).to_bits(), recursive);
                    prop_assert_eq!(got.to_bits(), recursive);
                }
            }
        }
    }
}
