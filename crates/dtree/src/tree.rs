use crate::Dataset;

/// One condition along a root→leaf path: the feature at `feature` must have
/// the value `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathLiteral {
    /// Index of the feature tested by the decision node.
    pub feature: usize,
    /// Required value of the feature along this path.
    pub value: bool,
}

/// Hyper-parameters for [`DecisionTree::learn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (number of decision nodes on a path).
    pub max_depth: usize,
    /// Minimum number of rows required to split a node further.
    pub min_samples_split: usize,
    /// Minimum number of rows in a leaf.
    pub min_samples_leaf: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        label: bool,
    },
    Split {
        feature: usize,
        /// Subtree for `feature == false`.
        low: Box<Node>,
        /// Subtree for `feature == true`.
        high: Box<Node>,
    },
}

/// A learned binary decision tree.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    num_features: usize,
}

impl DecisionTree {
    /// Learns a tree from `dataset` using the ID3 procedure with the Gini
    /// impurity measure (the configuration used by the Manthan3 paper).
    ///
    /// An empty dataset produces a single all-`false` leaf.
    pub fn learn(dataset: &Dataset, config: &DecisionTreeConfig) -> Self {
        Self::learn_columns(
            &dataset.feature_columns(),
            dataset.label_column(),
            dataset.num_rows(),
            config,
        )
    }

    /// Learns a tree from packed bit columns: `features[f]` and `labels`
    /// each hold `num_rows` rows, 64 per word, row `r` in bit `r % 64` of
    /// word `r / 64`. Bits past `num_rows` are ignored, so the columns may
    /// be borrowed from a wider table without copying.
    ///
    /// Gives the same tree as [`DecisionTree::learn`] on the same rows.
    ///
    /// # Panics
    ///
    /// Panics if a column does not have `num_rows.div_ceil(64)` words.
    pub fn learn_columns(
        features: &[&[u64]],
        labels: &[u64],
        num_rows: usize,
        config: &DecisionTreeConfig,
    ) -> Self {
        let words = num_rows.div_ceil(64);
        assert!(
            labels.len() == words && features.iter().all(|c| c.len() == words),
            "every column must hold {num_rows} rows in {words} words"
        );
        // The root holds every row; the padding bits of the last word stay
        // clear in this and every derived mask.
        let mut rows = vec![u64::MAX; words];
        if let Some(last) = rows.last_mut() {
            *last >>= words * 64 - num_rows;
        }
        let learner = Learner {
            features,
            labels,
            config,
        };
        DecisionTree {
            root: learner.build(&rows, 0),
            num_features: features.len(),
        }
    }

    /// Number of features the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Predicts the label of a feature vector.
    ///
    /// Missing features (indices beyond `features.len()`) are treated as
    /// `false`.
    pub fn predict(&self, features: &[bool]) -> bool {
        self.classify(|f| features.get(f).copied().unwrap_or(false))
    }

    /// Walks from the root to a leaf, reading feature `f` as `value(f)`.
    fn classify(&self, value: impl Fn(usize) -> bool) -> bool {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { label } => return *label,
                Node::Split { feature, low, high } => {
                    node = if value(*feature) { high } else { low };
                }
            }
        }
    }

    /// Fraction of training rows the tree classifies correctly.
    pub fn training_accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 1.0;
        }
        let correct = (0..dataset.num_rows())
            .filter(|&r| self.classify(|f| dataset.value(r, f)) == dataset.label(r))
            .count();
        correct as f64 / dataset.num_rows() as f64
    }

    /// Number of decision (split) nodes.
    pub fn num_splits(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { low, high, .. } => 1 + count(low) + count(high),
            }
        }
        count(&self.root)
    }

    /// Depth of the tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { low, high, .. } => 1 + depth(low).max(depth(high)),
            }
        }
        depth(&self.root)
    }

    /// Returns every root→leaf path whose leaf carries the label `label`,
    /// as a list of conjunctions of [`PathLiteral`]s.
    ///
    /// This is the "disjunction over all paths with class label 1" operation
    /// that Manthan3 uses to turn a learned tree into a candidate Boolean
    /// function: `f = ⋁_{paths to 1} ⋀ PathLiteral`.
    ///
    /// A tree that is a single leaf with the requested label yields one empty
    /// path (the constant-true cube).
    pub fn paths_to(&self, label: bool) -> Vec<Vec<PathLiteral>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        fn walk(
            node: &Node,
            target: bool,
            prefix: &mut Vec<PathLiteral>,
            out: &mut Vec<Vec<PathLiteral>>,
        ) {
            match node {
                Node::Leaf { label } => {
                    if *label == target {
                        out.push(prefix.clone());
                    }
                }
                Node::Split { feature, low, high } => {
                    prefix.push(PathLiteral {
                        feature: *feature,
                        value: false,
                    });
                    walk(low, target, prefix, out);
                    prefix.pop();
                    prefix.push(PathLiteral {
                        feature: *feature,
                        value: true,
                    });
                    walk(high, target, prefix, out);
                    prefix.pop();
                }
            }
        }
        walk(&self.root, label, &mut prefix, &mut out);
        out
    }

    /// Set of feature indices used by some decision node.
    pub fn used_features(&self) -> Vec<usize> {
        fn collect(n: &Node, out: &mut Vec<usize>) {
            if let Node::Split { feature, low, high } = n {
                out.push(*feature);
                collect(low, out);
                collect(high, out);
            }
        }
        let mut out = Vec::new();
        collect(&self.root, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Gini impurity `2p(1 - p)` of a node with `pos` positive rows out of `n`.
fn gini(pos: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let p = pos as f64 / n as f64;
    2.0 * p * (1.0 - p)
}

/// Number of rows set in both `a` and `b`.
fn count_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// The ID3 recursion over bit columns. A node is the mask of its rows.
struct Learner<'a> {
    features: &'a [&'a [u64]],
    labels: &'a [u64],
    config: &'a DecisionTreeConfig,
}

impl Learner<'_> {
    fn build(&self, rows: &[u64], depth: usize) -> Node {
        let n: usize = rows.iter().map(|w| w.count_ones() as usize).sum();
        let pos = count_and(rows, self.labels);
        let label = n > 0 && 2 * pos >= n;
        let impurity = gini(pos, n);
        if n == 0
            || depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || impurity == 0.0
        {
            return Node::Leaf { label };
        }
        // Pick the feature with the best Gini gain; on a tie within 1e-12
        // the lower feature index wins.
        let mut best: Option<(usize, f64)> = None;
        for (feature, column) in self.features.iter().enumerate() {
            let (mut high, mut high_pos) = (0, 0);
            for ((r, c), l) in rows.iter().zip(*column).zip(self.labels) {
                let set = r & c;
                high += set.count_ones() as usize;
                high_pos += (set & l).count_ones() as usize;
            }
            let (low, low_pos) = (n - high, pos - high_pos);
            if low < self.config.min_samples_leaf || high < self.config.min_samples_leaf {
                continue;
            }
            let total = n as f64;
            let weighted = gini(low_pos, low) * low as f64 / total
                + gini(high_pos, high) * high as f64 / total;
            // Gini is concave, so the gain is always >= 0; like CART we keep
            // the best split even when the gain is zero (needed e.g. to learn
            // XOR, where no single split reduces the impurity at the root).
            let gain = impurity - weighted;
            if best.is_none_or(|(_, g)| gain > g + 1e-12) {
                best = Some((feature, gain));
            }
        }
        let Some((feature, _)) = best else {
            return Node::Leaf { label };
        };
        let column = self.features[feature];
        let low: Vec<u64> = rows.iter().zip(column).map(|(r, c)| r & !c).collect();
        let high: Vec<u64> = rows.iter().zip(column).map(|(r, c)| r & c).collect();
        Node::Split {
            feature,
            low: Box::new(self.build(&low, depth + 1)),
            high: Box::new(self.build(&high, depth + 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        Dataset::from_rows(vec![
            (vec![false, false], false),
            (vec![false, true], true),
            (vec![true, false], true),
            (vec![true, true], false),
        ])
    }

    #[test]
    fn gini_extremes() {
        assert!((gini(2, 4) - 0.5).abs() < 1e-9);
        assert_eq!(gini(2, 2), 0.0);
        assert_eq!(gini(0, 2), 0.0);
        assert_eq!(gini(0, 0), 0.0);
    }

    #[test]
    fn bits_past_the_row_count_are_ignored() {
        let d = xor_dataset();
        let mut features: Vec<Vec<u64>> = d.feature_columns().iter().map(|c| c.to_vec()).collect();
        let mut labels = d.label_column().to_vec();
        for word in features.iter_mut().flatten().chain(&mut labels) {
            *word |= !0 << d.num_rows();
        }
        let columns: Vec<&[u64]> = features.iter().map(Vec::as_slice).collect();
        let config = DecisionTreeConfig::default();
        assert_eq!(
            DecisionTree::learn_columns(&columns, &labels, d.num_rows(), &config),
            DecisionTree::learn(&d, &config)
        );
    }

    #[test]
    fn learns_xor_exactly() {
        let d = xor_dataset();
        let t = DecisionTree::learn(&d, &DecisionTreeConfig::default());
        assert_eq!(t.training_accuracy(&d), 1.0);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.used_features(), vec![0, 1]);
    }

    #[test]
    fn learns_constant_function() {
        let d = Dataset::from_rows(vec![(vec![false], true), (vec![true], true)]);
        let t = DecisionTree::learn(&d, &DecisionTreeConfig::default());
        assert_eq!(t.num_splits(), 0);
        assert!(t.predict(&[false]));
        assert!(t.predict(&[true]));
        // A constant-true leaf yields a single empty path (the "true" cube).
        assert_eq!(t.paths_to(true), vec![Vec::<PathLiteral>::new()]);
        assert!(t.paths_to(false).is_empty());
    }

    #[test]
    fn empty_dataset_defaults_to_false() {
        let d = Dataset::new(3);
        let t = DecisionTree::learn(&d, &DecisionTreeConfig::default());
        assert!(!t.predict(&[true, true, true]));
        assert!(t.paths_to(true).is_empty());
    }

    #[test]
    fn depth_limit_is_respected() {
        let d = xor_dataset();
        let cfg = DecisionTreeConfig {
            max_depth: 1,
            ..DecisionTreeConfig::default()
        };
        let t = DecisionTree::learn(&d, &cfg);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let d = xor_dataset();
        let cfg = DecisionTreeConfig {
            min_samples_leaf: 3,
            ..DecisionTreeConfig::default()
        };
        let t = DecisionTree::learn(&d, &cfg);
        assert_eq!(t.num_splits(), 0);
    }

    #[test]
    fn paths_reconstruct_the_function() {
        let d = xor_dataset();
        let t = DecisionTree::learn(&d, &DecisionTreeConfig::default());
        let paths = t.paths_to(true);
        // Evaluate the DNF given by the paths and compare with predict().
        let eval_dnf = |features: &[bool]| {
            paths
                .iter()
                .any(|path| path.iter().all(|pl| features[pl.feature] == pl.value))
        };
        for bits in 0..4u32 {
            let f = vec![bits & 1 == 1, bits & 2 == 2];
            assert_eq!(eval_dnf(&f), t.predict(&f));
            assert_eq!(t.predict(&f), f[0] ^ f[1]);
        }
    }

    #[test]
    fn irrelevant_features_are_ignored() {
        // Label depends only on feature 1.
        let rows = (0..16u32)
            .map(|bits| {
                let f: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
                let label = f[1];
                (f, label)
            })
            .collect();
        let d = Dataset::from_rows(rows);
        let t = DecisionTree::learn(&d, &DecisionTreeConfig::default());
        assert_eq!(t.used_features(), vec![1]);
        assert_eq!(t.training_accuracy(&d), 1.0);
    }

    #[test]
    fn majority_vote_on_noisy_leaf() {
        // Three positive rows, one negative row, no features to split on.
        let d = Dataset::from_rows(vec![
            (vec![], true),
            (vec![], true),
            (vec![], true),
            (vec![], false),
        ]);
        let t = DecisionTree::learn(&d, &DecisionTreeConfig::default());
        assert!(t.predict(&[]));
        assert_eq!(t.training_accuracy(&d), 0.75);
    }
}
