//! Differential test: the bit-column learner builds the same tree as the
//! row-major ID3 learner it replaced, which is kept here as the reference.

use manthan3_dtree::{Dataset, DecisionTree, DecisionTreeConfig, PathLiteral};

/// The row-major reference: each node partitions a list of row indices per
/// feature and scores both halves by counting their labels.
mod reference {
    use manthan3_dtree::{DecisionTreeConfig, PathLiteral};

    pub enum Node {
        Leaf(bool),
        Split(usize, Box<Node>, Box<Node>),
    }

    pub struct Rows<'a> {
        pub features: &'a [Vec<bool>],
        pub labels: &'a [bool],
    }

    impl Rows<'_> {
        fn gini(&self, rows: &[usize]) -> f64 {
            if rows.is_empty() {
                return 0.0;
            }
            let pos = rows.iter().filter(|&&i| self.labels[i]).count() as f64;
            let n = rows.len() as f64;
            let p = pos / n;
            2.0 * p * (1.0 - p)
        }

        fn majority_label(&self, rows: &[usize]) -> bool {
            let pos = rows.iter().filter(|&&i| self.labels[i]).count();
            2 * pos >= rows.len().max(1) && !rows.is_empty() && pos * 2 >= rows.len()
        }

        pub fn learn(&self, num_features: usize, config: &DecisionTreeConfig) -> Node {
            let rows: Vec<usize> = (0..self.labels.len()).collect();
            self.build(num_features, &rows, config, 0)
        }

        fn build(
            &self,
            num_features: usize,
            rows: &[usize],
            config: &DecisionTreeConfig,
            depth: usize,
        ) -> Node {
            let label = self.majority_label(rows);
            if rows.is_empty()
                || depth >= config.max_depth
                || rows.len() < config.min_samples_split
                || self.gini(rows) == 0.0
            {
                return Node::Leaf(label);
            }
            let parent_impurity = self.gini(rows);
            let mut best: Option<(usize, f64, Vec<usize>, Vec<usize>)> = None;
            for feature in 0..num_features {
                let (low, high): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&i| !self.features[i][feature]);
                if low.len() < config.min_samples_leaf || high.len() < config.min_samples_leaf {
                    continue;
                }
                let n = rows.len() as f64;
                let weighted = self.gini(&low) * low.len() as f64 / n
                    + self.gini(&high) * high.len() as f64 / n;
                let gain = parent_impurity - weighted;
                if best.as_ref().is_none_or(|(_, g, _, _)| gain > *g + 1e-12) {
                    best = Some((feature, gain, low, high));
                }
            }
            match best {
                None => Node::Leaf(label),
                Some((feature, _, low, high)) => Node::Split(
                    feature,
                    Box::new(self.build(num_features, &low, config, depth + 1)),
                    Box::new(self.build(num_features, &high, config, depth + 1)),
                ),
            }
        }
    }

    pub fn paths_to(node: &Node, target: bool) -> Vec<Vec<PathLiteral>> {
        fn walk(
            node: &Node,
            target: bool,
            prefix: &mut Vec<PathLiteral>,
            out: &mut Vec<Vec<PathLiteral>>,
        ) {
            match node {
                Node::Leaf(label) => {
                    if *label == target {
                        out.push(prefix.clone());
                    }
                }
                Node::Split(feature, low, high) => {
                    for (value, child) in [(false, low), (true, high)] {
                        prefix.push(PathLiteral {
                            feature: *feature,
                            value,
                        });
                        walk(child, target, prefix, out);
                        prefix.pop();
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(node, target, &mut Vec::new(), &mut out);
        out
    }
}

/// SplitMix64: a small deterministic generator, so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `true` with probability `num / 8`.
    fn eighths(&mut self, num: usize) -> bool {
        self.below(8) < num
    }
}

/// A random column of `n` rows: uniform, biased, constant, or a copy or
/// complement of an earlier column (the last two make gains tie exactly).
fn column(rng: &mut Rng, n: usize, earlier: &[Vec<bool>]) -> Vec<bool> {
    let kind = rng.below(if earlier.is_empty() { 4 } else { 6 });
    match kind {
        0 => (0..n).map(|_| rng.eighths(4)).collect(),
        1 => (0..n).map(|_| rng.eighths(1)).collect(),
        2 => (0..n).map(|_| rng.eighths(7)).collect(),
        3 => vec![rng.eighths(4); n],
        4 => earlier[rng.below(earlier.len())].clone(),
        _ => earlier[rng.below(earlier.len())]
            .iter()
            .map(|b| !b)
            .collect(),
    }
}

/// Labels: random, or a small function of up to three features with
/// occasional noise.
fn labels(rng: &mut Rng, columns: &[Vec<bool>], n: usize) -> Vec<bool> {
    if columns.is_empty() || rng.eighths(2) {
        let bias = 1 + rng.below(7);
        return (0..n).map(|_| rng.eighths(bias)).collect();
    }
    let picks: Vec<usize> = (0..3).map(|_| rng.below(columns.len())).collect();
    let noisy = rng.eighths(3);
    (0..n)
        .map(|r| {
            let [a, b, c] = [0, 1, 2].map(|i| columns[picks[i]][r]);
            let clean = a ^ (b && !c);
            clean ^ (noisy && rng.below(16) == 0)
        })
        .collect()
}

#[test]
fn bit_columns_learn_the_row_major_tree() {
    const ROWS: [usize; 8] = [0, 1, 63, 64, 65, 127, 129, 400];
    let mut rng = Rng(0x5eed);
    let (mut cases, mut splits) = (0, 0);
    for &n in &ROWS {
        for num_features in 0..=13 {
            for _ in 0..27 {
                let mut columns: Vec<Vec<bool>> = Vec::new();
                for _ in 0..num_features {
                    let c = column(&mut rng, n, &columns);
                    columns.push(c);
                }
                let labels = labels(&mut rng, &columns, n);
                let config = DecisionTreeConfig {
                    max_depth: [1, 2, 16][rng.below(3)],
                    min_samples_split: [2, 3, 10][rng.below(3)],
                    min_samples_leaf: [0, 1, 2, 5][rng.below(4)],
                };

                let rows: Vec<Vec<bool>> = (0..n)
                    .map(|r| columns.iter().map(|c| c[r]).collect())
                    .collect();
                let expected = reference::Rows {
                    features: &rows,
                    labels: &labels,
                }
                .learn(num_features, &config);

                let mut dataset = Dataset::new(num_features);
                for (row, &label) in rows.iter().zip(&labels) {
                    dataset.push(row, label);
                }
                let tree = DecisionTree::learn(&dataset, &config);
                for target in [true, false] {
                    let want: Vec<Vec<PathLiteral>> = reference::paths_to(&expected, target);
                    assert_eq!(
                        tree.paths_to(target),
                        want,
                        "paths to {target} differ: {n} rows, {num_features} features, {config:?}"
                    );
                }
                cases += 1;
                splits += tree.num_splits();
            }
        }
    }
    assert_eq!(cases, ROWS.len() * 14 * 27);
    // The cases must exercise real trees, not just single leaves.
    assert!(splits > 2 * cases, "{splits} splits over {cases} cases");
}
