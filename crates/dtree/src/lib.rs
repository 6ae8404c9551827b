//! A binary decision-tree learner (ID3 with the Gini impurity measure).
//!
//! This crate plays the role of scikit-learn's `DecisionTreeClassifier` in
//! the original Manthan3 toolchain. Manthan3 learns, for every existentially
//! quantified variable, a decision tree whose features are the valuations of
//! the variable's Henkin dependencies (and of compatible `Y` variables) in
//! the sampled data, and whose labels are the valuations of the variable
//! itself. The candidate function is then the disjunction of all root→leaf
//! paths that end in a leaf labelled `1`
//! ([`DecisionTree::paths_to`]).
//!
//! # Column layout and split search
//!
//! Data is stored column-major: each feature and the label is one bit
//! column of `u64` words, 64 rows per word (row `r` is bit `r % 64` of word
//! `r / 64`). A [`Dataset`] packs rows this way, and
//! [`DecisionTree::learn_columns`] reads columns borrowed from any table of
//! that shape, such as samples transposed once for many outputs.
//!
//! A tree node is a row mask of the same shape, with every padding bit
//! clear. Scoring a feature `c` at a node with mask `m` takes two
//! popcounts per word: `popcount(m & c)` rows and `popcount(m & c & label)`
//! positive rows go to the high side, and the low side is the node's totals
//! minus these. The Gini impurity and the weighted split impurity are then
//! computed from those integer counts. Only the winning feature's two child
//! masks are built.
//!
//! The learned tree equals the one the row-wise ID3 procedure builds by
//! partitioning row-index lists: the counts are the same integers and go
//! through the same floating-point expressions, a split must beat the best
//! gain so far by more than `1e-12` (so on a tie the lowest feature index
//! wins), and a leaf is labelled `true` exactly when it has rows and at
//! least half of them are positive.
//!
//! # Examples
//!
//! ```
//! use manthan3_dtree::{Dataset, DecisionTree, DecisionTreeConfig};
//!
//! // Label is the XOR of the two features.
//! let rows = vec![
//!     (vec![false, false], false),
//!     (vec![false, true], true),
//!     (vec![true, false], true),
//!     (vec![true, true], false),
//! ];
//! let dataset = Dataset::from_rows(rows);
//! let tree = DecisionTree::learn(&dataset, &DecisionTreeConfig::default());
//! assert!(tree.predict(&[true, false]));
//! assert!(!tree.predict(&[true, true]));
//! assert_eq!(tree.training_accuracy(&dataset), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod tree;

pub use dataset::Dataset;
pub use tree::{DecisionTree, DecisionTreeConfig, PathLiteral};
