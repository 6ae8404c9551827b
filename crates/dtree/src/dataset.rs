/// A supervised binary dataset stored column by column: one bit column per
/// feature plus the label column, 64 rows per `u64` word (row `r` is bit
/// `r % 64` of word `r / 64`; the padding bits of the last word are zero).
///
/// All rows have the number of features given to [`Dataset::new`].
///
/// # Examples
///
/// ```
/// use manthan3_dtree::Dataset;
/// let d = Dataset::from_rows(vec![(vec![true, false], true), (vec![false, false], false)]);
/// assert_eq!(d.num_rows(), 2);
/// assert_eq!(d.num_features(), 2);
/// assert!(d.value(0, 0) && !d.value(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dataset {
    num_rows: usize,
    columns: Vec<Vec<u64>>,
    labels: Vec<u64>,
}

/// The word and the bit within it that hold row `row` of a column.
fn bit(row: usize) -> (usize, u64) {
    (row / 64, 1 << (row % 64))
}

impl Dataset {
    /// Creates an empty dataset with `num_features` feature columns.
    pub fn new(num_features: usize) -> Self {
        Dataset {
            num_rows: 0,
            columns: vec![Vec::new(); num_features],
            labels: Vec::new(),
        }
    }

    /// Builds a dataset from `(features, label)` rows; the first row fixes
    /// the number of features.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent feature counts.
    pub fn from_rows(rows: Vec<(Vec<bool>, bool)>) -> Self {
        let mut d = Dataset::new(rows.first().map_or(0, |(f, _)| f.len()));
        for (f, l) in rows {
            d.push(&f, l);
        }
        d
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `features` does not have [`Dataset::num_features`] entries.
    pub fn push(&mut self, features: &[bool], label: bool) {
        assert_eq!(
            self.columns.len(),
            features.len(),
            "inconsistent feature count in dataset"
        );
        let (word, mask) = bit(self.num_rows);
        if word == self.labels.len() {
            self.labels.push(0);
            for column in &mut self.columns {
                column.push(0);
            }
        }
        for (column, &value) in self.columns.iter_mut().zip(features) {
            if value {
                column[word] |= mask;
            }
        }
        if label {
            self.labels[word] |= mask;
        }
        self.num_rows += 1;
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Returns `true` if the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Number of features per row.
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// Value of feature `feature` in row `row`.
    pub fn value(&self, row: usize, feature: usize) -> bool {
        assert!(row < self.num_rows, "row {row} out of range");
        let (word, mask) = bit(row);
        self.columns[feature][word] & mask != 0
    }

    /// Label of row `row`.
    pub fn label(&self, row: usize) -> bool {
        assert!(row < self.num_rows, "row {row} out of range");
        let (word, mask) = bit(row);
        self.labels[word] & mask != 0
    }

    /// Number of rows with a positive label.
    pub fn num_positive(&self) -> usize {
        self.labels.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed bit column of every feature, in feature order.
    pub(crate) fn feature_columns(&self) -> Vec<&[u64]> {
        self.columns.iter().map(Vec::as_slice).collect()
    }

    /// The packed label column.
    pub(crate) fn label_column(&self) -> &[u64] {
        &self.labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new(2);
        d.push(&[true, false], true);
        d.push(&[false, false], false);
        assert_eq!(d.num_rows(), 2);
        assert_eq!(d.num_features(), 2);
        assert!(d.value(0, 0) && !d.value(0, 1));
        assert!(d.label(0));
        assert_eq!(d.num_positive(), 1);
    }

    #[test]
    fn new_fixes_the_feature_count() {
        let d = Dataset::new(3);
        assert_eq!(d.num_features(), 3);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "inconsistent feature count")]
    fn push_is_checked_against_the_declared_feature_count() {
        let mut d = Dataset::new(3);
        d.push(&[true, false], true);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature count")]
    fn inconsistent_rows_panic() {
        Dataset::from_rows(vec![(vec![true, false], true), (vec![true], false)]);
    }

    #[test]
    fn rows_cross_word_boundaries_with_zero_padding() {
        let rows: Vec<(Vec<bool>, bool)> =
            (0..130).map(|r| (vec![r % 3 == 0], r % 2 == 1)).collect();
        let d = Dataset::from_rows(rows);
        assert_eq!(d.num_rows(), 130);
        assert_eq!(d.label_column().len(), 3);
        for r in 0..130 {
            assert_eq!(d.value(r, 0), r % 3 == 0);
            assert_eq!(d.label(r), r % 2 == 1);
        }
        assert_eq!(d.num_positive(), 65);
        // Rows 130..192 are padding and stay clear in every column.
        assert_eq!(d.label_column()[2] >> 2, 0);
        assert_eq!(d.feature_columns()[0][2] >> 2, 0);
    }
}
