//! Truth tables of functions over at most eight inputs, and their rebuild as
//! memoized Shannon decompositions.
//!
//! A function whose cone mentions at most [`MAX_TRUTH_TABLE_INPUTS`] inputs
//! has a 256-row truth table that fits in four `u64` words. Simulating the
//! cone word-parallel ([`Aig::truth_table`]) computes that table in one pass
//! over the cone, and [`Aig::from_truth_table`] rebuilds the function from it
//! as a Shannon decomposition whose sub-functions are shared through a
//! [`ShannonMemo`]. The rebuild depends on the function alone, not on the
//! structure of the cone it came from.

use crate::manager::{Aig, AigRef, NodeKind};
use std::collections::HashMap;

/// Most inputs a [`TruthTable`] holds: 2^8 = 256 rows fill four `u64` words.
pub const MAX_TRUTH_TABLE_INPUTS: usize = 8;

/// Bits of a word whose row has input slot `j` false, for the slots inside
/// one word (`j < 6`).
const LOW_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// The truth table of a function over input slots `0..8`, as computed by
/// [`Aig::truth_table`] and consumed by [`Aig::from_truth_table`].
///
/// Row `r` holds the function's value when slot `j` takes bit `j` of `r`.
/// Every table has all 256 rows; a function of fewer slots simply does not
/// depend on the others, so its table repeats along them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable([u64; 4]);

impl TruthTable {
    /// The constant-false table.
    pub(crate) const FALSE: TruthTable = TruthTable([0; 4]);
    /// The constant-true table.
    pub(crate) const TRUE: TruthTable = TruthTable([!0; 4]);

    /// The projection onto input slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= MAX_TRUTH_TABLE_INPUTS`.
    pub(crate) fn var(slot: usize) -> TruthTable {
        assert!(slot < MAX_TRUTH_TABLE_INPUTS, "slot {slot} out of range");
        TruthTable(std::array::from_fn(|word| {
            if slot < 6 {
                !LOW_MASKS[slot]
            } else if word >> (slot - 6) & 1 == 1 {
                !0
            } else {
                0
            }
        }))
    }

    /// The function's value in row `row` (`row < 256`).
    pub(crate) fn value(self, row: usize) -> bool {
        self.0[row >> 6] >> (row & 63) & 1 == 1
    }

    /// The cofactor with slot `slot` fixed to `value`: a table that no
    /// longer depends on `slot`.
    pub(crate) fn cofactor(self, slot: usize, value: bool) -> TruthTable {
        let mut words = self.0;
        if slot < 6 {
            let shift = 1 << slot;
            for word in &mut words {
                *word = if value {
                    let high = *word & !LOW_MASKS[slot];
                    high | high >> shift
                } else {
                    let low = *word & LOW_MASKS[slot];
                    low | low << shift
                };
            }
        } else {
            // Slots 6 and 7 select whole words: bit `slot - 6` of the word
            // index.
            let stride = 1 << (slot - 6);
            for word in (0..4).filter(|w| w & stride == 0) {
                let source = self.0[if value { word | stride } else { word }];
                words[word] = source;
                words[word | stride] = source;
            }
        }
        TruthTable(words)
    }

    /// Returns `true` if the function depends on slot `slot`.
    pub(crate) fn depends_on(self, slot: usize) -> bool {
        self.cofactor(slot, false) != self.cofactor(slot, true)
    }
}

impl std::ops::Not for TruthTable {
    type Output = TruthTable;

    fn not(self) -> TruthTable {
        TruthTable(self.0.map(|w| !w))
    }
}

impl std::ops::BitAnd for TruthTable {
    type Output = TruthTable;

    fn bitand(self, other: TruthTable) -> TruthTable {
        TruthTable(std::array::from_fn(|i| self.0[i] & other.0[i]))
    }
}

/// Sub-functions built by [`Aig::from_truth_table`], keyed by the input
/// labels of their slots and by their truth table. A table and its
/// complement share one entry. Reusing one memo across calls on the same
/// AIG shares sub-functions between the rebuilt functions.
#[derive(Debug, Clone, Default)]
pub struct ShannonMemo(HashMap<(Vec<usize>, TruthTable), AigRef>);

impl Aig {
    /// The truth table of `f`, with slot `j` standing for input label
    /// `support[j]`.
    ///
    /// The cone is simulated once, four words per node, in node order
    /// (a node's fan-ins always precede it).
    ///
    /// # Panics
    ///
    /// Panics if `support` has more than [`MAX_TRUTH_TABLE_INPUTS`] labels,
    /// or if the cone of `f` reaches an input whose label is not in
    /// `support`.
    pub fn truth_table(&self, f: AigRef, support: &[usize]) -> TruthTable {
        assert!(
            support.len() <= MAX_TRUTH_TABLE_INPUTS,
            "{} inputs do not fit a truth table",
            support.len()
        );
        let cone = self.cone_nodes(f);
        let mut tables: HashMap<usize, TruthTable> = HashMap::with_capacity(cone.len());
        let edge = |tables: &HashMap<usize, TruthTable>, r: AigRef| {
            let t = tables[&r.node_id()];
            if r.is_complemented() {
                !t
            } else {
                t
            }
        };
        for id in cone {
            let table = match self.node_kind(id) {
                NodeKind::Constant => TruthTable::FALSE,
                NodeKind::Input(label) => {
                    let slot = support
                        .iter()
                        .position(|&l| l == label)
                        .unwrap_or_else(|| panic!("input label {label} is not in the support"));
                    TruthTable::var(slot)
                }
                NodeKind::And(a, b) => edge(&tables, a) & edge(&tables, b),
            };
            tables.insert(id, table);
        }
        edge(&tables, f)
    }

    /// Builds a function with truth table `table`, slot `j` standing for
    /// input label `support[j]`, as a Shannon decomposition on the highest
    /// slot the table depends on. Slots the table does not depend on never
    /// appear in the result, so its support is a subset of `support`.
    ///
    /// Every sub-function is looked up in `memo` first (as itself or its
    /// complement), so functions rebuilt over the same labels share nodes.
    ///
    /// # Panics
    ///
    /// Panics if `support` has more than [`MAX_TRUTH_TABLE_INPUTS`] labels.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_aig::{Aig, ShannonMemo};
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(0);
    /// let y = aig.input(1);
    /// // x ∨ (x ∧ y) is just x.
    /// let xy = aig.and(x, y);
    /// let f = aig.or(x, xy);
    /// let table = aig.truth_table(f, &[0, 1]);
    /// let rebuilt = aig.from_truth_table(table, &[0, 1], &mut ShannonMemo::default());
    /// assert_eq!(rebuilt, x);
    /// ```
    pub fn from_truth_table(
        &mut self,
        table: TruthTable,
        support: &[usize],
        memo: &mut ShannonMemo,
    ) -> AigRef {
        assert!(
            support.len() <= MAX_TRUTH_TABLE_INPUTS,
            "{} inputs do not fit a truth table",
            support.len()
        );
        self.shannon(table, support, memo)
    }

    fn shannon(&mut self, table: TruthTable, support: &[usize], memo: &mut ShannonMemo) -> AigRef {
        if table == TruthTable::FALSE {
            return AigRef::FALSE;
        }
        if table == TruthTable::TRUE {
            return AigRef::TRUE;
        }
        // A non-constant table depends on some slot of `support`.
        let mut slots = support.len();
        while !table.depends_on(slots - 1) {
            slots -= 1;
        }
        // Store each function with row 0 false; its complement is the same
        // node under a complemented edge.
        let negate = table.value(0);
        let table = if negate { !table } else { table };
        let key = (support[..slots].to_vec(), table);
        let f = match memo.0.get(&key) {
            Some(&f) => f,
            None => {
                let top = slots - 1;
                let low = self.shannon(table.cofactor(top, false), &support[..top], memo);
                let high = self.shannon(table.cofactor(top, true), &support[..top], memo);
                let x = self.input(support[top]);
                let f = self.ite(x, high, low);
                memo.0.insert(key, f);
                f
            }
        };
        if negate {
            !f
        } else {
            f
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1usize << n).map(move |r| (0..n).map(|j| r >> j & 1 == 1).collect())
    }

    #[test]
    fn projections_match_their_rows() {
        for slot in 0..MAX_TRUTH_TABLE_INPUTS {
            let t = TruthTable::var(slot);
            for row in 0..256 {
                assert_eq!(t.value(row), row >> slot & 1 == 1, "slot {slot} row {row}");
            }
        }
    }

    #[test]
    fn cofactors_fix_one_slot() {
        // An irregular table: x0 ⊕ (x3 ∧ x6) ∨ (x5 ∧ ¬x7).
        let v = TruthTable::var;
        let x06 = v(3) & v(6);
        let xor = !(v(0) & x06) & !(!v(0) & !x06);
        let t = !(!xor & !(v(5) & !v(7)));
        for slot in 0..MAX_TRUTH_TABLE_INPUTS {
            for value in [false, true] {
                let c = t.cofactor(slot, value);
                assert!(!c.depends_on(slot));
                for row in 0..256 {
                    let fixed = if value {
                        row | 1 << slot
                    } else {
                        row & !(1 << slot)
                    };
                    assert_eq!(
                        c.value(row),
                        t.value(fixed),
                        "slot {slot}={value} row {row}"
                    );
                }
            }
        }
    }

    #[test]
    fn simulation_agrees_with_eval() {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..8).map(|i| aig.input(10 + i)).collect();
        let a = aig.xor(ins[0], ins[7]);
        let b = aig.ite(ins[6], a, ins[3]);
        let c = aig.and(b, !ins[1]);
        let f = aig.or(c, ins[5]);
        let support = aig.support(f);
        let table = aig.truth_table(f, &support);
        for (row, values) in rows(support.len()).enumerate() {
            let mut by_label = vec![false; 18];
            for (slot, &label) in support.iter().enumerate() {
                by_label[label] = values[slot];
            }
            assert_eq!(table.value(row), aig.eval(f, &by_label), "row {row}");
        }
    }

    #[test]
    fn rebuild_is_exact_and_drops_unused_inputs() {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..4).map(|i| aig.input(i)).collect();
        // (x0 ∧ x2) ∨ (x0 ∧ ¬x2) ∨ (x1 ∧ x1 ∧ x3) = x0 ∨ (x1 ∧ x3)
        let p = aig.and(ins[0], ins[2]);
        let q = aig.and(ins[0], !ins[2]);
        let r = aig.and(ins[1], ins[3]);
        let pq = aig.or(p, q);
        let f = aig.or(pq, r);
        let table = aig.truth_table(f, &[0, 1, 2, 3]);
        let mut memo = ShannonMemo::default();
        let g = aig.from_truth_table(table, &[0, 1, 2, 3], &mut memo);
        assert_eq!(aig.support(g), vec![0, 1, 3]);
        for values in rows(4) {
            assert_eq!(aig.eval(g, &values), aig.eval(f, &values));
        }
        // The complement is the same node under a complemented edge.
        assert_eq!(aig.from_truth_table(!table, &[0, 1, 2, 3], &mut memo), !g);
    }

    #[test]
    fn constants_rebuild_to_constants() {
        let mut aig = Aig::new();
        let mut memo = ShannonMemo::default();
        assert_eq!(
            aig.from_truth_table(TruthTable::TRUE, &[3], &mut memo),
            AigRef::TRUE
        );
        assert_eq!(
            aig.from_truth_table(TruthTable::FALSE, &[], &mut memo),
            AigRef::FALSE
        );
        assert_eq!(aig.truth_table(AigRef::TRUE, &[]), TruthTable::TRUE);
    }

    #[test]
    #[should_panic(expected = "not in the support")]
    fn simulation_rejects_a_short_support() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let f = aig.and(x, y);
        let _ = aig.truth_table(f, &[0]);
    }
}
