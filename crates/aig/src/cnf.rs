//! Tseitin encoding of AIG cones into CNF.

use crate::manager::{Aig, AigRef, NodeKind};
use manthan3_cnf::{CnfBuilder, Lit};
use std::collections::HashMap;

impl Aig {
    /// Encodes the cone of `f` into `builder` and returns a literal that is
    /// equivalent to `f`.
    ///
    /// `input_lit` maps input labels to CNF literals; every label in the
    /// support of `f` must be present.
    ///
    /// Each call starts from a fresh node-to-literal cache. Encoding several
    /// functions that share sub-cones into one builder this way encodes
    /// every shared node once per function that contains it; use
    /// [`Aig::encode_cnf_cached`] with one cache to encode each node once.
    ///
    /// # Panics
    ///
    /// Panics if an input label in the support of `f` has no entry in
    /// `input_lit`.
    ///
    /// # Examples
    ///
    /// ```
    /// use manthan3_aig::Aig;
    /// use manthan3_cnf::{CnfBuilder, Var};
    /// use std::collections::HashMap;
    ///
    /// let mut aig = Aig::new();
    /// let x = aig.input(0);
    /// let y = aig.input(1);
    /// let f = aig.and(x, y);
    ///
    /// let mut builder = CnfBuilder::new(2);
    /// let mut map = HashMap::new();
    /// map.insert(0usize, Var::new(0).positive());
    /// map.insert(1usize, Var::new(1).positive());
    /// let out = aig.encode_cnf(f, &mut builder, &map);
    /// builder.assert_lit(out); // force f to be true
    /// assert!(builder.cnf().num_clauses() >= 3);
    /// ```
    pub fn encode_cnf(
        &self,
        f: AigRef,
        builder: &mut CnfBuilder,
        input_lit: &HashMap<usize, Lit>,
    ) -> Lit {
        let mut cache: HashMap<usize, Lit> = HashMap::new();
        self.encode_cnf_cached(f, builder, input_lit, &mut cache)
    }

    /// Like [`Aig::encode_cnf`], but reuses (and extends) a caller-owned
    /// node-to-literal cache, so that repeated encodings of overlapping cones
    /// into the same builder share their Tseitin variables and clauses.
    ///
    /// This is the mechanism behind incremental verification: when a repair
    /// step extends a candidate cone, only the nodes not yet in `cache` cost
    /// fresh variables and clauses.
    ///
    /// The cache is keyed by node id, so it must only ever be used with one
    /// AIG and one builder; mixing caches across AIGs or builders produces
    /// nonsense encodings.
    pub fn encode_cnf_cached(
        &self,
        f: AigRef,
        builder: &mut CnfBuilder,
        input_lit: &HashMap<usize, Lit>,
        cache: &mut HashMap<usize, Lit>,
    ) -> Lit {
        self.encode_rec(f, builder, input_lit, cache)
    }

    fn encode_rec(
        &self,
        f: AigRef,
        builder: &mut CnfBuilder,
        input_lit: &HashMap<usize, Lit>,
        cache: &mut HashMap<usize, Lit>,
    ) -> Lit {
        let id = f.node_id();
        let lit = if let Some(&l) = cache.get(&id) {
            l
        } else {
            let l = match self.node_kind(id) {
                NodeKind::Constant => {
                    // A fresh literal asserted false stands for the constant.
                    let l = builder.fresh_lit();
                    builder.assert_lit(!l);
                    l
                }
                NodeKind::Input(label) => *input_lit
                    .get(&label)
                    .unwrap_or_else(|| panic!("no CNF literal for AIG input label {label}")),
                NodeKind::And(a, b) => {
                    let la = self.encode_rec(a, builder, input_lit, cache);
                    let lb = self.encode_rec(b, builder, input_lit, cache);
                    builder.and(la, lb)
                }
            };
            cache.insert(id, l);
            l
        };
        lit.apply_sign(!f.is_complemented())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::{Assignment, Var};

    /// Exhaustively checks that the CNF encoding of `f` is equisatisfiable
    /// with, and functionally equivalent to, the AIG evaluation.
    fn check_encoding(aig: &Aig, f: AigRef, num_inputs: usize) {
        let mut builder = CnfBuilder::new(num_inputs);
        let map: HashMap<usize, Lit> = (0..num_inputs)
            .map(|i| (i, Var::new(i as u32).positive()))
            .collect();
        let out = aig.encode_cnf(f, &mut builder, &map);
        let cnf = builder.into_cnf();
        let total_vars = cnf.num_vars();
        let aux = total_vars - num_inputs;
        for bits in 0..1u32 << num_inputs {
            let inputs: Vec<bool> = (0..num_inputs).map(|i| bits >> i & 1 == 1).collect();
            let expected = aig.eval(f, &inputs);
            let mut witnessed = false;
            for aux_bits in 0..1u64 << aux {
                let mut values = inputs.clone();
                for i in 0..aux {
                    values.push(aux_bits >> i & 1 == 1);
                }
                let a = Assignment::from_values(values);
                if cnf.eval(&a) {
                    witnessed = true;
                    assert_eq!(a.lit_value(out), expected, "inputs {inputs:?}");
                }
            }
            assert!(witnessed, "encoding unsatisfiable for inputs {inputs:?}");
        }
    }

    #[test]
    fn encodes_simple_gates() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let f = aig.xor(x, y);
        check_encoding(&aig, f, 2);
        let g = aig.and(x, y);
        check_encoding(&aig, !g, 2);
    }

    #[test]
    fn encodes_constants() {
        let aig = Aig::new();
        check_encoding(&aig, AigRef::TRUE, 1);
        check_encoding(&aig, AigRef::FALSE, 1);
    }

    #[test]
    fn encodes_nested_cones() {
        let mut aig = Aig::new();
        let ins: Vec<AigRef> = (0..4).map(|i| aig.input(i)).collect();
        let a = aig.xor(ins[0], ins[1]);
        let b = aig.ite(ins[2], a, ins[3]);
        let f = aig.or(b, ins[0]);
        check_encoding(&aig, f, 4);
    }

    #[test]
    fn cached_encoding_shares_tseitin_variables() {
        let mut aig = Aig::new();
        let x = aig.input(0);
        let y = aig.input(1);
        let z = aig.input(2);
        let shared = aig.and(x, y);
        let f = aig.or(shared, z);
        let g = aig.xor(shared, z);

        let map: HashMap<usize, Lit> = (0..3).map(|i| (i, Var::new(i as u32).positive())).collect();

        // Encoding f then g with a shared cache must not re-encode `shared`.
        let mut builder = CnfBuilder::new(3);
        let mut cache = HashMap::new();
        let _ = aig.encode_cnf_cached(f, &mut builder, &map, &mut cache);
        let vars_after_f = builder.num_vars();
        let _ = aig.encode_cnf_cached(g, &mut builder, &map, &mut cache);
        let incremental_vars = builder.num_vars() - vars_after_f;

        // Without the cache the second cone re-allocates `shared`'s variable.
        let mut builder2 = CnfBuilder::new(3);
        let _ = aig.encode_cnf(f, &mut builder2, &map);
        let vars_after_f2 = builder2.num_vars();
        let _ = aig.encode_cnf(g, &mut builder2, &map);
        let scratch_vars = builder2.num_vars() - vars_after_f2;
        assert!(
            incremental_vars < scratch_vars,
            "cached encoding allocated {incremental_vars} vars, scratch {scratch_vars}"
        );
    }

    #[test]
    #[should_panic(expected = "no CNF literal")]
    fn missing_input_mapping_panics() {
        let mut aig = Aig::new();
        let x = aig.input(7);
        let mut builder = CnfBuilder::new(0);
        let map = HashMap::new();
        let _ = aig.encode_cnf(x, &mut builder, &map);
    }
}
