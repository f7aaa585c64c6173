//! Symbolic (BDD-backed) benchmark instances for arities beyond the dense
//! truth-table limit.
//!
//! A dense [`crate::BenchmarkInstance`] stores `2^n` bits per output, which
//! caps it at [`TruthTable::MAX_VARS`] inputs. The instances here are
//! *descriptions* instead — covers and structural function families whose
//! BDDs stay small at 24–40 variables — and are materialized directly into a
//! [`BddManager`] by the engine's BDD backend. At small arities the same
//! descriptions can be densified ([`SymbolicInstance::to_dense`]), which is
//! how the property tests pin the symbolic backend bit-identical to the
//! dense one.

use bdd::{Bdd, BddManager};
use boolfunc::{Cover, Isf, TruthTable};

use crate::instance::BenchmarkInstance;
use crate::synthetic::{control_covers, ControlPlaSpec};

/// One output of a [`SymbolicInstance`]: an incompletely specified function
/// given by a construction rule rather than a dense table.
#[derive(Debug, Clone)]
pub enum SymbolicFunction {
    /// An ISF given by an on-set cover and a (possibly overlapping) dc-set
    /// cover; the dc-set is taken as `dc \ on` so the pair is a valid ISF.
    CoverIsf {
        /// Cover of the on-set.
        on: Cover,
        /// Cover of the don't-care set (minterms also in `on` stay on).
        dc: Cover,
    },
    /// Carry-out of a ripple adder over `2·bits` inputs, with the operands
    /// interleaved (`a_i` = variable `2i`, `b_i` = variable `2i+1` — the
    /// ordering under which the carry BDD is linear in `bits`; the blocked
    /// ordering would be exponential). Completely specified; its minimal SOP
    /// is exponential regardless.
    AdderCarry,
    /// XOR of all inputs — the classic function whose BDD is linear but
    /// whose dense table has `2^(n-1)` on-minterms. Completely specified.
    Parity,
    /// `1` iff at least `k` of the inputs are `1` (a threshold/majority
    /// function; BDD size `O(n·k)`). Completely specified.
    Threshold {
        /// Minimum number of inputs that must be 1.
        k: usize,
    },
}

/// A named multi-output benchmark whose outputs are [`SymbolicFunction`]s
/// over a common input set.
#[derive(Debug, Clone)]
pub struct SymbolicInstance {
    name: String,
    inputs: usize,
    outputs: Vec<SymbolicFunction>,
}

impl SymbolicInstance {
    /// Creates an instance from per-output function descriptions.
    ///
    /// # Panics
    ///
    /// Panics if there are no outputs, if `inputs` exceeds 63 (the BDD
    /// manager's minterm addressing), or if a cover output has a different
    /// arity.
    pub fn new(name: impl Into<String>, inputs: usize, outputs: Vec<SymbolicFunction>) -> Self {
        assert!(!outputs.is_empty(), "a benchmark needs at least one output");
        assert!(inputs < 64, "symbolic instances address minterms with u64 words");
        for f in &outputs {
            if let SymbolicFunction::CoverIsf { on, dc } = f {
                assert_eq!(on.num_vars(), inputs, "on-cover arity mismatch");
                assert_eq!(dc.num_vars(), inputs, "dc-cover arity mismatch");
            }
        }
        SymbolicInstance { name: name.into(), inputs, outputs }
    }

    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The per-output descriptions.
    pub fn outputs(&self) -> &[SymbolicFunction] {
        &self.outputs
    }

    /// Builds output `output` into `mgr`, returning the `(on, dc)` BDD pair
    /// of the incompletely specified function.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of range or the manager has fewer variables
    /// than the instance has inputs (a *wider* manager is allowed: the built
    /// function is simply independent of the extra variables).
    pub fn build_output(&self, mgr: &mut BddManager, output: usize) -> (Bdd, Bdd) {
        assert!(mgr.num_vars() >= self.inputs, "manager is narrower than the instance");
        match &self.outputs[output] {
            SymbolicFunction::CoverIsf { on, dc } => {
                let on_bdd = mgr.cover(on);
                let dc_raw = mgr.cover(dc);
                let dc_bdd = mgr.diff(dc_raw, on_bdd);
                (on_bdd, dc_bdd)
            }
            SymbolicFunction::AdderCarry => {
                let bits = self.inputs / 2;
                let mut carry = mgr.zero();
                for i in 0..bits {
                    let a = mgr.variable(2 * i);
                    let b = mgr.variable(2 * i + 1);
                    let gen = mgr.and(a, b);
                    let axb = mgr.xor(a, b);
                    let prop = mgr.and(axb, carry);
                    carry = mgr.or(gen, prop);
                }
                (carry, mgr.zero())
            }
            SymbolicFunction::Parity => {
                let mut parity = mgr.zero();
                for i in 0..self.inputs {
                    let x = mgr.variable(i);
                    parity = mgr.xor(parity, x);
                }
                (parity, mgr.zero())
            }
            SymbolicFunction::Threshold { k } => {
                // ge[j] = "at least j ones among the inputs processed so
                // far"; one ITE per (variable, j) pair keeps this O(n·k).
                let k = *k;
                let mut ge: Vec<Bdd> =
                    (0..=k).map(|j| if j == 0 { mgr.one() } else { mgr.zero() }).collect();
                for i in 0..self.inputs {
                    let x = mgr.variable(i);
                    for j in (1..=k).rev() {
                        ge[j] = mgr.ite(x, ge[j - 1], ge[j]);
                    }
                }
                (ge[k], mgr.zero())
            }
        }
    }

    /// Densifies the instance into a [`BenchmarkInstance`] — only possible
    /// at arities the dense backend supports; returns `None` beyond
    /// [`TruthTable::MAX_VARS`] inputs.
    ///
    /// The densification goes through the same [`SymbolicInstance::build_output`]
    /// path the engine uses, so it cannot drift from the symbolic semantics.
    pub fn to_dense(&self) -> Option<BenchmarkInstance> {
        if self.inputs > TruthTable::MAX_VARS {
            return None;
        }
        let mut mgr = BddManager::new(self.inputs);
        let outputs = (0..self.outputs.len())
            .map(|o| {
                let (on, dc) = self.build_output(&mut mgr, o);
                let on_tt = mgr.to_truth_table(on).expect("arity checked above");
                let dc_tt = mgr.to_truth_table(dc).expect("arity checked above");
                Isf::new(on_tt, dc_tt).expect("build_output returns disjoint on/dc")
            })
            .collect();
        Some(BenchmarkInstance::new(self.name.clone(), outputs))
    }
}

/// A deterministic, seed-stable "noise" cover over `num_vars` inputs: the
/// symbolic counterpart of the random word stream the dense
/// `seeded_divisor` uses. Its BDD stays small (a few wide cubes) at any
/// arity the cube representation supports.
pub fn noise_cover(num_vars: usize, seed: u64) -> Cover {
    let literals = (num_vars / 4).clamp(3, 10);
    let covers = control_covers(ControlPlaSpec {
        inputs: num_vars,
        outputs: 1,
        cubes: 12,
        literals_per_cube: literals,
        seed,
    });
    covers.into_iter().next().expect("one output requested")
}

/// The symbolic large-`n` suite: 24–40 input instances the dense backend
/// cannot (or should not) represent, exercising every structural family.
pub fn large_instances() -> Vec<SymbolicInstance> {
    let mut instances = Vec::new();
    for (name, inputs, outputs, cubes, seed) in
        [("wide_ctrl24", 24usize, 3usize, 26usize, 0xC24u64), ("wide_ctrl32", 32, 3, 30, 0xC32)]
    {
        // Interleave on/dc covers from one deterministic stream: output o
        // uses covers 2o (on) and 2o+1 (dc).
        let covers = control_covers(ControlPlaSpec {
            inputs,
            outputs: outputs * 2,
            cubes,
            literals_per_cube: inputs / 3,
            seed,
        });
        let outputs = covers
            .chunks(2)
            .map(|pair| SymbolicFunction::CoverIsf { on: pair[0].clone(), dc: pair[1].clone() })
            .collect();
        instances.push(SymbolicInstance::new(name, inputs, outputs));
    }
    instances.push(SymbolicInstance::new("carry32", 32, vec![SymbolicFunction::AdderCarry]));
    instances.push(SymbolicInstance::new(
        "carry40",
        40,
        vec![SymbolicFunction::AdderCarry, SymbolicFunction::Parity],
    ));
    instances.push(SymbolicInstance::new(
        "thresh28",
        28,
        vec![SymbolicFunction::Threshold { k: 14 }, SymbolicFunction::Parity],
    ));
    instances
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_carry_matches_arithmetic_at_small_arity() {
        let inst = SymbolicInstance::new("c8", 8, vec![SymbolicFunction::AdderCarry]);
        let dense = inst.to_dense().unwrap();
        let carry = &dense.outputs()[0];
        for m in 0..256u64 {
            // Operands are interleaved: a_i = bit 2i, b_i = bit 2i+1.
            let mut a = 0u64;
            let mut b = 0u64;
            for i in 0..4 {
                a |= (m >> (2 * i) & 1) << i;
                b |= (m >> (2 * i + 1) & 1) << i;
            }
            assert_eq!(carry.on().get(m), a + b > 0xF, "minterm {m}");
        }
    }

    #[test]
    fn parity_and_threshold_match_popcount_semantics() {
        let inst = SymbolicInstance::new(
            "pt6",
            6,
            vec![SymbolicFunction::Parity, SymbolicFunction::Threshold { k: 3 }],
        );
        let dense = inst.to_dense().unwrap();
        for m in 0..64u64 {
            assert_eq!(dense.outputs()[0].on().get(m), m.count_ones() % 2 == 1);
            assert_eq!(dense.outputs()[1].on().get(m), m.count_ones() >= 3);
        }
    }

    #[test]
    fn cover_isf_outputs_are_disjoint() {
        let covers = control_covers(ControlPlaSpec {
            inputs: 10,
            outputs: 2,
            cubes: 12,
            literals_per_cube: 4,
            seed: 99,
        });
        let inst = SymbolicInstance::new(
            "c10",
            10,
            vec![SymbolicFunction::CoverIsf { on: covers[0].clone(), dc: covers[1].clone() }],
        );
        let dense = inst.to_dense().unwrap();
        let isf = &dense.outputs()[0];
        // The on-set is exactly the on-cover; the dc-set lost any overlap.
        assert_eq!(isf.on(), &covers[0].to_truth_table());
        assert!(isf.on().is_disjoint_from(isf.dc()));
    }

    #[test]
    fn large_suite_exceeds_the_dense_limit() {
        let instances = large_instances();
        assert!(instances.iter().any(|i| i.num_inputs() > TruthTable::MAX_VARS));
        assert!(instances.iter().any(|i| i.num_inputs() >= 40));
        for inst in &instances {
            assert!(inst.num_inputs() >= 24, "{} is not large", inst.name());
            // Every output builds into a manager without blowing up.
            let mut mgr = BddManager::new(inst.num_inputs());
            for o in 0..inst.num_outputs() {
                let (on, dc) = inst.build_output(&mut mgr, o);
                let both = mgr.and(on, dc);
                assert!(mgr.is_zero(both), "{} output {o}: on ∩ dc ≠ ∅", inst.name());
                assert!(!mgr.is_zero(on), "{} output {o} is trivially 0", inst.name());
            }
            assert!(mgr.num_nodes() < 200_000, "{}: BDD blow-up", inst.name());
        }
    }

    #[test]
    fn noise_cover_is_seed_stable() {
        let a = noise_cover(32, 7);
        let b = noise_cover(32, 7);
        let c = noise_cover(32, 8);
        assert_eq!(a.num_cubes(), b.num_cubes());
        for (ca, cb) in a.iter().zip(b.iter()) {
            assert_eq!(ca, cb);
        }
        let differs = a.num_cubes() != c.num_cubes() || a.iter().zip(c.iter()).any(|(x, y)| x != y);
        assert!(differs, "different seeds must give different noise");
    }
}
