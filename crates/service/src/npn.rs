//! NPN canonicalization of truth tables and ISFs.
//!
//! Two functions are *NPN-equivalent* if one can be obtained from the other
//! by permuting inputs (P), complementing inputs (N) and complementing the
//! output (the leading N). The full quotient, divisor validity and (up to
//! inverter rewiring) a synthesized network are all equivariant under these
//! transforms, so a result computed for one member of an NPN class answers
//! every member — which is what makes an NPN-keyed cache so much more
//! effective than an exact-key one: a synthesis workload keeps meeting the
//! same few subfunctions wearing different variable orders and polarities.
//!
//! [`canonicalize`] maps an [`Isf`] to a [`Canonical`]: a [`CanonicalKey`]
//! (the class representative's raw words — the cache key) plus the
//! [`NpnTransform`] that maps the queried function onto the representative,
//! which is exactly what a cache needs to map a stored answer back
//! ([`NpnTransform::inverse`] + the `permute_*` methods).
//!
//! Two search strategies, picked by arity:
//!
//! * **Exact, `n ≤ MAX_EXACT_VARS`:** the whole transform group
//!   (`2 · 2^n · n!` candidates) is enumerated on `u64`-packed tables.
//!   Permutations advance through Heap's algorithm, so each step is a single
//!   adjacent *delta swap* (a masked shift pair) on the packed words, and
//!   input negations are block swaps — the entire search is word-parallel
//!   and touches no per-minterm loop.
//! * **Greedy, larger `n`:** output and input polarities are fixed by
//!   cofactor weights and variables are ordered by signature vectors; every
//!   tie forks the candidate set (capped at [`CANDIDATE_CAP`]) and the
//!   lexicographically smallest materialized encoding wins. Because the
//!   candidate set is built from equivariant statistics, all members of an
//!   NPN class that stay under the cap canonicalize to the same key; a
//!   capped search is still *sound* (the key is always reached through a
//!   real transform), it can only cost cache hits.

use boolfunc::{Isf, TruthTable};

use bidecomp::BinaryOp;
use techmap::{Network, NodeKind};

/// Largest arity canonicalized by exhaustive search (the `2·2^n·n!`
/// candidate walk is ~92k word ops at 6 variables — microseconds).
pub const MAX_EXACT_VARS: usize = 6;

/// Cap on the number of materialized candidates of the greedy search; ties
/// beyond it are cut off (sound, but may miss hits for pathologically
/// symmetric functions).
pub const CANDIDATE_CAP: usize = 256;

/// An NPN transform: input negation, then input permutation, then optional
/// output complementation.
///
/// Semantics (`n = perm.len()` variables): the image `t = self.apply_isf(f)`
/// satisfies `t(m') = f(m)` (with on/off swapped when `output_neg`), where
/// bit `perm[i]` of `m'` equals bit `i` of `m` XOR bit `i` of `input_neg` —
/// original variable `i`, complemented when its negation bit is set, becomes
/// image variable `perm[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    perm: Vec<u8>,
    input_neg: u32,
    output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `n` variables.
    pub fn identity(n: usize) -> Self {
        NpnTransform { perm: (0..n as u8).collect(), input_neg: 0, output_neg: false }
    }

    /// Builds a transform from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n` for `n = perm.len()`,
    /// or if `input_neg` has bits at or above `n`.
    pub fn new(perm: Vec<u8>, input_neg: u32, output_neg: bool) -> Self {
        let n = perm.len();
        assert!(n <= 32, "NPN transforms address variables with u32 masks");
        let mut seen = 0u32;
        for &p in &perm {
            assert!((p as usize) < n, "permutation entry {p} out of range");
            seen |= 1 << p;
        }
        assert_eq!(seen.count_ones() as usize, n, "perm is not a permutation");
        assert_eq!(input_neg >> n, 0, "input_neg has bits beyond the arity");
        NpnTransform { perm, input_neg, output_neg }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the transform complements the output.
    pub fn output_negated(&self) -> bool {
        self.output_neg
    }

    /// The inverse transform: `t.inverse().apply_isf(&t.apply_isf(f)) == f`.
    pub fn inverse(&self) -> NpnTransform {
        let n = self.num_vars();
        let mut perm = vec![0u8; n];
        let mut input_neg = 0u32;
        for i in 0..n {
            let j = self.perm[i] as usize;
            perm[j] = i as u8;
            if self.input_neg >> i & 1 == 1 {
                input_neg |= 1 << j;
            }
        }
        NpnTransform { perm, input_neg, output_neg: self.output_neg }
    }

    /// The image of minterm `m` under the input part of the transform.
    pub fn permute_minterm(&self, m: u64) -> u64 {
        let mut out = 0u64;
        for (i, &p) in self.perm.iter().enumerate() {
            let bit = (m >> i ^ u64::from(self.input_neg >> i)) & 1;
            out |= bit << p;
        }
        out
    }

    /// Applies the *input* part of the transform (permutation + input
    /// negations, no output complementation) to a completely specified
    /// table. This is the map applied to divisors and quotients riding along
    /// with a canonicalized dividend: the output complementation of `f` is
    /// absorbed by complementing the operator ([`NpnTransform::map_op`]),
    /// never by touching `g` or `h`.
    pub fn permute_table(&self, t: &TruthTable) -> TruthTable {
        assert_eq!(t.num_vars(), self.num_vars(), "transform arity mismatch");
        let mut out = TruthTable::zero(t.num_vars());
        for m in t.ones() {
            out.set(self.permute_minterm(m), true);
        }
        out
    }

    /// Applies the input part of the transform to both sets of an ISF (used
    /// to move quotients between the original and canonical spaces; see
    /// [`NpnTransform::permute_table`] for why the output flag is ignored).
    pub fn permute_isf(&self, f: &Isf) -> Isf {
        Isf::new(self.permute_table(f.on()), self.permute_table(f.dc()))
            .expect("permuting disjoint sets keeps them disjoint")
    }

    /// Applies the full transform to an ISF: input permutation and
    /// negations, plus — when `output_neg` — swapping the on- and off-sets
    /// (the dc-set is polarity-free and is only permuted).
    pub fn apply_isf(&self, f: &Isf) -> Isf {
        let base_on = if self.output_neg { f.off() } else { f.on().clone() };
        Isf::new(self.permute_table(&base_on), self.permute_table(f.dc()))
            .expect("transformed sets stay disjoint")
    }

    /// The operator a quotient problem uses in the image space: complemented
    /// when the transform complements the dividend (`¬f = g op' h ⇔ f = g op
    /// h` with `op' = op.complement()`), unchanged otherwise.
    pub fn map_op(&self, op: BinaryOp) -> BinaryOp {
        if self.output_neg {
            op.complement()
        } else {
            op
        }
    }

    /// Rewires a single-output [`Network`] realizing `φ` into one realizing
    /// `self.apply(φ)` over the same number of inputs: original input `i` is
    /// re-read from image input `perm[i]` (inverted when negated), and the
    /// output gains an inverter when the transform complements the output.
    /// Structural hashing and constant folding apply as usual, so double
    /// inversions introduced by round-tripping cancel.
    ///
    /// # Panics
    ///
    /// Panics if the network arity differs from the transform's or the
    /// network does not have exactly one output.
    pub fn rewire_network(&self, net: &Network) -> Network {
        assert_eq!(net.num_inputs(), self.num_vars(), "network arity mismatch");
        assert_eq!(net.outputs().len(), 1, "rewiring expects a single-output network");
        let mut out = Network::new(net.num_inputs());
        let mut map = Vec::with_capacity(net.num_nodes());
        for node in net.node_ids() {
            let id = match net.kind(node) {
                NodeKind::Input(var) => {
                    let node = out.input(self.perm[var] as usize);
                    if self.input_neg >> var & 1 == 1 {
                        out.not(node)
                    } else {
                        node
                    }
                }
                NodeKind::Const(v) => out.constant(v),
                NodeKind::Not(a) => out.not(map[a.index()]),
                NodeKind::And(a, b) => out.and(map[a.index()], map[b.index()]),
                NodeKind::Or(a, b) => out.or(map[a.index()], map[b.index()]),
                NodeKind::Xor(a, b) => out.xor(map[a.index()], map[b.index()]),
            };
            map.push(id);
        }
        let mut root = map[net.outputs()[0].index()];
        if self.output_neg {
            root = out.not(root);
        }
        out.add_output(root);
        // Folded-away double negations (a round trip re-inverts every
        // relabeled input) leave dead nodes behind; prune so gate counts
        // and the mapper see only live logic.
        out.pruned()
    }
}

/// The canonical representative of an NPN class: the raw words of its
/// on- and dc-set, plus the arity. Everything a sharded map needs — `Eq`,
/// `Hash`, cheap clone — and nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    num_vars: u8,
    words: Box<[u64]>,
}

impl CanonicalKey {
    fn from_isf(f: &Isf) -> Self {
        let mut words: Vec<u64> =
            Vec::with_capacity(f.on().as_words().len() + f.dc().as_words().len());
        words.extend_from_slice(f.on().as_words());
        words.extend_from_slice(f.dc().as_words());
        CanonicalKey { num_vars: f.num_vars() as u8, words: words.into_boxed_slice() }
    }

    /// Number of variables of the canonicalized function.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The raw encoding (on-set words followed by dc-set words).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The result of [`canonicalize`]: the class key and the transform mapping
/// the queried function onto the representative.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// Cache key: the representative's raw words.
    pub key: CanonicalKey,
    /// Maps the queried ISF onto the representative
    /// (`transform.apply_isf(&f)` has exactly `key`'s words).
    pub transform: NpnTransform,
}

/// Canonicalizes an ISF over its NPN class (exact up to
/// [`MAX_EXACT_VARS`] variables, greedy signature-based above — see the
/// [module docs](self)).
///
/// ```rust
/// use boolfunc::Isf;
/// use service::npn::canonicalize;
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let f = Isf::from_cover_str(3, &["11-"], &[])?;   // x0 x1
/// let g = Isf::from_cover_str(3, &["-01"], &[])?;   // x2 x1'
/// let (cf, cg) = (canonicalize(&f), canonicalize(&g));
/// assert_eq!(cf.key, cg.key, "NPN-equivalent functions share a key");
/// assert_eq!(cf.transform.apply_isf(&f), cg.transform.apply_isf(&g));
/// # Ok(())
/// # }
/// ```
pub fn canonicalize(f: &Isf) -> Canonical {
    if f.num_vars() <= MAX_EXACT_VARS {
        canonicalize_exact(f)
    } else {
        canonicalize_greedy(f)
    }
}

// --- exact search on u64-packed tables -----------------------------------

/// Positions whose index has variable `i` clear — the static halves of the
/// block swap that negates variable `i` in a packed table.
const fn neg_mask(i: usize) -> u64 {
    let mut mask = 0u64;
    let mut idx = 0;
    while idx < 64 {
        if (idx >> i) & 1 == 0 {
            mask |= 1 << idx;
        }
        idx += 1;
    }
    mask
}

/// Positions whose index has variable `i` set and variable `j` clear — the
/// moving side of the delta swap exchanging variables `i < j`.
const fn swap_mask(i: usize, j: usize) -> u64 {
    let mut mask = 0u64;
    let mut idx = 0;
    while idx < 64 {
        if (idx >> i) & 1 == 1 && (idx >> j) & 1 == 0 {
            mask |= 1 << idx;
        }
        idx += 1;
    }
    mask
}

const NEG_MASKS: [u64; 6] =
    [neg_mask(0), neg_mask(1), neg_mask(2), neg_mask(3), neg_mask(4), neg_mask(5)];

const fn swap_masks() -> [[u64; 6]; 6] {
    let mut table = [[0u64; 6]; 6];
    let mut i = 0;
    while i < 6 {
        let mut j = i + 1;
        while j < 6 {
            table[i][j] = swap_mask(i, j);
            j += 1;
        }
        i += 1;
    }
    table
}

const SWAP_MASKS: [[u64; 6]; 6] = swap_masks();

/// Complements variable `i` of a packed table (`i < 6`): swaps the two
/// cofactor block sets with one masked shift pair.
#[inline]
fn neg_var_packed(t: u64, i: usize) -> u64 {
    let s = 1u32 << i;
    let m = NEG_MASKS[i];
    ((t >> s) & m) | ((t & m) << s)
}

/// Exchanges variables `i < j` of a packed table: the classic delta swap.
#[inline]
fn swap_vars_packed(t: u64, i: usize, j: usize) -> u64 {
    debug_assert!(i < j && j < 6);
    let d = (1u32 << j) - (1u32 << i);
    let m = SWAP_MASKS[i][j];
    let x = (t ^ (t >> d)) & m;
    t ^ x ^ (x << d)
}

/// One packed candidate: `(on, dc)` words, compared lexicographically.
type Packed = (u64, u64);

fn canonicalize_exact(f: &Isf) -> Canonical {
    let n = f.num_vars();
    let on0 = f.on().as_words()[0];
    let dc0 = f.dc().as_words()[0];
    let full = f.on().tail_mask();
    let off0 = !(on0 | dc0) & full;

    let mut best: Option<(Packed, NpnTransform)> = None;
    for output_neg in [false, true] {
        let base_on = if output_neg { off0 } else { on0 };
        for input_neg in 0..(1u32 << n) {
            let mut on = base_on;
            let mut dc = dc0;
            for i in 0..n {
                if input_neg >> i & 1 == 1 {
                    on = neg_var_packed(on, i);
                    dc = neg_var_packed(dc, i);
                }
            }
            // Heap's algorithm: each step is one adjacent transposition of
            // the current position labels, applied as a delta swap.
            let mut labels: [u8; MAX_EXACT_VARS] = [0, 1, 2, 3, 4, 5];
            let mut counters = [0usize; MAX_EXACT_VARS];
            let mut consider = |on: u64, dc: u64, labels: &[u8]| {
                let candidate = (on, dc);
                if best.as_ref().is_none_or(|(b, _)| candidate < *b) {
                    // labels[p] = original variable now at position p, so
                    // perm[labels[p]] = p.
                    let mut perm = vec![0u8; n];
                    for (p, &orig) in labels.iter().take(n).enumerate() {
                        perm[orig as usize] = p as u8;
                    }
                    best = Some((
                        candidate,
                        NpnTransform { perm, input_neg: input_neg & ((1 << n) - 1), output_neg },
                    ));
                }
            };
            consider(on, dc, &labels);
            let mut i = 0;
            while i < n {
                if counters[i] < i {
                    let a = if i % 2 == 0 { 0 } else { counters[i] };
                    let (lo, hi) = (a.min(i), a.max(i));
                    on = swap_vars_packed(on, lo, hi);
                    dc = swap_vars_packed(dc, lo, hi);
                    labels.swap(lo, hi);
                    consider(on, dc, &labels);
                    counters[i] += 1;
                    i = 0;
                } else {
                    counters[i] = 0;
                    i += 1;
                }
            }
        }
    }

    let (_, transform) = best.expect("the transform group is never empty");
    Canonical { key: CanonicalKey::from_isf(&transform.apply_isf(f)), transform }
}

// --- greedy signature search above MAX_EXACT_VARS -------------------------

/// `|t ∩ (x_var = 1)|`, word-parallel.
fn cofactor_weight(t: &TruthTable, var: usize) -> u64 {
    let words = t.as_words();
    if var < 6 {
        let mask = !NEG_MASKS[var];
        words.iter().map(|w| (w & mask).count_ones() as u64).sum()
    } else {
        let stride = var - 6;
        words
            .iter()
            .enumerate()
            .filter(|(k, _)| k >> stride & 1 == 1)
            .map(|(_, w)| w.count_ones() as u64)
            .sum()
    }
}

/// The candidate polarity/order skeletons of the greedy search. Every
/// decision is made from equivariant statistics (cofactor weights), and
/// every tie *forks* instead of guessing, so the candidate set — and hence
/// the winning key — is the same for every member of the NPN class (until
/// [`CANDIDATE_CAP`] truncates a pathologically symmetric function).
fn canonicalize_greedy(f: &Isf) -> Canonical {
    let n = f.num_vars();
    let on_count = f.on().count_ones();
    let off_count = f.num_minterms_off();
    let output_candidates: &[bool] = match on_count.cmp(&off_count) {
        std::cmp::Ordering::Less => &[false],
        std::cmp::Ordering::Greater => &[true],
        std::cmp::Ordering::Equal => &[false, true],
    };

    let mut transforms: Vec<NpnTransform> = Vec::new();
    for &output_neg in output_candidates {
        // Work on the polarity-adjusted base: the on-set the image will use.
        let base_on = if output_neg { f.off() } else { f.on().clone() };
        let dc = f.dc();
        let total_on = base_on.count_ones();
        let total_dc = dc.count_ones();

        // Input polarities: prefer the lighter on-cofactor at x_i = 1,
        // refine with the dc-cofactor, fork on a full tie.
        let mut neg_choices: Vec<u32> = vec![0];
        let mut weights: Vec<(u64, u64)> = Vec::with_capacity(n);
        for i in 0..n {
            let on1 = cofactor_weight(&base_on, i);
            let on0 = total_on - on1;
            let dc1 = cofactor_weight(dc, i);
            let dc0 = total_dc - dc1;
            let flip = match (on1, dc1).cmp(&(on0, dc0)) {
                std::cmp::Ordering::Less => Some(false),
                std::cmp::Ordering::Greater => Some(true),
                std::cmp::Ordering::Equal => None, // fork below
            };
            match flip {
                Some(true) => {
                    for neg in &mut neg_choices {
                        *neg |= 1 << i;
                    }
                    weights.push((on0, dc0));
                }
                Some(false) => weights.push((on1, dc1)),
                None => {
                    if neg_choices.len() * 2 <= CANDIDATE_CAP {
                        let forked: Vec<u32> = neg_choices.iter().map(|neg| neg | 1 << i).collect();
                        neg_choices.extend(forked);
                    }
                    weights.push((on1, dc1));
                }
            }
        }

        // Variable order: ascending by (on-weight, dc-weight); equal
        // signatures form blocks whose internal orders all fork.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| weights[i]);
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        for &var in &order {
            match blocks.last_mut() {
                Some(block) if weights[block[0]] == weights[var] => block.push(var),
                _ => blocks.push(vec![var]),
            }
        }
        let mut orders: Vec<Vec<usize>> = vec![Vec::with_capacity(n)];
        for block in &blocks {
            let arrangements = permutations(block);
            let mut next = Vec::with_capacity(orders.len() * arrangements.len());
            for prefix in &orders {
                for arrangement in &arrangements {
                    if next.len() >= CANDIDATE_CAP {
                        break;
                    }
                    let mut extended = prefix.clone();
                    extended.extend_from_slice(arrangement);
                    next.push(extended);
                }
            }
            orders = next;
        }

        for neg in &neg_choices {
            for order in &orders {
                if transforms.len() >= CANDIDATE_CAP {
                    break;
                }
                // order[p] = original variable at image position p.
                let mut perm = vec![0u8; n];
                for (p, &orig) in order.iter().enumerate() {
                    perm[orig] = p as u8;
                }
                transforms.push(NpnTransform { perm, input_neg: *neg, output_neg });
            }
        }
    }

    let mut best: Option<(Isf, NpnTransform)> = None;
    for transform in transforms {
        let image = transform.apply_isf(f);
        let better = best.as_ref().is_none_or(|(b, _)| {
            (image.on().as_words(), image.dc().as_words()) < (b.on().as_words(), b.dc().as_words())
        });
        if better {
            best = Some((image, transform));
        }
    }
    let (image, transform) = best.expect("at least one candidate is always generated");
    Canonical { key: CanonicalKey::from_isf(&image), transform }
}

/// All orderings of `items` (the tie-block enumerator; blocks are tiny for
/// random functions, and the caller caps the product).
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
        if out.len() > CANDIDATE_CAP {
            break;
        }
    }
    out
}

/// Extension trait-free helper: `|off|` of an ISF without materializing it.
trait OffCount {
    fn num_minterms_off(&self) -> u64;
}

impl OffCount for Isf {
    fn num_minterms_off(&self) -> u64 {
        (1u64 << self.num_vars()) - self.on().count_ones() - self.dc().count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::DetRng;

    fn random_isf(rng: &mut DetRng, n: usize, with_dc: bool) -> Isf {
        let on = TruthTable::from_words(n, || rng.next_u64());
        let dc = if with_dc {
            let mask = TruthTable::from_words(n, || rng.next_u64() & rng.next_u64());
            mask.difference(&on)
        } else {
            TruthTable::zero(n)
        };
        Isf::new(on, dc).unwrap()
    }

    fn random_transform(rng: &mut DetRng, n: usize) -> NpnTransform {
        let mut perm: Vec<u8> = (0..n as u8).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        NpnTransform::new(perm, (rng.next_u64() as u32) & ((1 << n) - 1), rng.next_u64() & 1 == 1)
    }

    #[test]
    fn transform_round_trips_through_its_inverse() {
        let mut rng = DetRng::seed_from_u64(0xA11CE);
        for n in [3usize, 5, 7, 9] {
            for _ in 0..8 {
                let f = random_isf(&mut rng, n, true);
                let t = random_transform(&mut rng, n);
                assert_eq!(t.inverse().apply_isf(&t.apply_isf(&f)), f, "n={n}");
                assert_eq!(
                    t.inverse().permute_isf(&t.permute_isf(&f)),
                    f,
                    "n={n}: input-only round trip"
                );
            }
        }
    }

    #[test]
    fn packed_primitives_match_the_generic_transform() {
        let mut rng = DetRng::seed_from_u64(0xBEE);
        for n in [3usize, 4, 6] {
            for _ in 0..6 {
                let f = random_isf(&mut rng, n, false);
                let t0 = f.on().as_words()[0];
                for i in 0..n {
                    let mut neg = NpnTransform::identity(n);
                    neg.input_neg = 1 << i;
                    assert_eq!(
                        neg_var_packed(t0, i),
                        neg.permute_table(f.on()).as_words()[0],
                        "n={n} negate x{i}"
                    );
                }
                for i in 0..n {
                    for j in i + 1..n {
                        let mut perm: Vec<u8> = (0..n as u8).collect();
                        perm.swap(i, j);
                        let swap = NpnTransform::new(perm, 0, false);
                        assert_eq!(
                            swap_vars_packed(t0, i, j),
                            swap.permute_table(f.on()).as_words()[0],
                            "n={n} swap x{i} x{j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_canonicalization_is_invariant_over_the_npn_class() {
        let mut rng = DetRng::seed_from_u64(0xD15C0);
        for n in [3usize, 4, 5] {
            for case in 0..6 {
                let f = random_isf(&mut rng, n, case % 2 == 0);
                let canon = canonicalize(&f);
                assert_eq!(
                    CanonicalKey::from_isf(&canon.transform.apply_isf(&f)),
                    canon.key,
                    "n={n}: the transform must reach the key"
                );
                for _ in 0..10 {
                    let t = random_transform(&mut rng, n);
                    let g = t.apply_isf(&f);
                    let canon_g = canonicalize(&g);
                    assert_eq!(canon.key, canon_g.key, "n={n} case={case}");
                }
            }
        }
    }

    #[test]
    fn greedy_canonicalization_is_invariant_for_random_functions() {
        let mut rng = DetRng::seed_from_u64(0x006E_EED5);
        for n in [7usize, 8] {
            for case in 0..4 {
                let f = random_isf(&mut rng, n, case % 2 == 0);
                let canon = canonicalize(&f);
                assert_eq!(
                    CanonicalKey::from_isf(&canon.transform.apply_isf(&f)),
                    canon.key,
                    "n={n}: the transform must reach the key"
                );
                for _ in 0..6 {
                    let t = random_transform(&mut rng, n);
                    let g = t.apply_isf(&f);
                    assert_eq!(canonicalize(&g).key, canon.key, "n={n} case={case}");
                }
            }
        }
    }

    #[test]
    fn canonical_key_distinguishes_inequivalent_functions() {
        // x0 & x1 vs x0 ⊕ x1 are not NPN-equivalent: their {|on|, |off|}
        // multisets differ ({2, 6} vs {4, 4}), which every NPN transform
        // preserves. (AND vs OR would NOT work here — De Morgan plus the
        // output complement puts them in the same class.)
        let and = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
        let xor = Isf::from_cover_str(3, &["10-", "01-"], &[]).unwrap();
        assert_ne!(canonicalize(&and).key, canonicalize(&xor).key);
        // And De Morgan in action: AND and OR share a class.
        let or = Isf::from_cover_str(3, &["1--", "-1-"], &[]).unwrap();
        assert_eq!(canonicalize(&and).key, canonicalize(&or).key);
        // ...but AND of complemented literals is equivalent to AND.
        let andc = Isf::from_cover_str(3, &["0-0"], &[]).unwrap();
        assert_eq!(canonicalize(&and).key, canonicalize(&andc).key);
    }

    #[test]
    fn map_op_complements_with_the_output() {
        let mut t = NpnTransform::identity(4);
        assert_eq!(t.map_op(BinaryOp::And), BinaryOp::And);
        t.output_neg = true;
        assert_eq!(t.map_op(BinaryOp::And), BinaryOp::Nand);
        assert_eq!(t.map_op(BinaryOp::Xnor), BinaryOp::Xor);
    }

    #[test]
    fn rewire_network_realizes_the_transformed_function() {
        let mut rng = DetRng::seed_from_u64(0x11E7);
        for _ in 0..6 {
            let n = 4;
            let f = random_isf(&mut rng, n, false);
            // Build a network for f from its minterm cover.
            let mut net = Network::new(n);
            let root = net.build_cover(&f.on().to_minterm_cover());
            net.add_output(root);
            let t = random_transform(&mut rng, n);
            let image = t.apply_isf(&f);
            let rewired = t.rewire_network(&net);
            for m in 0..(1u64 << n) {
                assert_eq!(rewired.eval(m)[0], image.on().get(m), "minterm {m} under {t:?}");
            }
        }
    }
}
