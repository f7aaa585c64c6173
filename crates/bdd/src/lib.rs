//! # bdd
//!
//! A from-scratch reduced ordered binary decision diagram (ROBDD) package,
//! playing the role that CUDD plays in the paper's original implementation:
//! the set operations of Table II (unions, intersections, differences and
//! symmetric differences of on/off/dc-sets) are carried out on BDDs when the
//! functions are too large for dense truth tables.
//!
//! Features:
//!
//! * **complement edges**: a handle tags its edge with a complement bit, the
//!   single terminal is the constant 1, every stored node keeps a regular
//!   then-edge (canonical form) — so [`BddManager::not`] is O(1) and a
//!   function shares all nodes with its complement,
//! * **dynamic variable ordering**: an in-place adjacent-level swap
//!   primitive ([`BddManager::swap_adjacent_levels`]), deterministic
//!   Rudell-style sifting ([`BddManager::sift`], plus [`BddManager::maybe_sift`]
//!   armed by [`BddManager::set_sift_threshold`]), and FORCE-style
//!   static-order seeding over cube covers ([`force_order`] +
//!   [`BddManager::set_order`]),
//! * **single-owner manager**: one [`BddManager`] per worker thread, so the
//!   hot paths take no locks; batch callers recycle it through
//!   [`BddManager::clear`] between jobs,
//! * per-variable open-addressed, power-of-two hash-consing unique subtables
//!   with strict ROBDD reduction invariants (tombstone-free backward-shift
//!   deletion, load-factor-driven rehash),
//! * specialized binary `apply` operations (`and`, `xor`, with `or`, `diff`,
//!   `nor`, `xnor` as free complement-edge rewrites) over a shared lossy
//!   operation cache, plus a memoized general [`BddManager::ite`] with
//!   complement-normalized keys, and the containment checks
//!   [`BddManager::is_subset`] / [`BddManager::is_disjoint`],
//! * a [`BddManager::clear`] lifecycle for batch reuse that keeps every
//!   table allocated,
//! * cache, unique-table and reordering statistics ([`CacheStats`]),
//! * model counting ([`BddManager::sat_count`]),
//! * conversion from [`boolfunc::TruthTable`] and [`boolfunc::Cover`], and
//!   back to a dense [`boolfunc::TruthTable`],
//! * Minato–Morreale irredundant SOP extraction ([`BddManager::isop`]).
//!
//! ```rust
//! use bdd::BddManager;
//!
//! let mut mgr = BddManager::new(3);
//! let x0 = mgr.variable(0);
//! let x1 = mgr.variable(1);
//! let x2 = mgr.variable(2);
//! let f = {
//!     let a = mgr.and(x0, x1);
//!     mgr.or(a, x2)
//! };
//! assert_eq!(mgr.sat_count(f), 5);
//! assert!(mgr.eval(f, 0b100));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod error;
mod isop;
mod manager;
mod order;

pub use error::BddError;
pub use manager::{Bdd, BddManager, CacheStats};
pub use order::force_order;
