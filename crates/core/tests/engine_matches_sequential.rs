//! Property-style checks (deterministic 256-case loops, matching the PR-1
//! convention) that the batch engine's allocation-free hot path is
//! bit-identical to the sequential [`bidecomp::full_quotient`] path for every
//! operator, that the scratch buffers can be reused across operators and
//! arities without bleeding state between jobs, and that the SAT oracle
//! accepts every job of a smoke sweep.

use benchmarks::{DetRng, Suite};
use bidecomp::engine::{seeded_divisor, sweep, EngineConfig};
use bidecomp::{
    full_quotient, quotient_sets, verify_decomposition, verify_maximal_flexibility, BinaryOp,
    Oracle, QuotientScratch, QuotientSets,
};
use boolfunc::{Isf, TruthTable};

/// A deterministic pseudo-random ISF over `num_vars` variables.
fn random_isf(num_vars: usize, rng: &mut DetRng) -> Isf {
    let dc = TruthTable::from_words(num_vars, || rng.next_u64());
    let on = TruthTable::from_words(num_vars, || rng.next_u64()).difference(&dc);
    Isf::new(on, dc).expect("on and dc are disjoint by construction")
}

#[test]
fn scratch_path_is_bit_identical_to_full_quotient_for_256_cases() {
    let mut rng = DetRng::seed_from_u64(0x0256);
    // One scratch + output pair reused across ALL cases, operators and
    // arities — exactly how an engine worker drives it.
    let mut scratch = QuotientScratch::new(0);
    let mut sets = QuotientSets::zero(0);
    for case in 0..256 {
        let num_vars = 3 + case % 5; // 3..=7: partial-word and 2-word tables
        if scratch.num_vars() != num_vars {
            scratch = QuotientScratch::new(num_vars);
            sets = QuotientSets::zero(num_vars);
        }
        let f = random_isf(num_vars, &mut rng);
        for op in BinaryOp::all() {
            let g = seeded_divisor(&f, op, rng.next_u64());

            // Sequential path: divisor validation + allocating quotient.
            let h = full_quotient(&f, &g, op)
                .unwrap_or_else(|e| panic!("case {case}, {op}: seeded divisor rejected: {e}"));

            // Engine path: reused scratch buffers.
            scratch.quotient_sets_into(&f, &g, op, &mut sets);

            assert_eq!(&sets.on, h.on(), "case {case}, {op}: on-sets differ");
            assert_eq!(&sets.dc, h.dc(), "case {case}, {op}: dc-sets differ");
            assert_eq!(sets.off, h.off(), "case {case}, {op}: off-sets differ");
            assert!(verify_decomposition(&f, &g, &h, op), "case {case}, {op}: lemmas");
            assert!(verify_maximal_flexibility(&f, &g, &h, op), "case {case}, {op}: corollaries");
        }
    }
}

#[test]
fn engine_report_matches_a_hand_rolled_sequential_sweep() {
    let suite = Suite::smoke();
    let config = EngineConfig { threads: 3, ..EngineConfig::default() };
    let report = sweep(&suite, &config);

    // Re-run every job sequentially through the public one-shot API and
    // compare the recorded statistics field by field.
    let mut job = 0;
    for (ii, inst) in suite.instances().iter().enumerate() {
        if inst.num_inputs() > config.max_inputs {
            continue;
        }
        for (oi, f) in inst.outputs().iter().take(config.max_outputs).enumerate() {
            for (ki, &op) in config.ops.iter().enumerate() {
                let g = seeded_divisor(f, op, config.job_seed(ii, oi, ki));
                let sets = quotient_sets(f, &g, op);
                let r = &report.jobs[job];
                assert_eq!(r.instance, inst.name(), "job {job}");
                assert_eq!((r.output, r.op), (oi, op), "job {job}");
                assert_eq!(r.on_minterms, sets.on.count_ones(), "job {job}: |h_on|");
                assert_eq!(r.dc_minterms, sets.dc.count_ones(), "job {job}: |h_dc|");
                assert_eq!(r.off_minterms, sets.off.count_ones(), "job {job}: |h_off|");
                let h = full_quotient(f, &g, op).expect("seeded divisor is valid");
                assert_eq!(
                    r.divisor_errors,
                    (&(f.on() ^ &g) & &f.care()).count_ones(),
                    "job {job}: divisor errors"
                );
                assert!(r.verified && verify_decomposition(f, &g, &h, op), "job {job}");
                assert!(r.maximal && verify_maximal_flexibility(f, &g, &h, op), "job {job}");
                // The third judge: the SAT oracle accepts every job the
                // engine reported as verified and maximal.
                assert!(Oracle::check(f, &g, &h, op).is_ok(), "job {job}: oracle rejected");
                job += 1;
            }
        }
    }
    assert_eq!(job, report.total_jobs(), "engine ran a different job set");
}
