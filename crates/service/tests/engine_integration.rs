//! The production cache on the server's path: `NpnCache` plugged into the
//! recursive synthesizer through `RecursiveSynthesizer::with_quotient_cache`
//! must leave every synthesis result bit-identical to an uncached
//! `sweep_synthesis` while actually serving hits.

use std::sync::Arc;

use benchmarks::Suite;
use bidecomp::engine::{sweep_synthesis, SynthesisConfig, SynthesisJobResult};
use bidecomp::RecursiveSynthesizer;
use service::NpnCache;

#[test]
fn synthesis_sweep_with_npn_cache_is_bit_identical() {
    let suite = Suite::smoke();
    let config = SynthesisConfig::default();
    let plain = sweep_synthesis(&suite, &config);
    let cache = Arc::new(NpnCache::new(4096, 8));
    let synthesizer =
        RecursiveSynthesizer::new(config.recursive.clone()).with_quotient_cache(cache.clone());
    // Replay the sweep's jobs in its (instance, output) order: once cold
    // (populating the cache), once warm (replaying from it).
    for pass in ["cold", "warm"] {
        let mut jobs = plain.jobs.iter();
        for (i, inst) in suite.instances().iter().enumerate() {
            if inst.num_inputs() > config.max_inputs {
                continue;
            }
            for (o, f) in inst.outputs().iter().take(config.max_outputs).enumerate() {
                let result = synthesizer
                    .synthesize_seeded(f, config.job_seed(i, o))
                    .expect("the default portfolio has no External entry");
                let cached = SynthesisJobResult {
                    instance: inst.name().to_string(),
                    output: o,
                    num_vars: f.num_vars(),
                    gates: result.gate_count(),
                    depth: result.tree.depth(),
                    branches: result.tree.num_branches(),
                    mapped_area: result.mapped_area,
                    flat_area: result.flat_area,
                    verified: result.verified,
                    nanos: 0,
                };
                let expected = jobs.next().expect("the sweep ran the same job set");
                assert_eq!(expected.semantic(), cached.semantic(), "{pass} cache run diverged");
            }
        }
        assert!(jobs.next().is_none(), "the sweep ran the same job set");
    }
    assert!(cache.stats().hits > 0, "recursion subproblems must hit across jobs");
}
