//! Regression tests for the cost model's crypto-bearing-plan pricing.
//!
//! Before `effective_encrypt_rows` was fixed to price *pre*-selection
//! input rows, the model credited an `Encrypt` below same-subject
//! selections with the post-selection cardinality — work the engine
//! never skips. The visible symptom sat in `CALIBRATION.json`: the
//! UAPmix CostDp plans for q3/q6/q12 carried real crypto operators
//! (measured up to 6.5× slower than the all-at-user plan) yet priced
//! *identically* to it — `"decisive": false` pairs whose tie hid a
//! genuine modeling error. The credit is now gated on the engine's
//! actual footnote-2 fusion (`mpq_exec::engine::fused_encrypt_child`
//! plus the same assignee, which puts the Select and its Encrypt in
//! one runtime segment), so the lower price only applies to plans the engine
//! really reorders, and the CostDp-vs-all-at-user pairs stay *honest*
//! ties: equal model cost only when the two plans are
//! crypto-equivalent (and measurement agrees they tie). These tests
//! pin the invariant behind that — a
//! model tie must never hide crypto content — and the gap that must
//! remain: a genuinely crypto-bearing plan (providers-pinned under
//! UAPenc) prices decisively above the crypto-free all-at-user plan.

use mpq_algebra::Operator;
use mpq_bench::calibrate::{pinned_plan, CalibrateConfig, RankPoint};
use mpq_core::capability::CapabilityPolicy;
use mpq_planner::stats::{collect_stats, SampleConfig};
use mpq_planner::{build_scenario, optimize, Optimized, Scenario, Strategy};
use mpq_tpch::{generate, query_plan};

/// Number of Encrypt/Decrypt operators in an optimized plan.
fn crypto_nodes(opt: &Optimized) -> usize {
    opt.extended
        .plan
        .postorder()
        .iter()
        .filter(|id| {
            matches!(
                opt.extended.plan.node(**id).op,
                Operator::Encrypt { .. } | Operator::Decrypt { .. }
            )
        })
        .count()
}

fn rank_point(q: usize, dp: &Optimized, user: &Optimized) -> RankPoint {
    RankPoint {
        query: format!("q{q}"),
        plan_a: "dp".into(),
        plan_b: "user".into(),
        model_a_secs: dp.cost.cpu_secs,
        model_b_secs: user.cost.cpu_secs,
        // Model-side property: no measurement involved.
        measured_a_secs: 0.0,
        measured_b_secs: 0.0,
    }
}

/// The `CALIBRATION.json` ranking pairs, model side: whenever the
/// model calls CostDp and all-at-user a tie, the two plans must be
/// crypto-equivalent — a tie is only vacuous when there is truly
/// nothing to separate. Under the old post-selection credit this
/// failed for every UAPmix query here: the DP plan carried
/// Encrypt/Decrypt operators whose work was credited away, tying the
/// model while measurement diverged by up to 6.5×.
#[test]
fn model_ties_never_hide_crypto_content() {
    let cfg = CalibrateConfig::default();
    let (cat, db) = generate(cfg.sf, cfg.seed);
    let stats = collect_stats(&cat, &db, &SampleConfig::default());
    for scenario in [Scenario::UAPenc, Scenario::UAPmix] {
        let env = build_scenario(&cat, scenario);
        for &q in &cfg.dist_queries {
            let plan = query_plan(&cat, q);
            let Ok(dp) = optimize(
                &plan,
                &cat,
                &stats,
                &env,
                &CapabilityPolicy::tpch_evaluation(),
                Strategy::CostDp,
            ) else {
                continue;
            };
            let user = pinned_plan(&plan, &cat, &stats, &env, false);
            let point = rank_point(q, &dp, &user);
            if !point.decisive() {
                assert_eq!(
                    crypto_nodes(&dp),
                    crypto_nodes(&user),
                    "{scenario:?} q{q}: model tie ({:.6} s vs {:.6} s) between plans with \
                     different crypto content — the encrypt-row underpricing is back",
                    point.model_a_secs,
                    point.model_b_secs,
                );
            }
        }
    }
}

/// The separation that must *remain* after the fix: pinning every
/// operation to providers under UAPenc forces a genuinely
/// crypto-bearing plan, and the model must price it decisively above
/// the crypto-free all-at-user plan (these are the `"decisive": true,
/// "agrees": true` pairs of `CALIBRATION.json`).
#[test]
fn provider_pinned_plans_price_decisively_above_all_at_user() {
    let cfg = CalibrateConfig::default();
    let (cat, db) = generate(cfg.sf, cfg.seed);
    let stats = collect_stats(&cat, &db, &SampleConfig::default());
    let env = build_scenario(&cat, Scenario::UAPenc);
    for &q in &cfg.dist_queries {
        let plan = query_plan(&cat, q);
        let providers = pinned_plan(&plan, &cat, &stats, &env, true);
        let user = pinned_plan(&plan, &cat, &stats, &env, false);
        assert!(
            crypto_nodes(&providers) > 0,
            "q{q}: provider pinning under UAPenc must force encryption"
        );
        let point = rank_point(q, &providers, &user);
        assert!(
            point.decisive() && point.model_a_secs > point.model_b_secs,
            "q{q}: crypto-bearing plan ({:.6} s) must price decisively above the \
             crypto-free one ({:.6} s)",
            point.model_a_secs,
            point.model_b_secs,
        );
    }
}
