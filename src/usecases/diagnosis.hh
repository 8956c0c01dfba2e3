/**
 * @file
 * Performance diagnosis (§7.5.2): identify which resource bottlenecks
 * an NF under contention as traffic shifts. Ground truth comes from
 * hotspot analysis (here: the testbed's noise-free internals, the
 * stand-in for perf-tools); Tomur diagnoses from its per-resource
 * predictions, SLOMO can only ever point at memory.
 */

#ifndef TOMUR_USECASES_DIAGNOSIS_HH
#define TOMUR_USECASES_DIAGNOSIS_HH

#include <string>
#include <vector>

#include "sim/testbed.hh"
#include "tomur/attribution.hh"
#include "tomur/predictor.hh"

namespace tomur::usecases {

/** Ground-truth resource from a testbed measurement. */
core::Resource truthBottleneck(const sim::Measurement &m);

/**
 * Tomur's diagnosis: the top-ranked resource of a prediction's
 * contention attribution.
 */
core::Resource tomurDiagnosis(const core::ContentionAttribution &a);

/** Convenience overload: attribute the breakdown, then diagnose. */
core::Resource tomurDiagnosis(const core::PredictionBreakdown &breakdown);

/** One diagnosis trial outcome. */
struct DiagnosisTrial
{
    double mtbr = 0.0;
    core::Resource truth = core::Resource::Memory;
    core::Resource tomur = core::Resource::Memory;
    core::Resource slomo = core::Resource::Memory; ///< always Memory
    /** Carried over from the prediction's attribution: a diagnosis
     *  made on a degraded fallback path is flagged so scoring can
     *  discount it instead of counting a guess as a verdict. */
    bool degraded = false;
    double confidence = 1.0;
};

/**
 * Build a trial from the prediction's contention attribution (the
 * one place Tomur's verdict, its confidence, and the degraded flag
 * are read off a prediction).
 */
DiagnosisTrial makeTrial(double mtbr, core::Resource truth,
                         const core::ContentionAttribution &a);

/** Correctness percentages over a set of trials. */
struct DiagnosisScore
{
    double tomurCorrectPct = 0.0;
    double slomoCorrectPct = 0.0;
    std::size_t trials = 0;
    /** Trials excluded because their prediction confidence fell
     *  below the minConfidence given to scoreTrials(). */
    std::size_t skippedLowConfidence = 0;
};

/**
 * Score a batch of trials. Trials whose prediction confidence is
 * below min_confidence are excluded from the percentages (counted in
 * skippedLowConfidence); the default 0.0 keeps every trial, matching
 * the pre-robustness behaviour.
 */
DiagnosisScore scoreTrials(const std::vector<DiagnosisTrial> &trials,
                           double min_confidence = 0.0);

} // namespace tomur::usecases

#endif // TOMUR_USECASES_DIAGNOSIS_HH
