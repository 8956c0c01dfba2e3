#include "usecases/diagnosis.hh"

namespace tomur::usecases {

using core::Resource;

Resource
truthBottleneck(const sim::Measurement &m)
{
    switch (m.bottleneck) {
      case sim::Bottleneck::Regex:
        return Resource::Regex;
      case sim::Bottleneck::Compression:
        return Resource::Compression;
      case sim::Bottleneck::Crypto:
        return Resource::Crypto;
      default:
        // CPU+memory (and the rare NIC/pacing cases) all present as
        // "not the accelerator" to an operator profiling hotspots.
        return Resource::Memory;
    }
}

Resource
tomurDiagnosis(const core::ContentionAttribution &a)
{
    return a.dominantResource;
}

Resource
tomurDiagnosis(const core::PredictionBreakdown &b)
{
    return tomurDiagnosis(core::attributeContention(b));
}

DiagnosisTrial
makeTrial(double mtbr, Resource truth,
          const core::ContentionAttribution &a)
{
    DiagnosisTrial t;
    t.mtbr = mtbr;
    t.truth = truth;
    t.tomur = tomurDiagnosis(a);
    t.slomo = Resource::Memory;
    t.degraded = a.degraded;
    t.confidence = a.confidence;
    return t;
}

DiagnosisScore
scoreTrials(const std::vector<DiagnosisTrial> &trials,
            double min_confidence)
{
    DiagnosisScore s;
    std::size_t tomur_ok = 0, slomo_ok = 0;
    for (const auto &t : trials) {
        if (t.confidence < min_confidence) {
            ++s.skippedLowConfidence;
            continue;
        }
        ++s.trials;
        tomur_ok += t.tomur == t.truth;
        slomo_ok += t.slomo == t.truth;
    }
    if (s.trials == 0)
        return s;
    s.tomurCorrectPct = 100.0 * tomur_ok / s.trials;
    s.slomoCorrectPct = 100.0 * slomo_ok / s.trials;
    return s;
}

} // namespace tomur::usecases
