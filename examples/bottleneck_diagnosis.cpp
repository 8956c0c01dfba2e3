/**
 * @file
 * Bottleneck diagnosis: as traffic match density (MTBR) grows, a
 * regex-offloading NF's bottleneck migrates from the memory
 * subsystem to the regex accelerator (§7.5.2). Tomur's per-resource
 * breakdown pinpoints the shift without any hotspot profiling.
 */

#include <cstdio>

#include "nfs/registry.hh"
#include "tomur/lab.hh"
#include "usecases/diagnosis.hh"

using namespace tomur;
using namespace tomur::usecases;

int
main()
{
    core::Lab lab;

    auto defaults = traffic::TrafficProfile::defaults();
    auto nf = nfs::makeFlowMonitor(lab.dev);
    std::printf("Training Tomur model for %s...\n",
                nf->name().c_str());
    auto model = lab.trainer->train(*nf, defaults);

    // Fixed competitors: one memory hog (the bench with the highest
    // measured cache pressure), one regex user.
    const core::BenchLibrary::MemBenchEntry *mem =
        &lab.lib->memBenches().front();
    for (const auto &e : lab.lib->memBenches()) {
        if (e.config.wssBytes < 12.0 * 1024 * 1024)
            continue; // need real LLC displacement, not just rate
        if (e.level.counters.cacheAccessRate() >
            mem->level.counters.cacheAccessRate()) {
            mem = &e;
        }
    }
    const auto &rx =
        lab.lib->accelBench(hw::AccelKind::Regex, 100e3, 800.0);

    std::printf("\n%-8s %14s %14s %16s %16s\n", "MTBR",
                "throughput", "predicted", "truth bottleneck",
                "Tomur diagnosis");
    for (double mtbr = 0; mtbr <= 1100; mtbr += 100) {
        auto p =
            defaults.withAttribute(traffic::Attribute::Mtbr, mtbr);
        const auto &w = lab.trainer->workloadOf(*nf, p);
        auto ms = lab.bed.run(
            {w, mem->workload, mem->workload, rx.workload});
        double solo = lab.bed.runSolo(w).truthThroughput;
        auto breakdown = model.predictDetailed(
            {mem->level, mem->level, rx.level}, p, solo);
        std::printf("%-8.0f %11.1f Kpps %11.1f Kpps %16s %16s\n",
                    mtbr, ms[0].truthThroughput / 1e3,
                    breakdown.predicted / 1e3,
                    core::resourceName(truthBottleneck(ms[0])),
                    core::resourceName(tomurDiagnosis(breakdown)));
    }
    return 0;
}
