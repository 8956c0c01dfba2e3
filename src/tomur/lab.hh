/**
 * @file
 * The lab: one NIC with its accelerator devices, a fault-injecting
 * measurement harness over it, the profiled bench library and a
 * trainer (the Appendix F workflow's one-time setup).
 *
 * Every entry point that trains (the CLI, the chaos world, the
 * experiment harnesses, the examples and the test fixtures) builds
 * its lab here, so a new device or testbed option is wired once.
 * The library is always profiled through `faulty`, which with no
 * faults set measures exactly what the bare `bed` would. A caller
 * that wants a faulty NIC sets `faulty`'s config after construction:
 * the mem-bench grid, profiled in the constructor, stays clean, while
 * accelerator benches, profiled on first use, see the faults set
 * then.
 */

#ifndef TOMUR_TOMUR_LAB_HH
#define TOMUR_TOMUR_LAB_HH

#include <memory>

#include "regex/ruleset.hh"
#include "sim/faults.hh"
#include "tomur/profiler.hh"

namespace tomur::core {

struct Lab
{
    /** Profiles the bench library's mem-bench grid, the bulk of a
     *  lab's cost: build one only where something trains or reads
     *  the library. */
    explicit Lab(hw::NicConfig config = hw::blueField2(),
                 sim::TestbedOptions options = {});

    regex::RuleSet rules;
    framework::DeviceSet dev;
    sim::Testbed bed;
    sim::FaultInjectingTestbed faulty;
    std::unique_ptr<BenchLibrary> lib;
    std::unique_ptr<TomurTrainer> trainer;
};

} // namespace tomur::core

#endif // TOMUR_TOMUR_LAB_HH
