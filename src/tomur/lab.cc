#include "tomur/lab.hh"

namespace tomur::core {

Lab::Lab(hw::NicConfig config, sim::TestbedOptions options)
    : rules(regex::defaultRuleSet()), dev(rules),
      bed(std::move(config), options), faulty(bed),
      lib(std::make_unique<BenchLibrary>(faulty, dev, rules)),
      trainer(std::make_unique<TomurTrainer>(*lib))
{
}

} // namespace tomur::core
