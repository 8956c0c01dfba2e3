/**
 * @file
 * exrex-style string synthesis: generate random strings that match a
 * pattern. Used by the traffic generator to hit a target
 * match-to-byte ratio (MTBR) in packet payloads, mirroring the
 * paper's use of exrex [15].
 */

#ifndef TOMUR_REGEX_GENERATOR_HH
#define TOMUR_REGEX_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "regex/ast.hh"

namespace tomur::regex {

/**
 * Generate one random string matching the given pattern.
 *
 * Negated/huge classes pick from printable members when possible so
 * output stays payload-like. Unbounded repeats draw at most 4 extra
 * iterations, and generation stops adding pieces once the string
 * reaches 256 bytes. The result is guaranteed to match the pattern
 * it was generated from (ignoring anchors).
 */
std::vector<std::uint8_t> generateMatch(const Pattern &pattern,
                                        Rng &rng);

/** Generate from a bare AST node. */
std::vector<std::uint8_t> generateMatch(const Node &node, Rng &rng);

} // namespace tomur::regex

#endif // TOMUR_REGEX_GENERATOR_HH
