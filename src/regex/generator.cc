#include "regex/generator.hh"

#include "common/logging.hh"

namespace tomur::regex {

namespace {

/** Extra repeats drawn beyond repeatMin for unbounded repeats. */
constexpr std::uint64_t kMaxExtraRepeats = 4;
/** Length at which generation stops adding pieces. */
constexpr std::size_t kMaxLen = 256;

/** Pick a byte from a set, preferring printable members. */
std::uint8_t
pickByte(const ByteSet &set, Rng &rng)
{
    static const ByteSet kPrintable = printableSet();
    ByteSet printable = set & kPrintable;
    const ByteSet &pool = printable.any() ? printable : set;
    std::size_t n = pool.count();
    if (n == 0)
        panic("generateMatch: empty byte class");
    std::size_t k = rng.uniformInt(static_cast<std::uint64_t>(n));
    for (int b = 0; b < 256; ++b) {
        if (pool.test(b)) {
            if (k == 0)
                return static_cast<std::uint8_t>(b);
            --k;
        }
    }
    panic("generateMatch: pickByte fell through");
}

void
gen(const Node &n, Rng &rng, std::vector<std::uint8_t> &out)
{
    if (out.size() >= kMaxLen)
        return;
    switch (n.kind) {
      case NodeKind::Empty:
        return;
      case NodeKind::ByteClass:
        out.push_back(pickByte(n.bytes, rng));
        return;
      case NodeKind::Concat:
        for (const auto &c : n.children)
            gen(*c, rng, out);
        return;
      case NodeKind::Alternate: {
        std::size_t i = rng.uniformInt(
            static_cast<std::uint64_t>(n.children.size()));
        gen(*n.children[i], rng, out);
        return;
      }
      case NodeKind::Repeat: {
        int count;
        if (n.repeatMax < 0) {
            count = n.repeatMin +
                    static_cast<int>(rng.uniformInt(kMaxExtraRepeats + 1));
        } else {
            count = static_cast<int>(
                rng.uniformInt(n.repeatMin, n.repeatMax));
        }
        for (int i = 0; i < count; ++i)
            gen(*n.children[0], rng, out);
        return;
      }
    }
}

} // namespace

std::vector<std::uint8_t>
generateMatch(const Node &node, Rng &rng)
{
    std::vector<std::uint8_t> out;
    gen(node, rng, out);
    return out;
}

std::vector<std::uint8_t>
generateMatch(const Pattern &pattern, Rng &rng)
{
    if (!pattern.root)
        panic("generateMatch: pattern without AST");
    return generateMatch(*pattern.root, rng);
}

} // namespace tomur::regex
