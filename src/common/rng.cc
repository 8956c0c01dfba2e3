#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace tomur {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

double
Rng::uniform()
{
    // 53 high-quality bits -> double in [0, 1).
    return ((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

void
Rng::badRange(const char *msg)
{
    panic(msg);
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spare_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    u2 = uniform();
    double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalFactor(double sigma)
{
    return std::exp(normal() * sigma);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

RngState
Rng::state() const
{
    RngState st;
    for (int i = 0; i < 4; ++i)
        st.s[i] = s_[i];
    st.hasSpare = hasSpare_;
    st.spare = spare_;
    return st;
}

void
Rng::setState(const RngState &st)
{
    for (int i = 0; i < 4; ++i)
        s_[i] = st.s[i];
    hasSpare_ = st.hasSpare;
    spare_ = st.spare;
}

} // namespace tomur
