/**
 * @file
 * YCSB-style scrambled zipfian key generator.
 *
 * The classic Gray et al. rejection-free zipfian sampler over
 * [0, n), composed with a splitmix64 scramble so the popular items
 * are scattered across the key space instead of clustering at the
 * low keys (exactly what YCSB's ScrambledZipfianGenerator does).
 * Fully deterministic: equal (n, theta, rng stream) yield equal key
 * sequences on every platform.
 */

#ifndef PMEMSPEC_SERVICE_ZIPFIAN_HH
#define PMEMSPEC_SERVICE_ZIPFIAN_HH

#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pmemspec::service
{

/** Zipfian rank sampler over [0, n) with skew `theta` in (0, 1). */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99)
        : items(n), theta(theta)
    {
        fatal_if(n == 0, "zipfian over an empty item set");
        fatal_if(theta <= 0 || theta >= 1,
                 "zipfian theta must be in (0, 1)");
        zetan = zeta(n, theta);
        const double zeta2 = zeta(2, theta);
        alpha = 1.0 / (1.0 - theta);
        eta = (1.0 - std::pow(2.0 / static_cast<double>(n),
                              1.0 - theta)) /
              (1.0 - zeta2 / zetan);
    }

    /** Next zipfian *rank* (0 is the most popular item). */
    std::uint64_t
    nextRank(Rng &rng)
    {
        const double u = rng.uniform();
        const double uz = u * zetan;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta))
            return 1;
        const std::uint64_t r = static_cast<std::uint64_t>(
            static_cast<double>(items) *
            std::pow(eta * u - eta + 1.0, alpha));
        return r >= items ? items - 1 : r;
    }

    /** Next *scrambled* item in [0, n): rank hashed across the key
     *  space, YCSB ScrambledZipfian style. */
    std::uint64_t
    next(Rng &rng)
    {
        return scramble(nextRank(rng)) % items;
    }

    /** The stateless scramble (exposed for tests). */
    static std::uint64_t
    scramble(std::uint64_t v)
    {
        // splitmix64 finalizer: a bijective 64-bit mix.
        v += 0x9e3779b97f4a7c15ULL;
        v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
        v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
        return v ^ (v >> 31);
    }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        double sum = 0;
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        return sum;
    }

    std::uint64_t items;
    double theta;
    double zetan;
    double alpha;
    double eta;
};

} // namespace pmemspec::service

#endif // PMEMSPEC_SERVICE_ZIPFIAN_HH
