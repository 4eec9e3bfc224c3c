#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <random>

#include <sys/resource.h>

namespace perfbench
{

double
wallNow()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(clk::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
seededShuffle(std::vector<std::string> *items, uint64_t seed)
{
    // Fisher-Yates over mt19937_64 draws (not std::shuffle, whose
    // algorithm the standard leaves to the library), so a seed means the
    // same order under every toolchain.
    std::mt19937_64 rng(seed);
    for (size_t i = items->size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(rng() % i);
        std::swap((*items)[i - 1], (*items)[j]);
    }
}

std::string
format(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace perfbench
