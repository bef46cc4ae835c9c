/**
 * @file
 * The checked number parser behind every numeric flag of the command
 * line tools (sweep_main, dump_stats). A value is accepted only when
 * the whole argument is a plain decimal number of the flag's type in
 * [0, max]: no sign, no surrounding space, no trailing text, no
 * overflow, and for doubles nothing infinite or NaN. Callers print
 * their usage and exit 2 on a rejected value.
 */

#ifndef TRIPSIM_BENCH_CLI_HH
#define TRIPSIM_BENCH_CLI_HH

#include <charconv>
#include <cstring>
#include <limits>
#include <optional>

namespace trips::bench {

template <class T>
std::optional<T>
parseNumber(const char *s, T max = std::numeric_limits<T>::max())
{
    const char *end = s + std::strlen(s);
    T v{};
    auto [stop, ec] = std::from_chars(s, end, v);
    if (ec != std::errc{} || stop != end || !(v >= T{}) || v > max)
        return std::nullopt;
    return v;
}

} // namespace trips::bench

#endif // TRIPSIM_BENCH_CLI_HH
