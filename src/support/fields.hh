/**
 * @file
 * One field list per result and config struct, and the walkers over it.
 *
 * Each result struct (IsaStats, CompileStats, UarchResult, ChipResult,
 * ...) and config struct (compiler::Options, UarchConfig, CacheConfig,
 * ...) names its members once, in a function template beside it:
 *
 *   template <FieldsOf<IsaStats> S, class V>
 *   void
 *   forEachField(S &s, V &&v)
 *   {
 *       v("blocks", s.blocks);
 *       ...
 *   }
 *
 * S is the struct or its const, so one list serves readers and
 * writers. A member is a leaf (bool, u32, u64, i64, double), a struct
 * with its own list, or a C array / std::array / std::vector of those.
 * The list order is the byte order of the campaign record, the
 * checkpoint and the campaign cache key (sim::putFields /
 * sim::getFields, sim/serial.hh).
 */

#ifndef TRIPSIM_SUPPORT_FIELDS_HH
#define TRIPSIM_SUPPORT_FIELDS_HH

#include <concepts>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace trips {

/** @p S is @p T or const @p T: the constraint on T's forEachField. */
template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

namespace fields_detail {

struct IgnoreField
{
    template <class M>
    void operator()(const char *, M &) const {}
};

} // namespace fields_detail

/** @p T has a forEachField list (found by argument-dependent lookup). */
template <class T>
concept HasFields = requires(T &t) {
    forEachField(t, fields_detail::IgnoreField{});
};

/** A C array, std::array or std::vector member. */
template <class T>
concept Sequence = std::is_array_v<T> || requires(T &t) {
    std::size(t);
    t[0];
};

/**
 * Call @p f(name, ma, mb) on each member @p ma of @p a listed by its
 * forEachField and the same member @p mb of @p b, in list order. @p a
 * and @p b are objects of one type; either may be const.
 */
template <class A, class B, class F>
    requires std::same_as<std::remove_const_t<A>, std::remove_const_t<B>>
void
zipFields(A &a, B &b, F &&f)
{
    // Both walks visit the same member types in the same order, so
    // b's i-th member has the type of a's i-th member.
    using Ptr = std::conditional_t<std::is_const_v<B>, const void *, void *>;
    std::vector<Ptr> bs;
    forEachField(b, [&bs](const char *, auto &m) { bs.push_back(&m); });
    std::size_t i = 0;
    forEachField(a, [&](const char *name, auto &m) {
        using M = std::remove_cvref_t<decltype(m)>;
        using MB = std::conditional_t<std::is_const_v<B>, const M, M>;
        f(name, m, *static_cast<MB *>(bs[i++]));
    });
}

namespace fields_detail {

template <class T>
std::string
diff(const T &a, const T &b, const std::string &path)
{
    if constexpr (HasFields<T>) {
        std::string out;
        zipFields(a, b, [&](const char *name, const auto &ma,
                            const auto &mb) {
            if (out.empty())
                out = diff(ma, mb, path.empty() ? name : path + "." + name);
        });
        return out;
    } else if constexpr (Sequence<T>) {
        if (std::size(a) != std::size(b))
            return path + ": " + std::to_string(std::size(a)) + " vs " +
                   std::to_string(std::size(b)) + " entries";
        for (std::size_t i = 0; i < std::size(a); ++i) {
            std::string d =
                diff(a[i], b[i], path + "[" + std::to_string(i) + "]");
            if (!d.empty())
                return d;
        }
        return "";
    } else {
        static_assert(std::is_arithmetic_v<T>, "field type has no walk");
        if (a == b)
            return "";
        std::ostringstream os;
        os << std::setprecision(17) << std::boolalpha << path << ": " << a
           << " vs " << b;
        return os.str();
    }
}

} // namespace fields_detail

/**
 * "" when @p a == @p b, else the path and values of the first leaf
 * (in forEachField order) that differs, e.g.
 * "uarch.opnHops[3].count[2]: 17 vs 18". When operator== differs but
 * every listed leaf matches, says that an unlisted member differs.
 */
template <HasFields T>
std::string
firstDifference(const T &a, const T &b)
{
    if (a == b)
        return "";
    std::string d = fields_detail::diff(a, b, "");
    return d.empty() ? "a field outside forEachField differs" : d;
}

/**
 * Add every listed numeric leaf of @p src into the same leaf of
 * @p dst (counter merge). Sequences must be fixed-length arrays.
 */
template <class T>
void
addFields(T &dst, const T &src)
{
    if constexpr (HasFields<T>) {
        zipFields(dst, src, [](const char *, auto &d, const auto &s) {
            addFields(d, s);
        });
    } else if constexpr (Sequence<T>) {
        static_assert(!requires { dst.resize(0); },
                      "addFields: a vector has no fixed length");
        for (std::size_t i = 0; i < std::size(dst); ++i)
            addFields(dst[i], src[i]);
    } else {
        static_assert(std::is_arithmetic_v<T> && !std::same_as<T, bool>,
                      "addFields: leaf is not a counter");
        dst += src;
    }
}

} // namespace trips

#endif // TRIPSIM_SUPPORT_FIELDS_HH
