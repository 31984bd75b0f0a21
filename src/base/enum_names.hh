/**
 * @file
 * One name table per enum: value <-> canonical name.
 *
 * An enum that has a text form declares, next to the enum itself,
 *
 *     inline constexpr EnumName<Color> kColorNames[] = {
 *         {Color::Red, "red"}, {Color::Blue, "blue"}};
 *     constexpr const auto &enumNames(Color) { return kColorNames; }
 *
 * and enumName()/enumFromName() find that table by argument-dependent
 * lookup. The same table therefore drives the printed name, the
 * spec text (harness/specio) and every parse of a name, so the two
 * directions cannot drift apart.
 */

#ifndef TW_BASE_ENUM_NAMES_HH
#define TW_BASE_ENUM_NAMES_HH

#include <string_view>

namespace tw
{

template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

/** The canonical name of @p value ("?" for a value outside its
 *  table). */
template <typename E>
const char *
enumName(E value)
{
    for (const EnumName<E> &e : enumNames(value)) {
        if (e.value == value)
            return e.name;
    }
    return "?";
}

/** The value whose canonical name is @p name; false (leaving @p out
 *  alone) for any other name. */
template <typename E>
bool
enumFromName(std::string_view name, E &out)
{
    for (const EnumName<E> &e : enumNames(E{})) {
        if (name == e.name) {
            out = e.value;
            return true;
        }
    }
    return false;
}

} // namespace tw

#endif // TW_BASE_ENUM_NAMES_HH
