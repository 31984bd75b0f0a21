/**
 * @file
 * Field lists: one function per config struct that names every
 * serialized member once, for visitors to drive in either direction.
 *
 * A field list is a function template
 *
 *     template <typename V, typename S>
 *         requires FieldsOf<S, Foo>
 *     void fields(V &v, S &foo)
 *     {
 *         v("name", foo.name);
 *         v("lines", foo.lineCount);
 *     }
 *
 * where S is Foo or const Foo, so the same list serves a visitor
 * that writes the struct out and one that fills it in. The order of
 * the calls is the canonical order. Besides v(name, member) a list
 * may use whatever else its visitors offer (specio's offer a
 * version stamp and optional blocks); see harness/specio.cc.
 */

#ifndef TW_BASE_FIELDS_HH
#define TW_BASE_FIELDS_HH

#include <concepts>
#include <type_traits>

namespace tw
{

/** S is T, possibly const: the parameter type of T's field list. */
template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

} // namespace tw

#endif // TW_BASE_FIELDS_HH
