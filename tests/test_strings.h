#ifndef PSTORM_TESTS_TEST_STRINGS_H_
#define PSTORM_TESTS_TEST_STRINGS_H_

#include <string>
#include <string_view>

namespace pstorm {

/// `prefix` followed by the decimal digits of `n`, as in
/// `"k" + std::to_string(n)`, but built by appending: GCC 12's
/// libstdc++ trips a false -Wrestrict on `"literal" + std::string&&` in
/// optimized builds.
template <typename Int>
std::string Numbered(std::string_view prefix, Int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace pstorm

#endif  // PSTORM_TESTS_TEST_STRINGS_H_
