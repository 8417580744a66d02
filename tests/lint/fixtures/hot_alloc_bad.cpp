// Fixture: allocations inside a function annotated as a hot path.
#include <string>
#include <vector>

// roia-hot
int hotSum(const int* values, int count) {
  std::vector<int> copy(values, values + count);
  std::string label = std::to_string(count);
  int* scratch = new int[4];  // roia-lint: allow(hot-path-alloc) -- retired rule name: silences nothing
  int total = scratch[0] + static_cast<int>(label.size());
  for (int v : copy) total += v;
  delete[] scratch;
  return total;
}

// A hot annotation on a bare declaration has no body to check, so it is
// itself a finding rather than a silently disabled check.
// roia-hot
int hotDeclaredOnly(int count);
