// Fixture: an allow() without a justification is itself a finding, and
// the original violation stays live.
#include <cstdlib>

int fixtureNoiseUnjustified() {
  return rand();  // roia-lint: allow(determinism-taint)
}
