// Fixture: a justified suppression silences the finding.
#include <cstdlib>

int fixtureNoise() {
  return rand();  // roia-lint: allow(determinism-taint) -- fixture: demonstrates a justified suppression
}
