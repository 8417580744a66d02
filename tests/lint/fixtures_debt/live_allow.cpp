// Fixture: a justified suppression that still suppresses a live finding —
// it must appear in the debt table as live and must NOT be flagged as
// stale. Never compiled.
#include <cstdlib>

int fixtureNoise() {
  return rand();  // roia-lint: allow(determinism-taint) -- fixture: justified and still live
}
