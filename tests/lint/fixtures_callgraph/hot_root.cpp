// Fixture: the hot root is allocation-free itself, so its own body yields
// nothing; the allocation hides two calls deep in a different TU
// (chain_helpers.cpp), where only the call graph can connect it to this
// root. Never compiled.
#include "chain_helpers.hpp"

// roia-hot
int hotRoot(int n) {
  return midHelper(n) + 1;
}
