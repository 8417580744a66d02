// Fixture: the allow() below once silenced a rand() call; the call was
// fixed but the suppression stayed behind. suppression-debt must flag
// the stale allow at its own line. Never compiled.

int cleanNow() {
  return 7;  // roia-lint: allow(determinism-taint) -- stale: the rand() here is long gone
}
