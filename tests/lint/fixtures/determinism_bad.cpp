// Fixture: every banned determinism construct, one per line, at fixed
// line numbers the self-test asserts on. Never compiled.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

int unseededDraw() {
  std::mt19937 gen;
  return static_cast<int>(gen());
}

long wallClockNow() {
  auto now = std::chrono::system_clock::now();
  long stamp = time(nullptr);
  return std::chrono::duration_cast<std::chrono::seconds>(now.time_since_epoch()).count() + stamp;
}

int libcRandom() {
  return rand();
}

unsigned hardwareEntropy() {
  std::random_device dev;
  return dev();
}

// Outside every function body, and still reported.
static std::mt19937 fileScopeGen;
