// Warnings from the simulator (a crash declared, a pool exhausted, a frame
// dropped): one `[WARN] component: message` line on stderr. The writer
// holds no state, so any sweep thread may call it.
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace roia {

/// Streams `parts` into one line and writes it with a single call:
/// logWarn("rms", "server ", id, " declared dead").
template <class... Parts>
void logWarn(std::string_view component, const Parts&... parts) {
  std::ostringstream line;
  line << "[WARN] " << component << ": ";
  (line << ... << parts);
  line << '\n';
  const std::string text = line.str();
  std::fputs(text.c_str(), stderr);
}

}  // namespace roia
