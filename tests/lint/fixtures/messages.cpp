// Fixture: ProbeMsg's field walker forgets ProbeMsg::checksum — the silent
// field drift the serialization-coverage rule exists to catch.
#include "messages.hpp"

template <class IO>
void wire(IO& io, WireRef<IO, ProbeMsg> msg) {
  io.var(msg.id);
  io.var(msg.payload);
}
