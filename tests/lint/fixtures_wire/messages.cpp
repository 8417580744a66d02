// Fixture: one field walker per struct in messages.hpp, each naming every
// field, so the serialization-coverage rule stays quiet and only the
// manifest drift findings fire. Never compiled.
#include "messages.hpp"

template <class IO>
void wire(IO& io, WireRef<IO, PingMsg> msg) {
  io.var(msg.id);
  io.var(msg.sentAt);
}

template <class IO>
void wire(IO& io, WireRef<IO, PongMsg> msg) {
  io.var(msg.id);
  io.u32(msg.status);
}

template <class IO>
void wire(IO& io, WireRef<IO, NewMsg> msg) {
  io.u32(msg.token);
}
