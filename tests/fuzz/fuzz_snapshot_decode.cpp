// Fuzz harness for the decode paths: BaselineReceiver::decodeView
// (delta/keyframe view payloads), SnapshotCodec::readSnapshot (the full
// codec's entity stream), the bots' state-update ids decoder
// (game::decodeVisibleIds) and every frame decoder the server and the
// monitoring collector run (rtf::decode*, rtf::decodeMonitoring). The
// contract under test: for ARBITRARY bytes the decoders either succeed,
// return nullopt (inapplicable frame), or throw ser::DecodeError — never
// undefined behaviour, unbounded allocation driven past the input size, or
// a crash.
//
// The first input byte selects the decode mode; the rest is the payload:
//   mode 0    one view payload into a fresh BaselineReceiver
//   mode 1    a stream of full-codec snapshots via ByteReader
//   mode 2    the payload split in two, fed through ONE receiver
//             (exercises the baseline-lookup state machine: a frame
//             decoded after another frame sees retained baselines); a
//             decode that leaves a live view older than max(newest - W,
//             the newest baseline named) aborts
//   mode 3    the payload as a state update, through the ids decoder and
//             the full decoder; the two must reject the same inputs and
//             read the same ids from the rest (a mismatch aborts)
//   mode 4+   the payload as one frame for row mode - 4 of the golden frame
//             table (tests/wire_samples.hpp): its real decoder, then its
//             encoder on whatever the decoder accepted
// where mode = data[0] % kModes.
//
// Build shapes (tests/fuzz/CMakeLists.txt, behind -DROIA_FUZZ=ON):
//   * Clang: linked against libFuzzer (-fsanitize=fuzzer); the usual
//     `fuzz_snapshot_decode CORPUS_DIR -max_total_time=30` drives it.
//   * Other compilers (the CI image ships g++): a standalone driver with
//     the same entry point —
//       fuzz_snapshot_decode --write-corpus DIR    seed DIR with golden
//                                                  encodes of every mode
//       fuzz_snapshot_decode --mutate SECONDS [DIR] deterministic xorshift
//                                                  mutation loop over the
//                                                  corpus (built-in seeds
//                                                  when DIR is omitted)
//       fuzz_snapshot_decode FILE...               replay crash inputs
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "../wire_samples.hpp"
#include "game/state_update.hpp"
#include "rtf/entity.hpp"
#include "rtf/snapshot_codec.hpp"
#include "serialize/byte_buffer.hpp"

namespace {

using roia::wire_samples::kFrameSamples;

constexpr std::size_t kIdsMode = 3;
constexpr std::size_t kFrameModes = 4;
constexpr std::size_t kModes = kFrameModes + std::size(kFrameSamples);

const roia::rtf::SnapshotCodec& deltaCodec() {
  static const roia::rtf::SnapshotCodec codec = [] {
    roia::rtf::ReplicationProfile profile;
    profile.codec = roia::rtf::ReplicationCodec::kDelta;
    return roia::rtf::SnapshotCodec{profile};
  }();
  return codec;
}

/// Returns whether the payload decoded to a view.
bool decodeOneView(roia::rtf::BaselineReceiver& receiver,
                   std::span<const std::uint8_t> payload) {
  try {
    auto decoded = receiver.decodeView(payload);
    if (!decoded) return false;
    // Touch the reconstructed view so the optimizer cannot elide it and
    // sanitizers see every byte the decoder produced.
    volatile std::size_t entities = decoded->view.size();
    (void)entities;
    return true;
  } catch (const roia::ser::DecodeError&) {
    // Expected terminal state for malformed bytes.
    return false;
  }
}

/// Aborts unless every view the receiver holds live after `payload`
/// decoded is at least max(newest - W, named): no later frame can name an
/// older one. `named`, the newest baseline tick a decoded frame has named,
/// is first updated from the payload's header.
void checkRetention(const roia::rtf::BaselineReceiver& receiver,
                    std::span<const std::uint8_t> payload, std::uint64_t& named) {
  roia::ser::ByteReader header{payload};
  if ((header.readU8() & 1u) == 0) {
    (void)header.readVarU64();
    named = std::max(named, header.readVarU64());
  }
  const std::uint64_t newest = receiver.latestTick();
  const std::uint64_t window = deltaCodec().profile().baselineAckWindow;
  const std::uint64_t oldest = std::max(newest - std::min(newest, window), named);
  for (const roia::rtf::RetainedView& slot : receiver.retained()) {
    if (slot.live && slot.tick < oldest) std::abort();
  }
}

/// The ids decoder against the full decoder: same verdict, same ids.
void decodeIds(std::span<const std::uint8_t> payload) {
  std::optional<roia::game::StateUpdatePayload> full;
  try {
    full = roia::game::decodeStateUpdate(payload);
  } catch (const roia::ser::DecodeError&) {
  }
  std::vector<roia::EntityId> ids;
  try {
    roia::game::decodeVisibleIds(payload, ids);
  } catch (const roia::ser::DecodeError&) {
    if (full) std::abort();  // rejected what the full decoder accepts
    return;
  }
  if (!full || ids.size() != full->visible.size()) std::abort();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != full->visible[i].id) std::abort();
  }
}

void fuzzOne(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  const std::size_t mode = data[0] % kModes;
  const std::span<const std::uint8_t> payload{data + 1, size - 1};
  if (mode == kIdsMode) {
    decodeIds(payload);
    return;
  }
  if (mode >= kFrameModes) {
    const roia::wire_samples::FrameSample& row = kFrameSamples[mode - kFrameModes];
    try {
      (void)row.reencode(roia::ser::Frame{row.type, {payload.begin(), payload.end()}});
    } catch (const roia::ser::DecodeError&) {
    }
    return;
  }
  switch (mode) {
    case 0: {
      roia::rtf::BaselineReceiver receiver{deltaCodec()};
      decodeOneView(receiver, payload);
      break;
    }
    case 1: {
      roia::ser::ByteReader reader{payload};
      try {
        while (!reader.atEnd()) {
          volatile float health = roia::rtf::SnapshotCodec::readSnapshot(reader).health;
          (void)health;
        }
      } catch (const roia::ser::DecodeError&) {
      }
      break;
    }
    default: {
      // Split point from the payload itself so the fuzzer controls where
      // the cut lands; both halves go through the same receiver.
      if (payload.empty()) return;
      const std::size_t split = 1 + payload[0] % payload.size();
      roia::rtf::BaselineReceiver receiver{deltaCodec()};
      std::uint64_t named = 0;
      for (const auto frame : {payload.subspan(0, split), payload.subspan(split)}) {
        if (decodeOneView(receiver, frame)) checkRetention(receiver, frame, named);
      }
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  fuzzOne(data, size);
  return 0;
}

#if defined(ROIA_FUZZ_STANDALONE)
// Standalone driver used where libFuzzer is unavailable (g++ builds). Seeds
// come from real BaselineSender encodes so the mutation loop starts inside
// the interesting part of the input space rather than at random noise.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

roia::rtf::EntitySnapshot makeEntity(std::uint64_t id) {
  roia::rtf::EntitySnapshot s;
  s.id = roia::EntityId{id};
  s.kind = (id % 2 == 0) ? roia::rtf::EntityKind::kAvatar : roia::rtf::EntityKind::kNpc;
  s.owner = roia::ServerId{static_cast<std::uint32_t>(1 + id % 3)};
  s.client = roia::ClientId{static_cast<std::uint32_t>(100 + id)};
  s.x = 1.5f * static_cast<float>(id);
  s.y = -0.25f * static_cast<float>(id);
  s.vx = 0.125f;
  s.vy = -2.0f;
  s.health = 100.0f - static_cast<float>(id);
  s.version = 7 + id;
  s.appData = {static_cast<std::uint8_t>(id), 0xAB, 0xCD};
  return s;
}

/// Golden seed inputs: each is a mode byte plus a payload produced by the
/// real encoders, covering keyframe, delta-against-baseline, removals, the
/// client field mask, an empty view, a full-codec snapshot stream, the
/// golden state update, and each golden frame table row's sample.
std::vector<std::vector<std::uint8_t>> goldenSeeds() {
  std::vector<std::vector<std::uint8_t>> seeds;
  auto add = [&seeds](std::uint8_t mode, std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> input;
    input.reserve(payload.size() + 1);
    input.push_back(mode);
    input.insert(input.end(), payload.begin(), payload.end());
    seeds.push_back(std::move(input));
  };

  const auto& codec = deltaCodec();
  {
    roia::rtf::BaselineSender sender{codec, roia::rtf::kAllFields};
    roia::rtf::SnapshotView view;
    for (std::uint64_t id = 1; id <= 4; ++id) view.push_back(makeEntity(id));

    roia::ser::ByteWriter keyframe;
    sender.encodeView(1, view, {}, keyframe);
    add(0, keyframe.bytes());
    add(2, keyframe.bytes());

    sender.onAck(1);
    view[1].x += 5.0f;  // id 2
    view[1].health -= 12.5f;
    view.erase(view.begin() + 2);  // id 3
    const roia::EntityId removed[] = {roia::EntityId{3}};
    roia::ser::ByteWriter delta;
    sender.encodeView(2, view, removed, delta);
    add(0, delta.bytes());
    add(2, delta.bytes());

    // The keyframe, then the delta against it, through one receiver. Mode 2
    // cuts after 1 + payload[0] % size bytes and decodeView reads only bit
    // 0 of the flags byte, so an odd flags byte can cut between the frames.
    // Bytes after a frame are ignored, so one trailing zero can make an odd
    // flags byte reach the cut.
    std::vector<std::uint8_t> both(keyframe.bytes().begin(), keyframe.bytes().end());
    both.insert(both.end(), delta.bytes().begin(), delta.bytes().end());
    if ((keyframe.size() - 1) % 2 == 0 && both.size() % 2 == 0) both.push_back(0);
    for (std::size_t flags = 1; flags < 256; flags += 2) {
      if (1 + flags % both.size() == keyframe.size()) {
        both[0] = static_cast<std::uint8_t>(flags);
        add(2, both);
        break;
      }
    }
  }
  {
    roia::rtf::BaselineSender sender{codec, roia::rtf::kClientViewFields};
    const roia::rtf::SnapshotView view{makeEntity(9)};
    roia::ser::ByteWriter clientFrame;
    sender.encodeView(5, view, {}, clientFrame);
    add(0, clientFrame.bytes());
  }
  {
    roia::rtf::BaselineSender sender{codec, roia::rtf::kAllFields};
    roia::ser::ByteWriter empty;
    sender.encodeView(3, {}, {}, empty);
    add(0, empty.bytes());
  }
  {
    roia::ser::ByteWriter stream;
    for (std::uint64_t id = 1; id <= 3; ++id) {
      roia::rtf::SnapshotCodec::writeSnapshot(stream, makeEntity(id));
    }
    add(1, stream.bytes());
  }
  {
    std::vector<std::uint8_t> update;
    roia::game::encodeStateUpdate(roia::wire_samples::stateUpdate(), update);
    add(kIdsMode, update);
  }
  for (std::size_t i = 0; i < std::size(kFrameSamples); ++i) {
    add(static_cast<std::uint8_t>(kFrameModes + i), kFrameSamples[i].sample().payload);
  }
  return seeds;
}

int writeCorpus(const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "fuzz: cannot create corpus dir %s: %s\n", dir.string().c_str(),
                 ec.message().c_str());
    return 1;
  }
  const auto seeds = goldenSeeds();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "seed_%02zu.bin", i);
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(seeds[i].data()),
              static_cast<std::streamsize>(seeds[i].size()));
    if (!out) {
      std::fprintf(stderr, "fuzz: failed writing %s\n", (dir / name).string().c_str());
      return 1;
    }
  }
  std::printf("fuzz: wrote %zu seed inputs to %s\n", seeds.size(), dir.string().c_str());
  return 0;
}

std::vector<std::vector<std::uint8_t>> loadCorpus(const std::filesystem::path& dir) {
  std::vector<std::vector<std::uint8_t>> corpus;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return corpus;
}

/// Deterministic xorshift64* PRNG: the mutation sequence is reproducible
/// run-to-run, only the number of iterations depends on wall time.
struct XorShift {
  std::uint64_t state{0x9E3779B97F4A7C15ULL};
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
};

void mutate(XorShift& rng, std::vector<std::uint8_t>& input) {
  const std::uint64_t edits = 1 + rng.next() % 8;
  for (std::uint64_t i = 0; i < edits; ++i) {
    if (input.empty()) {
      input.push_back(static_cast<std::uint8_t>(rng.next()));
      continue;
    }
    switch (rng.next() % 4) {
      case 0:  // flip random bits of one byte
        input[rng.next() % input.size()] ^= static_cast<std::uint8_t>(rng.next());
        break;
      case 1:  // insert a byte
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(rng.next() % (input.size() + 1)),
                     static_cast<std::uint8_t>(rng.next()));
        break;
      case 2:  // erase a byte
        input.erase(input.begin() + static_cast<std::ptrdiff_t>(rng.next() % input.size()));
        break;
      default:  // truncate the tail
        input.resize(1 + rng.next() % input.size());
        break;
    }
  }
}

int mutateLoop(double seconds, const std::filesystem::path* corpusDir) {
  std::vector<std::vector<std::uint8_t>> corpus;
  if (corpusDir != nullptr) corpus = loadCorpus(*corpusDir);
  if (corpus.empty()) corpus = goldenSeeds();

  XorShift rng;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t executed = 0;
  std::vector<std::uint8_t> input;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
         seconds) {
    // Batch between clock reads: the harness should spend its budget in the
    // decoders, not in steady_clock.
    for (int i = 0; i < 256; ++i) {
      input = corpus[rng.next() % corpus.size()];
      mutate(rng, input);
      fuzzOne(input.data(), input.size());
      ++executed;
    }
  }
  std::printf("fuzz: %llu mutated inputs, 0 crashes\n",
              static_cast<unsigned long long>(executed));
  return 0;
}

int replayFiles(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fuzz: cannot open %s\n", argv[i]);
      return 1;
    }
    std::vector<std::uint8_t> input{std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()};
    fuzzOne(input.data(), input.size());
    std::printf("fuzz: replayed %s (%zu bytes) ok\n", argv[i], input.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--write-corpus") == 0) {
    return writeCorpus(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "--mutate") == 0) {
    const double seconds = std::stod(argv[2]);
    if (argc >= 4) {
      const std::filesystem::path dir = argv[3];
      return mutateLoop(seconds, &dir);
    }
    return mutateLoop(seconds, nullptr);
  }
  if (argc >= 2 && argv[1][0] != '-') {
    return replayFiles(argc, argv, 1);
  }
  std::fprintf(stderr,
               "usage: %s --write-corpus DIR | --mutate SECONDS [CORPUS_DIR] | FILE...\n",
               argv[0]);
  return 2;
}
#endif  // ROIA_FUZZ_STANDALONE
