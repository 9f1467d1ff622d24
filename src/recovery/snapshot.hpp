// Versioned, checksummed snapshot files (DESIGN.md §7).
//
// Every recovery artifact — engine snapshots, replay captures, event logs —
// travels in the same container:
//
//   "PBSN" | version u32 | kind str | payload str | fnv1a64(kind ⊕ payload)
//
// The `kind` string tags what the payload is ("engine/count",
// "replay/initial", …) so a snapshot restored into the wrong engine type
// fails loudly instead of deserializing garbage. Files are written via
// write_file_atomic (stage + rename), so a crash mid-save never clobbers the
// previous snapshot, and the trailing checksum rejects truncation and bit
// rot on load.
//
// Engine snapshots pair the engine's own mutable state with the *driver* rng
// (the generator the caller passes to step()): restoring both is what makes
// the resumed run bit-identical to the uninterrupted one. Construction
// inputs (protocol, initial counts, graph, fault/schedule models) are not
// serialized — restore into an engine constructed with identical arguments.
// Since v2 the payload leads with the protocol's identity string
// (population/protocol_identity.hpp: a registry name and/or a structural
// δ-table fingerprint), so restoring a snapshot into an engine running a
// *different* protocol — same engine type, same state count, different
// rules — is refused instead of silently resuming a corrupted run.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "population/protocol_identity.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean::recovery {

inline constexpr std::string_view kSnapshotMagic = "PBSN";
// v2: engine payloads gained the leading protocol-identity string.
// v3: engine/perturbed payloads dropped the wrapped engine and its mode byte.
inline constexpr std::uint32_t kSnapshotVersion = 3;

// Sentinel accepted on restore regardless of the live protocol — an escape
// hatch for payloads produced outside the save path (hand-written fixtures).
inline constexpr std::string_view kUnknownProtocolIdentity = "unknown";

// Corrupt, truncated, or mismatched snapshot input. Deliberately a distinct
// type: callers (the resume path, popbean-replay) treat a bad file as "start
// over / refuse", never as a crash.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

// An engine the snapshot layer can round-trip: a self-describing kind tag
// plus binary state hooks.
template <typename E>
concept SnapshotableEngine =
    requires(const E& engine, E& mutable_engine, BinaryWriter& out,
             BinaryReader& in) {
      { E::kSnapshotKind } -> std::convertible_to<std::string_view>;
      engine.save_state(out);
      mutable_engine.load_state(in);
      engine.protocol();  // identity-checked on restore
    };

inline std::string pack_blob(std::string_view kind, std::string_view payload) {
  BinaryWriter out;
  for (const char c : kSnapshotMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kSnapshotVersion);
  out.str(kind);
  out.str(payload);
  out.u64(fnv1a64(payload, fnv1a64(kind)));
  return out.take();
}

struct Blob {
  std::string kind;
  std::string payload;
};

inline Blob unpack_blob(std::string_view bytes, std::string_view source) {
  const auto fail = [&](const std::string& what) -> void {
    throw SnapshotError("snapshot " + std::string(source) + ": " + what);
  };
  try {
    BinaryReader in(bytes);
    std::array<char, 4> magic;
    for (char& c : magic) c = static_cast<char>(in.u8());
    if (std::string_view(magic.data(), magic.size()) != kSnapshotMagic) {
      fail("bad magic (not a popbean snapshot file)");
    }
    const std::uint32_t version = in.u32();
    if (version != kSnapshotVersion) {
      fail("unsupported version " + std::to_string(version) + " (this build "
           "reads version " + std::to_string(kSnapshotVersion) + ")");
    }
    Blob blob;
    blob.kind = in.str();
    blob.payload = in.str();
    const std::uint64_t declared = in.u64();
    const std::uint64_t actual = fnv1a64(blob.payload, fnv1a64(blob.kind));
    if (declared != actual) {
      fail("checksum mismatch (file is corrupt)");
    }
    if (!in.at_end()) fail("trailing bytes after checksum");
    return blob;
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    fail(e.what());  // BinaryReader truncation → SnapshotError
  }
  POPBEAN_CHECK_MSG(false, "unreachable");
  return {};
}

inline void save_blob_file(const std::string& path, std::string_view kind,
                           std::string_view payload) {
  write_file_atomic(path, pack_blob(kind, payload));
}

// Loads and validates a blob, additionally checking the kind tag.
inline std::string load_payload_file(const std::string& path,
                                     std::string_view expected_kind) {
  Blob blob = unpack_blob(read_file_bytes(path), path);
  if (blob.kind != expected_kind) {
    throw SnapshotError("snapshot " + path + ": kind is '" + blob.kind +
                        "', expected '" + std::string(expected_kind) + "'");
  }
  return std::move(blob.payload);
}

inline void write_rng(BinaryWriter& out, const Xoshiro256ss& rng) {
  for (const std::uint64_t w : rng.state_words()) out.u64(w);
}

inline void read_rng(BinaryReader& in, Xoshiro256ss& rng) {
  std::array<std::uint64_t, 4> words;
  for (std::uint64_t& w : words) w = in.u64();
  rng.set_state_words(words);
}

// Serializes engine + driver rng into a blob payload (no file). The payload
// leads with the engine's protocol identity so restore can refuse a
// protocol/snapshot mismatch.
template <SnapshotableEngine E>
std::string snapshot_engine_bytes(const E& engine, const Xoshiro256ss& driver) {
  BinaryWriter out;
  out.str(protocol_identity(engine.protocol()));
  write_rng(out, driver);
  engine.save_state(out);
  return out.take();
}

// Restores engine + driver rng from a payload produced by
// snapshot_engine_bytes on an engine constructed with identical arguments.
// Throws SnapshotError if the embedded protocol identity does not match the
// live engine's (kUnknownProtocolIdentity is always accepted).
template <SnapshotableEngine E>
void restore_engine_bytes(std::string_view payload, E& engine,
                          Xoshiro256ss& driver) {
  try {
    BinaryReader in(payload);
    const std::string saved = in.str();
    const std::string live = protocol_identity(engine.protocol());
    if (saved != live && saved != kUnknownProtocolIdentity) {
      throw SnapshotError("protocol identity mismatch: snapshot was taken "
                          "with \"" + saved + "\" but the engine is running "
                          "\"" + live + "\"");
    }
    read_rng(in, driver);
    engine.load_state(in);
    if (!in.at_end()) {
      throw SnapshotError("snapshot payload has trailing bytes");
    }
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(std::string("engine snapshot: ") + e.what());
  }
}

// File-level convenience wrappers with atomic write-rename.
template <SnapshotableEngine E>
void save_engine_snapshot(const std::string& path, const E& engine,
                          const Xoshiro256ss& driver) {
  save_blob_file(path, E::kSnapshotKind, snapshot_engine_bytes(engine, driver));
}

template <SnapshotableEngine E>
void restore_engine_snapshot(const std::string& path, E& engine,
                             Xoshiro256ss& driver) {
  const std::string payload = load_payload_file(path, E::kSnapshotKind);
  restore_engine_bytes(payload, engine, driver);
}

}  // namespace popbean::recovery
