// Versioned, checksummed recovery files (DESIGN.md §7).
//
// Replay captures (recovery/event_log.hpp: a capture header and an event
// log) travel in one container:
//
//   "PBSN" | version u32 | kind str | payload str | fnv1a64(kind ⊕ payload)
//
// The `kind` string tags what the payload is ("replay/initial",
// "replay/log"), so a header loaded as a log fails loudly instead of
// deserializing garbage. Files are written via write_file_atomic (stage +
// rename), so a crash mid-save never clobbers the previous file, and the
// trailing checksum rejects truncation and bit rot on load. Engines have no
// serialized form: a run starts from its constructor's count vector, and a
// sweep resumes per finished cell (harness/checkpoint.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/binary_io.hpp"
#include "util/check.hpp"

namespace popbean::recovery {

inline constexpr std::string_view kSnapshotMagic = "PBSN";
// Governs the capture payloads only, the container's sole contents; bump it
// when their layout changes. A file is read only under the version it was
// written with.
inline constexpr std::uint32_t kSnapshotVersion = 3;

// Corrupt, truncated, or mismatched recovery input. Deliberately a distinct
// type: callers (the resume path, popbean-replay) treat a bad file as "start
// over / refuse", never as a crash.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
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

}  // namespace popbean::recovery
