// Portable binary serialization primitives for snapshots and event logs.
//
// All multi-byte integers are little-endian regardless of host order, so a
// snapshot written on one machine restores bit-identically on another.
// BinaryWriter appends to an in-memory buffer; BinaryReader consumes a view
// and throws std::runtime_error with an offset on any truncated read —
// corrupt input must never yield a partially-constructed object.
//
// File helpers: read_file_bytes slurps a whole file (diagnostic errors),
// write_file_atomic stages to `path.tmp` and renames into place so readers
// (and crashes mid-write) never observe a half-written file.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace popbean {

// FNV-1a 64-bit hash — the checksum used by snapshot files and manifest
// lines. Not cryptographic; it detects truncation and bit rot.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t hash = kFnvOffsetBasis) noexcept {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { append_le(v, 2); }
  void u32(std::uint32_t v) { append_le(v, 4); }
  void u64(std::uint64_t v) { append_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);

  // Length-prefixed byte string.
  void str(std::string_view v) {
    u64(v.size());
    buffer_.append(v);
  }

  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (const std::uint64_t x : v) u64(x);
  }

  const std::string& bytes() const noexcept { return buffer_; }
  std::string take() noexcept { return std::move(buffer_); }

 private:
  void append_le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string buffer_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(read_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(read_le(4)); }
  std::uint64_t u64() { return read_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  std::vector<std::uint64_t> vec_u64();

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  std::string_view take(std::size_t count);
  std::uint64_t read_le(int width);

  std::string_view data_;
  std::size_t pos_ = 0;
};

// Reads a whole file in binary mode; throws std::runtime_error naming the
// path when the file is missing or the read fails.
std::string read_file_bytes(const std::string& path);

// Writes `bytes` to `path` atomically: stage into `path + ".tmp"`, flush,
// then rename over the destination. A crash mid-write leaves at worst a
// stale .tmp file, never a truncated `path`. A failed write or rename
// (ENOSPC, EFBIG, ...) throws std::runtime_error, removes the .tmp and
// leaves the previous `path` in place.
void write_file_atomic(const std::string& path, std::string_view bytes);

// As above, but `body` streams the content into the staged file, so a large
// document (a trace, an exposition) is never rendered into one string.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& body);

}  // namespace popbean
