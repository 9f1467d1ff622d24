#include "util/binary_io.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace popbean {

namespace {

[[noreturn]] void read_fail(std::size_t at, std::size_t want, std::size_t have) {
  std::ostringstream os;
  os << "binary read past end: need " << want << " byte(s) at offset " << at
     << ", only " << have << " remain (truncated or corrupt input)";
  throw std::runtime_error(os.str());
}

}  // namespace

void BinaryWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double BinaryReader::f64() { return std::bit_cast<double>(u64()); }

std::string_view BinaryReader::take(std::size_t count) {
  if (count > remaining()) read_fail(pos_, count, remaining());
  const std::string_view view = data_.substr(pos_, count);
  pos_ += count;
  return view;
}

std::uint64_t BinaryReader::read_le(int width) {
  const std::string_view bytes = take(static_cast<std::size_t>(width));
  std::uint64_t v = 0;
  for (int i = width - 1; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[static_cast<std::size_t>(i)]);
  }
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t size = u64();
  if (size > remaining()) read_fail(pos_, size, remaining());
  return std::string(take(size));
}

std::vector<std::uint64_t> BinaryReader::vec_u64() {
  const std::uint64_t size = u64();
  // Each element is 8 bytes; reject sizes the remaining payload cannot hold
  // before allocating.
  if (size > remaining() / 8) read_fail(pos_, size * 8, remaining());
  std::vector<std::uint64_t> v(size);
  for (std::uint64_t& x : v) x = u64();
  return v;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path + " for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw std::runtime_error("read error on " + path);
  return std::move(buffer).str();
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  write_file_atomic(path, [bytes](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open " + tmp + " for writing");
    body(out);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("write error on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

}  // namespace popbean
