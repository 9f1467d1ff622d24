// Versioned NDJSON request/response codec for the job service.
//
// Requests are one JSON object per line:
//
//   {"v": 2, "id": "job-7", "protocol": "avc", "n": 10000, "eps": 0.01,
//    "seed": 42, "max_interactions": 5000000, "replicates": 3,
//    "replicas": 3, "priority": "high", "deadline_ms": 2000,
//    "client": "alice", "m": 3, "d": 1}
//
// Only "v" and "id" are required; everything else defaults per JobSpec.
// Unknown fields are an error (a typo'd parameter must not silently run a
// default experiment — same stance as util/cli). Responses are emitted on
// util/json.hpp's writer, one line per terminal outcome (schema v2 adds
// the replication labels):
//
//   {"v": 2, "id": "job-7", "outcome": "done", "attempts": 1,
//    "degraded": false, "replicas_used": 3, "voted": true,
//    "quarantined": false, "divergent": 0, "queue_ms": 0.4, "run_ms": 83.1,
//    "trace_id": 16794093..., "shard": 2,
//    "result": {"replicates": 3, "converged": 3, "correct": 3, …}}
//
// The version field gates forward compatibility: this build speaks request
// versions kMinProtocolVersion..kProtocolVersion (v1 requests are a strict
// subset of v2 — "replicas" and the optional caller-supplied "trace_id" are
// the v2 additions, both defaulting off), and anything newer is rejected as
// invalid, never half-parsed. Responses are always emitted at
// kProtocolVersion; "trace_id" echoes the request-scoped trace minted by
// RequestReader (DESIGN.md §13) and "shard" names the router shard that
// served the job.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "serve/job.hpp"

namespace popbean::serve {

inline constexpr std::uint64_t kProtocolVersion = 2;
inline constexpr std::uint64_t kMinProtocolVersion = 1;

// A request line parses into either a JobSpec or a rejection message.
struct RequestError {
  std::string id;     // echoed when the id could still be extracted
  std::string error;  // human-readable reason
};

using ParsedRequest = std::variant<JobSpec, RequestError>;

// Parses one NDJSON request line. Never throws on malformed input — every
// defect is folded into RequestError so the caller can answer with an
// `invalid` response instead of dying on a bad client.
ParsedRequest parse_job_request(std::string_view line);

// Serializes a spec back to one v2 request line (no trailing '\n') that
// parse_job_request round-trips: fields at their JobSpec defaults are
// omitted, so a forwarded spec is accepted by any peer speaking v2. This
// is the remote-spill wire format (DESIGN.md §14) — the spec's trace_id
// rides along, which is how span trees stay causally linked across
// process boundaries; the origin token does NOT (it is meaningful only
// inside the process that minted it).
std::string job_request_line(const JobSpec& spec);

// Parses one response line (the inverse of write_job_response), for the
// remote-spill client and the TCP stress clients. Strict like the request
// parser: unknown fields, wrong types, and unsupported versions are
// errors — but an EMPTY id is accepted (unlike requests), because
// server-synthesized rejections attributable to no job legitimately ship
// with id "". Returns the error text via *error (when non-null), nullopt.
std::optional<JobResponse> parse_job_response(std::string_view line,
                                              std::string* error = nullptr);

// The first-use byte offset of every job id one connection has sent: an
// open-addressing table of 4-byte record positions over pages of records
// (offset, id length, id). Pages are never reallocated, so the ledger
// costs about 30 bytes an id with 10-byte ids, where a std::map node takes
// 80. It grows for the life of the connection, as the duplicate check
// requires.
class IdLedger {
 public:
  // The offset `id` was first recorded at; or, for a new id, nullopt after
  // recording it at `offset`.
  std::optional<std::uint64_t> first_use(std::string_view id,
                                         std::uint64_t offset);
  std::size_t size() const noexcept { return size_; }

 private:
  // A record's position is its page << 16 | its byte within the page; an id
  // too long for a page gets a page of its own.
  static constexpr std::size_t kPageBytes = std::size_t{1} << 16;
  static constexpr std::size_t kHeaderBytes = 12;  // u64 offset, u32 length
  static constexpr std::uint32_t kEmpty = 0xffffffff;  // page 0xffff unused

  const char* record(std::uint32_t at) const noexcept {
    return pages_[at >> 16].data() + (at & 0xffff);
  }
  std::string_view id_at(std::uint32_t at) const noexcept;
  std::uint32_t& find_slot(std::string_view id);  // its slot, or an empty one
  std::uint32_t append(std::string_view id, std::uint64_t offset);
  void grow();

  std::vector<std::uint32_t> slots_;  // a power of two, at most 3/4 full
  std::vector<std::string> pages_;
  std::size_t size_ = 0;
};

// Connection-scoped strict reader: parse_job_request plus the per-
// connection state a stateless parse cannot enforce — running byte offsets
// and the set of job ids already seen. A duplicate job id within one
// connection is a strict-codec error naming the id and both byte offsets
// (the exactly-one-response contract is per id; a client reusing an id
// could never tell its two submissions' responses apart). The one-argument
// overload assumes '\n'-terminated lines; the TCP front end passes the
// frame's true wire size instead, so offsets in diagnostics stay exact
// even for CRLF-framed clients.
class RequestReader {
 public:
  ParsedRequest next(std::string_view line) {
    return next(line, line.size() + 1);
  }
  ParsedRequest next(std::string_view line, std::uint64_t framed_size);

  std::uint64_t bytes_consumed() const noexcept { return offset_; }
  std::size_t ids_seen() const noexcept { return first_use_.size(); }

 private:
  std::uint64_t offset_ = 0;
  IdLedger first_use_;
};

// Writes one response line (terminated with '\n'). Thread-unsafe; callers
// serialize (the service invokes its response callback under a lock).
void write_job_response(std::ostream& os, const JobResponse& response);

// Serializes to a string, for tests and for sinks that batch lines.
std::string job_response_line(const JobResponse& response);

}  // namespace popbean::serve
