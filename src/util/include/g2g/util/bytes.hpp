// Byte buffers and canonical (de)serialization.
//
// Every signed protocol artefact (proof of relay, forwarding-quality
// declaration, proof of misbehaviour, ...) is signed over a canonical
// little-endian byte encoding produced by Writer and consumed by Reader.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace g2g {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown by Reader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by SpanWriter when an encode disagrees with its wire_size().
/// Unlike DecodeError (hostile input), this is a programming error: every
/// wire type's wire_size() is arithmetic and must match its encode exactly.
class EncodeError : public std::logic_error {
 public:
  explicit EncodeError(const std::string& what) : std::logic_error(what) {}
};

/// Append-only canonical encoder (little-endian, length-prefixed blobs).
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { out_.reserve(reserve); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }
  /// Raw bytes, no length prefix (use for fixed-size fields like hashes).
  void raw(BytesView b) { out_.insert(out_.end(), b.begin(), b.end()); }
  /// Length-prefixed blob.
  void blob(BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }
  void str(std::string_view s) {
    blob(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  [[nodiscard]] const Bytes& bytes() const& { return out_; }
  [[nodiscard]] Bytes take() && { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes out_;
};

/// Canonical encoder writing into a caller-provided, exactly-reserved span
/// (typically an Arena allocation of wire_size() bytes). Identical byte
/// output to Writer, but never allocates and never grows: running past the
/// end of the span throws EncodeError, and expect_full() verifies the encode
/// filled the reservation exactly — together they pin the
/// encode_into()/wire_size() contract at the seam for every wire type.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) { *grab(1) = v; }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put_le(bits);
  }
  /// Raw bytes, no length prefix (use for fixed-size fields like hashes).
  void raw(BytesView b) {
    std::uint8_t* p = grab(b.size());
    if (!b.empty()) std::memcpy(p, b.data(), b.size());
  }
  /// Length-prefixed blob.
  void blob(BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }
  void str(std::string_view s) {
    blob(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  [[nodiscard]] std::size_t size() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return out_.size() - pos_; }
  /// View of what has been written so far.
  [[nodiscard]] BytesView view() const { return {out_.data(), pos_}; }
  /// Every canonical encode fills its reservation exactly; anything short
  /// means wire_size() over-reported.
  void expect_full() const {
    if (pos_ != out_.size()) throw EncodeError("encode under-filled its wire_size() reservation");
  }

 private:
  template <typename T>
  void put_le(T v) {
    std::uint8_t* p = grab(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * i));
    }
  }
  [[nodiscard]] std::uint8_t* grab(std::size_t n) {
    if (remaining() < n) throw EncodeError("encode overran its wire_size() reservation");
    std::uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Canonical decoder; throws DecodeError on truncation.
class Reader {
 public:
  explicit Reader(BytesView in) : in_(in) {}

  [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
  [[nodiscard]] std::uint16_t u16() { return read_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  [[nodiscard]] BytesView raw(std::size_t n) { return take(n); }
  [[nodiscard]] Bytes blob() {
    const auto n = u32();
    const auto b = take(n);
    return Bytes(b.begin(), b.end());
  }
  /// Non-owning view of a length-prefixed blob: same wire format as blob(),
  /// zero copies. Valid only while the buffer under the Reader lives.
  [[nodiscard]] BytesView blob_view() {
    const auto n = u32();
    return take(n);
  }
  [[nodiscard]] std::string str() {
    const auto b = blob();
    return std::string(b.begin(), b.end());
  }

  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] T read_le() {
    const auto b = take(sizeof(T));
    // Accumulate in 64 bits: for sub-int T the shift would otherwise promote
    // to int and narrow back on the compound assignment (-Wconversion).
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return static_cast<T>(v);
  }
  [[nodiscard]] BytesView take(std::size_t n) {
    if (remaining() < n) throw DecodeError("truncated input");
    const BytesView out = in_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  // g2g-lint: allow(view-escape) -- transient decode cursor; a Reader never outlives the caller-owned bytes it walks
  BytesView in_;
  std::size_t pos_ = 0;
};

/// A wire type: an arithmetic wire_size(), an encode into an exactly-reserved
/// SpanWriter, and a strict static decode of one whole encoding. Only wire
/// types can be encoded (encode_exact, arena_encode), so a type that can be
/// written but not read back does not compile.
template <typename T>
concept WireCodec = requires(const T& v, SpanWriter& w, BytesView b) {
  { v.wire_size() } -> std::same_as<std::size_t>;
  v.encode_into(w);
  { T::decode(b) } -> std::same_as<T>;
};

/// Owning encode through the exactly-reserved SpanWriter seam: allocates
/// wire_size() bytes once, encodes in place, verifies the exact fill. With
/// arena_encode (arena.hpp) it is the only encoder, so the
/// encode_into()/wire_size() contract is asserted on every path.
template <WireCodec T>
[[nodiscard]] Bytes encode_exact(const T& v) {
  Bytes out(v.wire_size());
  SpanWriter w(std::span<std::uint8_t>(out.data(), out.size()));
  v.encode_into(w);
  w.expect_full();
  return out;
}

/// Lowercase hex encoding of a byte span.
[[nodiscard]] std::string to_hex(BytesView b);
/// Inverse of to_hex; throws DecodeError on bad input.
[[nodiscard]] Bytes from_hex(std::string_view hex);
/// Bytes of a string literal / string view.
[[nodiscard]] Bytes to_bytes(std::string_view s);

}  // namespace g2g
