//===- support/Serialization.h - Bounds-checked binary serialization ----------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization for the daemon's wire protocol (service/Protocol.h)
/// and the on-disk decision cache (merge/DecisionCache.h). Fixed
/// little-endian encoding, so bytes are identical across platforms.
///
/// ## Field lists
///
/// A record type states its layout once, as an overload found by
/// argument-dependent lookup:
///
///     template <typename IO> void fields(IO &F, Record &R) {
///       F(R.First, R.Second, R.Third);
///     }
///
/// ByteWriter and ByteReader both walk that one list, so a field is added,
/// moved or removed in both directions at once. A field is a bool (u8), an
/// enum (its underlying integer), a fixed-width integer, a std::string
/// (u32 length, then the bytes), a std::vector (u32 count, then the
/// elements), a std::pair, BitFlags, or another record.
///
/// ## Reader rules
///
/// ByteReader is bounds-checked and strict. Each of these latches a
/// failure, after which every read is a no-op that yields zeros and every
/// walk returns false:
///   - a read past the end of the buffer;
///   - a bool byte other than 0 or 1, or a BitFlags byte with a bit set
///     beyond its flags;
///   - a string length or vector count that the remaining bytes cannot
///     back (an element takes at least the encoded size of a default
///     value); no container is sized before this check;
///   - for whole(), bytes left over after the value.
/// Callers checksum their payloads (fnv1a64) as well, so a damaged buffer
/// is refused, never misread.
///
//===----------------------------------------------------------------------===//

#ifndef SALSSA_SUPPORT_SERIALIZATION_H
#define SALSSA_SUPPORT_SERIALIZATION_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace salssa {

/// Up to eight bools packed into one u8, bit I holding the I-th flag. Build
/// one in a field list with bitFlags(R.A, R.B, ...).
template <size_t N> struct BitFlags {
  static_assert(N <= 8, "BitFlags packs at most eight flags");
  bool *Flag[N];
};

template <typename... Bools> BitFlags<sizeof...(Bools)> bitFlags(Bools &...B) {
  return {{&B...}};
}

/// Append-only little-endian encoder.
class ByteWriter {
public:
  void u8(uint8_t V) { put(V); }
  void u32(uint32_t V) { put(V); }
  void u64(uint64_t V) { put(V); }

  /// Writes each field in order (see "Field lists").
  template <typename... Ts> void operator()(const Ts &...Fields) {
    (put(Fields), ...);
  }

  const std::vector<uint8_t> &buffer() const { return Buf; }
  size_t size() const { return Buf.size(); }

private:
  template <typename T> void put(const T &V) {
    if constexpr (std::is_same_v<T, bool>) {
      Buf.push_back(V ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(V));
    } else if constexpr (std::is_integral_v<T>) {
      // One append per field: byte-wise push_back would reload the
      // buffer's end after every byte, which any byte store may alias.
      uint8_t Bytes[sizeof(T)];
      for (size_t I = 0; I < sizeof(T); ++I)
        Bytes[I] = static_cast<uint8_t>(static_cast<uint64_t>(V) >> (8 * I));
      Buf.insert(Buf.end(), Bytes, Bytes + sizeof(T));
    } else {
      // A record: the field list takes a mutable reference so that the
      // reader can share it; the writer only reads through it.
      fields(*this, const_cast<T &>(V));
    }
  }
  void put(const std::string &S) {
    put(static_cast<uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }
  template <typename T> void put(const std::vector<T> &V) {
    put(static_cast<uint32_t>(V.size()));
    for (const T &E : V)
      put(E);
  }
  template <typename A, typename B> void put(const std::pair<A, B> &P) {
    put(P.first);
    put(P.second);
  }
  template <size_t N> void put(const BitFlags<N> &F) {
    uint8_t Byte = 0;
    for (size_t I = 0; I < N; ++I)
      Byte |= static_cast<uint8_t>(*F.Flag[I] ? 1u << I : 0u);
    put(Byte);
  }

  std::vector<uint8_t> Buf;
};

/// The encoding of \p Fields, in order.
template <typename... Ts> std::vector<uint8_t> toBytes(const Ts &...Fields) {
  ByteWriter W;
  W(Fields...);
  return W.buffer();
}

/// Bounds-checked, strict little-endian decoder (see "Reader rules").
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}

  /// Reads each field in order; false once any read has failed.
  template <typename... Ts> bool operator()(Ts &&...Fields) {
    (get(Fields), ...);
    return Ok;
  }
  /// Reads \p V, which must end exactly at the end of the buffer.
  template <typename T> bool whole(T &V) {
    get(V);
    if (P != End)
      Ok = false;
    return Ok;
  }

  bool atEnd() const { return P == End; }
  size_t remaining() const { return static_cast<size_t>(End - P); }

private:
  template <typename T> void get(T &V) {
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t Byte = 0;
      get(Byte);
      Ok = Ok && Byte <= 1;
      V = Byte == 1;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> U = 0;
      get(U);
      V = static_cast<T>(U);
    } else if constexpr (std::is_integral_v<T>) {
      uint64_t U = 0;
      if (const uint8_t *B = take(sizeof(T)))
        for (size_t I = 0; I < sizeof(T); ++I)
          U |= static_cast<uint64_t>(B[I]) << (8 * I);
      V = static_cast<T>(U);
    } else {
      fields(*this, V);
    }
  }
  void get(std::string &S) {
    uint32_t N = 0;
    get(N);
    if (const uint8_t *B = take(N))
      S.assign(reinterpret_cast<const char *>(B), N);
  }
  template <typename T> void get(std::vector<T> &V) {
    // No element encodes to fewer bytes than a default value, whose
    // strings and vectors are empty.
    static const size_t MinElementBytes =
        std::max<size_t>(toBytes(T()).size(), 1);
    uint32_t N = 0;
    get(N);
    if (N > remaining() / MinElementBytes)
      Ok = false;
    if (!Ok)
      return;
    V.assign(N, T());
    for (T &E : V)
      get(E);
  }
  template <typename A, typename B> void get(std::pair<A, B> &P) {
    get(P.first);
    get(P.second);
  }
  template <size_t N> void get(BitFlags<N> &F) {
    uint8_t Byte = 0;
    get(Byte);
    Ok = Ok && (Byte >> N) == 0;
    for (size_t I = 0; I < N; ++I)
      *F.Flag[I] = (Byte >> I) & 1;
  }

  /// Consumes \p N bytes and returns their start, or latches failure and
  /// returns nullptr when fewer remain.
  const uint8_t *take(size_t N) {
    if (!Ok || remaining() < N) {
      Ok = false;
      return nullptr;
    }
    const uint8_t *Start = P;
    P += N;
    return Start;
  }

  const uint8_t *P;
  const uint8_t *End;
  bool Ok = true;
};

/// FNV-1a over a byte range (the payload checksum primitive).
uint64_t fnv1a64(const uint8_t *Data, size_t Size);

/// Reads the whole file into \p Out. Returns false (leaving \p Out
/// empty) when the file is missing or unreadable.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Out);

/// Writes \p Data to \p Path via a temporary + rename, so readers never
/// observe a half-written file. Returns false on any I/O failure.
bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Data);

} // namespace salssa

#endif // SALSSA_SUPPORT_SERIALIZATION_H
