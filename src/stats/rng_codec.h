// Binary snapshot codec for the MT19937-64 engines hoisted into the
// filters.
//
// The record is the engine's textual-representation state -- the 312
// state words, then the read position -- as little-endian u64s behind a
// u32 token count of 313: 2508 bytes, copied straight out of and into
// the engine's members (stats/rng.h). These are the bytes an earlier
// codec made by printing the standard library's mt19937_64 and
// re-tokenizing the text, so checkpoints written by either codec restore
// into the other. Restore validates before it writes: the count must be
// exactly 313 and the position must not index past the state array, so
// a truncated or bit-flipped snapshot is rejected and leaves the engine
// untouched.
#pragma once

#include <array>
#include <cstdint>

#include "offload/bytes.h"
#include "stats/rng.h"

namespace uniloc::stats {

inline constexpr std::uint32_t kEngineTokens = Mt19937_64::state_size + 1;

inline void snapshot_engine(const Mt19937_64& engine,
                            offload::ByteWriter& w) {
  w.put_u32(kEngineTokens);
  w.put_bytes(reinterpret_cast<const std::uint8_t*>(engine.state.data()),
              sizeof(engine.state));
  w.put_u64(engine.pos);
}

inline bool restore_engine(Mt19937_64& engine, offload::ByteReader& r) {
  std::uint32_t count = 0;
  if (!r.get_u32(count) || count != kEngineTokens) return false;
  std::array<std::uint64_t, Mt19937_64::state_size> state{};
  std::uint64_t pos = 0;
  if (!r.get_bytes(reinterpret_cast<std::uint8_t*>(state.data()),
                   sizeof(state)) ||
      !r.get_u64(pos)) {
    return false;
  }
  // Past-the-end would make the next draw index out of bounds.
  if (pos > Mt19937_64::state_size) return false;
  engine.state = state;
  engine.pos = pos;
  return true;
}

}  // namespace uniloc::stats
