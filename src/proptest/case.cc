#include "proptest/case.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"

namespace uniloc::proptest {

namespace {

// 64-bit seeds travel as hex STRINGS: the JSON reader stores numbers as
// doubles, which would silently truncate seeds above 2^53 and break the
// byte-identical replay contract.
std::string u64_str(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_u64(const obs::JsonValue* v, std::uint64_t* out) {
  if (v == nullptr || !v->is_string()) return false;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->string.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || v->string.empty()) return false;
  *out = parsed;
  return true;
}

bool parse_double(const obs::JsonValue* v, double* out) {
  if (v == nullptr || !v->is_number()) return false;
  *out = v->number;
  return true;
}

bool parse_u32(const obs::JsonValue* v, std::uint32_t* out) {
  if (v == nullptr || !v->is_number() || v->number < 0) return false;
  *out = static_cast<std::uint32_t>(v->as_u64());
  return true;
}

bool parse_int(const obs::JsonValue* v, int* out) {
  if (v == nullptr || !v->is_number()) return false;
  *out = static_cast<int>(v->number);
  return true;
}

bool parse_size(const obs::JsonValue* v, std::size_t* out) {
  if (v == nullptr || !v->is_number() || v->number < 0) return false;
  *out = static_cast<std::size_t>(v->as_u64());
  return true;
}

bool parse_bool(const obs::JsonValue* v, bool* out) {
  if (v == nullptr || !v->is_bool()) return false;
  *out = v->boolean;
  return true;
}

}  // namespace

std::string to_json(const CaseSpec& s) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("seed", u64_str(s.case_seed));

  w.key("place").begin_object();
  w.kv("seed", u64_str(s.place.seed));
  w.kv("walkways", s.place.walkways);
  w.kv("legs", s.place.legs_per_walkway);
  w.kv("leg_len", s.place.leg_length_m);
  w.kv("mix", s.place.venue_mix);
  w.kv("towers", s.place.cell_towers);
  w.end_object();

  w.kv("deploy_seed", u64_str(s.deploy_seed));
  w.kv("walkers", static_cast<std::uint64_t>(s.walkers));
  w.kv("epochs", static_cast<std::uint64_t>(s.epochs));
  w.kv("burst", static_cast<std::uint64_t>(s.burst));
  w.kv("load_seed", u64_str(s.load_seed));

  w.key("gait").begin_object();
  w.kv("step_len", s.gait.step_length_m);
  w.kv("step_period", s.gait.step_period_s);
  w.kv("trembling", s.gait.trembling);
  w.end_object();

  w.key("faults").begin_object();
  w.kv("seed", u64_str(s.faults.seed));
  w.kv("drop", s.faults.rates.drop);
  w.kv("dup", s.faults.rates.duplicate);
  w.kv("reorder", s.faults.rates.reorder);
  w.kv("corrupt", s.faults.rates.corrupt);
  w.kv("delay_us", s.faults.rates.base_delay_us);
  w.kv("jitter_us", s.faults.rates.jitter_delay_us);
  w.key("blackouts").begin_array();
  for (const auto& [from, to] : s.faults.blackouts) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(from));
    w.value(static_cast<std::uint64_t>(to));
    w.end_array();
  }
  w.end_array();
  w.key("crashes").begin_array();
  for (const std::size_t r : s.faults.crash_rounds) {
    w.value(static_cast<std::uint64_t>(r));
  }
  w.end_array();
  w.end_object();

  w.kv("workers", static_cast<std::uint64_t>(s.workers));
  w.kv("batch", s.batch);
  w.kv("crash_restore", s.crash_restore);
  w.kv("delta_chain", s.delta_chain);
  w.end_object();
  return w.str();
}

std::optional<CaseSpec> from_json(const std::string& line) {
  const std::optional<obs::JsonValue> doc = obs::parse_json(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  CaseSpec s;
  if (!parse_u64(doc->find("seed"), &s.case_seed)) return std::nullopt;

  const obs::JsonValue* place = doc->find("place");
  if (place == nullptr || !place->is_object()) return std::nullopt;
  if (!parse_u64(place->find("seed"), &s.place.seed) ||
      !parse_int(place->find("walkways"), &s.place.walkways) ||
      !parse_int(place->find("legs"), &s.place.legs_per_walkway) ||
      !parse_double(place->find("leg_len"), &s.place.leg_length_m) ||
      !parse_int(place->find("mix"), &s.place.venue_mix) ||
      !parse_int(place->find("towers"), &s.place.cell_towers)) {
    return std::nullopt;
  }

  if (!parse_u64(doc->find("deploy_seed"), &s.deploy_seed) ||
      !parse_u32(doc->find("walkers"), &s.walkers) ||
      !parse_u32(doc->find("epochs"), &s.epochs) ||
      !parse_u32(doc->find("burst"), &s.burst) ||
      !parse_u64(doc->find("load_seed"), &s.load_seed)) {
    return std::nullopt;
  }

  const obs::JsonValue* gait = doc->find("gait");
  if (gait == nullptr || !gait->is_object()) return std::nullopt;
  if (!parse_double(gait->find("step_len"), &s.gait.step_length_m) ||
      !parse_double(gait->find("step_period"), &s.gait.step_period_s) ||
      !parse_double(gait->find("trembling"), &s.gait.trembling)) {
    return std::nullopt;
  }

  const obs::JsonValue* faults = doc->find("faults");
  if (faults == nullptr || !faults->is_object()) return std::nullopt;
  std::uint64_t delay = 0, jitter = 0;
  if (!parse_u64(faults->find("seed"), &s.faults.seed) ||
      !parse_double(faults->find("drop"), &s.faults.rates.drop) ||
      !parse_double(faults->find("dup"), &s.faults.rates.duplicate) ||
      !parse_double(faults->find("reorder"), &s.faults.rates.reorder) ||
      !parse_double(faults->find("corrupt"), &s.faults.rates.corrupt)) {
    return std::nullopt;
  }
  const obs::JsonValue* delay_v = faults->find("delay_us");
  const obs::JsonValue* jitter_v = faults->find("jitter_us");
  if (delay_v == nullptr || !delay_v->is_number() || jitter_v == nullptr ||
      !jitter_v->is_number()) {
    return std::nullopt;
  }
  delay = delay_v->as_u64();
  jitter = jitter_v->as_u64();
  s.faults.rates.base_delay_us = delay;
  s.faults.rates.jitter_delay_us = jitter;

  const obs::JsonValue* blackouts = faults->find("blackouts");
  if (blackouts == nullptr || !blackouts->is_array()) return std::nullopt;
  for (const obs::JsonValue& b : blackouts->items) {
    if (!b.is_array() || b.items.size() != 2) return std::nullopt;
    std::size_t from = 0, to = 0;
    if (!parse_size(&b.items[0], &from) || !parse_size(&b.items[1], &to)) {
      return std::nullopt;
    }
    s.faults.blackouts.emplace_back(from, to);
  }
  const obs::JsonValue* crashes = faults->find("crashes");
  if (crashes == nullptr || !crashes->is_array()) return std::nullopt;
  for (const obs::JsonValue& c : crashes->items) {
    std::size_t r = 0;
    if (!parse_size(&c, &r)) return std::nullopt;
    s.faults.crash_rounds.push_back(r);
  }

  if (!parse_u32(doc->find("workers"), &s.workers)) return std::nullopt;
  // "batch" is newer than the oldest corpus lines: absent means false (no
  // I8 pass), present must be well-typed.
  const obs::JsonValue* batch = doc->find("batch");
  if (batch != nullptr && !parse_bool(batch, &s.batch)) return std::nullopt;
  // The retired fleet keys ("shards", "migration_churn", "churn") are
  // not read: a line that carries them replays as the same case without
  // the fleet pass.
  if (!parse_bool(doc->find("crash_restore"), &s.crash_restore)) {
    return std::nullopt;
  }
  // "delta_chain" is newer than the oldest corpus lines: absent means
  // false (no I9 pass), present must be well-typed.
  const obs::JsonValue* delta_chain = doc->find("delta_chain");
  if (delta_chain != nullptr && !parse_bool(delta_chain, &s.delta_chain)) {
    return std::nullopt;
  }
  return s;
}

std::string repro_line(const CaseSpec& spec, std::size_t cases_in_run) {
  return "UNILOC_REPRO seed=" + u64_str(spec.case_seed) +
         " cases=" + std::to_string(cases_in_run) + " spec=" + to_json(spec);
}

}  // namespace uniloc::proptest
