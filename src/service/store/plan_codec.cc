#include "service/store/plan_codec.h"

#include <cstring>

namespace tpp::service::store {

namespace {

// v2 dropped v1's optional released-graph section; a v1 record decodes
// as a version mismatch, which the store treats as a miss.
constexpr uint32_t kPlanPayloadVersion = 2;

void PutBytes(std::string* out, const void* src, size_t size) {
  out->append(static_cast<const char*>(src), size);
}

template <typename T>
void Put(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutBytes(out, &value, sizeof value);
}

void PutString(std::string* out, std::string_view s) {
  Put<uint64_t>(out, s.size());
  PutBytes(out, s.data(), s.size());
}

void PutEdges(std::string* out, const std::vector<graph::Edge>& edges) {
  Put<uint64_t>(out, edges.size());
  for (const graph::Edge& e : edges) {
    Put<uint32_t>(out, e.u);
    Put<uint32_t>(out, e.v);
  }
}

// Bounds-checked forward reader over the payload.
struct Cursor {
  const char* p;
  size_t left;

  bool Bytes(void* dst, size_t size) {
    if (size > left) return false;
    std::memcpy(dst, p, size);
    p += size;
    left -= size;
    return true;
  }

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Bytes(value, sizeof *value);
  }

  bool GetString(std::string* out) {
    uint64_t size = 0;
    if (!Get(&size) || size > left) return false;
    out->assign(p, size);
    p += size;
    left -= size;
    return true;
  }

  bool GetEdges(std::vector<graph::Edge>* out) {
    uint64_t count = 0;
    if (!Get(&count) || count > left / 8) return false;
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t u = 0, v = 0;
      if (!Get(&u) || !Get(&v)) return false;
      out->emplace_back(u, v);
    }
    return true;
  }
};

}  // namespace

std::string EncodePlanResponse(const PlanResponse& response) {
  std::string out;
  Put<uint32_t>(&out, kPlanPayloadVersion);
  Put<uint32_t>(&out, static_cast<uint32_t>(response.status.code()));
  PutString(&out, response.status.message());
  PutEdges(&out, response.targets);
  PutEdges(&out, response.result.protectors);
  Put<uint64_t>(&out, response.result.picks.size());
  for (const core::PickTrace& pick : response.result.picks) {
    Put<uint64_t>(&out, pick.edge);
    Put<uint64_t>(&out, pick.realized_gain);
    Put<uint64_t>(&out, pick.for_target);
    Put<uint64_t>(&out, pick.similarity_after);
    Put<double>(&out, pick.cumulative_seconds);
  }
  Put<uint64_t>(&out, response.result.initial_similarity);
  Put<uint64_t>(&out, response.result.final_similarity);
  Put<uint64_t>(&out, response.result.gain_evaluations);
  Put<double>(&out, response.result.total_seconds);
  PutString(&out, response.plan_text);
  Put<double>(&out, response.seconds);
  return out;
}

Result<PlanResponse> DecodePlanResponse(std::string_view payload) {
  const auto malformed = [] {
    return Status::InvalidArgument("malformed plan payload");
  };
  Cursor c{payload.data(), payload.size()};
  uint32_t version = 0;
  if (!c.Get(&version)) return malformed();
  if (version != kPlanPayloadVersion) {
    return Status::InvalidArgument("unsupported plan payload version");
  }
  PlanResponse response;
  uint32_t code = 0;
  std::string message;
  if (!c.Get(&code) || !c.GetString(&message)) return malformed();
  if (code > static_cast<uint32_t>(StatusCode::kIoError)) return malformed();
  response.status = Status(static_cast<StatusCode>(code), std::move(message));
  if (!c.GetEdges(&response.targets) ||
      !c.GetEdges(&response.result.protectors)) {
    return malformed();
  }
  uint64_t num_picks = 0;
  if (!c.Get(&num_picks) || num_picks > c.left / 8) return malformed();
  response.result.picks.resize(num_picks);
  for (core::PickTrace& pick : response.result.picks) {
    uint64_t edge = 0, realized = 0, for_target = 0, after = 0;
    if (!c.Get(&edge) || !c.Get(&realized) || !c.Get(&for_target) ||
        !c.Get(&after) || !c.Get(&pick.cumulative_seconds)) {
      return malformed();
    }
    pick.edge = edge;
    pick.realized_gain = realized;
    pick.for_target = for_target;
    pick.similarity_after = after;
  }
  uint64_t initial = 0, final_sim = 0;
  if (!c.Get(&initial) || !c.Get(&final_sim) ||
      !c.Get(&response.result.gain_evaluations) ||
      !c.Get(&response.result.total_seconds) ||
      !c.GetString(&response.plan_text)) {
    return malformed();
  }
  response.result.initial_similarity = initial;
  response.result.final_similarity = final_sim;
  if (!c.Get(&response.seconds) || c.left != 0) return malformed();
  return response;
}

}  // namespace tpp::service::store
