// Binary serialization of PlanResponse for the persistent plan store.
//
// The warm store's plan log (warm_store.h) persists full PlanResponses
// keyed by the canonical request key; this codec turns a response into a
// flat byte payload and back. Host-endian, versioned; integrity is the
// log record's concern (each record carries a checksum over key +
// payload), so the codec only bounds-checks. `from_cache` is transient
// serving state and is not persisted — a decoded response always starts
// from_cache = false and the pipeline marks it on delivery.

#ifndef TPP_SERVICE_STORE_PLAN_CODEC_H_
#define TPP_SERVICE_STORE_PLAN_CODEC_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "service/plan_service.h"

namespace tpp::service::store {

/// Serializes `response` — status, targets, the full ProtectionResult
/// with its pick trace, the plan text, and the solve wall time — into a
/// self-contained byte payload.
std::string EncodePlanResponse(const PlanResponse& response);

/// Inverse of EncodePlanResponse. InvalidArgument on any malformed or
/// short payload (the store treats that as a miss and re-solves).
Result<PlanResponse> DecodePlanResponse(std::string_view payload);

}  // namespace tpp::service::store

#endif  // TPP_SERVICE_STORE_PLAN_CODEC_H_
