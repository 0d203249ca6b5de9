#include "sim/metrics.hpp"

#include <algorithm>
#include <string_view>
#include <vector>

namespace svss {

const char* Metrics::type_group(MsgType type, bool* batched) {
  *batched = false;
  switch (type) {
    case MsgType::kMwBatchDirect:
      *batched = true;
      [[fallthrough]];
    case MsgType::kMwDealerShares:
    case MsgType::kMwDealerPoly:
    case MsgType::kMwDealerWhole:
    case MsgType::kMwEchoVal:
    case MsgType::kMwMonitorVal:
      return "mw-direct";
    case MsgType::kMwBatchAck:
    case MsgType::kMwBatchLset:
    case MsgType::kMwBatchMset:
    case MsgType::kMwBatchOk:
    case MsgType::kMwBatchReconVal:
      *batched = true;
      [[fallthrough]];
    case MsgType::kMwAck:
    case MsgType::kMwLset:
    case MsgType::kMwMset:
    case MsgType::kMwOk:
    case MsgType::kMwReconVal:
      return "mw-rb";
    case MsgType::kSvssBatchShares:
      *batched = true;
      [[fallthrough]];
    case MsgType::kSvssDealerShares:
      return "svss-deal";
    case MsgType::kSvssBatchGset:
      *batched = true;
      [[fallthrough]];
    case MsgType::kSvssGset:
      return "svss-gset";
    case MsgType::kCoinGset:
    case MsgType::kCoinStartRecon:
      return "coin";
    case MsgType::kAbaBatchVote:
    case MsgType::kAbaBatchConf:
      *batched = true;
      [[fallthrough]];
    case MsgType::kAbaVote:
      return "aba";
    case MsgType::kAcsProposal:
    case MsgType::kSumPoint:
      return "ext";
    case MsgType::kEpochCatchupReq:
    case MsgType::kEpochCatchupState:
      return "catchup";
    case MsgType::kTestPayload:
      return "other";
  }
  return "other";
}

std::string Metrics::group_summary() const {
  // Fixed presentation order so the line is stable across runs.
  // Must list every group type_group() returns, or packets go missing.
  static constexpr const char* kGroups[] = {"mw-rb",     "mw-direct",
                                            "svss-deal", "svss-gset",
                                            "coin",      "aba",
                                            "ext",       "catchup",
                                            "other"};
  std::string s;
  for (const char* group : kGroups) {
    std::uint64_t total = 0;
    std::uint64_t batched = 0;
    for (std::size_t i = 0; i < kTypeSlots; ++i) {
      if (packets_by_type[i] == 0) continue;
      bool is_batched = false;
      if (std::string_view(type_group(static_cast<MsgType>(i),
                                      &is_batched)) != group) {
        continue;
      }
      total += packets_by_type[i];
      if (is_batched) batched += packets_by_type[i];
    }
    if (total == 0) continue;
    s += s.empty() ? " [packets by group:" : "";
    s += std::string(" ") + group + "=" + std::to_string(total);
    if (batched > 0) s += " (" + std::to_string(batched) + " batched)";
  }
  if (!s.empty()) s += "]";
  return s;
}

std::string Metrics::summary() const {
  std::string s = "delivered " + std::to_string(packets_delivered) + "/" +
                  std::to_string(packets_sent) + " packets (" +
                  std::to_string(bytes_sent) + " bytes, depth " +
                  std::to_string(max_depth) + ")";
  if (capped) {
    s += " [CAPPED at " + std::to_string(deliveries_at_cap) + " deliveries]";
  }
  if (out_dropped_frames > 0) {
    s += " [shed " + std::to_string(out_dropped_frames) + " outbound frames/" +
         std::to_string(out_dropped_bytes) + " bytes at the peer buffer cap]";
  }
  // Where the serialization bytes go: the top message types by volume.
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < kTypeSlots; ++i) {
    if (bytes_by_type[i] > 0) slots.push_back(i);
  }
  std::sort(slots.begin(), slots.end(), [this](std::size_t a, std::size_t b) {
    return bytes_by_type[a] > bytes_by_type[b];
  });
  if (!slots.empty()) {
    s += " [bytes by type:";
    std::size_t shown = 0;
    for (std::size_t i : slots) {
      if (shown++ == 5) break;
      s += std::string(" ") + msg_type_name(static_cast<MsgType>(i)) + "=" +
           std::to_string(bytes_by_type[i]) + "/" +
           std::to_string(packets_by_type[i]) + "pkt";
    }
    s += "]";
  }
  s += group_summary();
  return s;
}

}  // namespace svss
