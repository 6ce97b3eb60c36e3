#include "checks.hpp"

#include <fstream>
#include <sstream>

#include "check/digest.hpp"

namespace perfbench {

using alphawan::LossCause;

std::string check_conservation(std::size_t offered_txs,
                               const alphawan::WindowResult& result,
                               const alphawan::MetricsCollector& window_metrics) {
  std::ostringstream err;
  if (result.fates.size() != offered_txs) {
    err << "fates " << result.fates.size() << " != offered " << offered_txs
        << "; ";
  }
  if (result.total_offered() != offered_txs) {
    err << "runner offered " << result.total_offered() << " != offered "
        << offered_txs << "; ";
  }
  if (window_metrics.total_offered() != offered_txs) {
    err << "recorded offered " << window_metrics.total_offered()
        << " != offered " << offered_txs << "; ";
  }
  if (window_metrics.total_delivered() != result.total_delivered()) {
    err << "recorded delivered " << window_metrics.total_delivered()
        << " != runner delivered " << result.total_delivered() << "; ";
  }
  std::size_t lost = 0;
  for (const LossCause cause :
       {LossCause::kDecoderContentionIntra, LossCause::kDecoderContentionInter,
        LossCause::kChannelContentionIntra, LossCause::kChannelContentionInter,
        LossCause::kOther}) {
    lost += window_metrics.losses(cause);
  }
  if (window_metrics.total_delivered() + lost !=
      window_metrics.total_offered()) {
    err << "delivered " << window_metrics.total_delivered() << " + lost "
        << lost << " != offered " << window_metrics.total_offered() << "; ";
  }
  return err.str();
}

DigestMap read_digests(const std::string& path) {
  DigestMap digests;
  std::ifstream in(path);
  std::string label;
  std::string hex;
  while (in >> label >> hex) {
    digests[label] = std::stoull(hex, nullptr, 16);
  }
  return digests;
}

bool write_digests(const std::string& path, const DigestMap& digests) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [label, digest] : digests) {
    out << label << ' ' << alphawan::digest_hex(digest) << '\n';
  }
  out.close();
  return static_cast<bool>(out);
}

std::vector<std::string> digest_mismatches(const DigestMap& stored,
                                           const DigestMap& fresh) {
  std::vector<std::string> out;
  for (const auto& [label, digest] : fresh) {
    const auto it = stored.find(label);
    if (it == stored.end() || it->second == digest) continue;
    out.push_back("fate digest of " + label + " changed: " +
                  alphawan::digest_hex(it->second) + " -> " +
                  alphawan::digest_hex(digest));
  }
  return out;
}

}  // namespace perfbench
