#include "baselines/registry.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "baselines/cic.hpp"
#include "baselines/curvinglora.hpp"
#include "baselines/lmac.hpp"
#include "baselines/random_cp.hpp"
#include "baselines/saloha.hpp"
#include "baselines/ss5g.hpp"

namespace alphawan {
namespace {

std::shared_ptr<const NodeMacPolicy> standard_mac(
    const BaselineTuning& tuning, bool use_adr) {
  StandardLorawanOptions options = tuning.node_side;
  options.use_adr = use_adr;
  return std::make_shared<StandardLorawanPolicy>(options);
}

// One row per scheme; make() fills in BaselineScheme::name from the row.
struct SchemeRow {
  std::string_view name;
  BaselineScheme (*build)(const BaselineTuning&);
};

constexpr std::array<SchemeRow, 9> kSchemes = {{
    {"alphawan",
     [](const BaselineTuning& t) {
       return BaselineScheme{
           {}, std::make_shared<AlphaWanPolicy>(t.alphawan, t.node_side), {}};
     }},
    {"cic",
     [](const BaselineTuning& t) {
       return BaselineScheme{{}, standard_mac(t, true),
                             std::make_shared<CicCapturePolicy>()};
     }},
    {"curvinglora",
     [](const BaselineTuning& t) {
       return BaselineScheme{{}, standard_mac(t, true),
                             std::make_shared<CurvingLoraCapturePolicy>()};
     }},
    {"lmac",
     [](const BaselineTuning& t) {
       return BaselineScheme{{}, std::make_shared<LmacPolicy>(t.node_side), {}};
     }},
    {"random-cp",
     [](const BaselineTuning& t) {
       return BaselineScheme{
           {}, std::make_shared<RandomCpPolicy>(t.node_side), {}};
     }},
    {"saloha",
     [](const BaselineTuning& t) {
       return BaselineScheme{
           {}, std::make_shared<SlottedAlohaPolicy>(t.node_side), {}};
     }},
    {"ss5g",
     [](const BaselineTuning& t) {
       return BaselineScheme{{}, standard_mac(t, true),
                             std::make_shared<Ss5gCapturePolicy>()};
     }},
    {"standard",
     [](const BaselineTuning& t) {
       return BaselineScheme{{}, standard_mac(t, true), {}};
     }},
    {"standard-no-adr",
     [](const BaselineTuning& t) {
       return BaselineScheme{{}, standard_mac(t, false), {}};
     }},
}};
static_assert(std::is_sorted(kSchemes.begin(), kSchemes.end(),
                             [](const SchemeRow& a, const SchemeRow& b) {
                               return a.name < b.name;
                             }),
              "names() enumerates the table in order");

const SchemeRow* find_scheme(std::string_view name) {
  const auto* it =
      std::find_if(kSchemes.begin(), kSchemes.end(),
                   [&](const SchemeRow& row) { return row.name == name; });
  return it == kSchemes.end() ? nullptr : it;
}

std::string known_names() {
  std::ostringstream out;
  for (const SchemeRow& row : kSchemes) {
    out << (&row == kSchemes.data() ? "" : ", ") << row.name;
  }
  return out.str();
}

}  // namespace

const BaselineRegistry& BaselineRegistry::instance() {
  static const BaselineRegistry registry;
  return registry;
}

BaselineScheme BaselineRegistry::make(std::string_view name,
                                      const BaselineTuning& tuning) const {
  const SchemeRow* row = find_scheme(name);
  if (row == nullptr) {
    throw std::invalid_argument("BaselineRegistry: unknown scheme '" +
                                std::string(name) +
                                "' (registered: " + known_names() + ")");
  }
  BaselineScheme scheme = row->build(tuning);
  scheme.name = row->name;
  return scheme;
}

bool BaselineRegistry::contains(std::string_view name) const {
  return find_scheme(name) != nullptr;
}

std::vector<std::string> BaselineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(kSchemes.size());
  for (const SchemeRow& row : kSchemes) out.emplace_back(row.name);
  return out;
}

std::vector<std::string> parse_baseline_list(std::string_view text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view entry = text.substr(begin, end - begin);
    while (!entry.empty() && (entry.front() == ' ' || entry.front() == '\t')) {
      entry.remove_prefix(1);
    }
    while (!entry.empty() && (entry.back() == ' ' || entry.back() == '\t')) {
      entry.remove_suffix(1);
    }
    if (!entry.empty()) {
      if (find_scheme(entry) == nullptr) {
        throw std::invalid_argument(
            "ALPHAWAN_BASELINE: unknown scheme '" + std::string(entry) +
            "' (registered: " + known_names() + ")");
      }
      out.emplace_back(entry);
    }
    if (end == text.size()) break;
    begin = end + 1;
  }
  return out;
}

std::vector<std::string> baselines_from_env(
    std::vector<std::string> fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once, before any threads.
  const char* text = std::getenv("ALPHAWAN_BASELINE");
  if (text == nullptr || *text == '\0') return fallback;
  auto parsed = parse_baseline_list(text);
  return parsed.empty() ? fallback : parsed;
}

}  // namespace alphawan
