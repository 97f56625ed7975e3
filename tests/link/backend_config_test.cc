// Adversarial configuration suite: validate() must refuse every
// non-finite / negative / inconsistent field, mismatched shared
// PER-table caches, and unknown tags, and no refused config may enter a
// LinkSet, built or loaded; the LinkSet on-disk format must fail strict
// load on tampered or truncated files (the policy::PolicyTable
// contract).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "link/backend.h"
#include "link/multilink.h"
#include "mac/link.h"
#include "phy/per_table.h"

namespace skyferry {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

using link::LinkBackendConfig;

/// LinkSet::checksum's recipe (FNV-1a over each link's compact JSON,
/// '|'-separated), recomputed here from hand-edited JSON.
std::string checksum_of(const io::Json& links) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const io::Json& l : links.items()) {
    for (const char c : l.dump() + "|") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// A rejected config must not get into a LinkSet by any route: built
/// directly, or loaded from a valid link-set file hand-edited to hold it
/// (checksum recomputed, so only the config itself can fail the load).
/// DecisionService::install_links relies on this: it never revalidates.
void expect_rejected(LinkBackendConfig cfg, const char* why) {
  EXPECT_THROW(cfg.validate(), link::ConfigError) << why;
  EXPECT_THROW((void)link::make_backend(cfg), link::ConfigError) << why;
  EXPECT_THROW(link::LinkSet({LinkBackendConfig::wifi_80211n(), cfg}), link::ConfigError) << why;

  const link::LinkSet valid({LinkBackendConfig::wifi_80211n()});
  io::Json file = valid.to_json();
  ASSERT_EQ(checksum_of(*file.find("links")), valid.checksum());
  io::Json links = *file.find("links");
  links.push_back(cfg.to_json());
  file.set("links", links);
  file.set("checksum", checksum_of(links));
  if (cfg.shared_tables || cfg.mac.shared_tables) {
    // Shared PER tables are a runtime cache, not part of the file: the
    // edited file holds the config without its mismatched cache, which
    // is valid, so the defect cannot reach a loaded set.
    EXPECT_NO_THROW((void)link::LinkSet::from_json(file)) << why;
  } else {
    EXPECT_THROW((void)link::LinkSet::from_json(file), link::ConfigError) << why;
  }
}

TEST(BackendConfig, PresetsValidateAndBuild) {
  for (const auto& make : {&LinkBackendConfig::wifi_80211n, &LinkBackendConfig::cellular,
                           &LinkBackendConfig::mesh, &LinkBackendConfig::leo}) {
    const LinkBackendConfig cfg = make();
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_NE(link::make_backend(cfg), nullptr);
  }
}

TEST(BackendConfig, RejectsNonFiniteAndNegativeFields) {
  {
    LinkBackendConfig c = LinkBackendConfig::wifi_80211n();
    c.wifi_a = kNan;
    expect_rejected(c, "NaN wifi_a");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.cell_peak_bps = kInf;
    expect_rejected(c, "infinite cell_peak_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.cell_floor_bps = -1.0;
    expect_rejected(c, "negative cell_floor_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.cell_floor_bps = c.cell_peak_bps * 2.0;
    expect_rejected(c, "floor above peak");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::mesh();
    c.mesh_hop_rate_bps = -18e6;
    expect_rejected(c, "negative mesh_hop_rate_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::mesh();
    c.mesh_max_hops = 0;
    expect_rejected(c, "zero mesh_max_hops");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.leo_rate_bps = 0.0;
    expect_rejected(c, "zero leo_rate_bps");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.session_setup_s = -1.0;
    expect_rejected(c, "negative session_setup_s");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.rtt_s = kNan;
    expect_rejected(c, "NaN rtt_s");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::wifi_80211n();
    c.min_distance_m = 0.0;
    expect_rejected(c, "zero min_distance_m");
  }
}

TEST(BackendConfig, RejectsBadAvailabilityAndOutage) {
  for (const double a : {0.0, -0.2, 1.5, kNan}) {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.outage.availability = a;
    expect_rejected(c, "availability outside (0,1]");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::leo();
    c.outage.mean_outage_s = -45.0;
    expect_rejected(c, "negative mean_outage_s");
  }
}

TEST(BackendConfig, RejectsBadPhyCurve) {
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.mcs_index = 16;
    expect_rejected(c, "mcs_index out of range");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.frame_bits = 0;
    expect_rejected(c, "zero frame_bits");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.frames_per_burst = 0;
    expect_rejected(c, "zero frames_per_burst");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.per_table.snr_min_db = c.per_table.snr_max_db + 1.0;
    expect_rejected(c, "inverted per_table SNR range");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.per_table.step_db = 0.0;
    expect_rejected(c, "zero per_table step");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.snr_ref_distance_m = 0.0;
    expect_rejected(c, "zero snr_ref_distance_m");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.spatial_correlation = 1.5;
    expect_rejected(c, "spatial_correlation above 1");
  }
  {
    LinkBackendConfig c = LinkBackendConfig::cellular();
    c.error.stbc_gain_db = kNan;
    expect_rejected(c, "NaN error-model gain");
  }
}

TEST(BackendConfig, RejectsMismatchedSharedTables) {
  LinkBackendConfig c = LinkBackendConfig::cellular();
  // A cache built for a *different* error model than c.error.
  phy::ErrorModelConfig other = c.error;
  other.stbc_gain_db += 1.0;
  c.shared_tables = std::make_shared<phy::PerTableCache>(
      phy::ErrorModel(other, c.spatial_correlation), c.per_table);
  expect_rejected(c, "shared_tables fingerprint mismatch");

  // The matching cache passes.
  c.shared_tables = std::make_shared<phy::PerTableCache>(
      phy::ErrorModel(c.error, c.spatial_correlation), c.per_table);
  EXPECT_NO_THROW(c.validate());
}

TEST(BackendConfig, RejectsMismatchedWifiMacSharedTables) {
  LinkBackendConfig c = LinkBackendConfig::wifi_80211n();
  mac::LinkConfig other = c.mac;
  other.error.stbc_gain_db += 1.0;
  c.mac.shared_tables = mac::make_shared_per_tables(other);
  expect_rejected(c, "mac.shared_tables fingerprint mismatch");

  c.mac.shared_tables = mac::make_shared_per_tables(c.mac);
  EXPECT_NO_THROW(c.validate());
}

TEST(BackendConfig, JsonRoundTripIsExact) {
  for (const auto& make : {&LinkBackendConfig::wifi_80211n, &LinkBackendConfig::cellular,
                           &LinkBackendConfig::mesh, &LinkBackendConfig::leo}) {
    const LinkBackendConfig cfg = make();
    const LinkBackendConfig back = LinkBackendConfig::from_json(cfg.to_json());
    EXPECT_EQ(cfg.to_json().dump(), back.to_json().dump()) << cfg.name;
    EXPECT_EQ(back.kind, cfg.kind);
    EXPECT_EQ(back.outage.availability, cfg.outage.availability);
  }
}

TEST(BackendConfig, JsonRejectsUnknownTags) {
  {
    io::Json j = LinkBackendConfig::cellular().to_json();
    j.set("kind", "carrier-pigeon");
    EXPECT_THROW((void)LinkBackendConfig::from_json(j), link::ConfigError);
  }
  {
    io::Json j = LinkBackendConfig::cellular().to_json();
    j.set("fidelity", "clairvoyant");
    EXPECT_THROW((void)LinkBackendConfig::from_json(j), link::ConfigError);
  }
  {
    io::Json j = LinkBackendConfig::wifi_80211n().to_json();
    j.set("wifi_rate_control", "vibes");
    EXPECT_THROW((void)LinkBackendConfig::from_json(j), link::ConfigError);
  }
  {
    // A value validate() rejects must not survive decode either.
    io::Json j = LinkBackendConfig::leo().to_json();
    j.set("availability", io::Json(0.0));
    EXPECT_THROW((void)LinkBackendConfig::from_json(j), link::ConfigError);
  }
}

// ---- LinkSet on-disk format -------------------------------------------------

link::LinkSet two_link_set() {
  return link::LinkSet({LinkBackendConfig::wifi_80211n(), LinkBackendConfig::cellular()});
}

TEST(LinkSetIo, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/link_set_roundtrip.json";
  const link::LinkSet set = two_link_set();
  set.save_atomic(path);
  const link::LinkSet back = link::LinkSet::load(path);
  EXPECT_EQ(back.size(), 2u);
  EXPECT_EQ(back.checksum(), set.checksum());
  EXPECT_EQ(back.to_json().dump(), set.to_json().dump());
  std::remove(path.c_str());
}

TEST(LinkSetIo, TamperedFileFailsLoad) {
  const std::string path = ::testing::TempDir() + "/link_set_tampered.json";
  two_link_set().save_atomic(path);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  // Flip the cellular link's name; the checksum no longer matches.
  const std::string::size_type at = text.find("\"cellular\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 10, "\"cellulose\"");
  std::ofstream(path) << text;
  EXPECT_THROW((void)link::LinkSet::load(path), link::ConfigError);
  std::remove(path.c_str());
}

TEST(LinkSetIo, TruncatedFileFailsLoad) {
  const std::string path = ::testing::TempDir() + "/link_set_truncated.json";
  two_link_set().save_atomic(path);
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path) << text.substr(0, text.size() / 2);
  EXPECT_THROW((void)link::LinkSet::load(path), link::ConfigError);
  std::remove(path.c_str());
}

TEST(LinkSetIo, MissingFileAndBadVersionFailLoad) {
  EXPECT_THROW((void)link::LinkSet::load("/nonexistent/link_set.json"), link::ConfigError);
  io::Json j = two_link_set().to_json();
  j.set("skyferry_link_set", 999);
  EXPECT_THROW((void)link::LinkSet::from_json(j), link::ConfigError);
}

}  // namespace
}  // namespace skyferry
