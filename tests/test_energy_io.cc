#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "energy/energy_model.h"
#include "energy/latency_model.h"
#include "io/csv.h"
#include "io/table.h"
#include "offload/payload.h"

namespace uniloc {
namespace {

// ----------------------------------------------------------------- energy

core::RunResult fake_run(std::size_t epochs, std::size_t outdoor_from,
                         bool gps_on_outdoors) {
  core::RunResult run;
  run.scheme_names = {"GPS", "WiFi", "Cellular", "Motion", "Fusion"};
  for (std::size_t i = 0; i < epochs; ++i) {
    core::EpochRecord e;
    e.t = static_cast<double>(i) * 0.5;
    e.indoor_truth = i < outdoor_from;
    e.gps_was_enabled = !e.indoor_truth && gps_on_outdoors;
    run.epochs.push_back(e);
  }
  return run;
}

TEST(EnergyModel, RowsPresentAndPositive) {
  const auto rows = energy::account_energy(fake_run(400, 300, true), 0.5);
  ASSERT_EQ(rows.size(), 7u);
  for (const energy::EnergyRow& r : rows) {
    EXPECT_GE(r.energy_j, 0.0) << r.scheme;
    EXPECT_GE(r.power_mw, 0.0) << r.scheme;
  }
  EXPECT_EQ(rows[0].scheme, "GPS");
  EXPECT_EQ(rows.back().scheme, "UniLoc w/ GPS");
}

TEST(EnergyModel, MotionIsCheapestContinuousScheme) {
  const auto rows = energy::account_energy(fake_run(400, 300, true), 0.5);
  double motion = 0.0, wifi = 1e18, fusion = 0.0;
  for (const auto& r : rows) {
    if (r.scheme == "Motion") motion = r.energy_j;
    if (r.scheme == "WiFi") wifi = r.energy_j;
    if (r.scheme == "Fusion") fusion = r.energy_j;
  }
  EXPECT_GT(fusion, motion);  // fusion = motion + wifi scanning
  EXPECT_GT(motion, 0.0);
  EXPECT_GT(wifi, 0.0);
}

TEST(EnergyModel, UnilocModestlyAboveMotion) {
  // Paper: UniLoc w/o GPS ~ motion + 14%.
  const auto rows = energy::account_energy(fake_run(400, 300, false), 0.5);
  double motion = 0.0, uniloc = 0.0;
  for (const auto& r : rows) {
    if (r.scheme == "Motion") motion = r.energy_j;
    if (r.scheme == "UniLoc w/o GPS") uniloc = r.energy_j;
  }
  EXPECT_GT(uniloc, motion);
  EXPECT_LT(uniloc, motion * 1.35);
}

TEST(EnergyModel, GpsCountsOnlyOutdoorTime) {
  const auto all_indoor = energy::account_energy(fake_run(400, 400, true), 0.5);
  EXPECT_DOUBLE_EQ(all_indoor[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(all_indoor[0].energy_j, 0.0);
}

TEST(EnergyModel, PayloadParamsMatchWireEncodings) {
  // The energy model charges the byte counts serialize_uplink actually
  // puts on the wire (offload/payload.h), not hand-maintained copies.
  const energy::EnergyParams p;
  EXPECT_DOUBLE_EQ(p.motion_payload_b,
                   static_cast<double>(offload::StepPayload::kBytes));
  EXPECT_DOUBLE_EQ(p.gps_payload_b,
                   static_cast<double>(offload::GpsPayload::kBytes));
  EXPECT_DOUBLE_EQ(p.downlink_payload_b,
                   static_cast<double>(offload::DownlinkFrame::kBytes));
  // Marginal per-reading wire cost, derived from two real encodings so a
  // ScanPayload layout change breaks this test rather than the model.
  const offload::ScanPayload five =
      offload::ScanPayload::encode(std::vector<sim::ApReading>(5));
  const offload::ScanPayload four =
      offload::ScanPayload::encode(std::vector<sim::ApReading>(4));
  const double per_reading = static_cast<double>(five.bytes() - four.bytes());
  EXPECT_DOUBLE_EQ(p.per_ap_payload_b, per_reading);
  EXPECT_DOUBLE_EQ(p.per_cell_payload_b, per_reading);
}

TEST(EnergyModel, CellularUploadChargedAtCellPayload) {
  core::RunResult run = fake_run(100, 100, false);
  for (core::EpochRecord& e : run.epochs) e.cell_count = 4;
  energy::EnergyParams base;
  energy::EnergyParams inflated_ap = base;
  inflated_ap.per_ap_payload_b = 1000.0;  // no WiFi audible: must not matter
  energy::EnergyParams inflated_cell = base;
  inflated_cell.per_cell_payload_b = 1000.0;

  const auto cell_row = [](const std::vector<energy::EnergyRow>& rows) {
    for (const energy::EnergyRow& r : rows) {
      if (r.scheme == "Cellular") return r.energy_j;
    }
    return -1.0;
  };
  const double with_base = cell_row(energy::account_energy(run, 0.5, base));
  const double with_ap =
      cell_row(energy::account_energy(run, 0.5, inflated_ap));
  const double with_cell =
      cell_row(energy::account_energy(run, 0.5, inflated_cell));
  // The regression this pins: cell uploads used to be priced per AP.
  EXPECT_DOUBLE_EQ(with_ap, with_base);
  EXPECT_GT(with_cell, with_base);
}

TEST(EnergyModel, GpsSavingsRatio) {
  // GPS enabled on none of the outdoor epochs: infinite saving guarded
  // as ratio 0 (no duty-cycled consumption to compare).
  const energy::GpsSavings none =
      energy::gps_savings(fake_run(400, 300, false), 0.5);
  EXPECT_GT(none.always_on_j, 0.0);
  EXPECT_DOUBLE_EQ(none.duty_cycled_j, 0.0);
  EXPECT_DOUBLE_EQ(none.ratio, 0.0);
  // Always on outdoors: ratio 1.
  const energy::GpsSavings full =
      energy::gps_savings(fake_run(400, 300, true), 0.5);
  EXPECT_NEAR(full.ratio, 1.0, 1e-9);
}

// ---------------------------------------------------------------- latency

TEST(LatencyModel, ServerTimeIsMaxSchemePlusEnsemble) {
  energy::ResponseTimeReport r = energy::make_report(
      {{"A", 5.0, 1.0}, {"B", 2.0, 0.5}}, /*bma_ms=*/0.1);
  // Parallel schemes: slowest (5.0) + predictions (1.5) + bma (0.1).
  EXPECT_NEAR(r.server_ms(), 6.6, 1e-9);
}

TEST(LatencyModel, TotalIncludesTransmissions) {
  energy::LatencyParams p;
  energy::ResponseTimeReport r =
      energy::make_report({{"A", 5.0, 1.0}}, 0.1, p);
  EXPECT_NEAR(r.total_ms(),
              p.phone_sense_ms + p.uplink_ms + 6.1 + p.downlink_ms, 1e-9);
  EXPECT_GT(r.transmission_fraction(), 0.5);  // paper: ~73%
  EXPECT_LT(r.transmission_fraction(), 1.0);
}

// --------------------------------------------------------------------- io

TEST(Table, RendersAlignedMarkdown) {
  io::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, PadsMissingCells) {
  io::Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NE(t.to_string().find("| x"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(io::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(io::Table::num(2.0, 0), "2");
  EXPECT_EQ(io::Table::pct(0.1234), "12.3%");
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/uniloc_test.csv";
  {
    io::CsvWriter w(path, {"x", "y"});
    w.write_row(std::vector<double>{1.0, 2.5});
    w.write_row(std::vector<std::string>{"a,b", "plain"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",plain");
  std::remove(path.c_str());
}

TEST(Csv, RejectsColumnMismatch) {
  const std::string path = "/tmp/uniloc_test2.csv";
  io::CsvWriter w(path, {"x", "y"});
  EXPECT_THROW(w.write_row(std::vector<double>{1.0}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(io::CsvWriter("/nonexistent_dir_xyz/file.csv", {"a"}),
               std::runtime_error);
}

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Writer -> parser identity for one row of fields. The file is named
/// after the running test: ctest runs the callers in parallel processes.
void expect_round_trip(const std::vector<std::string>& fields) {
  const std::string path =
      ::testing::TempDir() + "uniloc_rt_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  std::vector<std::string> header(fields.size());
  for (std::size_t i = 0; i < header.size(); ++i) {
    header[i] = "c" + std::to_string(i);
  }
  {
    io::CsvWriter w(path, header);
    w.write_row(fields);
  }
  const auto rows = io::parse_csv(slurp(path));
  std::remove(path.c_str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], header);
  EXPECT_EQ(rows[1], fields);
}

}  // namespace

TEST(Csv, QuotesAndRoundTripsEmbeddedNewlines) {
  // The regression this pins: fields with \n or \r were written bare, so
  // a parser saw extra rows.
  expect_round_trip({"line1\nline2", "plain"});
  expect_round_trip({"cr\rhere", "x"});
  expect_round_trip({"crlf\r\nboth", "y"});
}

TEST(Csv, RoundTripsQuotesAndCommas) {
  expect_round_trip({"say \"hi\"", "a,b", "\"", ""});
  expect_round_trip({"mix,\"of\nall\r\nthree\"", "tail"});
}

TEST(Csv, ParsesCrlfRowTerminators) {
  const auto rows = io::parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(Csv, ParsesQuotedFieldWithLineBreakAcrossRows) {
  const auto rows = io::parse_csv("\"a\nb\",c\nd,e\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a\nb", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"d", "e"}));
}

TEST(Csv, ParsesFinalRowWithoutTerminatorAndEmptyFields) {
  const auto rows = io::parse_csv("a,,c\n,\"\"");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"", ""}));
}

}  // namespace
}  // namespace uniloc
