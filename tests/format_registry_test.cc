#include <gtest/gtest.h>

#include "engine/formats/builtin.h"
#include "engine/formats/drivers.h"
#include "format/format.h"
#include "format/format_driver.h"
#include "jit/pipeline_spec.h"
#include "tests/test_util.h"

namespace raw {
namespace {

class FormatRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { EnsureBuiltinFormatDriversRegistered(); }
};

TEST_F(FormatRegistryTest, BuiltinsCoverEveryFormat) {
  FormatRegistry& registry = FormatRegistry::Global();
  const struct {
    FileFormat format;
    const char* name;
  } expected[] = {
      {FileFormat::kCsv, "csv"},       {FileFormat::kBinary, "bin"},
      {FileFormat::kRef, "ref"},       {FileFormat::kJsonl, "jsonl"},
      {FileFormat::kCsvGz, "csv.gz"},
  };
  for (const auto& e : expected) {
    const FormatDriver* driver = registry.Find(e.format);
    ASSERT_NE(driver, nullptr) << e.name;
    EXPECT_EQ(driver->name(), e.name);
    EXPECT_EQ(driver->format(), e.format);
    EXPECT_EQ(registry.FindByName(e.name), driver);
  }
  EXPECT_GE(registry.Drivers().size(), 5u);
}

TEST_F(FormatRegistryTest, RequireAnnotatesUnknownFormats) {
  auto missing = FormatRegistry::Global().Require(static_cast<FileFormat>(99));
  ASSERT_FALSE(missing.ok());
  // The error lists what *is* registered so misconfiguration is debuggable.
  EXPECT_NE(missing.status().ToString().find("csv"), std::string::npos);
}

TEST_F(FormatRegistryTest, DuplicateRegistrationFailsAtRegisterTime) {
  FormatRegistry& registry = FormatRegistry::Global();
  Status dup_format = registry.Register(MakeCsvFormatDriver());
  EXPECT_FALSE(dup_format.ok());
  EXPECT_NE(dup_format.ToString().find("already registered"),
            std::string::npos);
  EXPECT_FALSE(registry.Register(nullptr).ok());
}

TEST_F(FormatRegistryTest, FormatNamesRoundTripThroughRegistry) {
  for (const char* name : {"csv", "bin", "ref", "jsonl", "csv.gz"}) {
    ASSERT_OK_AND_ASSIGN(FileFormat format, ParseFileFormat(name));
    EXPECT_EQ(FileFormatToString(format), name);
  }
  EXPECT_EQ(FileFormatToString(static_cast<FileFormat>(42)), "unregistered");
  auto unknown = ParseFileFormat("parquet");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("registered:"),
            std::string::npos);
}

TEST_F(FormatRegistryTest, JitEmissionDefaultsToNotImplemented) {
  // Formats without a JIT plug-in (jsonl, csv.gz) report a typed error the
  // planner treats as "take the interpreted path", not a crash.
  const FormatDriver* jsonl =
      FormatRegistry::Global().Find(FileFormat::kJsonl);
  ASSERT_NE(jsonl, nullptr);
  PipelineSpec spec;
  spec.format = FileFormat::kJsonl;
  auto src = jsonl->EmitJitPipelineSource(spec);
  ASSERT_FALSE(src.ok());
  EXPECT_NE(src.status().ToString().find("jsonl"), std::string::npos);
}

}  // namespace
}  // namespace raw
