// Odds and ends of the core facade: result formatting, stats arithmetic,
// option interactions, and value edge cases that cut across modules.

#include <gtest/gtest.h>

#include "core/gordian.h"
#include "datagen/synthetic.h"
#include "table/csv.h"

namespace gordian {
namespace {

Table PaperDataset() {
  TableBuilder b(Schema(std::vector<std::string>{
      "First Name", "Last Name", "Phone", "Emp No"}));
  b.AddRow({Value("Michael"), Value("Thompson"), Value(int64_t{3478}),
            Value(int64_t{10})});
  b.AddRow({Value("Michael"), Value("Thompson"), Value(int64_t{6791}),
            Value(int64_t{50})});
  b.AddRow({Value("Michael"), Value("Spencer"), Value(int64_t{5237}),
            Value(int64_t{20})});
  b.AddRow({Value("Sally"), Value("Kwan"), Value(int64_t{3478}),
            Value(int64_t{90})});
  return b.Build();
}

TEST(FormatResult, ListsKeysAndNonKeysWithNames) {
  Table t = PaperDataset();
  KeyDiscoveryResult r = FindKeys(t);
  std::string s = FormatResult(t, r);
  EXPECT_NE(s.find("keys (3):"), std::string::npos);
  EXPECT_NE(s.find("<Emp No>"), std::string::npos);
  EXPECT_NE(s.find("<First Name, Phone>"), std::string::npos);
  EXPECT_NE(s.find("non-keys (2):"), std::string::npos);
  EXPECT_NE(s.find("<Phone>"), std::string::npos);
}

TEST(FormatResult, NoKeysMessage) {
  TableBuilder b(Schema(std::vector<std::string>{"a"}));
  b.AddRow({Value(int64_t{1})});
  b.AddRow({Value(int64_t{1})});
  Table t = b.Build();
  KeyDiscoveryResult r = FindKeys(t);
  EXPECT_NE(FormatResult(t, r).find("no keys exist"), std::string::npos);
}

TEST(FormatResult, SampledRunShowsEstimates) {
  SyntheticSpec spec = UniformSpec(4, 500, 64, 0.0, 71);
  Table t;
  ASSERT_TRUE(GenerateSynthetic(spec, &t).ok());
  GordianOptions o;
  o.sample_rows = 50;
  KeyDiscoveryResult r = FindKeys(t, o);
  ASSERT_TRUE(r.sampled);
  std::string s = FormatResult(t, r);
  EXPECT_NE(s.find("est-strength"), std::string::npos);
}

TEST(Stats, TotalSecondsSumsPhases) {
  GordianStats s;
  s.build_seconds = 1.5;
  s.freeze_seconds = 0.5;
  s.find_seconds = 2.25;
  s.convert_seconds = 0.25;
  EXPECT_DOUBLE_EQ(s.TotalSeconds(), 4.5);
}

TEST(Options, SamplingComposesWithNullSemantics) {
  // A nullable column plus sampling: both transformations apply.
  TableBuilder b(Schema(std::vector<std::string>{"maybe", "id"}));
  for (int64_t i = 0; i < 300; ++i) {
    b.AddRow({i == 7 ? Value::Null() : Value(i % 50), Value(i)});
  }
  Table t = b.Build();
  GordianOptions o;
  o.null_semantics = GordianOptions::NullSemantics::kExcludeNullableColumns;
  o.sample_rows = 100;
  KeyDiscoveryResult r = FindKeys(t, o);
  EXPECT_TRUE(r.sampled);
  for (const DiscoveredKey& k : r.keys) {
    EXPECT_FALSE(k.attrs.Test(0));
  }
}

TEST(Values, ScientificNotationInfersAsDouble) {
  EXPECT_EQ(ParseCsvField("1e5", true).type(), ValueType::kDouble);
  EXPECT_EQ(ParseCsvField("-2.5E-3", true).type(), ValueType::kDouble);
  EXPECT_EQ(ParseCsvField("123", true).type(), ValueType::kInt64);
  EXPECT_EQ(ParseCsvField("12x", true).type(), ValueType::kString);
  EXPECT_TRUE(ParseCsvField("", true).is_null());
  EXPECT_EQ(ParseCsvField("", false).type(), ValueType::kString);
}

TEST(Values, NegativeZeroAndZeroCompareEqualAsDoubles) {
  // IEEE -0.0 == 0.0; the dictionary therefore assigns them one code, so
  // they cannot fabricate distinctness.
  Dictionary d;
  EXPECT_EQ(d.Encode(Value(0.0)), d.Encode(Value(-0.0)));
}

TEST(Values, IntAndDoubleWithSameMagnitudeStayDistinct) {
  Dictionary d;
  EXPECT_NE(d.Encode(Value(int64_t{1})), d.Encode(Value(1.0)));
}

TEST(KeySets, ReturnedInResultOrder) {
  Table t = PaperDataset();
  KeyDiscoveryResult r = FindKeys(t);
  auto sets = r.KeySets();
  ASSERT_EQ(sets.size(), r.keys.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i], r.keys[i].attrs);
  }
  // Keys come sorted by ascending cardinality (smallest candidates first).
  for (size_t i = 1; i < sets.size(); ++i) {
    EXPECT_LE(sets[i - 1].Count(), sets[i].Count());
  }
}

}  // namespace
}  // namespace gordian
