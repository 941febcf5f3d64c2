// The streaming CrayfishDataBatch codec (common/batch_json.h) against the
// JsonValue-tree decode it replaced: one test per fidelity rule, the number
// grammar against strtod, and a seeded mutation fuzz.

#include "common/batch_json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "batch_json_reference.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/data_batch.h"
#include "core/generator.h"

namespace crayfish {
namespace {

using crayfish::reference::ReferenceDecode;
using crayfish::reference::SameBits;

/// Decodes `text` with the codec and the tree; both must agree.
StatusOr<DecodedBatch> DecodeBoth(const std::string& text) {
  StatusOr<DecodedBatch> codec = DecodeBatchJson(text);
  StatusOr<DecodedBatch> tree = ReferenceDecode(text);
  EXPECT_EQ(codec.ok(), tree.ok())
      << text << "\n  codec: " << codec.status().ToString()
      << "\n  tree: " << tree.status().ToString();
  if (codec.ok() && tree.ok()) {
    EXPECT_TRUE(SameBits(*codec, *tree)) << text;
  }
  return codec;
}

TEST(BatchJsonTest, KeysInAnyOrder) {
  const std::vector<std::string> texts = {
      R"({"id":5,"ts":1.5,"shape":[2],"data":[1,2,3,4]})",
      R"({"data":[1,2,3,4],"shape":[2],"ts":1.5,"id":5})",
      R"({ "shape" : [ 2 ] ,
          "id":5, "data":[1, 2,3 ,4],"ts":1.5 } )",
  };
  for (const std::string& text : texts) {
    auto b = DecodeBoth(text);
    ASSERT_TRUE(b.ok()) << text;
    EXPECT_EQ(b->id, 5u);
    EXPECT_EQ(b->ts, 1.5);
    EXPECT_EQ(b->shape, (std::vector<int64_t>{2}));
    EXPECT_EQ(b->data, (std::vector<float>{1, 2, 3, 4}));
  }
}

TEST(BatchJsonTest, LastDuplicateKeyWins) {
  auto b = DecodeBoth(
      R"({"id":1,"shape":[3],"data":[9],"id":2,"shape":[2],"data":[1,2]})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->id, 2u);
  EXPECT_EQ(b->shape, (std::vector<int64_t>{2}));
  EXPECT_EQ(b->data, (std::vector<float>{1, 2}));
  // A later valid value repairs an earlier bad one, and the reverse.
  EXPECT_TRUE(DecodeBoth(R"({"shape":["x"],"data":[1],"shape":[1]})").ok());
  EXPECT_TRUE(DecodeBoth(R"({"shape":[1],"data":{},"data":[1]})").ok());
  EXPECT_FALSE(DecodeBoth(R"({"shape":[1],"data":[1],"data":[true]})").ok());
  EXPECT_FALSE(DecodeBoth(R"({"shape":[1],"data":[1],"shape":7})").ok());
  // A non-number id after a number one resets it to the default.
  b = DecodeBoth(R"({"id":4,"shape":[1],"data":[1],"id":"4"})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->id, 0u);
}

TEST(BatchJsonTest, UnknownKeysAreSkippedWithTheGenericGrammar) {
  auto b = DecodeBoth(
      R"({"meta":{"a":[1,{"b":null}],"c":"x\"yé"},"shape":[1],)"
      R"("tags":[true,false,null,"s",-1.5e3],"data":[0.5],"":[]})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->data, (std::vector<float>{0.5f}));
  // Escapes in keys are decoded before the match.
  b = DecodeBoth(R"({"\u0069d":9,"shape":[1],"data":[1]})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->id, 9u);
  // A malformed value under an unknown key fails the whole payload.
  EXPECT_FALSE(DecodeBoth(R"({"x":[1,],"shape":[1],"data":[1]})").ok());
  EXPECT_FALSE(DecodeBoth(R"({"x":tru,"shape":[1],"data":[1]})").ok());
  EXPECT_FALSE(DecodeBoth(R"({"x":"\q","shape":[1],"data":[1]})").ok());
}

TEST(BatchJsonTest, IdGoesThroughDoubleToInt64) {
  const std::vector<std::pair<std::string, uint64_t>> cases = {
      {"3.9", 3},
      {"-1", std::numeric_limits<uint64_t>::max()},
      {"9007199254740993", 9007199254740992ULL},  // rounds as a double
      {"1e300", 9223372036854775808ULL},          // out of range: INT64_MIN
      {"\"7\"", 0},
      {"null", 0},
  };
  for (const auto& [id, want] : cases) {
    auto b = DecodeBoth("{\"id\":" + id + ",\"shape\":[1],\"data\":[1]}");
    ASSERT_TRUE(b.ok()) << id;
    EXPECT_EQ(b->id, want) << id;
  }
  auto b = DecodeBoth(R"({"ts":"soon","shape":[1],"data":[1]})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->ts, 0.0);
  b = DecodeBoth(R"({"shape":[1],"data":[1]})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->id, 0u);
}

TEST(BatchJsonTest, RejectsWhatTheTreeDecodeRejects) {
  const std::vector<std::string> bad = {
      "",
      "   ",
      "[1,2]",
      "\"batch\"",
      "{}",
      R"({"shape":[2],"data":[1,2]} x)",
      R"({"shape":[2],"data":[1,2]}})",
      R"({"shape":[2],"data":[1,2],})",
      R"({"shape":[2] "data":[1,2]})",
      R"({"data":[1,2]})",
      R"({"shape":[2]})",
      R"({"shape":2,"data":[1,2]})",
      R"({"shape":[2],"data":"1,2"})",
      R"({"shape":["2"],"data":[1,2]})",
      R"({"shape":[2],"data":[1,null]})",
      R"({"shape":[2],"data":[1,[2]]})",
      R"({"shape":[2],"data":[1,2,3]})",
      R"({"shape":[0],"data":[]})",
      R"({"shape":[2,0],"data":[1,2]})",
      R"({"shape":[4294967296,4294967296],"data":[1]})",
      R"({"shape":[2],"data":[1,2)",
      R"({"shape":[2],"data":[1 2]})",
      R"({shape:[2],"data":[1,2]})",
  };
  for (const std::string& text : bad) {
    EXPECT_FALSE(DecodeBoth(text).ok()) << text;
    EXPECT_FALSE(core::CrayfishDataBatch::FromJson(text).ok()) << text;
  }
  // Every proper prefix of a valid payload is a truncation.
  const std::string good = R"({"id":3,"ts":0.5,"shape":[2],"data":[1,-2]})";
  ASSERT_TRUE(DecodeBoth(good).ok());
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(DecodeBoth(good.substr(0, n)).ok()) << n;
  }
  // An empty shape is one element per sample.
  EXPECT_TRUE(DecodeBoth(R"({"shape":[],"data":[1,2,3]})").ok());
}

/// JsonValue's number reader before it moved to from_chars: an optional
/// sign, a run of [0-9.eE+-], and strtod must consume the whole run.
const char* StrtodNumber(const char* p, const char* end, double* out) {
  const char* start = p;
  if (p != end && (*p == '-' || *p == '+')) ++p;
  bool any = false;
  while (p != end && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e' ||
                      *p == 'E' || *p == '-' || *p == '+')) {
    ++p;
    any = true;
  }
  if (!any) return nullptr;
  const std::string text(start, p);
  char* parse_end = nullptr;
  const double d = std::strtod(text.c_str(), &parse_end);
  if (parse_end != text.c_str() + text.size()) return nullptr;
  *out = d;
  return p;
}

void ExpectSameNumber(const std::string& text) {
  double want = 0.0;
  double got = 0.0;
  const char* end = text.data() + text.size();
  const char* want_end = StrtodNumber(text.data(), end, &want);
  const char* got_end = json::ReadNumber(text.data(), end, &got);
  ASSERT_EQ(want_end == nullptr, got_end == nullptr) << "'" << text << "'";
  if (want_end == nullptr) return;
  EXPECT_EQ(want_end, got_end) << "'" << text << "'";
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(want)), 0)
      << "'" << text << "': strtod " << want << ", ReadNumber " << got;
}

TEST(BatchJsonTest, KeepsStrtodNumberAcceptance) {
  const std::vector<std::string> texts = {
      "0", "-0", "+1.5", "+.5", "-.5", "5.", ".5e1", "0005", "1e5", "1E+5",
      "1e-5", "2.5e-3]", "1e400", "-1e400", "1e-400", "+1e400", "4e-320",
      "2e-324", "1.7976931348623159e308", "0.1000000000000000055511151231",
      "123456789012345678901234567890", "+-1", "-+1", "--1", "++1", "+",
      "-", ".", "-.", "e5", "1e", "1e+", "1.2.3", "1-2", "0x10", "inf",
      "-inf", "+inf", "nan", "-nan", "Infinity", "1,", "1 ", "-1]", "+ 1"};
  for (const std::string& t : texts) ExpectSameNumber(t);

  double v = 0.0;
  const std::string plus = "+2.5";
  ASSERT_NE(json::ReadNumber(plus.data(), plus.data() + plus.size(), &v),
            nullptr);
  EXPECT_EQ(v, 2.5);
  const std::string huge = "-1e999";
  ASSERT_NE(json::ReadNumber(huge.data(), huge.data() + huge.size(), &v),
            nullptr);
  EXPECT_EQ(v, -HUGE_VAL);
  const std::string tiny = "1e-999";
  ASSERT_NE(json::ReadNumber(tiny.data(), tiny.data() + tiny.size(), &v),
            nullptr);
  EXPECT_EQ(v, 0.0);

  auto b = DecodeBoth(R"({"shape":[+2],"data":[+1,1e999,-1e999,1e-999]})");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->data[0], 1.0f);
  EXPECT_EQ(b->data[1], std::numeric_limits<float>::infinity());
  EXPECT_EQ(b->data[2], -std::numeric_limits<float>::infinity());
  EXPECT_EQ(b->data[3], 0.0f);
}

TEST(BatchJsonTest, ReadNumberMatchesStrtodOnRandomText) {
  crayfish::Rng rng(77);
  const std::string alphabet = "0123456789012345678901234.eE+-+-.xinaf ,]";
  for (int i = 0; i < 60000; ++i) {
    std::string text;
    const size_t len = 1 + rng.NextUint64(12);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(alphabet[rng.NextUint64(alphabet.size())]);
    }
    ExpectSameNumber(text);
    if (::testing::Test::HasFailure()) break;
  }
}

/// One random edit: flip, truncate, insert, delete or duplicate bytes.
void Mutate(crayfish::Rng* rng, std::string* s) {
  static const std::vector<std::string> kTokens = {
      "{",  "}",    "[",     "]",    ",",       ":",      "\"",   "\\",
      "-",  "+",    ".",     "e",    "E",       "0",      "9",    " ",
      "\n", "null", "true",  "1e400", "\"id\":", "\"x\":", "\\u00", "nan",
      "[]", "{}",   "\"data\":[1],", "\"shape\":[1],"};
  const size_t pos = s->empty() ? 0 : rng->NextUint64(s->size() + 1);
  switch (rng->NextUint64(5)) {
    case 0:  // flip one byte
      if (!s->empty()) {
        const size_t at = rng->NextUint64(s->size());
        (*s)[at] = rng->Bernoulli(0.5)
                       ? static_cast<char>(rng->NextUint64(256))
                       : kTokens[rng->NextUint64(kTokens.size())][0];
      }
      break;
    case 1:  // truncate
      s->resize(pos);
      break;
    case 2:  // insert a token
      s->insert(pos, kTokens[rng->NextUint64(kTokens.size())]);
      break;
    case 3:  // delete a short span
      s->erase(std::min(pos, s->size()), 1 + rng->NextUint64(4));
      break;
    default: {  // duplicate a short span somewhere else
      if (s->empty()) break;
      const size_t from = rng->NextUint64(s->size());
      const std::string span = s->substr(from, 1 + rng->NextUint64(8));
      s->insert(rng->NextUint64(s->size() + 1), span);
    }
  }
}

// Seeded mutation fuzz: every mutant of a valid payload is either rejected
// by both decoders or decoded to bit-identical batches, and never crashes.
TEST(BatchJsonFuzzTest, MutantsDecodeLikeTheTree) {
  std::vector<std::string> seeds = {
      R"({"id":3,"ts":0.5,"shape":[2],"data":[1,-2]})",
      R"({ "data" : [ 0.125 , +1e2 ] , "shape" : [ 1 ] , "x" : {"a":[null]} })",
      R"({"id":1,"shape":[],"data":[1.5e-3],"tags":["a\"b",true]})",
      R"({"id":1,"shape":[1],"data":[2],"shape":[2],"data":[3,4]})",
  };
  core::DataGenerator generator({2, 3}, 2, crayfish::Rng(5));
  for (int i = 0; i < 4; ++i) {
    seeds.push_back(generator.NextMaterialized(0.25 * i).ToJson());
  }
  crayfish::Rng rng(20241017);
  int accepted = 0;
  int mutants = 0;
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(DecodeBoth(seed).ok()) << seed;
    for (int i = 0; i < 4000; ++i) {
      std::string text = seed;
      const uint64_t edits = 1 + rng.NextUint64(3);
      for (uint64_t e = 0; e < edits; ++e) Mutate(&rng, &text);
      ++mutants;
      if (DecodeBoth(text).ok()) ++accepted;
      if (::testing::Test::HasFailure()) return;
    }
  }
  // The fuzz must reach the accept path too, not only the rejections.
  EXPECT_GT(accepted, mutants / 40) << accepted << " of " << mutants;
  std::printf("%d of %d mutants accepted by both decoders\n", accepted,
              mutants);
}

}  // namespace
}  // namespace crayfish
