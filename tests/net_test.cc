// Tests for the HTTP front-end: the JSON codec round-trips binary32
// exactly, the request parser enforces its hard limits, and the epoll
// server serves real loopback traffic — concurrent keep-alive clients
// get responses bit-identical to DssddiSystem::Suggest, overload sheds
// 429s instead of hanging, and a hot bundle reload under sustained load
// swaps models without dropping or corrupting a single response.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/dssddi_system.h"
#include "gtest/gtest.h"
#include "io/bundle_v3.h"
#include "io/inference_bundle.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/json.h"
#include "net/suggest_frontend.h"
#include "net/wire.h"
#include "serve/service.h"
#include "tensor/kernels/gemm_backend.h"
#include "test_support.h"
#include "util/rng.h"
#include "worker_gate.h"

namespace dssddi {
namespace {

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

TEST(JsonTest, WriterParserRoundTrip) {
  net::JsonWriter writer;
  writer.BeginObject()
      .Key("name").String("he said \"hi\"\n")
      .Key("count").Int(-42)
      .Key("ok").Bool(true)
      .Key("nothing").Null()
      .Key("values").BeginArray().Double(1.5).Double(-0.25).EndArray()
      .Key("nested").BeginObject().Key("deep").Int(7).EndObject()
      .EndObject();

  net::JsonValue document;
  std::string error;
  ASSERT_TRUE(net::ParseJson(writer.str(), &document, &error)) << error;
  ASSERT_TRUE(document.is_object());
  EXPECT_EQ(document.Find("name")->AsString(), "he said \"hi\"\n");
  EXPECT_EQ(document.Find("count")->AsInt(), -42);
  EXPECT_TRUE(document.Find("ok")->AsBool());
  EXPECT_TRUE(document.Find("nothing")->is_null());
  ASSERT_EQ(document.Find("values")->Items().size(), 2u);
  EXPECT_DOUBLE_EQ(document.Find("values")->Items()[0].AsDouble(), 1.5);
  EXPECT_EQ(document.Find("nested")->Find("deep")->AsInt(), 7);
}

TEST(JsonTest, FloatSerializationRoundTripsBinary32Exactly) {
  // The serving contract rides on this: scores cross the wire as decimal
  // text yet must compare bit-equal to the in-process floats.
  const std::vector<float> tricky = {
      0.1f, 1.0f / 3.0f, 1e-8f, -3.402823e38f, 1.17549435e-38f,
      0.49999997f, 2.0000002f, -0.0f};
  net::JsonWriter writer;
  writer.BeginArray();
  for (const float value : tricky) writer.Float(value);
  writer.EndArray();

  net::JsonValue document;
  std::string error;
  ASSERT_TRUE(net::ParseJson(writer.str(), &document, &error)) << error;
  ASSERT_EQ(document.Items().size(), tricky.size());
  for (size_t i = 0; i < tricky.size(); ++i) {
    const float parsed = static_cast<float>(document.Items()[i].AsDouble());
    EXPECT_EQ(std::memcmp(&parsed, &tricky[i], sizeof(float)), 0)
        << "float " << i << " did not round-trip";
  }
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  net::JsonValue document;
  std::string error;
  EXPECT_FALSE(net::ParseJson("", &document, &error));
  EXPECT_FALSE(net::ParseJson("{\"a\":1} trailing", &document, &error));
  EXPECT_FALSE(net::ParseJson("{\"a\":}", &document, &error));
  EXPECT_FALSE(net::ParseJson("\"bad \\q escape\"", &document, &error));
  EXPECT_FALSE(net::ParseJson("{\"a\" 1}", &document, &error));
  EXPECT_FALSE(net::ParseJson("[1,2", &document, &error));
  // 70 nested arrays exceeds the depth cap of 64.
  EXPECT_FALSE(net::ParseJson(std::string(70, '[') + std::string(70, ']'),
                              &document, &error));
  // Escapes parse correctly, including surrogate pairs.
  ASSERT_TRUE(net::ParseJson("\"\\u00e9\\ud83d\\ude00\"", &document, &error))
      << error;
  EXPECT_EQ(document.AsString(), "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(JsonTest, ReparsingIntoAReusedValueDropsTheOldDocument) {
  // Poll loops parse into the same JsonValue each iteration; a parse
  // that appended instead of replaced would leave Find() answering from
  // the stale document forever.
  net::JsonValue document;
  std::string error;
  ASSERT_TRUE(net::ParseJson("{\"flag\":false,\"items\":[1,2]}", &document,
                             &error))
      << error;
  EXPECT_FALSE(document.Find("flag")->AsBool());
  ASSERT_TRUE(net::ParseJson("{\"flag\":true,\"items\":[3]}", &document,
                             &error))
      << error;
  EXPECT_TRUE(document.Find("flag")->AsBool());
  ASSERT_EQ(document.Find("items")->Items().size(), 1u);
  EXPECT_EQ(document.Find("items")->Items()[0].AsInt(), 3);
  ASSERT_EQ(document.Members().size(), 2u);
  // A failed re-parse must not leave a half-written hybrid either.
  EXPECT_FALSE(net::ParseJson("{\"flag\":", &document, &error));
}

/// Element slots the parsed tree holds (vector capacities, summed over
/// every array and object in it).
size_t ReservedSlots(const net::JsonValue& value) {
  size_t slots = value.Items().capacity() + value.Members().capacity();
  for (const net::JsonValue& item : value.Items()) slots += ReservedSlots(item);
  for (const auto& member : value.Members()) {
    slots += ReservedSlots(member.second);
  }
  return slots;
}

TEST(JsonTest, NestingCannotMakeTheParserReserveMoreThanTheTextHolds) {
  // Every element takes at least one byte of text and a vector grown
  // one element at a time holds under twice its elements, so a tree
  // never needs more than 2 slots per byte. Deep nesting over a flat
  // array is the shape that breaks a per-array look-ahead reserve: each
  // enclosing level would count the same commas again.
  std::string flat = "[0";
  for (int i = 1; i < 256; ++i) flat += ",0";
  flat += "]";
  const int levels = 62;
  const std::string subtree =
      std::string(levels, '[') + flat + std::string(levels, ']');
  std::string text = "[" + subtree;
  for (int i = 1; i < 32; ++i) text += "," + subtree;
  text += "]";

  net::JsonValue document;
  std::string error;
  ASSERT_TRUE(net::ParseJson(text, &document, &error)) << error;
  ASSERT_EQ(document.Items().size(), 32u);
  EXPECT_LE(ReservedSlots(document), 2 * text.size())
      << text.size() << " bytes of text";
}

// Differential checks of the codec's number and string handling against
// the libc routines its output is defined by: a parsed number is what
// strtod makes of the whole token (same accept/reject verdict, same
// bits), and every written value is what snprintf's %.9g / %.17g print.

/// strtod's verdict on a whole token: true with `*value` set when it
/// consumes every byte, as the parser has always required.
bool StrtodWhole(const std::string& token, double* value) {
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != token.c_str() && *end == '\0';
}

/// Parses `token` both as a bare document and as the one element of an
/// array, and checks each against strtod: same verdict and, when
/// accepted, the same double, bit for bit.
void ExpectParsesLikeStrtod(const std::string& token) {
  double want = 0.0;
  const bool accepted = StrtodWhole(token, &want);
  for (const std::string& text : {token, "[" + token + "]"}) {
    net::JsonValue document;
    std::string error;
    const bool parsed = net::ParseJson(text, &document, &error);
    ASSERT_EQ(parsed, accepted) << "'" << text << "': " << error;
    if (!accepted) continue;
    const net::JsonValue& number =
        document.is_array() ? document.Items().at(0) : document;
    ASSERT_TRUE(number.is_number()) << text;
    const double got = number.AsDouble();
    ASSERT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "'" << text << "' parsed to " << got << ", strtod gives " << want;
  }
}

std::string PrintG(double value, int precision) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
  return buffer;
}

TEST(JsonTest, ParsedNumbersAreBitIdenticalToStrtod) {
  util::Rng rng(20);
  int checked = 0;
  for (int i = 0; i < 40000; ++i) {
    uint32_t float_bits = static_cast<uint32_t>(rng.NextU64());
    uint64_t double_bits = rng.NextU64();
    // Every fourth draw is subnormal: a zero exponent field.
    if (i % 4 == 0) {
      float_bits &= 0x807FFFFFu;
      double_bits &= 0x800FFFFFFFFFFFFFull;
    }
    float f;
    double d;
    std::memcpy(&f, &float_bits, sizeof(f));
    std::memcpy(&d, &double_bits, sizeof(d));
    if (std::isfinite(f)) {
      const std::string token = PrintG(f, 9);
      ExpectParsesLikeStrtod(token);
      // The serving contract: %.9g text recovers the very binary32 value.
      net::JsonValue number;
      std::string error;
      ASSERT_TRUE(net::ParseJson(token, &number, &error)) << error;
      const float back = static_cast<float>(number.AsDouble());
      ASSERT_EQ(std::memcmp(&back, &f, sizeof(f)), 0) << token;
      ++checked;
    }
    if (std::isfinite(d)) {
      ExpectParsesLikeStrtod(PrintG(d, 17));
      ExpectParsesLikeStrtod(PrintG(d, 9));
      ++checked;
    }
  }
  EXPECT_GT(checked, 70000);
}

TEST(JsonTest, AwkwardNumberTokensKeepStrtodVerdicts) {
  // Tokens from_chars and strtod disagree on, or that sit on a range
  // edge, or that are malformed: each must keep strtod's verdict.
  const std::vector<std::string> tokens = {
      "+1", "1e400", "-1e400", "1e-400", "-0", "01", "1.", ".5", "1e",
      "--1", "1-2", "-", "+", ".", "1e+", "1E5", "-.5e-3", "+.5", "1e+2+",
      "4.9406564584124654e-324", "2.4703282292062328e-324",
      "2.4703282292062327e-324", "1.7976931348623157e308",
      "1.7976931348623158e308", "1.7976931348623159e308",
      "2.2250738585072011e-308", "9007199254740993", "1e-45", "0.0",
      "-0.0e0", "00000000000000000000001", "1.00000000000000011102230246251565404236316680908203125"};
  for (const std::string& token : tokens) {
    SCOPED_TRACE(token);
    ExpectParsesLikeStrtod(token);
  }
  // The verdicts themselves, so a change to both sides shows too.
  net::JsonValue number;
  std::string error;
  ASSERT_TRUE(net::ParseJson("+1", &number, &error));
  EXPECT_EQ(number.AsDouble(), 1.0);
  ASSERT_TRUE(net::ParseJson("1e400", &number, &error));
  EXPECT_EQ(number.AsDouble(), std::numeric_limits<double>::infinity());
  ASSERT_TRUE(net::ParseJson("-0", &number, &error));
  EXPECT_TRUE(std::signbit(number.AsDouble()));
  for (const char* bad : {"1e", "--1", "1-2"}) {
    EXPECT_FALSE(net::ParseJson(bad, &number, &error)) << bad;
  }
}

// The writer as it was defined: snprintf for numbers, std::to_string
// for integers, byte-by-byte escaping.
std::string ReferenceGeneral(double value, int precision) {
  const std::string text = PrintG(value, precision);
  return text.find_first_of("ni") == std::string::npos ? text : "null";
}

std::string ReferenceEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

TEST(JsonTest, WriterBytesMatchSnprintfReference) {
  util::Rng rng(21);
  std::vector<float> floats = {
      0.0f, -0.0f, 1.0f, 0.1f, 1e-8f, 3.4028235e38f, -3.4028235e38f,
      1.17549435e-38f, 1.4e-45f, 100000000.0f, 123456789.0f,
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity()};
  std::vector<double> doubles = {
      0.0, -0.0, 1.0, 0.1, 1e21, 1e-7, 123456789012345678.0,
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (int i = 0; i < 20000; ++i) {
    // Raw bit patterns reach NaN payloads, infinities and subnormals.
    const uint64_t bits = rng.NextU64();
    float f;
    double d;
    const uint32_t float_bits = static_cast<uint32_t>(bits >> 32);
    std::memcpy(&f, &float_bits, sizeof(f));
    std::memcpy(&d, &bits, sizeof(d));
    floats.push_back(f);
    doubles.push_back(d);
    doubles.push_back(rng.Normal() * std::pow(10.0, rng.Uniform(-30, 30)));
  }
  for (const float f : floats) {
    net::JsonWriter writer;
    writer.BeginArray().Float(f).EndArray();
    ASSERT_EQ(writer.str(),
              "[" + ReferenceGeneral(static_cast<double>(f), 9) + "]");
  }
  for (const double d : doubles) {
    net::JsonWriter writer;
    writer.BeginArray().Double(d).EndArray();
    ASSERT_EQ(writer.str(), "[" + ReferenceGeneral(d, 17) + "]");
  }

  std::vector<int64_t> ints = {0, 1, -1, INT64_MIN, INT64_MAX, INT32_MIN,
                               INT32_MAX};
  for (int i = 0; i < 1000; ++i) {
    ints.push_back(static_cast<int64_t>(rng.NextU64()) >> (i % 64));
  }
  for (const int64_t value : ints) {
    net::JsonWriter writer;
    writer.BeginArray().Int(value).UInt(static_cast<uint64_t>(value)).EndArray();
    ASSERT_EQ(writer.str(), "[" + std::to_string(value) + "," +
                                std::to_string(static_cast<uint64_t>(value)) +
                                "]");
  }

  // Every byte value, in keys and in strings, plus random mixes.
  std::vector<std::string> texts = {"", "plain", "he said \"hi\"\n",
                                    "back\\slash", std::string(1, '\0')};
  std::string all_bytes;
  for (int c = 0; c < 256; ++c) all_bytes.push_back(static_cast<char>(c));
  texts.push_back(all_bytes);
  for (int i = 0; i < 500; ++i) {
    std::string text;
    const int length = static_cast<int>(rng.NextBelow(40));
    for (int j = 0; j < length; ++j) {
      text.push_back(static_cast<char>(rng.NextBelow(j % 3 == 0 ? 256 : 0x30)));
    }
    texts.push_back(text);
  }
  for (const std::string& text : texts) {
    net::JsonWriter writer;
    writer.BeginObject().Key(text).String(text).EndObject();
    const std::string escaped = ReferenceEscape(text);
    ASSERT_EQ(writer.str(), "{\"" + escaped + "\":\"" + escaped + "\"}");
    ASSERT_EQ(net::JsonEscape(text), escaped);
  }
}

TEST(JsonTest, SuggestionToJsonWritesTheServedLayout) {
  core::Suggestion suggestion;
  suggestion.drugs = {4, 0, 9};
  suggestion.scores = {0.875f, 0.1f, -2.5e-7f};
  suggestion.explanation.suggestion_satisfaction = 2.0 / 3.0;
  suggestion.explanation.subgraph_drugs = {0, 4, 7};
  suggestion.explanation.synergies_within = {{0, 4}};
  suggestion.explanation.antagonisms_within = {{4, 7}};
  suggestion.explanation.trussness = 3;
  suggestion.explanation.diameter = 2;
  suggestion.explanation.density = 0.5;
  const std::vector<std::string> names = {"aspirin", "b", "c", "d",
                                          "met\"formin"};
  EXPECT_EQ(net::SuggestionToJson(suggestion, names, 7, 42, true, 99),
            "{\"patient_id\":42,\"model_version\":7,\"trace_id\":99,"
            "\"drugs\":[4,0,9],\"scores\":[0.875,0.100000001,-2.49999999e-07],"
            "\"drug_names\":[\"met\\\"formin\",\"aspirin\",null],"
            "\"explanation\":{\"suggestion_satisfaction\":0.66666666666666663,"
            "\"subgraph_drugs\":[0,4,7],\"synergies_within\":[[0,4]],"
            "\"antagonisms_within\":[[4,7]],\"antagonisms_outward\":[],"
            "\"trussness\":3,\"diameter\":2,\"density\":0.5}}");
  EXPECT_EQ(net::SuggestionToJson(suggestion, names, 7, -1, false, 0),
            "{\"patient_id\":-1,\"model_version\":7,\"trace_id\":0,"
            "\"drugs\":[4,0,9],\"scores\":[0.875,0.100000001,-2.49999999e-07],"
            "\"drug_names\":[\"met\\\"formin\",\"aspirin\",null]}");
}

// ---------------------------------------------------------------------
// Binary wire codec
// ---------------------------------------------------------------------

namespace wire = net::wire;

TEST(WireTest, RequestFrameRoundTripsBitExactly) {
  wire::SuggestRequestFrame frame;
  frame.patient_id = 1234567890123ll;
  frame.deadline_ms = 250;
  frame.k = 5;
  frame.explain = true;
  frame.batch_priority = true;
  frame.trace_id = 0xdeadbeefcafef00dull;
  // Floats whose decimal round-trip is famously delicate; the binary
  // codec must carry their exact bit patterns regardless.
  frame.features = {0.1f, 1.0f / 3.0f, 1e-8f, -3.402823e38f,
                    1.17549435e-38f, -0.0f, 2.0000002f};

  const std::string encoded = wire::EncodeSuggestRequest(frame);
  EXPECT_EQ(encoded.size(),
            wire::kHeaderBytes + 28 + 4 * frame.features.size());
  wire::FrameType type;
  std::string error;
  ASSERT_TRUE(wire::PeekFrameType(encoded, &type, &error)) << error;
  EXPECT_EQ(type, wire::FrameType::kSuggestRequest);

  wire::SuggestRequestFrame decoded;
  ASSERT_TRUE(wire::DecodeSuggestRequest(encoded, &decoded, &error)) << error;
  EXPECT_EQ(decoded.patient_id, frame.patient_id);
  EXPECT_EQ(decoded.deadline_ms, frame.deadline_ms);
  EXPECT_EQ(decoded.k, frame.k);
  EXPECT_EQ(decoded.explain, frame.explain);
  EXPECT_EQ(decoded.batch_priority, frame.batch_priority);
  EXPECT_EQ(decoded.trace_id, frame.trace_id);
  ASSERT_EQ(decoded.features.size(), frame.features.size());
  EXPECT_EQ(std::memcmp(decoded.features.data(), frame.features.data(),
                        frame.features.size() * sizeof(float)),
            0);
}

TEST(WireTest, ResponseAndErrorFramesRoundTrip) {
  wire::SuggestResponseFrame response;
  response.model_version = 7;
  response.trace_id = 99;
  response.drugs = {5, 0, -1, 2147483647};
  response.scores = {0.49999997f, -0.0f, 1e-8f, 3.14159274f};
  const std::string encoded = wire::EncodeSuggestResponse(response);

  wire::SuggestResponseFrame decoded;
  std::string error;
  ASSERT_TRUE(wire::DecodeSuggestResponse(encoded, &decoded, &error)) << error;
  EXPECT_EQ(decoded.model_version, 7u);
  EXPECT_EQ(decoded.trace_id, 99u);
  EXPECT_EQ(decoded.drugs, response.drugs);
  ASSERT_EQ(decoded.scores.size(), response.scores.size());
  EXPECT_EQ(std::memcmp(decoded.scores.data(), response.scores.data(),
                        response.scores.size() * sizeof(float)),
            0);

  wire::ErrorFrame failure{429, "overloaded, retry later"};
  wire::ErrorFrame failure_decoded;
  ASSERT_TRUE(wire::DecodeError(wire::EncodeError(failure), &failure_decoded,
                                &error))
      << error;
  EXPECT_EQ(failure_decoded.status, 429u);
  EXPECT_EQ(failure_decoded.message, "overloaded, retry later");
  // An empty message is legal (and the smallest possible error frame).
  ASSERT_TRUE(wire::DecodeError(wire::EncodeError({500, ""}), &failure_decoded,
                                &error))
      << error;
  EXPECT_EQ(failure_decoded.message, "");
}

TEST(WireTest, CorruptFrameSweepRejectsEveryMutation) {
  wire::SuggestRequestFrame frame;
  frame.patient_id = 42;
  frame.deadline_ms = 100;
  frame.k = 3;
  frame.features = {1.0f, -2.5f, 0.25f};
  const std::string good = wire::EncodeSuggestRequest(frame);
  wire::SuggestRequestFrame out;
  std::string error;
  ASSERT_TRUE(wire::DecodeSuggestRequest(good, &out, &error)) << error;

  // Truncation: every strict prefix — header cut short, payload cut
  // short, feature array cut mid-float — must fail cleanly.
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(wire::DecodeSuggestRequest(good.substr(0, n), &out, &error))
        << "prefix of " << n << " bytes decoded";
  }
  // Oversized: trailing bytes past the declared payload length.
  EXPECT_FALSE(wire::DecodeSuggestRequest(good + "x", &out, &error));
  EXPECT_FALSE(
      wire::DecodeSuggestRequest(good + std::string(64, '\0'), &out, &error));

  const auto mutate = [&](size_t offset, char value) {
    std::string bad = good;
    bad[offset] = value;
    return bad;
  };
  // Bad magic (either byte), bad version, unknown frame type.
  EXPECT_FALSE(wire::DecodeSuggestRequest(mutate(0, 'X'), &out, &error));
  EXPECT_FALSE(wire::DecodeSuggestRequest(mutate(1, 'X'), &out, &error));
  EXPECT_FALSE(wire::DecodeSuggestRequest(mutate(2, 9), &out, &error));
  EXPECT_FALSE(wire::DecodeSuggestRequest(mutate(3, 77), &out, &error));
  // Right header, wrong frame type for the decoder called.
  EXPECT_FALSE(wire::DecodeSuggestRequest(
      wire::EncodeError({400, "nope"}), &out, &error));
  wire::SuggestResponseFrame response_out;
  EXPECT_FALSE(wire::DecodeSuggestResponse(good, &response_out, &error));
  // Length prefix lies about the payload size (both directions).
  EXPECT_FALSE(wire::DecodeSuggestRequest(
      mutate(4, static_cast<char>(good.size() - wire::kHeaderBytes - 1)),
      &out, &error));
  EXPECT_FALSE(wire::DecodeSuggestRequest(
      mutate(4, static_cast<char>(good.size() - wire::kHeaderBytes + 1)),
      &out, &error));
  // Unknown flag bits and a nonzero reserved byte (offsets: header 16 +
  // patient 8 + deadline 4 + k 2 = flags at 30, reserved at 31).
  EXPECT_FALSE(
      wire::DecodeSuggestRequest(mutate(30, '\x7f'), &out, &error));
  EXPECT_FALSE(wire::DecodeSuggestRequest(mutate(31, 1), &out, &error));
  // Feature count inconsistent with the bytes actually present
  // (num_features little-endian at payload offset 24 -> absolute 40).
  EXPECT_FALSE(wire::DecodeSuggestRequest(
      mutate(40, static_cast<char>(frame.features.size() + 1)), &out, &error));
  EXPECT_FALSE(wire::DecodeSuggestRequest(
      mutate(40, static_cast<char>(frame.features.size() - 1)), &out, &error));
  // Declared feature count near 2^32 must not provoke a giant resize.
  EXPECT_FALSE(wire::DecodeSuggestRequest(mutate(43, '\x7f'), &out, &error));

  // Response-side truncation sweep: same strictness on the client path.
  wire::SuggestResponseFrame response;
  response.drugs = {1, 2, 3};
  response.scores = {0.5f, 0.25f, 0.125f};
  const std::string good_response = wire::EncodeSuggestResponse(response);
  for (size_t n = 0; n < good_response.size(); ++n) {
    EXPECT_FALSE(wire::DecodeSuggestResponse(good_response.substr(0, n),
                                             &response_out, &error))
        << "response prefix of " << n << " bytes decoded";
  }
  EXPECT_FALSE(
      wire::DecodeSuggestResponse(good_response + "y", &response_out, &error));
}

// ---------------------------------------------------------------------
// HTTP parser
// ---------------------------------------------------------------------

TEST(HttpParserTest, ParsesPipelinedRequestsIncrementally) {
  const std::string wire =
      "POST /v1/suggest HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "abcd"
      "GET /healthz HTTP/1.1\r\n\r\n";

  net::HttpParser parser;
  // Feed byte-by-byte: the parser must consume exactly the first request
  // and leave the pipelined follower untouched.
  size_t offset = 0;
  net::HttpParser::Result result = net::HttpParser::Result::kNeedMore;
  while (offset < wire.size() && result == net::HttpParser::Result::kNeedMore) {
    size_t consumed = 0;
    result = parser.Feed(wire.data() + offset, 1, &consumed);
    offset += consumed;
  }
  ASSERT_EQ(result, net::HttpParser::Result::kComplete);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().target, "/v1/suggest");
  EXPECT_EQ(parser.request().body, "abcd");
  EXPECT_TRUE(parser.request().keep_alive);
  ASSERT_NE(parser.request().FindHeader("content-type"), nullptr);
  EXPECT_EQ(*parser.request().FindHeader("content-type"), "application/json");

  parser.Reset();
  size_t consumed = 0;
  result = parser.Feed(wire.data() + offset, wire.size() - offset, &consumed);
  ASSERT_EQ(result, net::HttpParser::Result::kComplete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, ConnectionSemanticsFollowVersionAndHeader) {
  net::HttpParser parser;
  size_t consumed = 0;
  const std::string http10 = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_EQ(parser.Feed(http10.data(), http10.size(), &consumed),
            net::HttpParser::Result::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);

  parser.Reset();
  const std::string close11 = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(parser.Feed(close11.data(), close11.size(), &consumed),
            net::HttpParser::Result::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);
}

TEST(HttpParserTest, EnforcesHardLimits) {
  net::HttpParser::Limits limits;
  limits.max_request_line = 64;
  limits.max_header_bytes = 128;
  limits.max_headers = 4;
  limits.max_body_bytes = 16;

  {
    net::HttpParser parser(limits);
    const std::string line = "GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(line.data(), line.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 414);
  }
  {
    net::HttpParser parser(limits);
    const std::string big_header =
        "GET / HTTP/1.1\r\nX-Big: " + std::string(200, 'b') + "\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(big_header.data(), big_header.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    net::HttpParser parser(limits);
    std::string many = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 6; ++i) many += "H" + std::to_string(i) + ": v\r\n";
    many += "\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(many.data(), many.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    net::HttpParser parser(limits);
    const std::string big_body =
        "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(big_body.data(), big_body.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 413);
  }
  {
    net::HttpParser parser(limits);
    const std::string chunked =
        "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(chunked.data(), chunked.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 501);
  }
  {
    net::HttpParser parser(limits);
    const std::string version = "GET / HTTP/2.0\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(version.data(), version.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 505);
  }
  {
    // Duplicate Content-Length is a request-smuggling vector: reject it
    // even when a lenient proxy in front would have picked one.
    net::HttpParser parser(limits);
    const std::string smuggle =
        "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 8\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(smuggle.data(), smuggle.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
  {
    net::HttpParser parser(limits);
    const std::string garbage = "NOT-HTTP\r\n\r\n";
    size_t consumed = 0;
    ASSERT_EQ(parser.Feed(garbage.data(), garbage.size(), &consumed),
              net::HttpParser::Result::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
}

// ---------------------------------------------------------------------
// End-to-end over loopback
// ---------------------------------------------------------------------

class NetEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SuggestionDataset(testing::TinyDataset());
    core::DssddiConfig config;
    config.ddi.epochs = 60;
    config.md.epochs = 80;
    config.md.hidden_dim = 16;
    system_ = new core::DssddiSystem(config);
    system_->Fit(*dataset_);
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*system_, *dataset_));

    core::DssddiConfig other_config;
    other_config.ddi.epochs = 30;
    other_config.md.epochs = 40;
    other_config.md.hidden_dim = 8;
    other_system_ = new core::DssddiSystem(other_config);
    other_system_->Fit(*dataset_);
    other_bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*other_system_, *dataset_));

    // These tests assert bit-identity against the float training stack,
    // so the bundles pin the float path regardless of DSSDDI_QUANTIZE —
    // the int8 serving contract (top-k agreement, not bit-identity) is
    // covered by quantize_serving_test.
    bundle_->quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
    other_bundle_->quantization =
        static_cast<int>(tensor::kernels::QuantMode::kNone);
  }
  static void TearDownTestSuite() {
    delete other_bundle_;
    delete other_system_;
    delete bundle_;
    delete system_;
    other_bundle_ = nullptr;
    other_system_ = nullptr;
    bundle_ = nullptr;
    system_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::string SuggestBody(int patient, int k, bool explain) {
    const auto& features = dataset_->patient_features;
    net::JsonWriter json;
    json.BeginObject().Key("patient_id").Int(patient);
    json.Key("features").BeginArray();
    for (int j = 0; j < features.cols(); ++j) {
      json.Float(features.At(patient, j));
    }
    json.EndArray();
    json.Key("k").Int(k).Key("explain").Bool(explain).EndObject();
    return json.str();
  }

  /// Asserts `body` carries exactly the drugs+scores of `expected`
  /// (bit-identical floats after the decimal round-trip).
  static void ExpectMatchesSuggestion(const std::string& body,
                                      const core::Suggestion& expected) {
    net::JsonValue document;
    std::string error;
    ASSERT_TRUE(net::ParseJson(body, &document, &error)) << error;
    const net::JsonValue* drugs = document.Find("drugs");
    const net::JsonValue* scores = document.Find("scores");
    ASSERT_NE(drugs, nullptr);
    ASSERT_NE(scores, nullptr);
    ASSERT_EQ(drugs->Items().size(), expected.drugs.size());
    ASSERT_EQ(scores->Items().size(), expected.scores.size());
    for (size_t i = 0; i < expected.drugs.size(); ++i) {
      EXPECT_EQ(drugs->Items()[i].AsInt(), expected.drugs[i]) << "drug " << i;
      const float score = static_cast<float>(scores->Items()[i].AsDouble());
      EXPECT_EQ(std::memcmp(&score, &expected.scores[i], sizeof(float)), 0)
          << "score " << i << " not bit-identical";
    }
  }

  /// True when `body` matches `expected` on drugs and scores.
  static bool MatchesSuggestion(const std::string& body,
                                const core::Suggestion& expected) {
    net::JsonValue document;
    std::string error;
    if (!net::ParseJson(body, &document, &error)) return false;
    const net::JsonValue* drugs = document.Find("drugs");
    const net::JsonValue* scores = document.Find("scores");
    if (drugs == nullptr || scores == nullptr) return false;
    if (drugs->Items().size() != expected.drugs.size()) return false;
    for (size_t i = 0; i < expected.drugs.size(); ++i) {
      if (drugs->Items()[i].AsInt() != expected.drugs[i]) return false;
      const float score = static_cast<float>(scores->Items()[i].AsDouble());
      if (std::memcmp(&score, &expected.scores[i], sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
  static io::InferenceBundle* bundle_;
  static core::DssddiSystem* other_system_;
  static io::InferenceBundle* other_bundle_;
};

data::SuggestionDataset* NetEndToEndTest::dataset_ = nullptr;
core::DssddiSystem* NetEndToEndTest::system_ = nullptr;
io::InferenceBundle* NetEndToEndTest::bundle_ = nullptr;
core::DssddiSystem* NetEndToEndTest::other_system_ = nullptr;
io::InferenceBundle* NetEndToEndTest::other_bundle_ = nullptr;

TEST_F(NetEndToEndTest, ConcurrentKeepAliveClientsMatchDirectSuggest) {
  serve::ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.max_batch_size = 8;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_loops = 2;  // exercise REUSEPORT or fd handoff
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);

  const std::vector<int>& patients = dataset_->split.test;
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok) {
        failures.fetch_add(100);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {  // keep-alive: one connection
        const int patient = patients[(t * 13 + i) % patients.size()];
        net::ClientResponse response;
        const io::Status status = client.Request(
            "POST", "/v1/suggest", SuggestBody(patient, 3, true), &response);
        if (!status.ok || response.status != 200 ||
            !MatchesSuggestion(response.body,
                               system_->Suggest(*dataset_, patient, 3))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  const net::HttpServer::Counters counters = server.counters();
  EXPECT_EQ(counters.requests, kClients * kPerClient);
  EXPECT_EQ(counters.responses, kClients * kPerClient);
  // Keep-alive: four connections served all the traffic.
  EXPECT_EQ(counters.accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(counters.parse_errors, 0u);
  server.Stop();
}

TEST_F(NetEndToEndTest, HealthStatsRoutingAndErrors) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);

  net::ClientResponse response;
  ASSERT_TRUE(client.Request("GET", "/healthz", "", &response).ok);
  EXPECT_EQ(response.status, 200);
  net::JsonValue health;
  std::string error;
  ASSERT_TRUE(net::ParseJson(response.body, &health, &error)) << error;
  EXPECT_EQ(health.Find("status")->AsString(), "ok");
  EXPECT_EQ(health.Find("model_version")->AsInt(), 1);

  ASSERT_TRUE(client.Request("GET", "/statsz", "", &response).ok);
  EXPECT_EQ(response.status, 200);
  net::JsonValue stats;
  ASSERT_TRUE(net::ParseJson(response.body, &stats, &error)) << error;
  ASSERT_NE(stats.Find("service"), nullptr);
  ASSERT_NE(stats.Find("service")->Find("gemm_backend"), nullptr);
  EXPECT_EQ(stats.Find("service")->Find("gemm_backend")->AsString(),
            tensor::kernels::ActiveBackendName());
  ASSERT_NE(stats.Find("http"), nullptr);
  EXPECT_GE(stats.Find("http")->Find("accepted")->AsInt(), 1);

  ASSERT_TRUE(client.Request("GET", "/no/such/route", "", &response).ok);
  EXPECT_EQ(response.status, 404);
  ASSERT_TRUE(client.Request("GET", "/v1/suggest", "", &response).ok);
  EXPECT_EQ(response.status, 405);
  ASSERT_TRUE(client.Request("POST", "/v1/suggest", "{not json", &response).ok);
  EXPECT_EQ(response.status, 400);
  ASSERT_TRUE(client.Request("POST", "/v1/suggest",
                             "{\"features\":[1,2],\"k\":3}", &response).ok);
  EXPECT_EQ(response.status, 400);  // wrong feature width (service-level)
  // Only pre-service rejections count as frontend bad requests; the
  // width mismatch above was rejected by the service itself.
  EXPECT_EQ(frontend.bad_requests(), 1u);
  server.Stop();
}

TEST_F(NetEndToEndTest, KOutsideOneToInt32MaxGets400) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);
  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);

  const int patient = dataset_->split.test.front();
  const std::string body = SuggestBody(patient, 3, false);
  const size_t k_at = body.find("\"k\":3");
  ASSERT_NE(k_at, std::string::npos);
  auto with_k = [&](const std::string& k) {
    return body.substr(0, k_at) + "\"k\":" + k + body.substr(k_at + 5);
  };
  net::ClientResponse response;
  // 4294967299 used to wrap to k = 3 through the int cast.
  for (const char* bad : {"4294967299", "2147483648", "0", "-1", "2.5",
                          "1e300", "\"3\"", "null", "true"}) {
    ASSERT_TRUE(client.Request("POST", "/v1/suggest", with_k(bad), &response).ok);
    EXPECT_EQ(response.status, 400) << "k = " << bad;
    EXPECT_NE(response.body.find("'k' must be an integer"), std::string::npos)
        << response.body;
  }
  EXPECT_EQ(frontend.bad_requests(), 9u);
  for (const char* good : {"3", "3.0", "3e0"}) {
    ASSERT_TRUE(client.Request("POST", "/v1/suggest", with_k(good), &response).ok);
    EXPECT_EQ(response.status, 200) << "k = " << good << ": " << response.body;
    ExpectMatchesSuggestion(response.body,
                            system_->Suggest(*dataset_, patient, 3));
  }
  server.Stop();
}

TEST_F(NetEndToEndTest, MalformedWireBytesGet400AndClose) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)), 0);
  const char garbage[] = "THIS IS NOT HTTP\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
  std::string reply;
  char buffer[1024];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(reply.compare(0, 17, "HTTP/1.1 400 Bad "), 0) << reply;
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
  EXPECT_EQ(server.counters().parse_errors, 1u);
  server.Stop();
}

TEST_F(NetEndToEndTest, ConnectionLimitShedsWith503) {
  serve::SuggestionService service(*bundle_, {});
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.max_connections = 1;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  net::HttpClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok);
  net::ClientResponse response;
  ASSERT_TRUE(first.Request("GET", "/healthz", "", &response).ok);
  ASSERT_EQ(response.status, 200);  // first connection is registered

  net::HttpClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok);
  ASSERT_TRUE(second.Request("GET", "/healthz", "", &response).ok);
  EXPECT_EQ(response.status, 503);
  EXPECT_GE(server.counters().overload_closed, 1u);
  server.Stop();
}

TEST_F(NetEndToEndTest, OverloadShedsWith429InsteadOfHanging) {
  serve::ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.max_batch_size = 64;
  service_options.admission.max_in_flight = 1;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);
  // Park the only worker: the first admitted request stays in flight
  // until the gate opens, so every other arrival meets the bound.
  testing::WorkerGate gate;
  testing::ParkWorker(service, gate);

  const std::vector<int>& patients = dataset_->split.test;
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::atomic<int> ok_responses{0};
  std::atomic<int> shed_responses{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok) {
        failures.fetch_add(100);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const int patient = patients[(t * 5 + i) % patients.size()];
        net::ClientResponse response;
        if (!client.Request("POST", "/v1/suggest",
                            SuggestBody(patient, 3, false), &response).ok) {
          failures.fetch_add(1);
          continue;
        }
        if (response.status == 200) {
          if (!MatchesSuggestion(response.body,
                                 system_->Suggest(*dataset_, patient, 3))) {
            failures.fetch_add(1);
          }
          ok_responses.fetch_add(1);
        } else if (response.status == 429) {
          shed_responses.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  while (service.Stats().shed == 0 && failures.load() == 0) {
    std::this_thread::yield();
  }
  gate.Release();
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(ok_responses.load(), 0);
  EXPECT_GT(shed_responses.load(), 0) << "admission gate never shed";
  EXPECT_EQ(ok_responses.load() + shed_responses.load(), kClients * kPerClient);
  EXPECT_EQ(service.Stats().shed, static_cast<uint64_t>(shed_responses.load()));
  server.Stop();
}

TEST_F(NetEndToEndTest, ReloadUnderLoadSwapsWithoutCorruptingResponses) {
  const std::string other_path = ::testing::TempDir() + "dssddi_net_reload.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(other_path, *other_bundle_).ok);

  serve::ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.max_batch_size = 4;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  const std::vector<int>& patients = dataset_->split.test;
  // Precompute both models' expected answers for every test patient.
  std::vector<core::Suggestion> expect_old, expect_new;
  for (const int patient : patients) {
    expect_old.push_back(system_->Suggest(*dataset_, patient, 3));
    expect_new.push_back(other_system_->Suggest(*dataset_, patient, 3));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok) {
        failures.fetch_add(100);
        return;
      }
      for (int i = 0; !stop.load(); ++i) {
        const size_t index = (t * 7 + i) % patients.size();
        net::ClientResponse response;
        if (!client.Request("POST", "/v1/suggest",
                            SuggestBody(patients[index], 3, true),
                            &response).ok ||
            response.status != 200) {
          failures.fetch_add(1);
          return;
        }
        // Under reload every response must be exactly one model's answer
        // — never a blend, never garbage.
        if (!MatchesSuggestion(response.body, expect_old[index]) &&
            !MatchesSuggestion(response.body, expect_new[index])) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1);
      }
    });
  }

  // Let traffic flow, then hot-swap mid-stream.
  while (served.load() < 20 && failures.load() == 0) {
    std::this_thread::yield();
  }
  net::HttpClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok);
  net::ClientResponse reload_response;
  // Pin float on the reloaded bundle too ("quantize":"none" — the file
  // itself always loads as "auto"): the expectations below come from the
  // float training stack.
  ASSERT_TRUE(admin.Request("POST", "/admin/reload",
                            "{\"path\":\"" + other_path +
                                "\",\"quantize\":\"none\"}",
                            &reload_response).ok);
  ASSERT_EQ(reload_response.status, 200) << reload_response.body;
  net::JsonValue reload_json;
  std::string error;
  ASSERT_TRUE(net::ParseJson(reload_response.body, &reload_json, &error));
  EXPECT_EQ(reload_json.Find("model_version")->AsInt(), 2);

  // Keep the load up briefly after the swap, then stop.
  const int after_swap_target = served.load() + 20;
  while (served.load() < after_swap_target && failures.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-reload, answers come from the new model only (cache flushed:
  // even previously-hot patients get new-model results).
  net::HttpClient check;
  ASSERT_TRUE(check.Connect("127.0.0.1", server.port()).ok);
  for (size_t index = 0; index < patients.size(); ++index) {
    net::ClientResponse response;
    ASSERT_TRUE(check.Request("POST", "/v1/suggest",
                              SuggestBody(patients[index], 3, true),
                              &response).ok);
    ASSERT_EQ(response.status, 200);
    ExpectMatchesSuggestion(response.body, expect_new[index]);
  }
  EXPECT_EQ(service.Stats().reloads, 1u);

  // Incompatible reload target is refused with 409 and does not disturb
  // the served model. The bundle must be internally consistent (the
  // loader now rejects shape-inconsistent files outright with 400), just
  // trained for a different feature width: widen the centroids AND the
  // patient encoder's input layer together.
  io::InferenceBundle narrow = *other_bundle_;
  narrow.cluster_centroids = tensor::Matrix(
      narrow.cluster_centroids.rows(), narrow.cluster_centroids.cols() + 2);
  tensor::Matrix& first_weight = narrow.patient_fc.layers.front().weight;
  tensor::Matrix widened(first_weight.rows() + 2, first_weight.cols());
  std::copy(first_weight.data().begin(), first_weight.data().end(),
            widened.data().begin());
  first_weight = std::move(widened);
  narrow.patient_fc.BuildQuantized();
  const std::string narrow_path = ::testing::TempDir() + "dssddi_net_narrow.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(narrow_path, narrow).ok);
  net::ClientResponse conflict;
  ASSERT_TRUE(admin.Request("POST", "/admin/reload",
                            "{\"path\":\"" + narrow_path + "\"}", &conflict).ok);
  EXPECT_EQ(conflict.status, 409);
  EXPECT_EQ(service.model_version(), 2u);
  server.Stop();
}

TEST_F(NetEndToEndTest, BinaryRouteBitIdenticalToJsonRouteAndDirectSuggest) {
  serve::ServiceOptions service_options;
  service_options.num_threads = 2;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  net::ClientRequestOptions binary_options;
  binary_options.content_type = net::wire::kContentType;

  const std::vector<int>& patients = dataset_->split.test;
  const auto& features = dataset_->patient_features;
  for (size_t i = 0; i < patients.size(); ++i) {
    const int patient = patients[i];
    const core::Suggestion expected = system_->Suggest(*dataset_, patient, 3);

    // Binary request on /v1/suggest, negotiated purely by Content-Type.
    net::wire::SuggestRequestFrame frame;
    frame.patient_id = patient;
    frame.k = 3;
    frame.explain = true;
    frame.trace_id = 1000 + i;
    frame.features.assign(features.RowPtr(patient),
                          features.RowPtr(patient) + features.cols());
    net::ClientResponse response;
    ASSERT_TRUE(client.Request("POST", "/v1/suggest",
                               net::wire::EncodeSuggestRequest(frame),
                               binary_options, &response)
                    .ok);
    ASSERT_EQ(response.status, 200) << response.body;
    ASSERT_NE(response.FindHeader("Content-Type"), nullptr);
    EXPECT_EQ(*response.FindHeader("Content-Type"), net::wire::kContentType);

    net::wire::SuggestResponseFrame decoded;
    std::string error;
    ASSERT_TRUE(net::wire::DecodeSuggestResponse(response.body, &decoded,
                                                 &error))
        << error;
    EXPECT_EQ(decoded.model_version, 1u);
    EXPECT_EQ(decoded.trace_id, 1000 + i);  // client trace ids are echoed
    ASSERT_EQ(decoded.drugs.size(), expected.drugs.size());
    for (size_t d = 0; d < expected.drugs.size(); ++d) {
      EXPECT_EQ(decoded.drugs[d], expected.drugs[d]) << "drug " << d;
    }
    ASSERT_EQ(decoded.scores.size(), expected.scores.size());
    EXPECT_EQ(std::memcmp(decoded.scores.data(), expected.scores.data(),
                          expected.scores.size() * sizeof(float)),
              0)
        << "binary scores not bit-identical for patient " << patient;

    // The JSON route must agree bit-for-bit on the same connection.
    ASSERT_TRUE(client.Request("POST", "/v1/suggest",
                               SuggestBody(patient, 3, true), &response)
                    .ok);
    ASSERT_EQ(response.status, 200);
    ExpectMatchesSuggestion(response.body, expected);
  }

  // A Content-Type with media-type parameters still selects the binary
  // codec (proxies and client libraries append parameters routinely).
  {
    net::wire::SuggestRequestFrame frame;
    frame.patient_id = patients[0];
    frame.k = 3;
    frame.features.assign(features.RowPtr(patients[0]),
                          features.RowPtr(patients[0]) + features.cols());
    net::ClientRequestOptions with_params = binary_options;
    with_params.content_type = std::string(net::wire::kContentType) +
                               "; charset=binary";
    net::ClientResponse response;
    ASSERT_TRUE(client.Request("POST", "/v1/suggest",
                               net::wire::EncodeSuggestRequest(frame),
                               with_params, &response)
                    .ok);
    ASSERT_EQ(response.status, 200) << response.body;
    net::wire::SuggestResponseFrame decoded;
    std::string error;
    EXPECT_TRUE(net::wire::DecodeSuggestResponse(response.body, &decoded,
                                                 &error))
        << error;
  }

  // Malformed frames are a 400 with a binary error frame, not a closed
  // connection or a JSON body.
  net::ClientResponse bad_response;
  ASSERT_TRUE(client.Request("POST", "/v1/suggest", "DSgarbage",
                             binary_options, &bad_response)
                  .ok);
  EXPECT_EQ(bad_response.status, 400);
  ASSERT_NE(bad_response.FindHeader("Content-Type"), nullptr);
  EXPECT_EQ(*bad_response.FindHeader("Content-Type"), net::wire::kContentType);
  net::wire::ErrorFrame bad_frame;
  std::string error;
  ASSERT_TRUE(net::wire::DecodeError(bad_response.body, &bad_frame, &error))
      << error;
  EXPECT_EQ(bad_frame.status, 400u);
  EXPECT_EQ(frontend.bad_requests(), 1u);
  server.Stop();
}

TEST_F(NetEndToEndTest, DeadlinedRequestsExpirePreScoringAcrossReload) {
  const std::string other_path =
      ::testing::TempDir() + "dssddi_net_deadline_reload.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(other_path, *other_bundle_).ok);

  serve::ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.max_batch_size = 16;
  service_options.cache_capacity = 0;     // every request must cross the batcher
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  frontend.AttachServer(&server);
  ASSERT_TRUE(server.Start().ok);

  const std::vector<int>& patients = dataset_->split.test;
  std::atomic<int> failures{0};

  // Runs `send` (one blocking exchange) while the only worker is parked,
  // and keeps it parked until `queued` requests wait in the batcher and
  // then past the 8ms tight budget, so a tight request among them
  // expires in the queue. A tight request the admission gate answers
  // itself (deadline shed) never queues; the worker is freed at once.
  std::atomic<int> parked{0};
  const auto behind_parked_worker = [&](size_t queued,
                                        const std::function<void()>& send) {
    testing::WorkerGate gate;
    testing::ParkWorker(service, gate);
    parked.fetch_add(1);
    std::atomic<bool> answered{false};
    std::thread sender([&] {
      send();
      answered.store(true);
    });
    while (service.QueueDepth() < queued && !answered.load() &&
           failures.load() == 0) {
      std::this_thread::yield();
    }
    if (!answered.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    gate.Release();
    sender.join();
  };

  // Phase A: every request advertises an 8ms budget and waits behind the
  // parked worker for longer than that, so all of them expire inside the
  // batcher — pre-scoring, and without ever consuming a batch slot (the
  // only batches are the parking requests').
  {
    net::HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
    net::ClientRequestOptions tight;
    tight.deadline_ms = 5000;          // client keeps waiting for the 504
    tight.advertise_deadline_ms = 8;   // ...but hands the server 8ms
    for (int i = 0; i < 6; ++i) {
      behind_parked_worker(1, [&] {
        net::ClientResponse response;
        ASSERT_TRUE(client.Request("POST", "/v1/suggest",
                                   SuggestBody(patients[i % patients.size()], 3,
                                               false),
                                   tight, &response)
                        .ok);
        EXPECT_EQ(response.status, 504) << response.body;
      });
    }
    const serve::ServiceStats stats = service.Stats();
    const uint64_t parking = static_cast<uint64_t>(parked.load());
    EXPECT_EQ(stats.expired, 6u);
    EXPECT_EQ(stats.batches, parking)
        << "an expired request consumed a batch slot";
    EXPECT_EQ(stats.completed, 6u + parking);
  }

  // Phase B: reload under sustained mixed-deadline load. Generous
  // budgets keep getting exactly one model's bit-exact answer through
  // the swap; tight budgets keep getting 504s; nobody hangs. Each tight
  // request waits behind the parked worker until both generous clients
  // have queued too, so the swap lands among queued mixed traffic.
  std::vector<core::Suggestion> expect_old, expect_new;
  for (const int patient : patients) {
    expect_old.push_back(system_->Suggest(*dataset_, patient, 3));
    expect_new.push_back(other_system_->Suggest(*dataset_, patient, 3));
  }
  std::atomic<bool> stop{false};            // main thread -> tight client
  std::atomic<bool> generous_stop{false};   // tight client -> generous ones
  std::atomic<int> served{0};
  std::atomic<int> timed_out{0};
  constexpr int kGenerousClients = 2;
  std::vector<std::thread> clients;
  for (int t = 0; t < kGenerousClients; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok) {
        failures.fetch_add(100);
        return;
      }
      net::ClientRequestOptions generous;
      generous.deadline_ms = 10000;
      for (int i = 0; !generous_stop.load(); ++i) {
        const size_t index = (t * 7 + i) % patients.size();
        net::ClientResponse response;
        if (!client.Request("POST", "/v1/suggest",
                            SuggestBody(patients[index], 3, true), generous,
                            &response)
                 .ok ||
            response.status != 200 ||
            (!MatchesSuggestion(response.body, expect_old[index]) &&
             !MatchesSuggestion(response.body, expect_new[index]))) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1);
      }
    });
  }
  clients.emplace_back([&] {  // tight-budget client: only ever 504s
    net::HttpClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok) {
      failures.fetch_add(100);
      generous_stop.store(true);
      return;
    }
    net::ClientRequestOptions tight;
    tight.deadline_ms = 5000;
    tight.advertise_deadline_ms = 8;
    // The generous clients stop only between tight requests, so each
    // parked round sees all three clients queue.
    for (int i = 0; !stop.load() && failures.load() == 0; ++i) {
      behind_parked_worker(kGenerousClients + 1, [&] {
        net::ClientResponse response;
        if (!client.Request("POST", "/v1/suggest",
                            SuggestBody(patients[i % patients.size()], 3, false),
                            tight, &response)
                 .ok ||
            response.status != 504) {
          failures.fetch_add(1);
          return;
        }
        timed_out.fetch_add(1);
      });
    }
    generous_stop.store(true);
  });

  while (served.load() < 15 && failures.load() == 0) std::this_thread::yield();
  net::HttpClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok);
  net::ClientResponse reload_response;
  ASSERT_TRUE(admin.Request("POST", "/admin/reload",
                            "{\"path\":\"" + other_path +
                                "\",\"quantize\":\"none\"}",
                            &reload_response)
                  .ok);
  ASSERT_EQ(reload_response.status, 200) << reload_response.body;
  const int after_swap_target = served.load() + 15;
  while (served.load() < after_swap_target && failures.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(timed_out.load(), 0);
  const serve::ServiceStats stats = service.Stats();
  // Every tight request was dropped by the cut's expiry sweep or the
  // deadline-aware admission gate — never scored, all answered 504.
  EXPECT_EQ(stats.expired + stats.deadline_shed,
            6u + static_cast<uint64_t>(timed_out.load()));
  EXPECT_GT(stats.expired, 0u);
  EXPECT_EQ(stats.reloads, 1u);
  server.Stop();
}

TEST_F(NetEndToEndTest, V4MmapBundleServesByteIdenticalResponsesToInProcessBundle) {
  // The file must be invisible on the wire: the model mapped from a v4
  // file has to produce byte-identical /v1/suggest responses — JSON and
  // binary — to the in-process bundle extracted from the trained system,
  // in both float and int8 modes.
  const std::string v4_path = ::testing::TempDir() + "dssddi_net_fmt_v4.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(v4_path, *bundle_).ok);

  for (const auto mode : {tensor::kernels::QuantMode::kNone,
                          tensor::kernels::QuantMode::kInt8}) {
    io::InferenceBundle heap = *bundle_;
    io::InferenceBundle mapped;
    heap.quantization = static_cast<int>(mode);
    mapped.quantization = static_cast<int>(mode);
    ASSERT_TRUE(io::LoadInferenceBundle(v4_path, &mapped).ok);
    ASSERT_EQ(mapped.format_version, 4u);
    ASSERT_GT(mapped.bytes_mapped(), 0u);

    serve::ServiceOptions service_options;
    service_options.num_threads = 2;
    serve::SuggestionService heap_service(heap, service_options);
    serve::SuggestionService mapped_service(mapped, service_options);
    net::SuggestFrontend heap_frontend(&heap_service);
    net::SuggestFrontend mapped_frontend(&mapped_service);
    net::HttpServerOptions server_options;
    server_options.port = 0;
    net::HttpServer heap_server(server_options, heap_frontend.AsHandler());
    net::HttpServer mapped_server(server_options, mapped_frontend.AsHandler());
    ASSERT_TRUE(heap_server.Start().ok);
    ASSERT_TRUE(mapped_server.Start().ok);

    net::HttpClient heap_client;
    net::HttpClient mapped_client;
    ASSERT_TRUE(heap_client.Connect("127.0.0.1", heap_server.port()).ok);
    ASSERT_TRUE(mapped_client.Connect("127.0.0.1", mapped_server.port()).ok);
    net::ClientRequestOptions binary_options;
    binary_options.content_type = net::wire::kContentType;

    const auto& features = dataset_->patient_features;
    for (const int patient : dataset_->split.test) {
      // JSON route. The two frontends are fresh and see the same request
      // sequence, so server-assigned trace ids line up and the whole
      // body can be compared byte for byte.
      const std::string body = SuggestBody(patient, 3, true);
      net::ClientResponse from_heap;
      net::ClientResponse from_mapped;
      ASSERT_TRUE(
          heap_client.Request("POST", "/v1/suggest", body, &from_heap).ok);
      ASSERT_TRUE(
          mapped_client.Request("POST", "/v1/suggest", body, &from_mapped)
              .ok);
      ASSERT_EQ(from_heap.status, 200) << from_heap.body;
      ASSERT_EQ(from_mapped.status, 200) << from_mapped.body;
      EXPECT_EQ(from_heap.body, from_mapped.body)
          << "JSON bodies diverge for patient " << patient << " in mode "
          << static_cast<int>(mode);

      // Binary route with an explicit trace id.
      net::wire::SuggestRequestFrame frame;
      frame.patient_id = patient;
      frame.k = 3;
      frame.explain = true;
      frame.trace_id = 5000 + static_cast<uint64_t>(patient);
      frame.features.assign(features.RowPtr(patient),
                            features.RowPtr(patient) + features.cols());
      const std::string encoded = net::wire::EncodeSuggestRequest(frame);
      ASSERT_TRUE(heap_client.Request("POST", "/v1/suggest", encoded,
                                      binary_options, &from_heap)
                      .ok);
      ASSERT_TRUE(mapped_client.Request("POST", "/v1/suggest", encoded,
                                        binary_options, &from_mapped)
                      .ok);
      ASSERT_EQ(from_heap.status, 200);
      ASSERT_EQ(from_mapped.status, 200);
      EXPECT_EQ(from_heap.body, from_mapped.body)
          << "binary frames diverge for patient " << patient << " in mode "
          << static_cast<int>(mode);
    }
    heap_server.Stop();
    mapped_server.Stop();
  }
}

TEST_F(NetEndToEndTest, ReloadMissingPathReturnsStructuredErrorAndKeepsModel) {
  serve::ServiceOptions service_options;
  service_options.num_threads = 1;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok);
  const int patient = dataset_->split.test.front();
  const core::Suggestion expected = system_->Suggest(*dataset_, patient, 3);

  const std::string missing =
      ::testing::TempDir() + "dssddi_reload_absent.dssb";
  net::ClientResponse response;
  ASSERT_TRUE(client.Request("POST", "/admin/reload",
                             "{\"path\":\"" + missing + "\"}", &response)
                  .ok);
  EXPECT_EQ(response.status, 400);
  net::JsonValue document;
  std::string error;
  ASSERT_TRUE(net::ParseJson(response.body, &document, &error))
      << response.body;
  ASSERT_NE(document.Find("error"), nullptr);
  EXPECT_EQ(document.Find("error")->AsString(), "cannot load bundle");
  // "detail" is the loader's own Status message and names the file.
  ASSERT_NE(document.Find("detail"), nullptr);
  EXPECT_NE(document.Find("detail")->AsString().find(missing),
            std::string::npos)
      << document.Find("detail")->AsString();
  ASSERT_NE(document.Find("path"), nullptr);
  EXPECT_EQ(document.Find("path")->AsString(), missing);
  ASSERT_NE(document.Find("model_version"), nullptr);
  EXPECT_EQ(document.Find("model_version")->AsInt(), 1);

  // The snapshot is untouched: same version, same answers, no reload
  // counted, format still the in-process one.
  EXPECT_EQ(service.model_version(), 1u);
  EXPECT_EQ(service.Stats().reloads, 0u);
  EXPECT_EQ(service.Stats().bundle_format, "memory");
  ASSERT_TRUE(client.Request("POST", "/v1/suggest",
                             SuggestBody(patient, 3, true), &response)
                  .ok);
  ASSERT_EQ(response.status, 200);
  ExpectMatchesSuggestion(response.body, expected);
  server.Stop();
}

TEST_F(NetEndToEndTest, ReloadUnderLoadFlipsFormatsAndQuantModesCleanly) {
  // Hot-swap sequence under sustained load: in-process float ->
  // v4/other/float -> v4/original/int8 -> (a v3 file, refused) ->
  // v4/original/float. Every response must carry exactly the answer of
  // the generation it claims (zero wrong-generation responses) and
  // nothing may 5xx.
  const std::string v4_other =
      ::testing::TempDir() + "dssddi_flip_v4_other.dssb";
  const std::string v4_orig =
      ::testing::TempDir() + "dssddi_flip_v4_orig.dssb";
  const std::string v3_orig =
      ::testing::TempDir() + "dssddi_flip_v3_orig.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(v4_other, *other_bundle_).ok);
  ASSERT_TRUE(io::SaveInferenceBundleV4(v4_orig, *bundle_).ok);
  ASSERT_TRUE(io::WriteBundleV3(v3_orig, *bundle_).ok);

  const std::vector<int>& patients = dataset_->split.test;
  // Generation expectations: 1 = original float, 2 = other float,
  // 3 = original int8 (computed through the mapped bundle; int8 scoring
  // is batch-invariant so direct Suggest matches the service batcher),
  // 4 = original float again.
  std::vector<core::Suggestion> expect_orig;
  std::vector<core::Suggestion> expect_other;
  std::vector<core::Suggestion> expect_int8;
  io::InferenceBundle int8_bundle;
  int8_bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  ASSERT_TRUE(io::LoadInferenceBundle(v4_orig, &int8_bundle).ok);
  for (const int patient : patients) {
    expect_orig.push_back(system_->Suggest(*dataset_, patient, 3));
    expect_other.push_back(other_system_->Suggest(*dataset_, patient, 3));
    expect_int8.push_back(int8_bundle.Suggest(
        dataset_->patient_features.GatherRows({patient}), 3));
  }

  serve::ServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.max_batch_size = 4;
  serve::SuggestionService service(*bundle_, service_options);
  net::SuggestFrontend frontend(&service);
  net::HttpServerOptions server_options;
  server_options.port = 0;
  net::HttpServer server(server_options, frontend.AsHandler());
  ASSERT_TRUE(server.Start().ok);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> served{0};
  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      net::HttpClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok) {
        failures.fetch_add(100);
        return;
      }
      for (int i = 0; !stop.load(); ++i) {
        const size_t index = (t * 5 + i) % patients.size();
        net::ClientResponse response;
        if (!client.Request("POST", "/v1/suggest",
                            SuggestBody(patients[index], 3, true), &response)
                 .ok ||
            response.status != 200) {
          failures.fetch_add(1);
          return;
        }
        // The body names its generation; it must match that generation's
        // answer exactly — a version-5 claim or a blend is a failure.
        net::JsonValue document;
        std::string error;
        bool ok = net::ParseJson(response.body, &document, &error) &&
                  document.Find("model_version") != nullptr;
        if (ok) {
          switch (document.Find("model_version")->AsInt()) {
            case 1:
            case 4:
              ok = MatchesSuggestion(response.body, expect_orig[index]);
              break;
            case 2:
              ok = MatchesSuggestion(response.body, expect_other[index]);
              break;
            case 3:
              ok = MatchesSuggestion(response.body, expect_int8[index]);
              break;
            default:
              ok = false;
          }
        }
        if (!ok) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1);
      }
    });
  }

  // A refused swap (status 400) must leave the generation where it was;
  // the clients keep checking every answer against it.
  struct Swap {
    const std::string* path;
    const char* quantize;
    int status;
    int version;
  };
  const Swap swaps[] = {
      {&v4_other, "none", 200, 2},
      {&v4_orig, "int8", 200, 3},
      {&v3_orig, "none", 400, 3},
      {&v4_orig, "none", 200, 4},
  };

  net::HttpClient admin;
  ASSERT_TRUE(admin.Connect("127.0.0.1", server.port()).ok);
  for (const Swap& swap : swaps) {
    const int target = served.load() + 15;
    while (served.load() < target && failures.load() == 0) {
      std::this_thread::yield();
    }
    net::ClientResponse reload_response;
    ASSERT_TRUE(admin.Request("POST", "/admin/reload",
                              "{\"path\":\"" + *swap.path +
                                  "\",\"quantize\":\"" + swap.quantize +
                                  "\"}",
                              &reload_response)
                    .ok);
    ASSERT_EQ(reload_response.status, swap.status) << reload_response.body;
    net::JsonValue reload_json;
    std::string error;
    ASSERT_TRUE(net::ParseJson(reload_response.body, &reload_json, &error));
    EXPECT_EQ(reload_json.Find("model_version")->AsInt(), swap.version);
    EXPECT_EQ(service.model_version(), static_cast<uint64_t>(swap.version));
    if (swap.status != 200) {
      ASSERT_NE(reload_json.Find("detail"), nullptr) << reload_response.body;
      EXPECT_NE(reload_json.Find("detail")->AsString().find("bundle_convert"),
                std::string::npos)
          << reload_response.body;
      continue;
    }
    ASSERT_NE(reload_json.Find("format"), nullptr) << reload_response.body;
    EXPECT_EQ(reload_json.Find("format")->AsString(), "v4");
    ASSERT_NE(reload_json.Find("bytes_mapped"), nullptr);
    EXPECT_GT(reload_json.Find("bytes_mapped")->AsInt(), 0);
    EXPECT_GE(reload_json.Find("load_ms")->AsDouble(), 0.0);
  }

  const int final_target = served.load() + 15;
  while (served.load() < final_target && failures.load() == 0) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  // Settled state: v4 float of the original model, three reloads (the
  // refused one is not counted), and /statsz reports the installed format.
  net::ClientResponse stats_response;
  ASSERT_TRUE(admin.Request("GET", "/statsz", "", &stats_response).ok);
  ASSERT_EQ(stats_response.status, 200);
  net::JsonValue stats_json;
  std::string error;
  ASSERT_TRUE(net::ParseJson(stats_response.body, &stats_json, &error));
  const net::JsonValue* model = stats_json.Find("model");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->Find("format")->AsString(), "v4");
  EXPECT_EQ(model->Find("reloads")->AsInt(), 3);
  EXPECT_EQ(service.Stats().reloads, 3u);
  net::HttpClient check;
  ASSERT_TRUE(check.Connect("127.0.0.1", server.port()).ok);
  for (size_t index = 0; index < patients.size(); ++index) {
    net::ClientResponse response;
    ASSERT_TRUE(check.Request("POST", "/v1/suggest",
                              SuggestBody(patients[index], 3, true),
                              &response)
                    .ok);
    ASSERT_EQ(response.status, 200);
    ExpectMatchesSuggestion(response.body, expect_orig[index]);
  }
  server.Stop();
}

TEST(HttpClientDeadlineTest, BoundsWholeExchangeWhenServerStalls) {
  // A listener that accepts into its backlog but never answers: the
  // fixed SO_RCVTIMEO (5s) alone would stall the exchange for seconds;
  // the per-request deadline must fail it in ~100ms and close the
  // socket so the connection cannot desync.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                          &addr_len),
            0);
  const int port = ntohs(addr.sin_port);

  net::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok);
  net::ClientRequestOptions options;
  options.deadline_ms = 100;
  net::ClientResponse response;
  const auto start = std::chrono::steady_clock::now();
  const io::Status status =
      client.Request("GET", "/healthz", "", options, &response);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("deadline"), std::string::npos)
      << status.message;
  EXPECT_LT(elapsed_ms, 3000.0);  // well under the 5s socket timeout
  EXPECT_FALSE(client.connected());
  ::close(listen_fd);
}

}  // namespace
}  // namespace dssddi
