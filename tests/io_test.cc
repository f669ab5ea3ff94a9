// Tests for the persistence layer: binary primitives, framed files with
// checksums, artifact codecs (Matrix / SignedGraph / dataset), and the
// frozen inference bundle (train -> export -> save -> load -> identical
// scores). Includes failure injection: truncation, bit flips, wrong
// artifact kind, and inconsistent dimensions must all be rejected.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dssddi_system.h"
#include "core/suggestion_model.h"
#include "gtest/gtest.h"
#include "io/binary.h"
#include "io/bundle_v3.h"
#include "io/bundle_v4.h"
#include "io/inference_bundle.h"
#include "io/mmap_file.h"
#include "io/serialize.h"
#include "tensor/kernels/gemm_backend.h"
#include "tensor/kernels/qgemm.h"
#include "tensor/nn.h"
#include "test_support.h"
#include "util/rng.h"

namespace dssddi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------
// Binary primitives
// ---------------------------------------------------------------------

TEST(BinaryTest, PrimitiveRoundTrip) {
  io::BinaryWriter writer;
  writer.WriteU8(0xab);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefull);
  writer.WriteI32(-42);
  writer.WriteF32(3.25f);
  writer.WriteF64(-1e300);
  writer.WriteString("chronic");
  writer.WriteIntVector({5, -3, 0});

  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU8(), 0xab);
  EXPECT_EQ(reader.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.ReadI32(), -42);
  EXPECT_EQ(reader.ReadF32(), 3.25f);
  EXPECT_EQ(reader.ReadF64(), -1e300);
  EXPECT_EQ(reader.ReadString(), "chronic");
  std::vector<int> ints;
  EXPECT_TRUE(reader.ReadIntVector(&ints));
  EXPECT_EQ(ints, (std::vector<int>{5, -3, 0}));
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryTest, LittleEndianLayout) {
  io::BinaryWriter writer;
  writer.WriteU32(0x01020304);
  const std::string& buffer = writer.buffer();
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(buffer[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(buffer[3]), 0x01);
}

TEST(BinaryTest, ReaderFailureIsSticky) {
  io::BinaryWriter writer;
  writer.WriteU32(7);
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU32(), 7u);
  EXPECT_EQ(reader.ReadU32(), 0u);  // past the end
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.ReadU8(), 0u);  // still failed
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryTest, StringWithEmbeddedNulRoundTrips) {
  io::BinaryWriter writer;
  std::string value("a\0b", 3);
  writer.WriteString(value);
  io::BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadString(), value);
}

TEST(BinaryTest, OversizedLengthPrefixFailsInsteadOfAllocating) {
  io::BinaryWriter writer;
  writer.WriteU32(0xffffffffu);  // claims 4 GiB of floats, none present
  io::BinaryReader reader(writer.buffer());
  std::vector<float> floats;
  EXPECT_FALSE(reader.ReadFloatArray(&floats));
  EXPECT_FALSE(reader.ok());
}

TEST(Fnv1aTest, MatchesReferenceVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(io::Fnv1a64("", 0), 0xcbf29ce484222325ull);
  // Any single-bit change must alter the hash.
  EXPECT_NE(io::Fnv1a64("dssddi", 6), io::Fnv1a64("dssddj", 6));
}

// ---------------------------------------------------------------------
// Framed files
// ---------------------------------------------------------------------

TEST(FramedFileTest, RoundTripAndVersion) {
  const std::string path = TempPath("framed.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 9, 3, "payload-bytes").ok);
  std::string payload;
  uint32_t version = 0;
  ASSERT_TRUE(io::ReadFramedFile(path, 9, 5, &payload, &version).ok);
  EXPECT_EQ(payload, "payload-bytes");
  EXPECT_EQ(version, 3u);
}

TEST(FramedFileTest, WrongFormatIdRejected) {
  const std::string path = TempPath("framed_kind.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 1, "x").ok);
  std::string payload;
  const io::Status status = io::ReadFramedFile(path, 2, 1, &payload, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("artifact kind"), std::string::npos);
}

TEST(FramedFileTest, NewerVersionRejected) {
  const std::string path = TempPath("framed_ver.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 7, "x").ok);
  std::string payload;
  EXPECT_FALSE(io::ReadFramedFile(path, 1, 6, &payload, nullptr).ok);
}

TEST(FramedFileTest, BitFlipDetected) {
  const std::string path = TempPath("framed_flip.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 1, "sensitive-payload").ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);
  raw[raw.size() - 3] ^= 0x10;  // flip a payload bit
  ASSERT_TRUE(io::WriteStringToFile(path, raw).ok);
  std::string payload;
  const io::Status status = io::ReadFramedFile(path, 1, 1, &payload, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("checksum"), std::string::npos);
}

TEST(FramedFileTest, TruncationDetected) {
  const std::string path = TempPath("framed_trunc.bin");
  ASSERT_TRUE(io::WriteFramedFile(path, 1, 1, "0123456789").ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);
  raw.resize(raw.size() - 4);
  ASSERT_TRUE(io::WriteStringToFile(path, raw).ok);
  std::string payload;
  EXPECT_FALSE(io::ReadFramedFile(path, 1, 1, &payload, nullptr).ok);
}

TEST(FramedFileTest, MissingFileIsError) {
  std::string payload;
  EXPECT_FALSE(io::ReadFramedFile(TempPath("does_not_exist.bin"), 1, 1, &payload,
                                  nullptr)
                   .ok);
}

TEST(FramedFileTest, GarbageMagicRejected) {
  const std::string path = TempPath("garbage.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, "this is not a dssddi file at all").ok);
  std::string payload;
  const io::Status status = io::ReadFramedFile(path, 1, 1, &payload, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("not a DSSDDI file"), std::string::npos);
}

// ---------------------------------------------------------------------
// Matrix codec (property sweep over shapes)
// ---------------------------------------------------------------------

class MatrixRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatrixRoundTripTest, RoundTripsExactly) {
  const auto [rows, cols] = GetParam();
  util::Rng rng(rows * 131 + cols);
  tensor::Matrix matrix(rows, cols);
  for (float& v : matrix.data()) v = static_cast<float>(rng.Normal(0.0, 2.0));

  io::BinaryWriter writer;
  io::WriteMatrix(writer, matrix);
  io::BinaryReader reader(writer.buffer());
  tensor::Matrix loaded;
  ASSERT_TRUE(io::ReadMatrix(reader, &loaded));
  ASSERT_EQ(loaded.rows(), rows);
  ASSERT_EQ(loaded.cols(), cols);
  EXPECT_EQ(loaded.data(), matrix.data());  // bit-exact
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixRoundTripTest,
                         ::testing::Values(std::make_tuple(0, 0),
                                           std::make_tuple(1, 1),
                                           std::make_tuple(1, 17),
                                           std::make_tuple(17, 1),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(3, 400),
                                           std::make_tuple(128, 5)));

TEST(MatrixCodecTest, SizeMismatchRejected) {
  io::BinaryWriter writer;
  writer.WriteU32(2);
  writer.WriteU32(3);
  writer.WriteFloatArray(nullptr, 0);  // 0 floats for a 2x3 matrix
  io::BinaryReader reader(writer.buffer());
  tensor::Matrix matrix;
  EXPECT_FALSE(io::ReadMatrix(reader, &matrix));
}

TEST(MatrixCodecTest, FileRoundTripAndKindConfusion) {
  tensor::Matrix matrix({{1.5f, -2.0f}, {0.0f, 4.25f}});
  const std::string path = TempPath("matrix.dss");
  ASSERT_TRUE(io::SaveMatrixFile(path, matrix).ok);
  tensor::Matrix loaded;
  ASSERT_TRUE(io::LoadMatrixFile(path, &loaded).ok);
  EXPECT_EQ(loaded.data(), matrix.data());

  // Loading the matrix file as a graph must fail on the format id.
  graph::SignedGraph graph;
  EXPECT_FALSE(io::LoadSignedGraphFile(path, &graph).ok);
}

// ---------------------------------------------------------------------
// SignedGraph codec
// ---------------------------------------------------------------------

TEST(SignedGraphCodecTest, RoundTripPreservesStructure) {
  std::vector<graph::SignedEdge> edges = {
      {0, 1, graph::EdgeSign::kSynergistic},
      {1, 2, graph::EdgeSign::kAntagonistic},
      {2, 3, graph::EdgeSign::kNone},
      {0, 3, graph::EdgeSign::kAntagonistic},
  };
  graph::SignedGraph original(5, edges);

  const std::string path = TempPath("graph.dss");
  ASSERT_TRUE(io::SaveSignedGraphFile(path, original).ok);
  graph::SignedGraph loaded;
  ASSERT_TRUE(io::LoadSignedGraphFile(path, &loaded).ok);

  EXPECT_EQ(loaded.num_vertices(), 5);
  EXPECT_EQ(loaded.num_edges(), 4);
  EXPECT_EQ(loaded.SignOf(0, 1), graph::EdgeSign::kSynergistic);
  EXPECT_EQ(loaded.SignOf(1, 2), graph::EdgeSign::kAntagonistic);
  EXPECT_EQ(loaded.SignOf(2, 3), graph::EdgeSign::kNone);
  EXPECT_TRUE(loaded.HasInteraction(0, 3));
  EXPECT_EQ(loaded.PositiveNeighbors(1), original.PositiveNeighbors(1));
  EXPECT_EQ(loaded.NegativeNeighbors(2), original.NegativeNeighbors(2));
}

TEST(SignedGraphCodecTest, OutOfRangeVertexRejected) {
  io::BinaryWriter writer;
  writer.WriteU32(2);  // 2 vertices
  writer.WriteU32(1);  // 1 edge
  writer.WriteU32(0);
  writer.WriteU32(9);  // vertex 9 does not exist
  writer.WriteI32(1);
  io::BinaryReader reader(writer.buffer());
  graph::SignedGraph graph;
  EXPECT_FALSE(io::ReadSignedGraph(reader, &graph));
}

TEST(SignedGraphCodecTest, InvalidSignRejected) {
  io::BinaryWriter writer;
  writer.WriteU32(3);
  writer.WriteU32(1);
  writer.WriteU32(0);
  writer.WriteU32(1);
  writer.WriteI32(7);  // not in {-1, 0, 1}
  io::BinaryReader reader(writer.buffer());
  graph::SignedGraph graph;
  EXPECT_FALSE(io::ReadSignedGraph(reader, &graph));
}

// ---------------------------------------------------------------------
// Dataset codec
// ---------------------------------------------------------------------

TEST(DatasetCodecTest, TinyDatasetRoundTrips) {
  const auto dataset = testing::TinyDataset();
  const std::string path = TempPath("tiny.dss");
  ASSERT_TRUE(io::SaveDatasetFile(path, dataset).ok);

  data::SuggestionDataset loaded;
  ASSERT_TRUE(io::LoadDatasetFile(path, &loaded).ok);
  EXPECT_EQ(loaded.name, dataset.name);
  EXPECT_EQ(loaded.patient_features.data(), dataset.patient_features.data());
  EXPECT_EQ(loaded.medication.data(), dataset.medication.data());
  EXPECT_EQ(loaded.drug_features.data(), dataset.drug_features.data());
  EXPECT_EQ(loaded.ddi.num_edges(), dataset.ddi.num_edges());
  EXPECT_EQ(loaded.split.train, dataset.split.train);
  EXPECT_EQ(loaded.split.validation, dataset.split.validation);
  EXPECT_EQ(loaded.split.test, dataset.split.test);
  EXPECT_EQ(loaded.num_diseases, dataset.num_diseases);
  EXPECT_EQ(loaded.drug_names, dataset.drug_names);
}

TEST(DatasetCodecTest, VisitHistoriesRoundTrip) {
  auto dataset = testing::TinyDataset(30, 3, 9);
  dataset.visit_codes = {{{1, 2}, {3}}, {{4}}, {}};
  dataset.patient_diseases = {{0}, {1, 2}, {}};
  const std::string path = TempPath("visits.dss");
  ASSERT_TRUE(io::SaveDatasetFile(path, dataset).ok);
  data::SuggestionDataset loaded;
  ASSERT_TRUE(io::LoadDatasetFile(path, &loaded).ok);
  EXPECT_EQ(loaded.visit_codes, dataset.visit_codes);
  EXPECT_EQ(loaded.patient_diseases, dataset.patient_diseases);
}

TEST(DatasetCodecTest, InconsistentAxesRejected) {
  auto dataset = testing::TinyDataset();
  // Break the patient axis: features say 10 patients, medication says 120.
  dataset.patient_features = tensor::Matrix(10, 5);
  io::BinaryWriter writer;
  io::WriteDataset(writer, dataset);
  io::BinaryReader reader(writer.buffer());
  data::SuggestionDataset loaded;
  EXPECT_FALSE(io::ReadDataset(reader, &loaded));
}

// ---------------------------------------------------------------------
// Inference bundle
// ---------------------------------------------------------------------

class InferenceBundleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SuggestionDataset(testing::TinyDataset());
    core::DssddiConfig config;
    config.ddi.epochs = 60;
    config.md.epochs = 80;
    config.md.hidden_dim = 16;
    system_ = new core::DssddiSystem(config);
    system_->Fit(*dataset_);
  }
  static void TearDownTestSuite() {
    delete system_;
    delete dataset_;
    system_ = nullptr;
    dataset_ = nullptr;
  }

  static data::SuggestionDataset* dataset_;
  static core::DssddiSystem* system_;
};

data::SuggestionDataset* InferenceBundleTest::dataset_ = nullptr;
core::DssddiSystem* InferenceBundleTest::system_ = nullptr;

TEST_F(InferenceBundleTest, ExtractedBundleMatchesSystemScores) {
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  // This oracle is about the float path: the training stack scores in
  // float, so pin the bundle to float regardless of DSSDDI_QUANTIZE.
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const auto& test_ids = dataset_->split.test;
  const tensor::Matrix expected = system_->PredictScores(*dataset_, test_ids);
  const tensor::Matrix actual =
      bundle.PredictScores(dataset_->patient_features.GatherRows(test_ids));
  ASSERT_TRUE(actual.SameShape(expected));
  for (int i = 0; i < expected.rows(); ++i) {
    for (int j = 0; j < expected.cols(); ++j) {
      EXPECT_FLOAT_EQ(actual.At(i, j), expected.At(i, j)) << i << "," << j;
    }
  }
}

TEST_F(InferenceBundleTest, SaveLoadPreservesScoresBitExactly) {
  const auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  const std::string path = TempPath("model.dssb");
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, bundle).ok);

  io::InferenceBundle loaded;
  ASSERT_TRUE(io::LoadInferenceBundle(path, &loaded).ok);
  EXPECT_EQ(loaded.display_name, bundle.display_name);
  EXPECT_EQ(loaded.hidden_dim, bundle.hidden_dim);
  EXPECT_EQ(loaded.ms_explainer, bundle.ms_explainer);

  const auto& test_ids = dataset_->split.test;
  const tensor::Matrix x = dataset_->patient_features.GatherRows(test_ids);
  const tensor::Matrix before = bundle.PredictScores(x);
  const tensor::Matrix after = loaded.PredictScores(x);
  EXPECT_EQ(before.data(), after.data());  // bit-exact across the file
}

TEST_F(InferenceBundleTest, SuggestMatchesInProcessSystem) {
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const int patient = dataset_->split.test.front();
  const auto expected = system_->Suggest(*dataset_, patient, 3);
  const auto actual =
      bundle.Suggest(dataset_->patient_features.GatherRows({patient}), 3);
  EXPECT_EQ(actual.drugs, expected.drugs);
  EXPECT_EQ(actual.explanation.subgraph_drugs, expected.explanation.subgraph_drugs);
  EXPECT_DOUBLE_EQ(actual.explanation.suggestion_satisfaction,
                   expected.explanation.suggestion_satisfaction);
}

TEST_F(InferenceBundleTest, QuantizedSectionRoundTripsBitExactly) {
  // The int8 companions ship inside the bundle file; a loaded bundle
  // must score the quantized path bit-identically to the bundle it was
  // saved from.
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  const std::string path = TempPath("model_q.dssb");
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, bundle).ok);

  io::InferenceBundle loaded;
  ASSERT_TRUE(io::LoadInferenceBundle(path, &loaded).ok);
  loaded.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  ASSERT_EQ(loaded.patient_fc.quantized.layers.size(),
            bundle.patient_fc.quantized.layers.size());
  for (size_t i = 0; i < bundle.patient_fc.quantized.layers.size(); ++i) {
    const auto& saved = bundle.patient_fc.quantized.layers[i].weights;
    const auto& got = loaded.patient_fc.quantized.layers[i].weights;
    ASSERT_EQ(saved.packed_size(), got.packed_size()) << "layer " << i;
    EXPECT_EQ(std::memcmp(saved.packed_data(), got.packed_data(),
                          saved.packed_size()),
              0)
        << "layer " << i;
    EXPECT_EQ(std::memcmp(saved.scale_data(), got.scale_data(),
                          static_cast<size_t>(saved.n_padded) * sizeof(float)),
              0)
        << "layer " << i;
  }

  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const tensor::Matrix before = bundle.PredictScores(x);
  const tensor::Matrix after = loaded.PredictScores(x);
  EXPECT_EQ(before.data(), after.data());  // bit-exact int8 scores
}

TEST_F(InferenceBundleTest, QuantizedScoresAreBatchInvariant) {
  // Per-row dynamic activation scales make quantization row-local: a
  // patient's int8 scores may not depend on who shares the batch. This
  // is what lets the serving batcher regroup rows freely under int8.
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  const auto& test_ids = dataset_->split.test;
  const tensor::Matrix batch =
      bundle.PredictScores(dataset_->patient_features.GatherRows(test_ids));
  for (size_t i = 0; i < test_ids.size(); ++i) {
    const tensor::Matrix solo = bundle.PredictScores(
        dataset_->patient_features.GatherRows({test_ids[i]}));
    for (int j = 0; j < solo.cols(); ++j) {
      ASSERT_EQ(solo.At(0, j), batch.At(static_cast<int>(i), j))
          << "patient " << test_ids[i] << " score " << j;
    }
  }
}

TEST_F(InferenceBundleTest, ReloadIntoReusedBundleDropsStaleQuantizedWeights) {
  // Loading into a reused InferenceBundle object must never keep the
  // previous model's int8 companion: when the new file carries no
  // quantized section the companion is rebuilt from the NEW float
  // weights, not served from the stale ones.
  const auto bundle_a = io::ExtractInferenceBundle(*system_, *dataset_);

  core::DssddiConfig other_config;
  other_config.ddi.epochs = 30;
  other_config.md.epochs = 30;
  other_config.md.hidden_dim = 16;
  core::DssddiSystem other(other_config);
  other.Fit(*dataset_);
  io::InferenceBundle bundle_b = io::ExtractInferenceBundle(other, *dataset_);
  // Strip B's quantized sections so its file says has_quantized = 0.
  bundle_b.patient_fc.quantized.layers.clear();
  bundle_b.decoder.quantized.layers.clear();

  const std::string path_a = TempPath("reuse_a.dssb");
  const std::string path_b = TempPath("reuse_b.dssb");
  ASSERT_TRUE(io::WriteBundleV3(path_a, bundle_a).ok);
  ASSERT_TRUE(io::WriteBundleV3(path_b, bundle_b).ok);

  io::InferenceBundle reused;
  ASSERT_TRUE(io::ReadBundleV3(path_a, &reused).ok);
  ASSERT_TRUE(io::ReadBundleV3(path_b, &reused).ok);

  bundle_b.EnsureQuantized();
  reused.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  bundle_b.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const tensor::Matrix expected = bundle_b.PredictScores(x);
  const tensor::Matrix actual = reused.PredictScores(x);
  EXPECT_EQ(actual.data(), expected.data());
}

TEST_F(InferenceBundleTest, EveryTruncatedPrefixOfABundleFileIsRejected) {
  const auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  const std::string path = TempPath("truncate_sweep.dssb");
  ASSERT_TRUE(io::WriteBundleV3(path, bundle).ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);

  const std::string cut_path = TempPath("truncate_cut.dssb");
  for (int tenths = 0; tenths < 10; ++tenths) {
    const size_t cut = raw.size() * static_cast<size_t>(tenths) / 10;
    ASSERT_TRUE(io::WriteStringToFile(cut_path, raw.substr(0, cut)).ok);
    io::InferenceBundle loaded;
    EXPECT_FALSE(io::ReadBundleV3(cut_path, &loaded).ok)
        << "accepted a bundle truncated to " << cut << " of " << raw.size()
        << " bytes";
  }
}

TEST_F(InferenceBundleTest, ShapeInconsistentBundleRejectedAtLoad) {
  // A bundle whose patient encoder disagrees with its feature width used
  // to pass loading and then abort (layer-width CHECK) at scoring time;
  // untrusted files must fail at load with a Status instead.
  auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  bundle.cluster_centroids = tensor::Matrix(
      bundle.cluster_centroids.rows(), bundle.cluster_centroids.cols() + 1);
  const std::string path = TempPath("bad_shapes.dssb");
  ASSERT_TRUE(io::WriteBundleV3(path, bundle).ok);
  io::InferenceBundle loaded;
  const io::Status status = io::ReadBundleV3(path, &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("layer shapes"), std::string::npos)
      << status.message;
}

TEST(QuantizedMlpCodecTest, SectionLengthDisagreementRejected) {
  // The quantized section declares its own byte length; a length that
  // disagrees with the section content must be rejected before any of
  // the payload is interpreted.
  io::FrozenMlp mlp;
  io::FrozenMlp::Layer layer;
  layer.weight = tensor::Matrix({{0.5f, -1.0f}, {2.0f, 0.25f}, {1.5f, -0.75f}});
  layer.bias = tensor::Matrix({{0.1f, -0.2f}});
  layer.activation = 1;
  mlp.layers.push_back(layer);
  const io::QuantizedMlp quantized = io::QuantizeMlp(mlp);

  io::BinaryWriter writer;
  io::WriteQuantizedMlp(writer, quantized);

  {  // Sanity: the untouched section parses.
    io::BinaryReader reader(writer.buffer());
    io::QuantizedMlp parsed;
    ASSERT_TRUE(io::ReadQuantizedMlp(reader, &parsed));
    ASSERT_EQ(parsed.layers.size(), 1u);
    EXPECT_EQ(parsed.layers[0].weights.data, quantized.layers[0].weights.data);
  }
  {  // Declared length one byte short of the actual section body.
    std::string corrupt = writer.buffer();
    corrupt[0] = static_cast<char>(static_cast<unsigned char>(corrupt[0]) - 1);
    io::BinaryReader reader(corrupt);
    io::QuantizedMlp parsed;
    EXPECT_FALSE(io::ReadQuantizedMlp(reader, &parsed));
    EXPECT_FALSE(reader.ok());
  }
  {  // Truncated mid-section.
    const std::string truncated = writer.buffer().substr(0, writer.size() - 3);
    io::BinaryReader reader(truncated);
    io::QuantizedMlp parsed;
    EXPECT_FALSE(io::ReadQuantizedMlp(reader, &parsed));
  }
}

TEST_F(InferenceBundleTest, CorruptedBundleRejected) {
  const auto bundle = io::ExtractInferenceBundle(*system_, *dataset_);
  const std::string path = TempPath("corrupt.dssb");
  ASSERT_TRUE(io::WriteBundleV3(path, bundle).ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(io::WriteStringToFile(path, raw).ok);
  io::InferenceBundle loaded;
  EXPECT_FALSE(io::ReadBundleV3(path, &loaded).ok);
}

TEST_F(InferenceBundleTest, WrongKindRejected) {
  const std::string path = TempPath("matrix_as_bundle.dss");
  ASSERT_TRUE(io::SaveMatrixFile(path, tensor::Matrix::Identity(3)).ok);
  io::InferenceBundle loaded;
  EXPECT_FALSE(io::ReadBundleV3(path, &loaded).ok);
  EXPECT_FALSE(io::LoadInferenceBundle(path, &loaded).ok);
}

// ---------------------------------------------------------------------
// Robustness sweeps: a reader facing truncated or random bytes must fail
// cleanly (no crash, no partial state) at every cut point.
// ---------------------------------------------------------------------

class TruncationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncationSweepTest, EveryPrefixOfADatasetFileIsRejected) {
  const auto dataset = testing::TinyDataset(20, 2, 6);
  const std::string path = TempPath("sweep.dss");
  ASSERT_TRUE(io::SaveDatasetFile(path, dataset).ok);
  std::string raw;
  ASSERT_TRUE(io::ReadFileToString(path, &raw).ok);

  // Cut at a deterministic fraction of the file per test instance.
  const size_t cut = raw.size() * static_cast<size_t>(GetParam()) / 10;
  ASSERT_LT(cut, raw.size());
  const std::string truncated_path = TempPath("sweep_cut.dss");
  ASSERT_TRUE(io::WriteStringToFile(truncated_path, raw.substr(0, cut)).ok);

  data::SuggestionDataset loaded;
  EXPECT_FALSE(io::LoadDatasetFile(truncated_path, &loaded).ok);
}

INSTANTIATE_TEST_SUITE_P(CutPoints, TruncationSweepTest, ::testing::Range(0, 10));

class RandomBytesTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomBytesTest, GarbageNeverCrashesTheLoaders) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 977);
  std::string garbage(1024 + rng.NextBelow(4096), '\0');
  for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
  const std::string path = TempPath("garbage_fuzz.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, garbage).ok);

  tensor::Matrix matrix;
  EXPECT_FALSE(io::LoadMatrixFile(path, &matrix).ok);
  graph::SignedGraph graph;
  EXPECT_FALSE(io::LoadSignedGraphFile(path, &graph).ok);
  data::SuggestionDataset dataset;
  EXPECT_FALSE(io::LoadDatasetFile(path, &dataset).ok);
  io::InferenceBundle bundle;
  EXPECT_FALSE(io::ReadBundleV3(path, &bundle).ok);
  EXPECT_FALSE(io::LoadInferenceBundle(path, &bundle).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesTest, ::testing::Range(1, 9));

TEST(RandomBytesTest, GarbagePayloadBehindValidFrameIsRejected) {
  // A correct frame whose payload is random bytes: the checksum passes
  // (it is computed over those bytes) but the codec must reject it.
  util::Rng rng(4242);
  std::string payload(512, '\0');
  for (char& c : payload) c = static_cast<char>(rng.NextBelow(256));
  const std::string path = TempPath("framed_garbage.dss");
  ASSERT_TRUE(io::WriteFramedFile(path, io::kFormatDataset, 1, payload).ok);
  data::SuggestionDataset dataset;
  const io::Status status = io::LoadDatasetFile(path, &dataset);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("malformed"), std::string::npos);

  const std::string bundle_path = TempPath("framed_garbage_bundle.dssb");
  ASSERT_TRUE(
      io::WriteFramedFile(bundle_path, io::kFormatInferenceBundle, 3, payload)
          .ok);
  io::InferenceBundle bundle;
  const io::Status bundle_status = io::ReadBundleV3(bundle_path, &bundle);
  EXPECT_FALSE(bundle_status.ok);
  EXPECT_NE(bundle_status.message.find("malformed"), std::string::npos)
      << bundle_status.message;
}

TEST(FrozenMlpTest, ForwardMatchesHandComputation) {
  io::FrozenMlp mlp;
  io::FrozenMlp::Layer layer;
  layer.weight = tensor::Matrix({{2.0f}, {1.0f}});  // 2 -> 1
  layer.bias = tensor::Matrix({{-1.0f}});
  layer.activation = static_cast<int>(tensor::Activation::kRelu);
  mlp.layers.push_back(layer);

  const tensor::Matrix x({{1.0f, 3.0f}, {0.0f, 0.0f}});
  const tensor::Matrix y = mlp.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 4.0f);   // 2*1 + 1*3 - 1 = 4
  EXPECT_FLOAT_EQ(y.At(1, 0), 0.0f);   // relu(-1) = 0
}

// ---------------------------------------------------------------------
// PredictScores / TopKDrugs against the whole-batch implementations they
// replaced
// ---------------------------------------------------------------------

// Restores the process-wide GEMM backend a test switches.
class BackendGuard {
 public:
  BackendGuard() : saved_(tensor::kernels::ActiveBackendName()) {}
  ~BackendGuard() { tensor::kernels::SetBackend(saved_); }

 private:
  std::string saved_;
};

// The frozen-MLP pass as it ran before workspaces: one freshly allocated
// output per layer, calling the kernels directly.
tensor::Matrix WholeBatchForward(const io::FrozenMlp& mlp, const tensor::Matrix& x,
                                 tensor::kernels::QuantMode mode) {
  const bool use_int8 = mode == tensor::kernels::QuantMode::kInt8 &&
                        mlp.quantized.layers.size() == mlp.layers.size() &&
                        !mlp.layers.empty();
  tensor::kernels::QuantizedRows rows;
  tensor::Matrix h = x;
  for (size_t li = 0; li < mlp.layers.size(); ++li) {
    const io::FrozenMlp::Layer& layer = mlp.layers[li];
    tensor::Matrix next(h.rows(), layer.weight.cols());
    if (use_int8 && layer.weight.cols() >= tensor::kernels::kQuantMinColumns) {
      const io::QuantizedMlp::Layer& q = mlp.quantized.layers[li];
      tensor::kernels::QuantizeRowsSymmetric(h.ReadPtr(), h.rows(), h.cols(), &rows);
      tensor::kernels::QGemmBiasAct(
          rows, q.weights, q.bias.ReadPtr(), next.data().data(),
          static_cast<tensor::kernels::EpilogueActivation>(q.activation));
    } else {
      tensor::kernels::ActiveBackend().GemmBiasAct(
          h.rows(), h.cols(), layer.weight.cols(), h.ReadPtr(),
          layer.weight.ReadPtr(), layer.bias.ReadPtr(), next.data().data(),
          static_cast<tensor::kernels::EpilogueActivation>(layer.activation));
    }
    h = std::move(next);
  }
  return h;
}

// InferenceBundle::PredictScores as it ran before per-patient tiles: one
// batch-sized decoder input, one serial distance sum per centroid.
tensor::Matrix WholeBatchPredictScores(const io::InferenceBundle& bundle,
                                       const tensor::Matrix& x) {
  const tensor::kernels::QuantMode mode = bundle.EffectiveQuantMode();
  const int num_patients = x.rows();
  const int v_count = bundle.num_drugs();
  const tensor::Matrix h_patients = WholeBatchForward(bundle.patient_fc, x, mode);
  const int interaction_dim = bundle.mlp_decoder ? bundle.hidden_dim : 1;
  tensor::Matrix decoder_input(num_patients * v_count, interaction_dim + 1);
  for (int i = 0; i < num_patients; ++i) {
    int cluster = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int c = 0; c < bundle.cluster_centroids.rows(); ++c) {
      double dist = 0.0;
      const float* centroid = bundle.cluster_centroids.RowPtr(c);
      for (int j = 0; j < bundle.cluster_centroids.cols(); ++j) {
        const double d = static_cast<double>(x.At(i, j)) - centroid[j];
        dist += d * d;
      }
      if (dist < best_dist) {
        best_dist = dist;
        cluster = c;
      }
    }
    const float* treatment = bundle.cluster_treatment.RowPtr(cluster);
    const float* hp = h_patients.RowPtr(i);
    for (int v = 0; v < v_count; ++v) {
      float* row = decoder_input.RowPtr(i * v_count + v);
      const float* hd = bundle.final_drug_reps.RowPtr(v);
      if (bundle.mlp_decoder) {
        for (int j = 0; j < bundle.hidden_dim; ++j) row[j] = hp[j] * hd[j];
      } else {
        double acc = 0.0;
        for (int j = 0; j < bundle.hidden_dim; ++j) {
          acc += static_cast<double>(hp[j]) * hd[j];
        }
        row[0] = static_cast<float>(acc);
      }
      row[interaction_dim] = bundle.use_treatment_feature ? treatment[v] : 0.0f;
    }
  }
  const tensor::Matrix logits = WholeBatchForward(bundle.decoder, decoder_input, mode);
  tensor::Matrix scores(num_patients, v_count);
  for (int i = 0; i < num_patients; ++i) {
    for (int v = 0; v < v_count; ++v) {
      scores.At(i, v) = 1.0f / (1.0f + std::exp(-logits.At(i * v_count + v, 0)));
    }
  }
  return scores;
}

tensor::Matrix RandomMatrix(int rows, int cols, double lo, double hi, util::Rng& rng) {
  tensor::Matrix m(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.At(i, j) = static_cast<float>(rng.Uniform(lo, hi));
  }
  return m;
}

io::FrozenMlp::Layer RandomLayer(int in, int out, tensor::Activation activation,
                                 util::Rng& rng) {
  io::FrozenMlp::Layer layer;
  const double bound = 1.0 / std::sqrt(static_cast<double>(in));
  layer.weight = RandomMatrix(in, out, -bound, bound, rng);
  layer.bias = RandomMatrix(1, out, -0.1, 0.1, rng);
  layer.activation = static_cast<int>(activation);
  return layer;
}

// A bundle with the deployed shapes (71 features, |V| = 86, hidden 64,
// 15 treatment clusters) and random weights. Centroids 5 and 9 repeat
// centroids 4 and 2 with different treatment rows, so a nearest-cluster
// tie resolved to the wrong index changes the scores.
io::InferenceBundle ServingShapedBundle(bool mlp_decoder, bool use_treatment_feature) {
  constexpr int kFeatures = 71, kDrugs = 86, kHidden = 64, kClusters = 15;
  util::Rng rng(mlp_decoder ? 2201 : 2202);
  io::InferenceBundle bundle;
  bundle.hidden_dim = kHidden;
  bundle.mlp_decoder = mlp_decoder;
  bundle.use_treatment_feature = use_treatment_feature;
  bundle.patient_fc.layers = {
      RandomLayer(kFeatures, kHidden, tensor::Activation::kLeakyRelu, rng),
      RandomLayer(kHidden, kHidden, tensor::Activation::kLeakyRelu, rng)};
  if (mlp_decoder) {
    bundle.decoder.layers = {
        RandomLayer(kHidden + 1, kHidden, tensor::Activation::kRelu, rng),
        RandomLayer(kHidden, 1, tensor::Activation::kNone, rng)};
  } else {
    bundle.decoder.layers = {RandomLayer(2, 1, tensor::Activation::kNone, rng)};
  }
  bundle.final_drug_reps = RandomMatrix(kDrugs, kHidden, -1.0, 1.0, rng);
  bundle.cluster_centroids = RandomMatrix(kClusters, kFeatures, 0.0, 1.0, rng);
  for (const auto& [copy, source] : {std::pair{5, 4}, std::pair{9, 2}}) {
    std::copy(bundle.cluster_centroids.RowPtr(source),
              bundle.cluster_centroids.RowPtr(source) + kFeatures,
              bundle.cluster_centroids.RowPtr(copy));
  }
  bundle.cluster_treatment = RandomMatrix(kClusters, kDrugs, 0.0, 1.0, rng);
  bundle.EnsureQuantized();
  return bundle;
}

// Patient rows: random, except every fourth sits exactly on a duplicated
// centroid (a distance tie) and every fifth on a unique one.
tensor::Matrix PatientRows(const io::InferenceBundle& bundle, int rows, util::Rng& rng) {
  tensor::Matrix x = RandomMatrix(rows, bundle.cluster_centroids.cols(), 0.0, 1.0, rng);
  for (int i = 0; i < rows; ++i) {
    const int centroid = i % 4 == 0 ? (i % 8 == 0 ? 4 : 2) : i % 5 == 0 ? 11 : -1;
    if (centroid < 0) continue;
    std::copy(bundle.cluster_centroids.RowPtr(centroid),
              bundle.cluster_centroids.RowPtr(centroid) + x.cols(), x.RowPtr(i));
  }
  return x;
}

TEST(PredictScoresDifferentialTest, MatchesWholeBatchBitForBitInEveryMode) {
  BackendGuard guard;
  for (const bool mlp_decoder : {true, false}) {
    for (const bool treatment : {true, false}) {
      io::InferenceBundle bundle = ServingShapedBundle(mlp_decoder, treatment);
      for (const char* backend : {"reference", "blocked"}) {
        ASSERT_TRUE(tensor::kernels::SetBackend(backend));
        for (const auto mode : {tensor::kernels::QuantMode::kNone,
                                tensor::kernels::QuantMode::kInt8}) {
          bundle.quantization = static_cast<int>(mode);
          for (const int rows : {1, 3, 32, 33}) {
            util::Rng rng(static_cast<uint64_t>(rows) * 7919);
            const tensor::Matrix x = PatientRows(bundle, rows, rng);
            const tensor::Matrix expected = WholeBatchPredictScores(bundle, x);
            const tensor::Matrix actual = bundle.PredictScores(x);
            ASSERT_TRUE(actual.SameShape(expected));
            EXPECT_EQ(std::memcmp(actual.ReadPtr(), expected.ReadPtr(),
                                  sizeof(float) * expected.size()),
                      0)
                << (mlp_decoder ? "mlp" : "dot-linear") << " decoder, treatment "
                << treatment << ", " << backend << ", "
                << tensor::kernels::QuantModeName(mode) << ", " << rows << " rows";
          }
        }
      }
    }
  }
}

TEST(PredictScoresDifferentialTest, TrainedBundleMatchesWholeBatch) {
  const data::SuggestionDataset dataset = testing::TinyDataset();
  core::DssddiConfig config;
  config.ddi.epochs = 20;
  config.md.epochs = 20;
  config.md.hidden_dim = 16;
  core::DssddiSystem system(config);
  system.Fit(dataset);
  io::InferenceBundle bundle = io::ExtractInferenceBundle(system, dataset);
  const tensor::Matrix x = dataset.patient_features;
  for (const auto mode : {tensor::kernels::QuantMode::kNone,
                          tensor::kernels::QuantMode::kInt8}) {
    bundle.quantization = static_cast<int>(mode);
    const tensor::Matrix expected = WholeBatchPredictScores(bundle, x);
    const tensor::Matrix actual = bundle.PredictScores(x);
    ASSERT_TRUE(actual.SameShape(expected));
    EXPECT_EQ(std::memcmp(actual.ReadPtr(), expected.ReadPtr(),
                          sizeof(float) * expected.size()),
              0)
        << tensor::kernels::QuantModeName(mode);
  }
}

std::vector<int> StableSortTopK(const tensor::Matrix& scores, int row, int k) {
  std::vector<int> order(scores.cols());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return scores.At(row, a) > scores.At(row, b);
  });
  order.resize(std::min(k, scores.cols()));
  return order;
}

TEST(TopKDrugsDifferentialTest, MatchesStableSortOnTieHeavyRows) {
  constexpr int kDrugs = 86;
  // Few distinct values, +0 beside -0, so most rows are mostly ties.
  const float values[] = {1.0f, 0.75f, 0.5f, 0.0f, -0.0f, -0.5f, 0.5f, 0.0f};
  util::Rng rng(86);
  tensor::Matrix scores(24, kDrugs);
  for (int r = 0; r < scores.rows(); ++r) {
    for (int v = 0; v < kDrugs; ++v) {
      scores.At(r, v) = r < 4 ? values[(r + v) % 3 + 3]  // only 0, -0, -0.5
                        : r < 16 ? values[rng.NextBelow(8)]
                                 : static_cast<float>(rng.Uniform(0.0, 1.0));
    }
  }
  for (int r = 0; r < scores.rows(); ++r) {
    for (const int k : {1, 3, 10, kDrugs, kDrugs + 1, 4 * kDrugs}) {
      EXPECT_EQ(core::TopKDrugs(scores, r, k), StableSortTopK(scores, r, k))
          << "row " << r << " k " << k;
    }
  }
}

TEST(TopKDrugsDifferentialTest, NanScoresRankLastByDrugId) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const tensor::Matrix scores({{nan, 0.5f, nan, -1.0f, 0.5f}});
  EXPECT_EQ(core::TopKDrugs(scores, 0, 5), (std::vector<int>{1, 4, 3, 0, 2}));
  EXPECT_EQ(core::TopKDrugs(scores, 0, 2), (std::vector<int>{1, 4}));
  EXPECT_TRUE(core::TopKDrugs(scores, 0, 0).empty());
}

// ---------------------------------------------------------------------
// MmapFile
// ---------------------------------------------------------------------

TEST(MmapFileTest, MapsARealFileAndReadsItsBytes) {
  const std::string path = TempPath("mmap_plain.bin");
  ASSERT_TRUE(io::WriteStringToFile(path, "mapped contents").ok);
  io::MmapFile mapping;
  ASSERT_TRUE(io::MmapFile::Open(path, &mapping).ok);
  ASSERT_EQ(mapping.size(), 15u);
  EXPECT_EQ(std::memcmp(mapping.data(), "mapped contents", 15), 0);
}

TEST(MmapFileTest, MissingEmptyAndDirectoryPathsFailCleanly) {
  io::MmapFile mapping;
  EXPECT_FALSE(io::MmapFile::Open(TempPath("no_such_mmap.bin"), &mapping).ok);

  const std::string empty_path = TempPath("mmap_empty.bin");
  ASSERT_TRUE(io::WriteStringToFile(empty_path, "").ok);
  EXPECT_FALSE(io::MmapFile::Open(empty_path, &mapping).ok);

  EXPECT_FALSE(io::MmapFile::Open(::testing::TempDir(), &mapping).ok);
}

// ---------------------------------------------------------------------
// Bundle format v4 (zero-copy mmap)
// ---------------------------------------------------------------------

// Section-table walker for corruption tests: returns the file offset of
// the first section of `type` (0 if absent). Layout constants match the
// format doc in io/bundle_v4.h.
size_t FindV4Section(const std::string& raw, uint32_t type,
                     uint64_t* length = nullptr) {
  uint32_t count = 0;
  std::memcpy(&count, raw.data() + 24, sizeof(count));
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = 32 + 32 * static_cast<size_t>(i);
    uint32_t entry_type = 0;
    std::memcpy(&entry_type, raw.data() + entry, sizeof(entry_type));
    if (entry_type != type) continue;
    uint64_t offset = 0;
    std::memcpy(&offset, raw.data() + entry + 8, sizeof(offset));
    if (length != nullptr) {
      std::memcpy(length, raw.data() + entry + 16, sizeof(*length));
    }
    return static_cast<size_t>(offset);
  }
  return 0;
}

class BundleV4Test : public InferenceBundleTest {
 protected:
  // Saves the suite bundle once as v4 (with int8 companions) and reads
  // the raw bytes back for the corruption tests.
  static void SetUpTestSuite() {
    InferenceBundleTest::SetUpTestSuite();
    bundle_ = new io::InferenceBundle(
        io::ExtractInferenceBundle(*system_, *dataset_));
    v4_path_ = new std::string(TempPath("model_v4.dssb"));
    ASSERT_TRUE(io::SaveInferenceBundleV4(*v4_path_, *bundle_).ok);
    raw_ = new std::string();
    ASSERT_TRUE(io::ReadFileToString(*v4_path_, raw_).ok);
  }
  static void TearDownTestSuite() {
    delete raw_;
    delete v4_path_;
    delete bundle_;
    raw_ = nullptr;
    v4_path_ = nullptr;
    bundle_ = nullptr;
    InferenceBundleTest::TearDownTestSuite();
  }

  // Writes `raw` with bytes [at, at+len) replaced and expects the loader
  // to reject it with the canonical malformed-v4 message.
  static void ExpectMutationRejected(size_t at, const void* bytes, size_t len,
                                     const char* label) {
    std::string mutated = *raw_;
    ASSERT_LE(at + len, mutated.size()) << label;
    std::memcpy(mutated.data() + at, bytes, len);
    const std::string path = TempPath("v4_mutated.dssb");
    ASSERT_TRUE(io::WriteStringToFile(path, mutated).ok);
    io::InferenceBundle loaded;
    const io::Status status = io::LoadInferenceBundle(path, &loaded);
    EXPECT_FALSE(status.ok) << label;
    EXPECT_NE(status.message.find("malformed v4 bundle"), std::string::npos)
        << label << ": " << status.message;
  }

  static void ExpectU32MutationRejected(size_t at, uint32_t value,
                                        const char* label) {
    ExpectMutationRejected(at, &value, sizeof(value), label);
  }
  static void ExpectU64MutationRejected(size_t at, uint64_t value,
                                        const char* label) {
    ExpectMutationRejected(at, &value, sizeof(value), label);
  }

  static io::InferenceBundle* bundle_;
  static std::string* v4_path_;
  static std::string* raw_;
};

io::InferenceBundle* BundleV4Test::bundle_ = nullptr;
std::string* BundleV4Test::v4_path_ = nullptr;
std::string* BundleV4Test::raw_ = nullptr;

TEST_F(BundleV4Test, RoundTripIsZeroCopyAndBitExact) {
  io::InferenceBundle loaded;
  loaded.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &loaded).ok);
  EXPECT_EQ(loaded.format_version, 4u);
  EXPECT_GT(loaded.bytes_mapped(), 0u);
  EXPECT_GE(loaded.load_ms, 0.0);
  EXPECT_TRUE(loaded.has_ms_skeleton);
  EXPECT_TRUE(loaded.ms_skeleton.is_view());
  EXPECT_EQ(loaded.display_name, bundle_->display_name);
  EXPECT_EQ(loaded.hidden_dim, bundle_->hidden_dim);
  EXPECT_EQ(loaded.ms_explainer, bundle_->ms_explainer);
  EXPECT_EQ(loaded.drug_names, bundle_->drug_names);

  // The tensors must be views into the mapping, not copies.
  const unsigned char* base = loaded.mapping->data();
  const unsigned char* end = base + loaded.bytes_mapped();
  const float* w = loaded.patient_fc.layers.front().weight.ReadPtr();
  EXPECT_TRUE(reinterpret_cast<const unsigned char*>(w) >= base &&
              reinterpret_cast<const unsigned char*>(w) < end);

  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  io::InferenceBundle float_ref = *bundle_;
  float_ref.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  const tensor::Matrix before = float_ref.PredictScores(x);
  const tensor::Matrix after = loaded.PredictScores(x);
  EXPECT_EQ(before.data(), after.data());  // bit-exact across the file

  EXPECT_TRUE(io::VerifyBundleV4Checksums(*v4_path_).ok);
}

TEST_F(BundleV4Test, V4ScoresBitIdenticalToInProcessBundleAcrossQuantModes) {
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const int patient = dataset_->split.test.front();

  for (const auto mode : {tensor::kernels::QuantMode::kNone,
                          tensor::kernels::QuantMode::kInt8}) {
    // The reference is the bundle extracted from the trained system,
    // never written to disk.
    io::InferenceBundle in_process = *bundle_;
    io::InferenceBundle v4;
    in_process.quantization = static_cast<int>(mode);
    v4.quantization = static_cast<int>(mode);
    ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &v4).ok);
    EXPECT_EQ(in_process.format_version, 0u);
    EXPECT_EQ(v4.format_version, 4u);

    const tensor::Matrix heap = in_process.PredictScores(x);
    const tensor::Matrix mapped = v4.PredictScores(x);
    EXPECT_EQ(heap.data(), mapped.data())
        << "mode " << static_cast<int>(mode);

    const auto heap_suggest = in_process.Suggest(
        dataset_->patient_features.GatherRows({patient}), 3);
    const auto v4_suggest = v4.Suggest(
        dataset_->patient_features.GatherRows({patient}), 3);
    EXPECT_EQ(heap_suggest.drugs, v4_suggest.drugs);
    EXPECT_EQ(heap_suggest.explanation.subgraph_drugs,
              v4_suggest.explanation.subgraph_drugs);
    EXPECT_DOUBLE_EQ(heap_suggest.explanation.suggestion_satisfaction,
                     v4_suggest.explanation.suggestion_satisfaction);
  }
}

TEST_F(BundleV4Test, V3FileConvertedToV4ScoresBitIdenticalToItsSource) {
  // The bundle_convert path: a legacy v3 file read onto the heap,
  // rewritten as v4 and mapped back must score exactly like the bundle
  // the v3 file was written from.
  const std::string v3_path = TempPath("model_v3_to_convert.dssb");
  const std::string v4_path = TempPath("model_v3_converted.dssb");
  ASSERT_TRUE(io::WriteBundleV3(v3_path, *bundle_).ok);
  io::InferenceBundle from_v3;
  ASSERT_TRUE(io::ReadBundleV3(v3_path, &from_v3).ok);
  EXPECT_EQ(from_v3.format_version, 0u);
  ASSERT_TRUE(io::SaveInferenceBundleV4(v4_path, from_v3).ok);
  EXPECT_TRUE(io::VerifyBundleV4Checksums(v4_path).ok);

  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  for (const auto mode : {tensor::kernels::QuantMode::kNone,
                          tensor::kernels::QuantMode::kInt8}) {
    io::InferenceBundle source = *bundle_;
    io::InferenceBundle converted;
    source.quantization = static_cast<int>(mode);
    converted.quantization = static_cast<int>(mode);
    ASSERT_TRUE(io::LoadInferenceBundle(v4_path, &converted).ok);
    EXPECT_EQ(converted.format_version, 4u);
    EXPECT_EQ(source.PredictScores(x).data(), converted.PredictScores(x).data())
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(BundleV4Test, MappedQuantizedTilesMatchTheHeapPacking) {
  io::InferenceBundle loaded;
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &loaded).ok);
  ASSERT_EQ(loaded.patient_fc.quantized.layers.size(),
            bundle_->patient_fc.quantized.layers.size());
  for (size_t i = 0; i < bundle_->patient_fc.quantized.layers.size(); ++i) {
    const auto& saved = bundle_->patient_fc.quantized.layers[i].weights;
    const auto& got = loaded.patient_fc.quantized.layers[i].weights;
    ASSERT_EQ(saved.packed_size(), got.packed_size()) << "layer " << i;
    EXPECT_EQ(std::memcmp(saved.packed_data(), got.packed_data(),
                          saved.packed_size()),
              0)
        << "layer " << i;
    EXPECT_EQ(std::memcmp(saved.scale_data(), got.scale_data(),
                          static_cast<size_t>(saved.n_padded) * sizeof(float)),
              0)
        << "layer " << i;
  }
}

TEST_F(BundleV4Test, MappedSkeletonEqualsInteractionSkeleton) {
  io::InferenceBundle loaded;
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &loaded).ok);
  ASSERT_TRUE(loaded.has_ms_skeleton);
  const graph::Graph expected = loaded.ddi.InteractionSkeleton();
  ASSERT_EQ(loaded.ms_skeleton.num_vertices(), expected.num_vertices());
  ASSERT_EQ(loaded.ms_skeleton.num_edges(), expected.num_edges());
  for (int e = 0; e < expected.num_edges(); ++e) {
    EXPECT_EQ(loaded.ms_skeleton.Edge(e), expected.Edge(e)) << "edge " << e;
  }
}

TEST_F(BundleV4Test, QuantlessV4FileRebuildsInt8FromMappedFloats) {
  io::InferenceBundle stripped = *bundle_;
  stripped.patient_fc.quantized.layers.clear();
  stripped.decoder.quantized.layers.clear();
  const std::string path = TempPath("model_v4_noquant.dssb");
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, stripped).ok);

  io::InferenceBundle loaded;
  loaded.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  ASSERT_TRUE(io::LoadInferenceBundle(path, &loaded).ok);
  EXPECT_FALSE(loaded.patient_fc.quantized.layers.empty());

  io::InferenceBundle shipped;
  shipped.quantization = static_cast<int>(tensor::kernels::QuantMode::kInt8);
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &shipped).ok);
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const tensor::Matrix rebuilt = loaded.PredictScores(x);
  const tensor::Matrix from_section = shipped.PredictScores(x);
  EXPECT_EQ(rebuilt.data(), from_section.data());
}

TEST_F(BundleV4Test, LoadingV3IntoAV4BundleFailsWithConvertHintAndNoMapping) {
  const std::string v3_path = TempPath("model_v3_after_v4.dssb");
  ASSERT_TRUE(io::WriteBundleV3(v3_path, *bundle_).ok);

  io::InferenceBundle reused;
  ASSERT_TRUE(io::LoadInferenceBundle(*v4_path_, &reused).ok);
  ASSERT_NE(reused.mapping, nullptr);
  const io::Status status = io::LoadInferenceBundle(v3_path, &reused);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("v3 bundle, convert it with bundle_convert"),
            std::string::npos)
      << status.message;
  EXPECT_NE(status.message.find(v3_path), std::string::npos) << status.message;
  EXPECT_EQ(reused.mapping, nullptr);
  EXPECT_EQ(reused.bytes_mapped(), 0u);
  EXPECT_EQ(reused.format_version, 0u);
  EXPECT_FALSE(reused.has_ms_skeleton);
}

TEST_F(BundleV4Test, SavingOverAMappedFileLeavesTheMappingIntact) {
  // A server maps its bundle MAP_SHARED; an exporter that rewrote that
  // path in place would change the pages under it (and SIGBUS it past a
  // shorter new end of file). Saving must replace the file, not its
  // contents. The bundles are the same size, so an in-place rewrite
  // would show up here as changed scores rather than a crash.
  const std::string dir = TempPath("atomic_save");
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  const std::string path = dir + "/model.dssb";
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, *bundle_).ok);

  io::InferenceBundle served;
  served.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  ASSERT_TRUE(io::LoadInferenceBundle(path, &served).ok);
  const tensor::Matrix x =
      dataset_->patient_features.GatherRows(dataset_->split.test);
  const tensor::Matrix before = served.PredictScores(x);

  io::InferenceBundle next = *bundle_;
  next.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  for (float& v : next.final_drug_reps.data()) v = -v;
  ASSERT_TRUE(io::SaveInferenceBundleV4(path, next).ok);

  EXPECT_EQ(served.PredictScores(x).data(), before.data());
  io::InferenceBundle fresh;
  fresh.quantization = static_cast<int>(tensor::kernels::QuantMode::kNone);
  ASSERT_TRUE(io::LoadInferenceBundle(path, &fresh).ok);
  const tensor::Matrix after = fresh.PredictScores(x);
  EXPECT_EQ(after.data(), next.PredictScores(x).data());
  EXPECT_NE(after.data(), before.data());

  std::vector<std::string> entries;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"model.dssb"});
}

TEST_F(BundleV4Test, EveryTruncatedPrefixOfAV4FileIsRejected) {
  const std::string cut_path = TempPath("v4_truncate_cut.dssb");
  for (int tenths = 0; tenths < 10; ++tenths) {
    const size_t cut = raw_->size() * static_cast<size_t>(tenths) / 10;
    ASSERT_TRUE(io::WriteStringToFile(cut_path, raw_->substr(0, cut)).ok);
    io::InferenceBundle loaded;
    EXPECT_FALSE(io::LoadInferenceBundle(cut_path, &loaded).ok)
        << "accepted a v4 bundle truncated to " << cut << " of "
        << raw_->size() << " bytes";
  }
}

TEST_F(BundleV4Test, HeaderAndSectionTableFuzzFailsCleanly) {
  // Each mutation targets one documented header/table field (offsets per
  // the format comment in io/bundle_v4.h) and must produce a clean
  // Status — never a crash or a silently wrong bundle.
  ExpectU32MutationRejected(4, 999, "unsupported header version");
  ExpectU32MutationRejected(8, 7, "wrong format id");
  ExpectU32MutationRejected(12, 3, "unsupported bundle version");
  ExpectU64MutationRejected(16, raw_->size() + 4096, "file size too large");
  ExpectU64MutationRejected(16, 64, "file size too small");
  ExpectU32MutationRejected(24, 0, "zero sections");
  ExpectU32MutationRejected(24, 1u << 20, "implausible section count");
  // Section-table entry 0 lives at offset 32.
  ExpectU32MutationRejected(32, 0xffff, "unknown section type");
  ExpectU64MutationRejected(32 + 8, 4096 + 8, "misaligned section offset");
  ExpectU64MutationRejected(32 + 16, raw_->size() * 2,
                            "section extends past end of file");
  // Duplicate: make entry 1 the same type as entry 0.
  uint32_t type0 = 0;
  std::memcpy(&type0, raw_->data() + 32, sizeof(type0));
  ExpectU32MutationRejected(32 + 32, type0, "duplicate section");
  // Overlap: point entry 1 at entry 0's pages.
  uint64_t offset0 = 0;
  std::memcpy(&offset0, raw_->data() + 32 + 8, sizeof(offset0));
  ExpectU64MutationRejected(32 + 32 + 8, offset0, "overlapping sections");
}

TEST_F(BundleV4Test, GarbageAfterV4MagicIsRejected) {
  util::Rng rng(77);
  std::string garbage(8192, '\0');
  for (char& c : garbage) {
    c = static_cast<char>(rng.UniformInt(0, 255));
  }
  std::memcpy(garbage.data(), &io::kBundleV4Magic, sizeof(io::kBundleV4Magic));
  const std::string path = TempPath("v4_garbage.dssb");
  ASSERT_TRUE(io::WriteStringToFile(path, garbage).ok);
  io::InferenceBundle loaded;
  const io::Status status = io::LoadInferenceBundle(path, &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("malformed v4 bundle"), std::string::npos)
      << status.message;
}

TEST_F(BundleV4Test, ChecksumVerifierCatchesPayloadBitRot) {
  // The loader stays O(pages) by design — it does NOT hash payloads — so
  // a single flipped weight byte must be caught by the offline verifier
  // that tooling (bundle_convert --selftest, check.sh) runs instead.
  uint64_t length = 0;
  const size_t drug_reps =
      FindV4Section(*raw_, io::kSectionDrugReps, &length);
  ASSERT_GT(drug_reps, 0u);
  ASSERT_GT(length, 40u);
  std::string mutated = *raw_;
  mutated[drug_reps + 40] = static_cast<char>(mutated[drug_reps + 40] ^ 0x10);
  const std::string path = TempPath("v4_bitrot.dssb");
  ASSERT_TRUE(io::WriteStringToFile(path, mutated).ok);

  const io::Status status = io::VerifyBundleV4Checksums(path);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.message.find("section checksum mismatch"),
            std::string::npos)
      << status.message;
  EXPECT_TRUE(io::VerifyBundleV4Checksums(*v4_path_).ok);
}

}  // namespace
}  // namespace dssddi
