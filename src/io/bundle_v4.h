#ifndef DSSDDI_IO_BUNDLE_V4_H_
#define DSSDDI_IO_BUNDLE_V4_H_

#include <cstdint>
#include <string>

#include "io/binary.h"

namespace dssddi::io {

/// ---------------------------------------------------------------------
/// Bundle format v4: the one bundle format the library writes
/// (SaveInferenceBundleV4) and serves (LoadInferenceBundle). A single
/// flat little-endian file designed to be mmap'd and served in place —
/// loading is O(pages touched), not O(bytes deserialized), and every
/// process mapping the same file shares one page-cache copy of the
/// weights.
///
/// Layout:
///
///   [0, 32)                     header (below)
///   [32, 32 + 32 * sections)    section table, one 32-byte entry each
///   ...                         sections, each starting on a 4096-byte
///                               file offset (so mmap'd sections begin on
///                               a page, and every in-section array —
///                               placed at 32-byte section-relative
///                               offsets — lands 32-byte aligned in
///                               memory, matching tensor/aligned.h)
///
/// Header (32 bytes): u32 magic kBundleV4Magic ("DSD4"), u32
/// header_version (1), u32 format id (kFormatInferenceBundle, so a v4
/// file still self-describes its artifact kind), u32 bundle version (4),
/// u64 total file size (ties the table to the actual file, catching
/// truncation without hashing), u32 section count, u32 reserved (0).
///
/// Section-table entry (32 bytes): u32 type, u32 reserved (0), u64 file
/// offset, u64 byte length, u64 FNV-1a checksum of the section bytes.
/// Checksums are verified by tooling and tests (VerifyBundleV4Checksums)
/// — not on the serving load path, which would touch every page and
/// defeat the point of mapping.
///
/// Section types and their contents (all integers little-endian, all
/// array offsets section-relative and 32-byte aligned):
///
///   1 Meta        BinaryWriter blob: display_name, mlp_decoder u8,
///                 use_treatment_feature u8, hidden_dim i32, ms_alpha
///                 f64, ms_explainer u8, drug_names string vector.
///   2 PatientMlp  u32 num_layers; per layer u32 rows, u32 cols, i32
///   3 DecoderMlp  activation, u64 weight_off, u64 bias_off; float
///                 arrays (weights rows x cols row-major, bias cols).
///   4 DrugReps    u32 rows, u32 cols, pad to 32; rows x cols floats.
///   5 Centroids   (same layout)
///   6 Treatment   (same layout)
///   7 QuantPatient  u32 num_layers; per layer u32 k, u32 n, i32
///   8 QuantDecoder  activation, f32 max_abs_error, u64 data_off, u64
///                 scales_off, u64 corrections_off, u64 bias_off.
///                 Arrays: packed int8 tiles (n_padded x k_padded bytes,
///                 the exact deterministic ISA-independent layout
///                 QGemmBiasAct consumes — zero repacking at load),
///                 scales n_padded f32, corrections num_groups x
///                 n_padded i32, bias n f32. Present both-or-neither.
///   9 Graph       u32 num_vertices, u32 num_signed_edges, u32
///                 skeleton_edges, u32 reserved; u64 offsets for the
///                 signed-edge triples (i32 u, v, sign each) and the
///                 interaction skeleton's CSR arrays (endpoints 2E,
///                 adj_offsets V+1, adj_neighbors 2E, adj_edge_ids 2E,
///                 all i32) exactly as graph::Graph::FromCsrView expects.
///
/// The loader validates the header and table exhaustively (alignment,
/// extents, overlaps, required sections), bounds-checks every descriptor
/// read, re-validates all CSR invariants, and confirms the stored
/// skeleton equals ddi.InteractionSkeleton() — so a corrupt or hostile
/// file fails with a Status at load, never a crash at query time. A
/// legacy v3 bundle (framed magic kFrameMagic, same format id) fails
/// with a Status that names bundle_convert; io/bundle_v3.h reads it.
/// ---------------------------------------------------------------------

/// "DSD4" read as a little-endian u32 (kFrameMagic, the v3 magic, is "DSSD").
inline constexpr uint32_t kBundleV4Magic = 0x34445344;
inline constexpr uint32_t kBundleV4HeaderVersion = 1;
inline constexpr uint32_t kBundleV4Version = 4;
inline constexpr uint64_t kBundleV4SectionAlign = 4096;
inline constexpr uint64_t kBundleV4ArrayAlign = 32;

enum BundleV4Section : uint32_t {
  kSectionMeta = 1,
  kSectionPatientMlp = 2,
  kSectionDecoderMlp = 3,
  kSectionDrugReps = 4,
  kSectionCentroids = 5,
  kSectionTreatment = 6,
  kSectionQuantPatient = 7,
  kSectionQuantDecoder = 8,
  kSectionGraph = 9,
};

/// Recomputes and checks every section's FNV-1a checksum (reads the
/// whole file — tooling/test use only, not the serving load path).
Status VerifyBundleV4Checksums(const std::string& path);

}  // namespace dssddi::io

#endif  // DSSDDI_IO_BUNDLE_V4_H_
