#ifndef DSSDDI_IO_BUNDLE_V3_H_
#define DSSDDI_IO_BUNDLE_V3_H_

#include <string>

#include "io/binary.h"
#include "io/inference_bundle.h"
#include "io/quantized_mlp.h"

namespace dssddi::io {

/// ---------------------------------------------------------------------
/// Legacy bundle format v3: a framed file (WriteFramedFile, format id
/// kFormatInferenceBundle) whose payload is parsed onto the heap through
/// BinaryReader. Servers no longer read it — LoadInferenceBundle maps v4
/// only and names bundle_convert when it meets a v3 file. This module
/// exists so bundle_convert can migrate old files and tests can keep
/// exercising the reader against corrupt input; nothing on the serving
/// path includes it (scripts/check.sh enforces that).
/// ---------------------------------------------------------------------

/// Parses a v3 (or older) framed bundle file onto the heap. Resets the
/// destination first (only its runtime quantization override survives),
/// validates the framing, every section length and the cross-field
/// shapes, and rebuilds the int8 companions when the file carries none.
/// The result is an in-process bundle: format_version stays 0.
Status ReadBundleV3(const std::string& path, InferenceBundle* bundle);

/// Writes `bundle` as a v3 framed file. Only migration tests and
/// `bundle_convert --synthetic` produce these.
Status WriteBundleV3(const std::string& path, const InferenceBundle& bundle);

/// v3 codec for the quantized section: unpadded column-major int8 plus
/// per-column scales, framed with its own byte length so a corrupt or
/// truncated section is rejected by length disagreement before any of
/// it is interpreted.
void WriteQuantizedMlp(BinaryWriter& writer, const QuantizedMlp& mlp);
bool ReadQuantizedMlp(BinaryReader& reader, QuantizedMlp* mlp);

}  // namespace dssddi::io

#endif  // DSSDDI_IO_BUNDLE_V3_H_
