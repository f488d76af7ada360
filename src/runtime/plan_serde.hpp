#pragma once
// Versioned binary serialization of deployment artifacts (.yolocplan).
//
// The paper's deployment model bakes lowering into tape-out: BN folding,
// int8 quantization, ROM/SRAM engine selection and calibration happen
// ONCE, then the chip serves forever. This module gives the software
// runtime the same lifecycle — save_plan() freezes a lowered
// DeploymentPlan into a self-contained artifact; load_plan() rebuilds a
// servable plan from it WITHOUT the float model and WITHOUT calibration
// images, so a serving process cold-starts straight into execute().
//
// File layout (all integers little-endian, see common/binio.hpp):
//
//   magic   "YOLOCPLN"                      8 bytes
//   version u32                             format revision (1, 2 or 3)
//   nsec    u32                             section count
//   table   nsec x { id u32, offset u64, size u64, crc32 u32 }
//   payloads                                section bytes at their offsets
//
// Sections (ids are stable; unknown ids are rejected):
//   1 OPTIONS  DeploymentOptions — bit widths, engine mode, both
//              MacroConfigs field-by-field — plus the quantized-layer
//              count used as a load-time integrity cross-check. Version 2
//              appends each macro's FaultModelConfig (seed, stuck-at /
//              flip rates, ADC drift bounds, start_active).
//   2 GRAPH    the lowered layer tree, preorder: LayerKind tag + per-kind
//              payload (quantized weights, scales, biases, calibrated
//              activation ranges, container topology).
//   3 CANARY   (version 2 or 3, optional) canary probes: per probe the
//              noise seed, the fixed input tensor and the golden logits
//              a healthy deployment produces for it.
//
// Version 3 has version 2's layout. The number records the analog noise
// scheme the CANARY goldens were recorded under: version 3 goldens come
// from the keyed counter-based draws (common/keyed_noise.hpp), version 2
// goldens from the sequential polar stream those draws replaced. An
// analog-mode version 2 plan with canaries would fail every probe, so
// the loader rejects it and asks for the canaries to be re-recorded;
// exact-cost goldens draw no noise and load at either version.
//
// The writer is version-adaptive: a plan with no fault config and no
// canaries serializes as version 1, byte-identical to pre-fault-framework
// artifacts; a fault config alone makes version 2; any CANARY section
// makes version 3. The loader accepts all three.
//
// Every section carries a CRC-32; load refuses bad magic, unknown
// versions, out-of-bounds section tables, checksum mismatches and
// trailing garbage — a corrupt artifact can never load into a silently
// wrong plan. A loaded plan execute()s bit-identically to the plan that
// saved it (same seeds, same inputs), pinned by tests/test_plan_serde.cpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/deployment_plan.hpp"

namespace yoloc {

/// Newest format revision serialize_plan can write; the loader accepts
/// [kPlanFormatMinVersion, kPlanFormatVersion]. The writer emits the
/// OLDEST version that can represent the plan (see header comment).
inline constexpr std::uint32_t kPlanFormatVersion = 3;
inline constexpr std::uint32_t kPlanFormatMinVersion = 1;
/// Canonical artifact extension.
inline constexpr const char* kPlanFileExtension = ".yolocplan";

/// One section-table row of a .yolocplan artifact, as read back from the
/// container header (inspection-only view, no payload decode).
struct PlanSectionInfo {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc32_value = 0;  ///< stored CRC-32
  bool crc_ok = false;            ///< stored CRC matches the payload bytes
};

/// Container-level summary of an artifact: header fields plus the
/// section table with per-section CRC verdicts. Powers the HTTP serving
/// front-end's GET /plan endpoint and yolocplan_inspect.
struct PlanArtifactInfo {
  std::uint32_t version = 0;
  std::uint64_t file_bytes = 0;
  std::vector<PlanSectionInfo> sections;
};

/// Stable name for a section id ("OPTIONS", "GRAPH", "unknown").
const char* plan_section_name(std::uint32_t id);

/// Parse the container header + section table WITHOUT decoding payloads.
/// Throws std::runtime_error on bad magic, unsupported version or a
/// malformed/out-of-bounds table; per-section CRC mismatches are
/// reported via PlanSectionInfo::crc_ok, not thrown, so a corrupt
/// artifact still yields its table.
PlanArtifactInfo inspect_plan(const std::uint8_t* data, std::size_t size);
PlanArtifactInfo inspect_plan_file(const std::string& path);

/// In-memory encode/decode (the file functions wrap these; tests use
/// them to exercise corruption paths without touching the filesystem).
std::vector<std::uint8_t> serialize_plan(const DeploymentPlan& plan);
std::unique_ptr<DeploymentPlan> deserialize_plan(const std::uint8_t* data,
                                                 std::size_t size);

/// Write `plan` as a .yolocplan artifact at `path` (parent directory
/// must exist). Throws std::runtime_error on I/O failure.
void save_plan(const DeploymentPlan& plan, const std::string& path);

/// Rebuild a servable plan from a .yolocplan artifact. No float model,
/// no calibration images — the returned plan is immediately servable by
/// ExecutionContext / Scheduler. Throws std::runtime_error on
/// missing/truncated/corrupt/incompatible files.
std::unique_ptr<DeploymentPlan> load_plan(const std::string& path);

}  // namespace yoloc
