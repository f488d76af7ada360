// yolocplan_inspect — dump a .yolocplan deployment artifact.
//
//   build/yolocplan_inspect PATH [--no-graph] [--packed]
//
// Prints the artifact header (magic/version), the section table with
// id/offset/size and a stored-vs-computed CRC-32 verdict per section,
// then cold-loads the plan and walks the lowered layer graph: one line
// per layer with kind, name, geometry, engine residency (ROM/SRAM) and
// calibrated activation scale. --packed additionally reports the
// deploy-time packed weight bit-plane footprint (total resident bytes,
// pack time, per-engine entry/byte counts). Exit status: 0 on a clean
// artifact, 1 on any integrity failure (bad magic/version/table/CRC or
// a graph that refuses to load).
//
// The section-table walk parses the container format directly (it is
// small and documented in runtime/plan_serde.hpp) so a corrupt artifact
// still gets its table printed before the load fails.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/crc32.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "runtime/plan_serde.hpp"

namespace {

using namespace yoloc;

const char* section_name(std::uint32_t id) {
  switch (id) {
    case 1:
      return "OPTIONS";
    case 2:
      return "GRAPH";
    case 3:
      return "CANARY";
    default:
      return "unknown";
  }
}

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRom:
      return "ROM";
    case EngineKind::kSram:
      return "SRAM";
    case EngineKind::kDefault:
      return "default";
  }
  return "?";
}

std::size_t tensor_bytes(const QuantizedTensor& t) {
  return t.data.size() * sizeof(std::int8_t);
}

/// One line per layer, indented by tree depth.
void dump_layer(Layer& layer, int depth) {
  std::printf("%*s", depth * 2, "");
  switch (layer.kind()) {
    case LayerKind::kSequential: {
      auto& seq = static_cast<Sequential&>(layer);
      std::printf("sequential '%s' (%zu children)\n", seq.name().c_str(),
                  seq.size());
      for (std::size_t i = 0; i < seq.size(); ++i) {
        dump_layer(seq.at(i), depth + 1);
      }
      return;
    }
    case LayerKind::kParallelSum: {
      auto& par = static_cast<ParallelSum&>(layer);
      std::printf("parallel_sum '%s' (%zu branches)\n", par.name().c_str(),
                  par.branch_count());
      for (std::size_t i = 0; i < par.branch_count(); ++i) {
        dump_layer(par.branch(i), depth + 1);
      }
      return;
    }
    case LayerKind::kQuantConv2d: {
      auto& q = static_cast<QuantConv2d&>(layer);
      std::printf(
          "quant_conv2d '%s' %dx%dx%d s%d p%d -> %d ch  engine=%s  "
          "act_scale=%g  weights=%zu B int8\n",
          q.name().c_str(), q.in_channels(), q.kernel(), q.kernel(),
          q.stride(), q.pad(), q.out_channels(), engine_name(q.engine_kind()),
          static_cast<double>(q.act_scale()), tensor_bytes(q.weights()));
      return;
    }
    case LayerKind::kQuantLinear: {
      auto& q = static_cast<QuantLinear&>(layer);
      std::printf(
          "quant_linear '%s' %d -> %d  engine=%s  act_scale=%g  "
          "weights=%zu B int8\n",
          q.name().c_str(), q.in_features(), q.out_features(),
          engine_name(q.engine_kind()), static_cast<double>(q.act_scale()),
          tensor_bytes(q.weights()));
      return;
    }
    case LayerKind::kBatchNorm2d: {
      auto& bn = static_cast<BatchNorm2d&>(layer);
      std::printf("batchnorm2d '%s' (%d channels, unfolded)\n",
                  bn.name().c_str(), bn.channels());
      return;
    }
    case LayerKind::kMaxPool2d:
      std::printf("maxpool2d (window %d)\n",
                  static_cast<MaxPool2d&>(layer).window());
      return;
    case LayerKind::kLeakyReLU:
      std::printf("leaky_relu (slope %g)\n",
                  static_cast<double>(
                      static_cast<LeakyReLU&>(layer).negative_slope()));
      return;
    default:
      std::printf("%s\n", layer.name().c_str());
      return;
  }
}

/// Parse and print the container header + section table; returns false
/// on any integrity failure.
bool dump_section_table(const std::vector<std::uint8_t>& bytes) {
  constexpr char kMagic[8] = {'Y', 'O', 'L', 'O', 'C', 'P', 'L', 'N'};
  if (bytes.size() < sizeof(kMagic) + 8 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    std::printf("not a .yolocplan artifact (bad magic)\n");
    return false;
  }
  ByteReader r(bytes.data(), bytes.size());
  std::uint8_t magic_skip[sizeof(kMagic)];
  r.bytes(magic_skip, sizeof(kMagic));
  const std::uint32_t version = r.u32();
  const std::uint32_t nsec = r.u32();
  std::printf("magic   YOLOCPLN\nversion %u%s\nsections %u\n", version,
              version == kPlanFormatVersion ? "" : "  (UNSUPPORTED)", nsec);
  if (nsec == 0 || nsec > 64) {
    std::printf("bad section count\n");
    return false;
  }
  std::printf("  %-4s %-8s %10s %12s %10s %10s %s\n", "id", "name", "offset",
              "size", "crc32", "computed", "verdict");
  bool ok = version == kPlanFormatVersion;
  for (std::uint32_t i = 0; i < nsec; ++i) {
    if (r.remaining() < 24) {
      std::printf("  truncated section table\n");
      return false;
    }
    const std::uint32_t id = r.u32();
    const std::uint64_t offset = r.u64();
    const std::uint64_t size = r.u64();
    const std::uint32_t stored_crc = r.u32();
    const bool in_bounds =
        offset <= bytes.size() && size <= bytes.size() - offset;
    const std::uint32_t computed_crc =
        in_bounds ? crc32(bytes.data() + offset, size) : 0;
    const bool section_ok = in_bounds && computed_crc == stored_crc;
    ok = ok && section_ok;
    std::printf("  %-4u %-8s %10llu %12llu %#10x %#10x %s\n", id,
                section_name(id), static_cast<unsigned long long>(offset),
                static_cast<unsigned long long>(size), stored_crc,
                computed_crc,
                !in_bounds ? "OUT-OF-BOUNDS"
                           : (section_ok ? "OK" : "CRC MISMATCH"));
  }
  return ok;
}

/// Whole-file read with explicit failures (a directory, a pipe, or a
/// vanishing file must exit 1 with a message, never crash).
std::vector<std::uint8_t> read_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec) || ec) {
    throw std::runtime_error("'" + path + "' is not a readable file");
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) throw std::runtime_error("cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  if (size < 0) throw std::runtime_error("cannot stat '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (in.gcount() != size) {
    throw std::runtime_error("short read on '" + path + "'");
  }
  return bytes;
}

int run(const std::string& path, bool dump_graph, bool dump_packed) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  std::printf("%s  (%llu bytes)\n", path.c_str(),
              static_cast<unsigned long long>(bytes.size()));
  bool ok = dump_section_table(bytes);

  if ((dump_graph || dump_packed) && ok) {
    try {
      auto plan = deserialize_plan(bytes.data(), bytes.size());
      const DeploymentOptions& o = plan->options();
      std::printf(
          "\noptions: mode=%s weight_bits=%d act_bits=%d "
          "quantized_layers=%d rom=%dx%d sram=%dx%d\n",
          o.mode == MacroMvmEngine::Mode::kAnalog ? "analog" : "exact-cost",
          o.weight_bits, o.act_bits, plan->quantized_layer_count(),
          o.rom_macro.geometry.rows, o.rom_macro.geometry.cols,
          o.sram_macro.geometry.rows, o.sram_macro.geometry.cols);
      if (dump_packed) {
        // deserialize_plan packs every quantized layer into its engine,
        // so these tables are the whole deploy-time resident footprint.
        const PackedWeightsCache& rom = plan->rom_engine().packed();
        const PackedWeightsCache& sram = plan->sram_engine().packed();
        std::printf(
            "\npacked weight bit-planes:\n"
            "  total    %llu B resident, packed in %.3f ms\n"
            "  rom      %zu entries, %llu B\n"
            "  sram     %zu entries, %llu B\n",
            static_cast<unsigned long long>(plan->packed_weight_bytes()),
            plan->pack_ms(), rom.entries(),
            static_cast<unsigned long long>(rom.packed_bytes()),
            sram.entries(), static_cast<unsigned long long>(sram.packed_bytes()));
      }
      if (dump_graph) {
        std::printf("\nlowered layer graph:\n");
        dump_layer(plan->model(), 1);
      }
    } catch (const std::exception& e) {
      std::printf("\nplan load FAILED: %s\n", e.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool dump_graph = true;
  bool dump_packed = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-graph") == 0) {
      dump_graph = false;
    } else if (std::strcmp(argv[i], "--packed") == 0) {
      dump_packed = true;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      path.clear();
      break;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: yolocplan_inspect PATH [--no-graph] [--packed]\n");
    return 2;
  }
  try {
    return run(path, dump_graph, dump_packed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yolocplan_inspect: %s\n", e.what());
    return 1;
  }
}
