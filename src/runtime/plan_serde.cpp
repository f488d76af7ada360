#include "runtime/plan_serde.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/container.hpp"
#include "nn/pooling.hpp"
#include "nn/quantize.hpp"
#include "tensor/tensor_io.hpp"

namespace yoloc {

namespace {

constexpr std::uint8_t kMagic[8] = {'Y', 'O', 'L', 'O', 'C', 'P', 'L', 'N'};
constexpr std::uint32_t kSectionOptions = 1;
constexpr std::uint32_t kSectionGraph = 2;
constexpr std::uint32_t kSectionCanary = 3;
constexpr std::size_t kTableEntryBytes = 4 + 8 + 8 + 4;
constexpr int kMaxGraphDepth = 64;
constexpr int kMaxCanaryProbes = 64;

// ------------------------------------------------------------- options

void write_macro_config(ByteWriter& w, const MacroConfig& cfg,
                        std::uint32_t version) {
  w.u32(static_cast<std::uint32_t>(cfg.kind));
  const auto& g = cfg.geometry;
  w.i32(g.rows);
  w.i32(g.cols);
  w.i32(g.subarrays);
  w.i32(g.adc_per_subarray);
  w.i32(g.adc_bits);
  w.i32(g.weight_bits);
  w.i32(g.input_bits);
  w.i32(g.rows_per_activation);
  w.f64(g.clock_ns);
  w.f64(cfg.bitline.c_bl_ff);
  w.f64(cfg.bitline.v_precharge);
  w.f64(cfg.bitline.v_floor);
  w.f64(cfg.bitline.i_cell_ua);
  w.f64(cfg.bitline.t_pulse_ns);
  w.f64(cfg.bitline.sigma_cell);
  w.i32(cfg.adc.bits);
  w.f64(cfg.adc.v_lo);
  w.f64(cfg.adc.v_hi);
  w.f64(cfg.adc.noise_sigma_v);
  w.f64(cfg.adc.energy_pj);
  w.f64(cfg.adc.t_conv_ns);
  w.f64(cfg.energy.wl_pulse_pj);
  w.f64(cfg.energy.shift_add_pj);
  w.f64(cfg.energy.dac_driver_pj);
  w.f64(cfg.area.cell_area_um2);
  w.f64(cfg.area.adc_area_um2);
  w.f64(cfg.area.driver_area_per_row_um2);
  w.f64(cfg.area.shift_add_area_um2);
  w.f64(cfg.area.macro_overhead_um2);
  w.f64(cfg.write_energy_pj_per_bit);
  w.f64(cfg.write_bandwidth_bits_per_ns);
  w.f64(cfg.standby_power_uw);
  if (version >= 2) {
    w.u64(cfg.faults.seed);
    w.f64(cfg.faults.stuck_at_zero_rate);
    w.f64(cfg.faults.stuck_at_one_rate);
    w.f64(cfg.faults.transient_flip_rate);
    w.f64(cfg.faults.adc_offset_max);
    w.f64(cfg.faults.adc_gain_max);
    w.u32(cfg.faults.start_active ? 1 : 0);
  }
}

MacroConfig read_macro_config(ByteReader& r, std::uint32_t version) {
  MacroConfig cfg;
  const std::uint32_t kind = r.u32();
  YOLOC_CHECK(kind <= static_cast<std::uint32_t>(MacroKind::kSram),
              "plan: unknown macro kind");
  cfg.kind = static_cast<MacroKind>(kind);
  auto& g = cfg.geometry;
  g.rows = r.i32();
  g.cols = r.i32();
  g.subarrays = r.i32();
  g.adc_per_subarray = r.i32();
  g.adc_bits = r.i32();
  g.weight_bits = r.i32();
  g.input_bits = r.i32();
  g.rows_per_activation = r.i32();
  g.clock_ns = r.f64();
  cfg.bitline.c_bl_ff = r.f64();
  cfg.bitline.v_precharge = r.f64();
  cfg.bitline.v_floor = r.f64();
  cfg.bitline.i_cell_ua = r.f64();
  cfg.bitline.t_pulse_ns = r.f64();
  cfg.bitline.sigma_cell = r.f64();
  cfg.adc.bits = r.i32();
  cfg.adc.v_lo = r.f64();
  cfg.adc.v_hi = r.f64();
  cfg.adc.noise_sigma_v = r.f64();
  cfg.adc.energy_pj = r.f64();
  cfg.adc.t_conv_ns = r.f64();
  cfg.energy.wl_pulse_pj = r.f64();
  cfg.energy.shift_add_pj = r.f64();
  cfg.energy.dac_driver_pj = r.f64();
  cfg.area.cell_area_um2 = r.f64();
  cfg.area.adc_area_um2 = r.f64();
  cfg.area.driver_area_per_row_um2 = r.f64();
  cfg.area.shift_add_area_um2 = r.f64();
  cfg.area.macro_overhead_um2 = r.f64();
  cfg.write_energy_pj_per_bit = r.f64();
  cfg.write_bandwidth_bits_per_ns = r.f64();
  cfg.standby_power_uw = r.f64();
  if (version >= 2) {
    cfg.faults.seed = r.u64();
    cfg.faults.stuck_at_zero_rate = r.f64();
    cfg.faults.stuck_at_one_rate = r.f64();
    cfg.faults.transient_flip_rate = r.f64();
    cfg.faults.adc_offset_max = r.f64();
    cfg.faults.adc_gain_max = r.f64();
    const std::uint32_t active = r.u32();
    YOLOC_CHECK(active <= 1, "plan: bad fault start_active flag");
    cfg.faults.start_active = active == 1;
  }
  return cfg;
}

struct OptionsSection {
  DeploymentOptions options;
  int quantized_layers = 0;
};

void write_options(ByteWriter& w, const DeploymentPlan& plan,
                   std::uint32_t version) {
  const DeploymentOptions& o = plan.options();
  w.i32(o.weight_bits);
  w.i32(o.act_bits);
  w.u32(static_cast<std::uint32_t>(o.mode));
  w.i32(plan.quantized_layer_count());
  write_macro_config(w, o.rom_macro, version);
  write_macro_config(w, o.sram_macro, version);
}

OptionsSection read_options(ByteReader& r, std::uint32_t version) {
  OptionsSection s;
  s.options.weight_bits = r.i32();
  s.options.act_bits = r.i32();
  const std::uint32_t mode = r.u32();
  YOLOC_CHECK(
      mode <= static_cast<std::uint32_t>(MacroMvmEngine::Mode::kExactCost),
      "plan: unknown engine mode");
  s.options.mode = static_cast<MacroMvmEngine::Mode>(mode);
  s.quantized_layers = r.i32();
  s.options.rom_macro = read_macro_config(r, version);
  s.options.sram_macro = read_macro_config(r, version);
  return s;
}

// ------------------------------------------------------------- canaries

void write_canaries(ByteWriter& w, const CanarySuite& suite) {
  w.u32(static_cast<std::uint32_t>(suite.probes.size()));
  for (const CanaryProbe& p : suite.probes) {
    w.u64(p.seed);
    write_tensor(w, p.input);
    write_tensor(w, p.golden);
  }
}

CanarySuite read_canaries(ByteReader& r) {
  CanarySuite suite;
  const std::uint32_t n = r.u32();
  YOLOC_CHECK(n >= 1 && n <= kMaxCanaryProbes,
              "plan: bad canary probe count");
  suite.probes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    CanaryProbe p;
    p.seed = r.u64();
    p.input = read_tensor(r);
    p.golden = read_tensor(r);
    YOLOC_CHECK(!p.input.empty() && !p.golden.empty(),
                "plan: empty canary tensor");
    suite.probes.push_back(std::move(p));
  }
  return suite;
}

// --------------------------------------------------------------- graph

EngineKind read_engine_kind(ByteReader& r) {
  const std::uint32_t tag = r.u32();
  YOLOC_CHECK(tag == static_cast<std::uint32_t>(EngineKind::kRom) ||
                  tag == static_cast<std::uint32_t>(EngineKind::kSram),
              "plan: bad engine residency tag");
  return static_cast<EngineKind>(tag);
}

void write_layer(ByteWriter& w, Layer& layer) {
  const LayerKind kind = layer.kind();
  w.u32(static_cast<std::uint32_t>(kind));
  switch (kind) {
    case LayerKind::kSequential: {
      auto& seq = static_cast<Sequential&>(layer);
      w.str(seq.name());
      w.u32(static_cast<std::uint32_t>(seq.size()));
      for (std::size_t i = 0; i < seq.size(); ++i) {
        write_layer(w, seq.at(i));
      }
      return;
    }
    case LayerKind::kParallelSum: {
      auto& par = static_cast<ParallelSum&>(layer);
      w.str(par.name());
      w.u32(static_cast<std::uint32_t>(par.branch_count()));
      for (std::size_t i = 0; i < par.branch_count(); ++i) {
        write_layer(w, par.branch(i));
      }
      return;
    }
    case LayerKind::kQuantConv2d: {
      auto& q = static_cast<QuantConv2d&>(layer);
      YOLOC_CHECK(q.is_calibrated(),
                  "plan serde: uncalibrated quant conv '" + q.name() + "'");
      w.str(q.name());
      w.i32(q.in_channels());
      w.i32(q.out_channels());
      w.i32(q.kernel());
      w.i32(q.stride());
      w.i32(q.pad());
      w.i32(q.act_bits());
      w.u32(static_cast<std::uint32_t>(q.engine_kind()));
      w.f32(q.act_scale());
      write_quantized_tensor(w, q.weights());
      write_tensor(w, q.bias());
      return;
    }
    case LayerKind::kQuantLinear: {
      auto& q = static_cast<QuantLinear&>(layer);
      YOLOC_CHECK(q.is_calibrated(),
                  "plan serde: uncalibrated quant linear '" + q.name() + "'");
      w.str(q.name());
      w.i32(q.in_features());
      w.i32(q.out_features());
      w.i32(q.act_bits());
      w.u32(static_cast<std::uint32_t>(q.engine_kind()));
      w.f32(q.act_scale());
      write_quantized_tensor(w, q.weights());
      write_tensor(w, q.bias());
      return;
    }
    case LayerKind::kBatchNorm2d: {
      // A BN that is not conv-adjacent survives folding; serialize its
      // eval-mode state (affine params + running estimates).
      auto& bn = static_cast<BatchNorm2d&>(layer);
      w.str(bn.name());
      w.i32(bn.channels());
      w.f32(bn.eps());
      w.f32(bn.momentum());
      write_tensor(w, bn.gamma().value);
      write_tensor(w, bn.beta().value);
      write_tensor(w, bn.running_mean());
      write_tensor(w, bn.running_var());
      return;
    }
    case LayerKind::kLeakyReLU:
      w.f32(static_cast<LeakyReLU&>(layer).negative_slope());
      return;
    case LayerKind::kMaxPool2d:
      w.i32(static_cast<MaxPool2d&>(layer).window());
      return;
    case LayerKind::kReLU:
    case LayerKind::kIdentity:
    case LayerKind::kFlatten:
    case LayerKind::kGlobalAvgPool:
      return;  // stateless — the tag is the whole payload
    case LayerKind::kConv2d:
    case LayerKind::kLinear:
    case LayerKind::kOpaque:
      break;
  }
  YOLOC_CHECK(false, "plan serde: layer '" + layer.name() +
                         "' is not serializable — deployment plans must "
                         "be fully lowered (no float Conv2d/Linear, no "
                         "opaque layers)");
}

LayerPtr read_layer(ByteReader& r, int depth) {
  YOLOC_CHECK(depth <= kMaxGraphDepth, "plan: graph nesting too deep");
  const std::uint32_t tag = r.u32();
  switch (static_cast<LayerKind>(tag)) {
    case LayerKind::kSequential: {
      auto seq = std::make_unique<Sequential>(r.str());
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        seq->add(read_layer(r, depth + 1));
      }
      return seq;
    }
    case LayerKind::kParallelSum: {
      auto par = std::make_unique<ParallelSum>(r.str());
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        par->add_branch(read_layer(r, depth + 1));
      }
      return par;
    }
    case LayerKind::kQuantConv2d: {
      std::string name = r.str();
      const int in_ch = r.i32();
      const int out_ch = r.i32();
      const int kernel = r.i32();
      const int stride = r.i32();
      const int pad = r.i32();
      const int act_bits = r.i32();
      const EngineKind engine = read_engine_kind(r);
      const float act_scale = r.f32();
      QuantizedTensor qweight = read_quantized_tensor(r);
      Tensor bias = read_tensor(r);
      return std::make_unique<QuantConv2d>(
          std::move(name), in_ch, out_ch, kernel, stride, pad, act_bits,
          std::move(qweight), std::move(bias), engine, act_scale);
    }
    case LayerKind::kQuantLinear: {
      std::string name = r.str();
      const int in_features = r.i32();
      const int out_features = r.i32();
      const int act_bits = r.i32();
      const EngineKind engine = read_engine_kind(r);
      const float act_scale = r.f32();
      QuantizedTensor qweight = read_quantized_tensor(r);
      Tensor bias = read_tensor(r);
      return std::make_unique<QuantLinear>(
          std::move(name), in_features, out_features, act_bits,
          std::move(qweight), std::move(bias), engine, act_scale);
    }
    case LayerKind::kBatchNorm2d: {
      std::string name = r.str();
      const int channels = r.i32();
      const float eps = r.f32();
      const float momentum = r.f32();
      YOLOC_CHECK(channels > 0, "plan: bad BN channel count");
      auto bn = std::make_unique<BatchNorm2d>(channels, eps, momentum,
                                              std::move(name));
      const std::vector<int> want{channels};
      for (Tensor* dst : {&bn->gamma().value, &bn->beta().value,
                          &bn->running_mean(), &bn->running_var()}) {
        Tensor t = read_tensor(r);
        YOLOC_CHECK(t.shape() == want, "plan: BN tensor shape mismatch");
        *dst = std::move(t);
      }
      return bn;
    }
    case LayerKind::kLeakyReLU:
      return std::make_unique<LeakyReLU>(r.f32());
    case LayerKind::kMaxPool2d: {
      const int window = r.i32();
      YOLOC_CHECK(window > 0, "plan: bad maxpool window");
      return std::make_unique<MaxPool2d>(window);
    }
    case LayerKind::kReLU:
      return std::make_unique<ReLU>();
    case LayerKind::kIdentity:
      return std::make_unique<Identity>();
    case LayerKind::kFlatten:
      return std::make_unique<Flatten>();
    case LayerKind::kGlobalAvgPool:
      return std::make_unique<GlobalAvgPool>();
    case LayerKind::kConv2d:
    case LayerKind::kLinear:
    case LayerKind::kOpaque:
      break;
  }
  YOLOC_CHECK(false, "plan: unknown layer kind tag");
  return nullptr;
}

// ------------------------------------------------------------ assembly

struct Section {
  std::uint32_t id;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> assemble(const std::vector<Section>& sections,
                                   std::uint32_t version) {
  ByteWriter out;
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(version);
  out.u32(static_cast<std::uint32_t>(sections.size()));
  std::uint64_t offset = sizeof(kMagic) + 4 + 4 +
                         sections.size() * kTableEntryBytes;
  for (const Section& s : sections) {
    out.u32(s.id);
    out.u64(offset);
    out.u64(s.payload.size());
    out.u32(crc32(s.payload.data(), s.payload.size()));
    offset += s.payload.size();
  }
  for (const Section& s : sections) {
    out.bytes(s.payload.data(), s.payload.size());
  }
  return out.take();
}

}  // namespace

const char* plan_section_name(std::uint32_t id) {
  switch (id) {
    case kSectionOptions:
      return "OPTIONS";
    case kSectionGraph:
      return "GRAPH";
    case kSectionCanary:
      return "CANARY";
    default:
      return "unknown";
  }
}

PlanArtifactInfo inspect_plan(const std::uint8_t* data, std::size_t size) {
  YOLOC_CHECK(data != nullptr && size >= sizeof(kMagic) + 8,
              "plan: truncated header");
  YOLOC_CHECK(std::memcmp(data, kMagic, sizeof(kMagic)) == 0,
              "plan: bad magic (not a .yolocplan artifact)");
  ByteReader header(data, size);
  std::uint8_t magic_skip[sizeof(kMagic)];
  header.bytes(magic_skip, sizeof(kMagic));

  PlanArtifactInfo info;
  info.file_bytes = size;
  info.version = header.u32();
  YOLOC_CHECK(info.version >= kPlanFormatMinVersion &&
                  info.version <= kPlanFormatVersion,
              "plan: unsupported format version");
  const std::uint32_t nsec = header.u32();
  YOLOC_CHECK(nsec >= 1 && nsec <= 64, "plan: bad section count");
  YOLOC_CHECK(size - header.offset() >= nsec * kTableEntryBytes,
              "plan: truncated section table");
  info.sections.reserve(nsec);
  for (std::uint32_t i = 0; i < nsec; ++i) {
    PlanSectionInfo s;
    s.id = header.u32();
    s.offset = header.u64();
    s.size = header.u64();
    s.crc32_value = header.u32();
    YOLOC_CHECK(s.offset <= size && s.size <= size - s.offset,
                "plan: section out of bounds");
    s.crc_ok = crc32(data + s.offset, s.size) == s.crc32_value;
    info.sections.push_back(s);
  }
  return info;
}

PlanArtifactInfo inspect_plan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  YOLOC_CHECK(in.good(), "inspect_plan: cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  YOLOC_CHECK(size > 0, "inspect_plan: empty artifact '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  YOLOC_CHECK(in.gcount() == size,
              "inspect_plan: short read on '" + path + "'");
  return inspect_plan(bytes.data(), bytes.size());
}

std::vector<std::uint8_t> serialize_plan(const DeploymentPlan& plan) {
  // Version-adaptive: plans using no v2 feature serialize as version 1,
  // byte-identical to pre-fault-framework artifacts (pinned by the serde
  // golden fixture); canaries mark their keyed-noise goldens with v3.
  const bool faults = plan.options().rom_macro.faults.any() ||
                      plan.options().sram_macro.faults.any();
  const std::uint32_t version =
      !plan.canaries().empty() ? 3 : (faults ? 2 : 1);

  ByteWriter options;
  write_options(options, plan, version);

  // The graph walk only reads (getters + children); model() is non-const
  // purely to keep shared holders of a const plan& from mutating it.
  ByteWriter graph;
  write_layer(graph, const_cast<DeploymentPlan&>(plan).model());

  std::vector<Section> sections;
  sections.push_back({kSectionOptions, options.take()});
  sections.push_back({kSectionGraph, graph.take()});
  if (!plan.canaries().empty()) {
    ByteWriter canary;
    write_canaries(canary, plan.canaries());
    sections.push_back({kSectionCanary, canary.take()});
  }
  return assemble(sections, version);
}

std::unique_ptr<DeploymentPlan> deserialize_plan(const std::uint8_t* data,
                                                 std::size_t size) {
  YOLOC_CHECK(data != nullptr && size >= sizeof(kMagic) + 8,
              "plan: truncated header");
  YOLOC_CHECK(std::memcmp(data, kMagic, sizeof(kMagic)) == 0,
              "plan: bad magic (not a .yolocplan artifact)");
  ByteReader header(data, size);
  std::uint8_t magic_skip[sizeof(kMagic)];
  header.bytes(magic_skip, sizeof(kMagic));
  const std::uint32_t version = header.u32();
  YOLOC_CHECK(version >= kPlanFormatMinVersion &&
                  version <= kPlanFormatVersion,
              "plan: unsupported format version");
  const std::uint32_t nsec = header.u32();
  YOLOC_CHECK(nsec >= 1 && nsec <= 64, "plan: bad section count");
  YOLOC_CHECK(size - header.offset() >= nsec * kTableEntryBytes,
              "plan: truncated section table");

  struct Entry {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t size;
    std::uint32_t crc;
  };
  const std::uint64_t payload_start =
      sizeof(kMagic) + 8 + static_cast<std::uint64_t>(nsec) * kTableEntryBytes;
  std::vector<Entry> entries;
  std::uint64_t payload_end = payload_start;
  for (std::uint32_t i = 0; i < nsec; ++i) {
    Entry e;
    e.id = header.u32();
    e.offset = header.u64();
    e.size = header.u64();
    e.crc = header.u32();
    YOLOC_CHECK(e.offset >= payload_start && e.offset <= size &&
                    e.size <= size - e.offset,
                "plan: section out of bounds");
    payload_end = std::max(payload_end, e.offset + e.size);
    entries.push_back(e);
  }
  // Artifacts are canonical: nothing may trail the last declared section
  // (catches concatenation/append corruption the CRCs cannot see).
  YOLOC_CHECK(payload_end == size, "plan: trailing bytes after sections");

  auto find_optional = [&](std::uint32_t id) -> const Entry* {
    const Entry* found = nullptr;
    for (const Entry& e : entries) {
      if (e.id != id) continue;
      YOLOC_CHECK(found == nullptr, "plan: duplicate section");
      found = &e;
    }
    return found;
  };
  auto find = [&](std::uint32_t id) -> const Entry& {
    const Entry* found = find_optional(id);
    YOLOC_CHECK(found != nullptr, "plan: missing required section");
    return *found;
  };

  auto checked_reader = [&](const Entry& e) {
    YOLOC_CHECK(crc32(data + e.offset, e.size) == e.crc,
                "plan: section CRC mismatch (corrupt artifact)");
    return ByteReader(data + e.offset, e.size);
  };

  ByteReader options_r = checked_reader(find(kSectionOptions));
  OptionsSection opts = read_options(options_r, version);
  options_r.expect_exhausted("plan options section");

  ByteReader graph_r = checked_reader(find(kSectionGraph));
  LoweredPlanImage image;
  image.model = read_layer(graph_r, 0);
  graph_r.expect_exhausted("plan graph section");
  image.quantized_layers = opts.quantized_layers;

  CanarySuite canaries;
  if (const Entry* e = find_optional(kSectionCanary); e != nullptr) {
    YOLOC_CHECK(version >= 2, "plan: CANARY section in a version-1 artifact");
    YOLOC_CHECK(version >= 3 ||
                    opts.options.mode != MacroMvmEngine::Mode::kAnalog,
                "plan: its analog CANARY goldens were recorded under the "
                "sequential noise stream of format version 2, which keyed "
                "noise replaced; re-record the canaries (record_canaries) "
                "and save the plan again");
    ByteReader canary_r = checked_reader(*e);
    canaries = read_canaries(canary_r);
    canary_r.expect_exhausted("plan canary section");
  }

  auto plan = std::make_unique<DeploymentPlan>(std::move(image),
                                               std::move(opts.options));
  plan->set_canaries(std::move(canaries));
  return plan;
}

void save_plan(const DeploymentPlan& plan, const std::string& path) {
  const std::vector<std::uint8_t> bytes = serialize_plan(plan);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  YOLOC_CHECK(out.good(), "save_plan: cannot open '" + path + "'");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  YOLOC_CHECK(out.good(), "save_plan: write failed for '" + path + "'");
}

std::unique_ptr<DeploymentPlan> load_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  YOLOC_CHECK(in.good(), "load_plan: cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  YOLOC_CHECK(size > 0, "load_plan: empty artifact '" + path + "'");
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  YOLOC_CHECK(in.gcount() == size, "load_plan: short read on '" + path + "'");
  return deserialize_plan(bytes.data(), bytes.size());
}

}  // namespace yoloc
