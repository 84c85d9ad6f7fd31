// geonas_e2e: runs one end-to-end benchmark workload per process and
// writes its result as JSON.
//
//   geonas_e2e --workload NAME --seed N [--seconds S] [--trace DIR]
//              [--smoke] --out FILE
//
// Workloads: emulator-build, nas-campaign, serve-open, serve-burst (see
// README.md for what each runs and why). --trace installs an
// obs::MetricsRegistry, adds the per-layer metrics to the result and
// writes DIR/<workload>.telemetry.json. --smoke shrinks every config so
// the output checks run in seconds. Exit status: 0 when every output
// check passed, 1 when one failed, 2 on bad usage or a refused run.
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "hpc/parallel_for.hpp"
#include "obs/json_export.hpp"
#include "tensor/vmath.hpp"

#ifndef GEONAS_E2E_BUILD_TYPE
#define GEONAS_E2E_BUILD_TYPE "unknown"
#endif
#ifndef GEONAS_E2E_NATIVE_ARCH
#define GEONAS_E2E_NATIVE_ARCH "unknown"
#endif

namespace {

using namespace geonas;

const std::map<std::string, std::function<e2e::Result(const e2e::Options&)>>
    kWorkloads = {
        {"emulator-build", e2e::run_emulator_build},
        {"nas-campaign", e2e::run_nas_campaign},
        {"serve-open", e2e::run_serve_open},
        {"serve-burst", e2e::run_serve_burst},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "geonas_e2e: %s\nusage: geonas_e2e --workload NAME --seed N "
               "[--seconds S] [--trace DIR] [--smoke] --out FILE\n",
               why);
  return 2;
}

/// Parses all of `text` into `value`; false when any of it is not part of
/// the number ('abc', '10x') or the number is out of range.
template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::ofstream& os, const char* key,
                   const std::map<std::string, e2e::Metric>& metrics) {
  os << "  " << quoted(key) << ": {";
  const char* sep = "\n";
  for (const auto& [name, m] : metrics) {
    os << sep << "    " << quoted(name) << ": {\"value\": " << number(m.value)
       << ", \"unit\": " << quoted(m.unit) << "}";
    sep = ",\n";
  }
  os << "\n  },\n";
}

void write_result(const std::string& path, const e2e::Options& options,
                  const e2e::Result& r) {
  std::ofstream os(path);
  os << "{\n  \"schema\": \"geonas.e2e\",\n  \"version\": 1,\n";
  os << "  \"workload\": " << quoted(options.workload) << ",\n";
  os << "  \"op\": " << quoted(r.op) << ",\n";
  os << "  \"provenance\": {\"build_type\": " << quoted(GEONAS_E2E_BUILD_TYPE)
     << ", \"vmath_backend\": " << quoted(tensor::vmath_backend())
     << ", \"native_arch\": " << quoted(GEONAS_E2E_NATIVE_ARCH)
     << ", \"host_cpus\": " << std::thread::hardware_concurrency()
     << ", \"kernel_threads\": " << hpc::kernel_threads()
     << ", \"seed\": " << options.seed
     << ", \"smoke\": " << (options.smoke ? "true" : "false")
     << ", \"traced\": " << (options.traced ? "true" : "false") << "},\n";
  os << "  \"attempted\": " << r.attempted << ",\n";
  os << "  \"failed\": " << r.failed << ",\n";
  os << "  \"checks\": {";
  const char* sep = "";
  for (const auto& [name, ok] : r.checks) {
    os << sep << quoted(name) << ": " << (ok ? "true" : "false");
    sep = ", ";
  }
  os << "},\n  \"info\": {";
  sep = "";
  for (const auto& [name, value] : r.info) {
    os << sep << quoted(name) << ": " << quoted(value);
    sep = ", ";
  }
  os << "},\n";
  write_metrics(os, "metrics", r.metrics);
  write_metrics(os, "layers", r.layers);
  os << "  \"stages_s\": {";
  sep = "";
  for (const auto& [name, seconds] : r.stages) {
    os << sep << quoted(name) << ": " << number(seconds);
    sep = ", ";
  }
  os << "}\n}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  std::string out;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const std::string text = argv[++i];
      if (!parse_whole(text, options.seed)) {
        return usage(("--seed: '" + text + "' is not a whole number").c_str());
      }
    } else if (arg == "--seconds" && has_value) {
      const std::string text = argv[++i];
      if (!parse_whole(text, options.seconds)) {
        return usage(("--seconds: '" + text + "' is not a number").c_str());
      }
    } else if (arg == "--trace" && has_value) {
      trace_dir = argv[++i];
      options.traced = true;
    } else if (arg == "--out" && has_value) {
      out = argv[++i];
    } else {
      return usage(("bad argument: " + arg).c_str());
    }
  }
  const auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end()) return usage("unknown --workload");
  if (out.empty()) return usage("--out is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");
  if (!options.smoke && std::string(GEONAS_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "geonas_e2e: refusing a measured run from a '%s' build; "
                 "configure with CMAKE_BUILD_TYPE=Release\n",
                 GEONAS_E2E_BUILD_TYPE);
    return 2;
  }

  obs::MetricsRegistry registry;  // outlives every instrumented call below
  try {
    if (options.traced) {
      obs::set_registry(&registry);
      hpc::register_kernel_metrics();
    }
    e2e::Result result = workload->second(options);
    if (options.traced) {
      obs::set_registry(nullptr);
      e2e::fill_layers(result, registry);
      std::filesystem::create_directories(trace_dir);
      obs::write_telemetry_file(
          registry, trace_dir + "/" + options.workload + ".telemetry.json");
    }
    result.metric("peak_rss_mb", e2e::peak_rss_mb(), "MB");
    write_result(out, options, result);
    for (const auto& [name, ok] : result.checks) {
      if (!ok) {
        std::fprintf(stderr, "geonas_e2e: check failed: %s\n", name.c_str());
      }
    }
    return result.all_passed() && result.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    obs::set_registry(nullptr);
    std::fprintf(stderr, "geonas_e2e: %s: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
}
