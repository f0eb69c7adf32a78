// Multi-backend kernel benchmark: wall-clock vs modeled throughput for the
// three hot kernels (fingerprint generation, match bounds, radix sort) on
// every available backend. This is the harness's headline number — the
// simulated backend's "wall" column is the cost of simulation, its
// "modeled" column is the paper-world device time; the scalar and AVX2
// columns are real host wall-clock, measured on identical inputs that
// every backend must reduce to byte-identical outputs (checked here too).
//
// Besides one row per kernel on synthetic shapes, two rows use the
// pipeline's shapes: match_bounds_windows matches sorted, equalized
// suffix/prefix windows as the reduce does (and _shuffled the same needles
// in random order within each window), and sort_pairs_fp sorts
// fingerprint-shaped keys (both hashes below 2^61).
//
// Writes BENCH_kernels.json and enforces on exit code:
//   - all backends byte-agree on every kernel's output
//   - on each host backend, sorted-needle window bounds run >= 2x faster
//     than the same needles shuffled (the merge-join must pay for itself
//     on the reduce's shape)
//   - AVX2 fingerprint throughput >= 1.5x scalar (the vector path must
//     actually pay for itself; skipped with a note when the host lacks
//     AVX2 or the build disabled it)
//
//   $ ./bench/bench_kernels [--quick] [--json=BENCH_kernels.json]
//         [--log-level=debug|info|warn|error|off]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fingerprint/kernels.hpp"
#include "gpu/device.hpp"
#include "gpu/stream.hpp"
#include "kernel/backend.hpp"
#include "kernel/cpu_features.hpp"
#include "seq/genome.hpp"

using namespace lasagna;
using gpu::Key128;

namespace {

struct Workload {
  // fingerprint
  unsigned read_count = 0;
  unsigned read_length = 0;
  std::vector<std::uint8_t> codes;
  std::vector<std::uint16_t> lengths;
  fingerprint::FingerprintConfig cfg;
  std::vector<std::uint64_t> pow_a;
  std::vector<std::uint64_t> pow_b;
  // match bounds
  std::vector<Key128> needles;
  std::vector<Key128> haystack;
  // match bounds on the reduce's shape: window w matches needles
  // [needle_cut[w], needle_cut[w+1]) against haystack
  // [hay_cut[w], hay_cut[w+1]); both sides end at the same key.
  std::vector<Key128> window_needles;
  std::vector<Key128> window_needles_shuffled;
  std::vector<Key128> window_haystack;
  std::vector<std::size_t> needle_cut;
  std::vector<std::size_t> hay_cut;
  // sort
  std::vector<Key128> keys;
  std::vector<std::uint64_t> values;
  std::vector<Key128> fp_keys;
};

Workload make_workload(bool quick) {
  Workload w;
  w.read_count = quick ? 2048 : 16384;
  w.read_length = 100;
  w.cfg = fingerprint::FingerprintConfig::standard();
  const fingerprint::PlaceTable places(w.cfg, w.read_length + 1);
  w.pow_a.assign(places.primary_table().begin(), places.primary_table().end());
  w.pow_b.assign(places.secondary_table().begin(),
                 places.secondary_table().end());

  std::mt19937_64 rng(20260808);
  w.codes.resize(static_cast<std::size_t>(w.read_count) * w.read_length);
  for (auto& c : w.codes) c = static_cast<std::uint8_t>(rng() & 3);
  // Ragged tail: a few short reads so the benchmark covers masked lanes.
  w.lengths.assign(w.read_count, static_cast<std::uint16_t>(w.read_length));
  for (unsigned r = 0; r < w.read_count; r += 97) {
    w.lengths[r] = static_cast<std::uint16_t>(1 + rng() % w.read_length);
  }

  const std::size_t n = quick ? (1u << 18) : (1u << 21);
  w.haystack.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Duplicate-dense keys, the reduce phase's shape.
    w.haystack.push_back(Key128{rng() % (n / 4), rng() % 3});
  }
  std::sort(w.haystack.begin(), w.haystack.end());
  w.needles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.needles.push_back(i % 2 == 0 ? w.haystack[rng() % n]
                                   : Key128{rng() % (n / 3), rng() % 3});
  }

  // Equalized windows: fingerprint-shaped prefix keys, suffix keys of
  // which half also occur as prefixes, both sorted and cut at shared keys.
  constexpr std::uint64_t kFp = 1ull << 61;
  w.window_haystack.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.window_haystack.push_back(Key128{rng() % kFp, rng() % kFp});
  }
  std::sort(w.window_haystack.begin(), w.window_haystack.end());
  w.window_needles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.window_needles.push_back(i % 2 == 0 ? w.window_haystack[rng() % n]
                                          : Key128{rng() % kFp, rng() % kFp});
  }
  std::sort(w.window_needles.begin(), w.window_needles.end());
  const std::size_t window = n / 16;
  w.needle_cut = {0};
  w.hay_cut = {0};
  for (std::size_t end = window; end < n; end += window) {
    w.hay_cut.push_back(end);
    w.needle_cut.push_back(static_cast<std::size_t>(
        std::upper_bound(w.window_needles.begin(), w.window_needles.end(),
                         w.window_haystack[end - 1]) -
        w.window_needles.begin()));
  }
  w.hay_cut.push_back(n);
  w.needle_cut.push_back(n);
  w.window_needles_shuffled = w.window_needles;
  for (std::size_t c = 0; c + 1 < w.needle_cut.size(); ++c) {
    std::shuffle(w.window_needles_shuffled.begin() + w.needle_cut[c],
                 w.window_needles_shuffled.begin() + w.needle_cut[c + 1], rng);
  }

  w.keys.reserve(n);
  w.values.reserve(n);
  w.fp_keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.keys.push_back(Key128{rng(), rng()});
    w.values.push_back(i);
    w.fp_keys.push_back(Key128{rng() % kFp, rng() % kFp});
  }
  return w;
}

struct Row {
  std::string backend;
  std::string kernel;
  std::uint64_t elements = 0;
  std::uint64_t bytes = 0;
  double wall_seconds = 0;
  double modeled_seconds = 0;
  [[nodiscard]] double elements_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(elements) / wall_seconds : 0;
  }
  [[nodiscard]] double gigabytes_per_second() const {
    return wall_seconds > 0
               ? static_cast<double>(bytes) / wall_seconds / 1e9
               : 0;
  }
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Run `body` `iters` times, returning total wall seconds.
template <typename F>
double timed(unsigned iters, F&& body) {
  const double t0 = now_seconds();
  for (unsigned i = 0; i < iters; ++i) body();
  return now_seconds() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_out = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
    } else if (arg.rfind("--log-level=", 0) == 0) {
      const auto level = util::parse_log_level(arg.substr(12));
      if (!level) {
        std::fprintf(stderr, "bad --log-level %s\n", arg.substr(12).c_str());
        return 2;
      }
      util::set_log_level(*level);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  const kernel::CpuFeatures cpu = kernel::cpu_features();
  std::printf("bench_kernels: cpu avx2=%s bmi2=%s%s\n",
              cpu.avx2 ? "yes" : "no", cpu.bmi2 ? "yes" : "no",
              quick ? " (quick)" : "");

  const Workload w = make_workload(quick);
  const unsigned iters = quick ? 2 : 4;
  const std::size_t total =
      static_cast<std::size_t>(w.read_count) * w.read_length;

  std::vector<kernel::Backend*> backends;
  for (kernel::Backend* b : kernel::all_backends()) {
    if (b->available()) backends.push_back(b);
  }

  std::vector<Row> rows;
  // Golden outputs from the first (simulated) backend; every later backend
  // must byte-match them.
  std::vector<Key128> golden_prefix;
  std::vector<Key128> golden_suffix;
  std::vector<std::uint32_t> golden_lower;
  std::vector<std::uint32_t> golden_upper;
  std::vector<Key128> golden_keys;
  std::vector<std::uint64_t> golden_values;
  std::vector<std::uint32_t> golden_win_lower;
  std::vector<std::uint32_t> golden_win_upper;
  std::vector<std::uint32_t> golden_shuf_lower;
  std::vector<std::uint32_t> golden_shuf_upper;
  std::vector<Key128> golden_fp_keys;
  std::vector<std::uint64_t> golden_fp_values;
  bool outputs_agree = true;

  for (kernel::Backend* backend : backends) {
    // One sweep cell per backend: zero the metric values so a backend's
    // histograms/counters never bleed into the next backend's cell.
    bench::ScopedMetricsCell metrics_cell;
    gpu::Device device(gpu::GpuProfile::k40(), 512ull << 20);
    gpu::StreamPair sync(device, false);
    kernel::DeviceContext ctx{&device, &sync, false};
    const std::string name(backend->name());

    // -- fingerprint --------------------------------------------------------
    std::vector<Key128> prefix(total);
    std::vector<Key128> suffix(total);
    kernel::FingerprintJob job;
    job.count = w.read_count;
    job.stride = w.read_length;
    job.codes = w.codes;
    job.lengths = w.lengths;
    job.primary = w.cfg.primary;
    job.secondary = w.cfg.secondary;
    job.pow_primary = w.pow_a;
    job.pow_secondary = w.pow_b;
    job.prefix = prefix.data();
    job.suffix = suffix.data();
    Row fp{name, "fingerprint"};
    fp.elements = 2ull * total;  // prefix + suffix lanes
    fp.bytes = total * (1 + 2 * sizeof(Key128));
    double modeled0 = device.modeled_seconds();
    fp.wall_seconds = timed(iters, [&] {
      std::fill(prefix.begin(), prefix.end(), Key128{});
      std::fill(suffix.begin(), suffix.end(), Key128{});
      backend->fingerprint(job, &ctx);
    });
    fp.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    fp.wall_seconds /= iters;
    rows.push_back(fp);

    // -- match bounds -------------------------------------------------------
    std::vector<std::uint32_t> lower(w.needles.size());
    std::vector<std::uint32_t> upper(w.needles.size());
    Row mb{name, "match_bounds"};
    mb.elements = w.needles.size();
    mb.bytes = (w.needles.size() + w.haystack.size()) * sizeof(Key128) +
               2 * w.needles.size() * sizeof(std::uint32_t);
    modeled0 = device.modeled_seconds();
    mb.wall_seconds = timed(iters, [&] {
      backend->match_bounds(w.needles, w.haystack, lower, upper, &ctx);
    });
    mb.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    mb.wall_seconds /= iters;
    rows.push_back(mb);

    // -- sort pairs ---------------------------------------------------------
    std::vector<Key128> keys;
    std::vector<std::uint64_t> values;
    Row sp{name, "sort_pairs"};
    sp.elements = w.keys.size();
    sp.bytes = w.keys.size() * (sizeof(Key128) + sizeof(std::uint64_t));
    modeled0 = device.modeled_seconds();
    sp.wall_seconds = timed(iters, [&] {
      keys = w.keys;
      values = w.values;
      backend->sort_pairs(keys, values, &ctx);
    });
    sp.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    sp.wall_seconds /= iters;
    rows.push_back(sp);

    // -- match bounds on equalized windows, sorted and shuffled -------------
    auto match_windows = [&](const char* kernel_name,
                             const std::vector<Key128>& needles,
                             std::vector<std::uint32_t>& lo,
                             std::vector<std::uint32_t>& up) {
      lo.resize(needles.size());
      up.resize(needles.size());
      Row row{name, kernel_name};
      row.elements = needles.size();
      row.bytes = (needles.size() + w.window_haystack.size()) *
                      sizeof(Key128) +
                  2 * needles.size() * sizeof(std::uint32_t);
      const double start = device.modeled_seconds();
      row.wall_seconds = timed(iters, [&] {
        for (std::size_t c = 0; c + 1 < w.hay_cut.size(); ++c) {
          const std::size_t n0 = w.needle_cut[c];
          const std::size_t nn = w.needle_cut[c + 1] - n0;
          const std::size_t h0 = w.hay_cut[c];
          backend->match_bounds(
              std::span<const Key128>(needles).subspan(n0, nn),
              std::span<const Key128>(w.window_haystack)
                  .subspan(h0, w.hay_cut[c + 1] - h0),
              std::span<std::uint32_t>(lo).subspan(n0, nn),
              std::span<std::uint32_t>(up).subspan(n0, nn), &ctx);
        }
      });
      row.modeled_seconds = (device.modeled_seconds() - start) / iters;
      row.wall_seconds /= iters;
      rows.push_back(row);
    };
    std::vector<std::uint32_t> win_lower;
    std::vector<std::uint32_t> win_upper;
    match_windows("match_bounds_windows", w.window_needles, win_lower,
                  win_upper);
    std::vector<std::uint32_t> shuf_lower;
    std::vector<std::uint32_t> shuf_upper;
    match_windows("match_bounds_windows_shuffled", w.window_needles_shuffled,
                  shuf_lower, shuf_upper);

    // -- sort pairs on fingerprint-shaped keys ------------------------------
    std::vector<Key128> fp_keys;
    std::vector<std::uint64_t> fp_values;
    Row sf{name, "sort_pairs_fp"};
    sf.elements = w.fp_keys.size();
    sf.bytes = w.fp_keys.size() * (sizeof(Key128) + sizeof(std::uint64_t));
    modeled0 = device.modeled_seconds();
    sf.wall_seconds = timed(iters, [&] {
      fp_keys = w.fp_keys;
      fp_values = w.values;
      backend->sort_pairs(fp_keys, fp_values, &ctx);
    });
    sf.modeled_seconds = (device.modeled_seconds() - modeled0) / iters;
    sf.wall_seconds /= iters;
    rows.push_back(sf);

    if (backend == backends.front()) {
      golden_prefix = prefix;
      golden_suffix = suffix;
      golden_lower = lower;
      golden_upper = upper;
      golden_keys = keys;
      golden_values = values;
      golden_win_lower = win_lower;
      golden_win_upper = win_upper;
      golden_shuf_lower = shuf_lower;
      golden_shuf_upper = shuf_upper;
      golden_fp_keys = fp_keys;
      golden_fp_values = fp_values;
    } else {
      const bool same = prefix == golden_prefix && suffix == golden_suffix &&
                        lower == golden_lower && upper == golden_upper &&
                        keys == golden_keys && values == golden_values &&
                        win_lower == golden_win_lower &&
                        win_upper == golden_win_upper &&
                        shuf_lower == golden_shuf_lower &&
                        shuf_upper == golden_shuf_upper &&
                        fp_keys == golden_fp_keys &&
                        fp_values == golden_fp_values;
      if (!same) {
        std::fprintf(stderr, "FAIL: %s output differs from %.*s\n",
                     name.c_str(),
                     static_cast<int>(backends.front()->name().size()),
                     backends.front()->name().data());
        outputs_agree = false;
      }
    }
  }

  std::printf("%-10s %-30s %14s %10s %12s %12s\n", "backend", "kernel",
              "elements/s", "GB/s", "wall s", "modeled s");
  for (const auto& r : rows) {
    std::printf("%-10s %-30s %14.3e %10.3f %12.6f %12.6f\n",
                r.backend.c_str(), r.kernel.c_str(), r.elements_per_second(),
                r.gigabytes_per_second(), r.wall_seconds, r.modeled_seconds);
  }

  {
    std::ofstream out(json_out);
    out << "{\n  \"quick\": " << (quick ? "true" : "false")
        << ",\n  \"cpu\": {\"avx2\": " << (cpu.avx2 ? "true" : "false")
        << ", \"bmi2\": " << (cpu.bmi2 ? "true" : "false")
        << "},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      out << "    {\"backend\": \"" << r.backend << "\", \"kernel\": \""
          << r.kernel << "\", \"elements\": " << r.elements
          << ", \"bytes\": " << r.bytes
          << ", \"wall_seconds\": " << r.wall_seconds
          << ", \"modeled_seconds\": " << r.modeled_seconds
          << ", \"elements_per_second\": " << r.elements_per_second()
          << ", \"gigabytes_per_second\": " << r.gigabytes_per_second()
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_out.c_str());
  }

  if (!outputs_agree) return 1;

  auto rate = [&](const std::string& backend, const char* kern) {
    for (const auto& r : rows) {
      if (r.backend == backend && r.kernel == kern) {
        return r.elements_per_second();
      }
    }
    return 0.0;
  };

  // Gate: on each host backend, sorted window needles take the merge-join
  // and must beat the same needles shuffled (binary search) by >= 2x.
  bool join_pays = true;
  for (const kernel::Backend* backend : backends) {
    if (backend->uses_device()) continue;
    const std::string name(backend->name());
    const double ratio =
        rate(name, "match_bounds_windows") /
        std::max(rate(name, "match_bounds_windows_shuffled"), 1e-12);
    std::printf("%s sorted/shuffled window match speedup: %.2fx "
                "(gate: >= 2.00x)\n",
                name.c_str(), ratio);
    if (ratio < 2.0) {
      std::fprintf(stderr, "FAIL: %s sorted-needle match below gate\n",
                   name.c_str());
      join_pays = false;
    }
  }
  if (!join_pays) return 1;

  // Gate: the AVX2 fingerprint path must beat scalar by >= 1.5x.
  if (!kernel::avx2_backend().available()) {
    std::printf("note: AVX2 backend unavailable; speedup gate skipped\n");
    return 0;
  }
  const double speedup = rate("avx2", "fingerprint") /
                         std::max(rate("scalar", "fingerprint"), 1e-12);
  std::printf("avx2 fingerprint speedup vs scalar: %.2fx (gate: >= 1.50x)\n",
              speedup);
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: AVX2 fingerprint speedup below gate\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
