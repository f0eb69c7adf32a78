// Per-phase statistics collected by the pipeline and reported by benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace lasagna::util {

/// Everything we record about one pipeline phase (map/sort/reduce/...).
struct PhaseStats {
  std::string name;
  double wall_seconds = 0.0;     ///< measured wall-clock time
  double modeled_seconds = 0.0;  ///< modeled time (device+disk+network model)
  double device_seconds = 0.0;   ///< modeled device component
  double disk_seconds = 0.0;     ///< modeled disk component
  double host_seconds = 0.0;     ///< modeled host component (CPU staging)
  /// (device + disk + host) / modeled. 1.0 for serial phases; approaches
  /// the lane count when an overlapped phase hides all lanes but the
  /// slowest behind each other.
  double overlap_efficiency = 1.0;
  std::uint64_t peak_host_bytes = 0;
  std::uint64_t peak_device_bytes = 0;
  std::uint64_t disk_bytes_read = 0;
  std::uint64_t disk_bytes_written = 0;
  // Faults the io::FaultInjector fired during the phase (all zero unless an
  // injector is installed).
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_retried = 0;
  std::uint64_t faults_fatal = 0;
  /// Counters from the global obs::MetricsRegistry that moved during the
  /// phase, as name-sorted (name, delta) pairs.
  obs::MetricsRegistry::Snapshot metrics = {};
  /// True when the phase was restored from a checkpoint instead of run.
  bool resumed = false;
};

// ---- lane ledger ----------------------------------------------------------
// Every modeled phase, single-node and distributed, is priced by the two
// rules below: raw deltas become lane seconds at the machine's prices, and
// a phase (or one node's share of it) costs the max of its lanes when they
// stream concurrently, their sum when they run one after another.

/// Modeled seconds on each lane of a node or phase.
struct Lanes {
  double device = 0.0;
  double disk = 0.0;
  double host = 0.0;
  double network = 0.0;

  Lanes& operator+=(const Lanes& other) {
    device += other.device;
    disk += other.disk;
    host += other.host;
    network += other.network;
    return *this;
  }
  /// The lanes back to back. The summation order is part of the model:
  /// every reported figure is rounded in exactly this order.
  [[nodiscard]] double sum() const { return device + disk + network + host; }
  /// The lanes overlapped: the busiest one bounds.
  [[nodiscard]] double max() const {
    return std::max({device, disk, host, network});
  }
  /// Phase cost: max of the lanes when streamed, their sum when sync.
  [[nodiscard]] double cost(bool streamed) const {
    return streamed ? max() : sum();
  }
  /// Lane work over the modeled time it took: 1.0 for serial phases,
  /// approaching the lane count when overlap hides all but the slowest.
  [[nodiscard]] double overlap_efficiency(double modeled) const {
    return modeled > 0.0 ? sum() / modeled : 1.0;
  }
};

/// The lane prices of one machine.
struct LaneLedger {
  /// Device kernels process scaled data at real GPU rates; multiplying by
  /// the time scale expresses them in the same full-size-world units as
  /// the (bandwidth-scaled) disk and host lanes.
  double time_scale = 1.0;
  double disk_bytes_per_sec = 1.0;
  double host_bytes_per_sec = 1.0;

  [[nodiscard]] double device(double device_seconds) const {
    return device_seconds * time_scale;
  }
  [[nodiscard]] double disk(double bytes) const {
    return bytes / disk_bytes_per_sec;
  }
  [[nodiscard]] double host(double bytes) const {
    return bytes / host_bytes_per_sec;
  }
  /// Price a device-clock delta, disk bytes and host-stage bytes.
  [[nodiscard]] Lanes price(double device_seconds, std::uint64_t disk_bytes,
                            std::uint64_t host_bytes) const {
    return Lanes{device(device_seconds), disk(static_cast<double>(disk_bytes)),
                 host(static_cast<double>(host_bytes))};
  }
};

/// One node's running clock over a sequence of priced steps (partition
/// scans): streamed steps overlap lane by lane, so the clock is the
/// busiest lane's running total; synchronous steps chain end to end.
struct LaneClock {
  Lanes total;
  double chained = 0.0;

  double add(const Lanes& step, bool streamed) {
    total += step;
    chained += step.sum();
    return now(streamed);
  }
  [[nodiscard]] double now(bool streamed) const {
    return streamed ? total.max() : chained;
  }
};

/// Ordered collection of phase stats for one pipeline run.
class RunStats {
 public:
  void add(PhaseStats phase) { phases_.push_back(std::move(phase)); }

  [[nodiscard]] const std::vector<PhaseStats>& phases() const {
    return phases_;
  }

  /// Find a phase by name; throws std::out_of_range if absent.
  [[nodiscard]] const PhaseStats& phase(const std::string& name) const;
  [[nodiscard]] bool has_phase(const std::string& name) const;

  [[nodiscard]] double total_wall_seconds() const;
  [[nodiscard]] double total_modeled_seconds() const;
  [[nodiscard]] std::uint64_t total_disk_bytes() const;

  /// Phases restored from a checkpoint instead of executed.
  [[nodiscard]] unsigned resumed_phase_count() const;

  /// Render an aligned table like the paper's Tables II/III.
  [[nodiscard]] std::string to_table() const;

 private:
  std::vector<PhaseStats> phases_;
};

}  // namespace lasagna::util
