// Length-keyed partition file sets.
//
// The map phase partitions (fingerprint, read-ID) tuples by prefix/suffix
// length (paper section III-A "Partitioning"): one file per length l in
// [l_min, l_max). This class owns those files for one role (suffixes or
// prefixes) inside one storage directory.
#pragma once

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "io/record_stream.hpp"

namespace lasagna::io {

template <TrivialRecord T>
class PartitionSet {
 public:
  /// `role` is a filename prefix such as "sfx" or "pfx".
  PartitionSet(std::filesystem::path dir, std::string role,
               IoStats& stats = IoStats::global())
      : dir_(std::move(dir)), role_(std::move(role)), stats_(&stats) {
    std::filesystem::create_directories(dir_);
  }

  /// Open the writer of partition `length` if it is not open yet. Opening
  /// inserts into the set and must not overlap any other call; once every
  /// partition an emitter writes is open, its appends to distinct
  /// partitions may run concurrently.
  void open_writer(unsigned length) { (void)partition(length); }

  /// Append records for partition `length` (writer opened lazily).
  void append(unsigned length, std::span<const T> records) {
    Partition& p = partition(length);
    p.writer->write(records);
    p.count = p.writer->count();
  }

  void append_one(unsigned length, const T& record) {
    append(length, std::span<const T>(&record, 1));
  }

  /// Close all writers; the set becomes readable.
  void finalize() {
    for (auto& [length, p] : partitions_) {
      if (p.writer) p.writer->close();
      p.writer.reset();  // the count stays
    }
    finalized_ = true;
  }

  /// Adopt already-written partition files (checkpoint resume): install the
  /// recorded per-length counts and mark the set finalized without opening
  /// any writers. The files themselves are validated by the caller.
  void restore_finalized(const std::map<unsigned, std::uint64_t>& counts) {
    if (!partitions_.empty()) {
      throw std::logic_error("PartitionSet::restore_finalized after append");
    }
    for (const auto& [length, count] : counts) {
      partitions_[length].count = count;
    }
    finalized_ = true;
  }

  /// Lengths that received at least one record, ascending.
  [[nodiscard]] std::vector<unsigned> lengths() const {
    std::vector<unsigned> out;
    out.reserve(partitions_.size());
    for (const auto& [length, p] : partitions_) {
      if (p.count > 0) out.push_back(length);
    }
    return out;
  }

  /// Number of records written to partition `length` (0 if none).
  [[nodiscard]] std::uint64_t count(unsigned length) const {
    const auto it = partitions_.find(length);
    return it == partitions_.end() ? 0 : it->second.count;
  }

  /// File path of partition `length` (exists only if count(length) > 0).
  [[nodiscard]] std::filesystem::path path(unsigned length) const {
    char name[64];
    std::snprintf(name, sizeof(name), "%s_%05u.bin", role_.c_str(), length);
    return dir_ / name;
  }

  /// Open a reader over partition `length`. The set must be finalized.
  [[nodiscard]] RecordReader<T> open(unsigned length) const {
    if (!finalized_) {
      throw std::logic_error("PartitionSet::open before finalize");
    }
    return RecordReader<T>(path(length), *stats_);
  }

  /// Remove the file backing partition `length` (after it is consumed).
  void drop(unsigned length) {
    std::error_code ec;
    std::filesystem::remove(path(length), ec);
    partitions_.erase(length);
  }

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }
  [[nodiscard]] const std::string& role() const { return role_; }

 private:
  /// One partition: its writer while the set is being written, and the
  /// records written to it (or restored).
  struct Partition {
    std::unique_ptr<RecordWriter<T>> writer;
    std::uint64_t count = 0;
  };

  /// The open partition `length`. Lookup is `find`, which is safe alongside
  /// other lookups; only a partition's first use inserts.
  Partition& partition(unsigned length) {
    if (finalized_) {
      throw std::logic_error("PartitionSet::append after finalize");
    }
    auto it = partitions_.find(length);
    if (it == partitions_.end()) it = partitions_.try_emplace(length).first;
    if (!it->second.writer) {
      it->second.writer =
          std::make_unique<RecordWriter<T>>(path(length), *stats_);
    }
    return it->second;
  }

  std::filesystem::path dir_;
  std::string role_;
  IoStats* stats_;
  std::map<unsigned, Partition> partitions_;
  bool finalized_ = false;
};

}  // namespace lasagna::io
