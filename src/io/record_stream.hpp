// Typed record streams over the sequential byte streams.
//
// Records must be trivially copyable; they are written verbatim (the file
// format is therefore host-endian, which is fine for intermediate files that
// never leave a run's temp directory).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "io/file_stream.hpp"

namespace lasagna::io {

template <typename T>
concept TrivialRecord = std::is_trivially_copyable_v<T>;

/// Sequential reader of fixed-size records.
template <TrivialRecord T>
class RecordReader {
 public:
  /// `skip_records` seeks past that many leading records without reading
  /// (or charging) them — resume paths use it to continue mid-file.
  explicit RecordReader(const std::filesystem::path& path,
                        IoStats& stats = IoStats::global(),
                        std::uint64_t skip_records = 0)
      : stream_(path, stats) {
    if (skip_records > 0) stream_.skip_bytes(skip_records * sizeof(T));
  }

  /// Read up to `max_records` records into `out` (appended).
  /// Returns the number of records read; 0 at end of file.
  std::size_t read(std::vector<T>& out, std::size_t max_records) {
    if (max_records == 0 || stream_.eof()) return 0;
    // Grow `out` by what the file can still hold, not by `max_records`: a
    // large budget must not zero-fill and page in memory a small file never
    // uses. The extra record still reaches end of file (and a truncated
    // tail) exactly as an uncapped read would.
    const std::uint64_t left = remaining_records();
    const std::size_t want =
        left < max_records ? static_cast<std::size_t>(left) + 1 : max_records;
    const std::size_t old_size = out.size();
    out.resize(old_size + want);
    const std::size_t got = stream_.read_bytes(std::as_writable_bytes(
        std::span<T>(out.data() + old_size, want)));
    if (got % sizeof(T) != 0) {
      throw std::runtime_error("truncated record in " +
                               stream_.path().string());
    }
    const std::size_t records = got / sizeof(T);
    out.resize(old_size + records);
    return records;
  }

  /// Records remaining (assumes the file holds whole records).
  [[nodiscard]] std::uint64_t remaining_records() const {
    return stream_.remaining() / sizeof(T);
  }

  [[nodiscard]] std::uint64_t total_records() const {
    return stream_.size() / sizeof(T);
  }

  [[nodiscard]] bool eof() const { return stream_.eof(); }

 private:
  ReadOnlyStream stream_;
};

/// Sequential writer of fixed-size records.
template <TrivialRecord T>
class RecordWriter {
 public:
  explicit RecordWriter(const std::filesystem::path& path,
                        IoStats& stats = IoStats::global())
      : stream_(path, stats) {}

  void write(std::span<const T> records) {
    stream_.write_bytes(std::as_bytes(records));
    count_ += records.size();
  }

  void write_one(const T& record) { write(std::span<const T>(&record, 1)); }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  void close() { stream_.close(); }

  [[nodiscard]] const std::filesystem::path& path() const {
    return stream_.path();
  }

 private:
  WriteOnlyStream stream_;
  std::uint64_t count_ = 0;
};

/// Convenience: read an entire record file into memory (tests/small files).
template <TrivialRecord T>
std::vector<T> read_all_records(const std::filesystem::path& path,
                                IoStats& stats = IoStats::global()) {
  RecordReader<T> reader(path, stats);
  std::vector<T> out;
  out.reserve(reader.total_records());
  while (reader.read(out, 1 << 16) > 0) {
  }
  return out;
}

/// Convenience: write a vector of records to a file.
template <TrivialRecord T>
void write_all_records(const std::filesystem::path& path,
                       std::span<const T> records,
                       IoStats& stats = IoStats::global()) {
  RecordWriter<T> writer(path, stats);
  writer.write(records);
  writer.close();
}

}  // namespace lasagna::io
