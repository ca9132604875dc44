#pragma once
/// \file parallel.hpp
/// \brief Chunked parallel-for on plain std::threads, for the serial
/// pre-processing stages (partitioning runs before the ranks start).

#include <algorithm>
#include <cstdint>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace hemo {

/// Call fn(begin, end) on contiguous chunks that cover [0, n), one chunk per
/// hardware thread but none shorter than 4096 indices (a thread start costs
/// tens of microseconds), and return when all are done. The calling thread works the first chunk. Chunks run concurrently,
/// so fn must only write state owned by its own range. The first exception a
/// chunk throws is rethrown here after every chunk has finished.
template <typename Fn>
void parallelFor(std::uint64_t n, Fn&& fn) {
  constexpr std::uint64_t kMinChunk = 4096;
  const std::uint64_t threads =
      std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t chunks =
      std::clamp<std::uint64_t>(n / kMinChunk, 1, threads);
  std::vector<std::exception_ptr> errors(chunks);
  auto runChunk = [&](std::uint64_t c) {
    try {
      fn(n * c / chunks, n * (c + 1) / chunks);
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(chunks - 1);
  for (std::uint64_t c = 1; c < chunks; ++c) {
    try {
      workers.emplace_back(runChunk, c);
    } catch (const std::system_error&) {
      runChunk(c);  // no thread to be had: work the chunk here
    }
  }
  runChunk(0);
  for (auto& w : workers) w.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace hemo
