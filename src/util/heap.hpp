#pragma once
/// \file heap.hpp
/// \brief The process heap policy of a thread-rank program.
///
/// Every stand-up, migration and restore frees one generation of per-rank
/// structures and allocates the next. Under glibc's default malloc, where
/// those blocks land depends on thread timing, so two runs of the same
/// program differ in page faults and peak RSS:
///  - each thread gets its own arena, grown in 64 MiB heaps and unmapped as
///    soon as a heap empties; whether a rebuild empties one depends on the
///    order the ranks free in, and a run re-faulted anywhere from ~0.1 to
///    ~1.5 million pages (75k sites, 4 ranks, 20 s of migrations, restores
///    and checkpoints), its cycle rate spreading over 4.1-5.2 MLUPS;
///  - the mmap threshold rises to the largest block freed so far, so whether
///    a rank's 23 MB distribution array (600k sites, 4 ranks) is mmapped and
///    returned on free, or kept in an arena after it, depends on which rank
///    frees first: peak RSS landed in one of three modes 48 MB apart.
/// pinHeapPolicy() fixes all three knobs, so a block's fate depends only on
/// its size.

namespace hemo::util {

/// One arena for every thread; blocks of 16 MiB and up are mmapped and
/// returned on free; up to 256 MiB of free heap top is kept for the next
/// rebuild instead of being returned and faulted in again. Takes effect for
/// arenas not yet created, so it must run before a second thread allocates;
/// comm/runtime.cpp applies it at load time. A no-op without glibc and
/// under AddressSanitizer, whose allocator replaces malloc.
void pinHeapPolicy();

}  // namespace hemo::util
