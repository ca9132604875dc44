#include "util/heap.hpp"

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

namespace hemo::util {

void pinHeapPolicy() {
#if defined(__GLIBC__) && defined(M_ARENA_MAX)
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 16 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
}

}  // namespace hemo::util
