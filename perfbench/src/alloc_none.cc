#include "alloc.h"

namespace perfbench {

std::uint64_t thread_allocs() { return 0; }
bool allocs_counted() { return false; }

}  // namespace perfbench
