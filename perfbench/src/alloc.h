// Allocation counting for the traced binary.
//
// perfbench_traced links alloc_count.cc, which replaces the global
// operator new with one that bumps a thread-local counter; perfbench links
// alloc_none.cc, whose counter always reads 0.  Spans read the counter at
// entry and exit, so allocations are charged to the layer call that made
// them on the thread that made them.
#pragma once

#include <cstdint>

namespace perfbench {

// Allocations made by the calling thread so far.
std::uint64_t thread_allocs();
// True in the binary that counts.
bool allocs_counted();

}  // namespace perfbench
