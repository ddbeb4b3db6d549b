//===- support/ChunkSlots.h - Per-chunk slots, ordered merge ----*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ChunkSlots<T, Cap> holds one T per chunk of a parallel pass. Each chunk
/// writes only its own slot; after the join a sequential loop merges the
/// slots in chunk index order, so the result does not depend on how the
/// chunks were scheduled (CSR5's carry "calibration" between tiles). Up to
/// Cap slots live on the stack, which keeps solver iterations
/// allocation-free; heavier over-decomposition spills to the heap once per
/// call. A trivial T is left uninitialized: every chunk overwrites its
/// slot.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SUPPORT_CHUNKSLOTS_H
#define CVR_SUPPORT_CHUNKSLOTS_H

#include <cstddef>
#include <vector>

namespace cvr {

template <class T, int Cap> class ChunkSlots {
public:
  explicit ChunkSlots(int N) {
    if (N > Cap) {
      Heap.resize(static_cast<std::size_t>(N));
      Slots = Heap.data();
    }
  }
  ChunkSlots(const ChunkSlots &) = delete;
  ChunkSlots &operator=(const ChunkSlots &) = delete;

  T &operator[](int I) { return Slots[I]; }
  const T &operator[](int I) const { return Slots[I]; }
  T *data() { return Slots; }

private:
  T Stack[Cap];
  std::vector<T> Heap;
  T *Slots = Stack;
};

} // namespace cvr

#endif // CVR_SUPPORT_CHUNKSLOTS_H
