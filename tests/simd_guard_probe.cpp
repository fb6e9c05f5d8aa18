// Built with -mavx2 into a library beside simd_avx2.cpp.o: AVX code outside
// that object, which simd_linkage_guard.sh must report.
#include <cstring>

void simd_guard_probe(float* x) {
  typedef float v8 __attribute__((vector_size(32)));
  v8 v;
  std::memcpy(&v, x, sizeof v);
  v = v * v;
  std::memcpy(x, &v, sizeof v);
}
