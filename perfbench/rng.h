// A small seeded random stream for the benchmark's inputs and orders.
#ifndef SEMAP_PERFBENCH_RNG_H_
#define SEMAP_PERFBENCH_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, platform-independent stream (the standard
/// distributions are implementation-defined, so they are not used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // SEMAP_PERFBENCH_RNG_H_
