// Fixture: same offense as raw_random_violate.cpp, silenced by the
// standalone suppression-comment form (covers the lines below it).
#include <random>

double fixture_noise(unsigned long long seed) {
  // ckv-lint: allow(raw-random) -- fixture
  std::mt19937_64 engine(seed);
  // ckv-lint: allow(raw-random) -- fixture
  return std::normal_distribution<double>(0.0, 1.0)(engine);
}
