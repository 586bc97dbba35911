// Fixture: trips [raw-random] — a std:: engine and distribution outside
// src/tensor/rng.* draw a stream that differs across standard libraries.
#include <random>

double fixture_noise(unsigned long long seed) {
  std::mt19937_64 engine(seed);
  return std::normal_distribution<double>(0.0, 1.0)(engine);
}
