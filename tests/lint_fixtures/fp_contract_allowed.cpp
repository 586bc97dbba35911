// Fixture: an AVX2 target without FMA passes as is (the assignment
// kernel's attribute); the fused variant is silenced by a standalone
// suppression covering the declaration below.
[[gnu::target("avx2")]] float fixture_dot(const float* a, const float* b) {
  return a[0] * b[0] + a[1] * b[1];
}

// ckv-lint: allow(fp-contract) -- fixture exercising the suppression
[[gnu::target("avx2,fma")]] float fixture_fused_dot(const float* a, const float* b) {
  return a[0] * b[0] + a[1] * b[1];
}
