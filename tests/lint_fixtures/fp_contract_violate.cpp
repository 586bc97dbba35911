// Fixture: trips [fp-contract] when attributed to a path under src/ or
// bench/. Each form lets the compiler fuse `a * b + c` into one FMA,
// which rounds once where dot_f32's lane walk rounds twice.
#pragma STDC FP_CONTRACT ON

[[gnu::target("avx2,fma")]] float fixture_fused_dot(const float* a, const float* b) {
  return a[0] * b[0] + a[1] * b[1];
}

__attribute__((target_clones("default", "arch=haswell"))) float fixture_clone(float x) {
  return x * x + 1.0F;
}

#pragma GCC optimize("fp-contract=fast")
