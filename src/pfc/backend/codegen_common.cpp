#include "pfc/backend/codegen_common.hpp"

#include <cctype>

namespace pfc::backend {

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

const char* runtime_preamble() {
  // Keep in sync with pfc/rng/philox.hpp — bit-identical by construction.
  return R"PFC(
typedef unsigned long long pfc_u64;
typedef unsigned int pfc_u32;

static inline void pfc_mulhilo32(pfc_u32 a, pfc_u32 b, pfc_u32* hi,
                                 pfc_u32* lo) {
  pfc_u64 p = (pfc_u64)a * (pfc_u64)b;
  *hi = (pfc_u32)(p >> 32);
  *lo = (pfc_u32)p;
}

static inline double pfc_philox_uniform(pfc_u64 x, pfc_u64 y, pfc_u64 z,
                                        pfc_u64 t_step, pfc_u64 seed,
                                        pfc_u64 stream) {
  pfc_u32 c0 = (pfc_u32)x, c1 = (pfc_u32)y, c2 = (pfc_u32)z,
          c3 = (pfc_u32)t_step;
  pfc_u32 k0 = (pfc_u32)(seed ^ (stream * 0x9E3779B9u));
  pfc_u32 k1 = (pfc_u32)((seed >> 32) + stream);
  for (int r = 0; r < 10; ++r) {
    pfc_u32 hi0, lo0, hi1, lo1;
    pfc_mulhilo32(0xD2511F53u, c0, &hi0, &lo0);
    pfc_mulhilo32(0xCD9E8D57u, c2, &hi1, &lo1);
    pfc_u32 n0 = hi1 ^ c1 ^ k0;
    pfc_u32 n1 = lo1;
    pfc_u32 n2 = hi0 ^ c3 ^ k1;
    pfc_u32 n3 = lo0;
    c0 = n0; c1 = n1; c2 = n2; c3 = n3;
    k0 += 0x9E3779B9u;
    k1 += 0xBB67AE85u;
  }
  pfc_u64 bits = ((pfc_u64)c0 << 32) | c1;
  return (double)bits * (2.0 / 18446744073709551616.0) - 1.0;
}

static inline double pfc_rsqrt_fast(double v) {
  /* single-precision refinement step; ~1e-7 relative accuracy, modelling
     the AVX512 rsqrt14 + Newton iteration of the paper */
  float x = (float)v;
  float r = 1.0f / sqrtf(x);
  return (double)(r * (1.5f - 0.5f * x * r * r));
}
)PFC";
}

std::string vector_preamble(int width) {
  // One vector width per translation unit; the guard makes concatenated
  // emit_c outputs (one TU for all kernels of a model) idempotent. The
  // splat and lane-index initialisers are spelled out for this width, so
  // the compiler sees vector values, not lane loops it must re-vectorize.
  std::string splat, lanes;
  for (int i = 0; i < width; ++i) {
    splat += i == 0 ? "s" : ", s";
    lanes += (i == 0 ? "" : ", ") + std::to_string(i) + ".0";
  }
  std::string out = "#ifndef PFC_VW\n#define PFC_VW " +
                    std::to_string(width) + "\n";
  out += R"PFC(
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

typedef double pfc_vd __attribute__((vector_size(sizeof(double) * PFC_VW)));
/* same lanes, 8-byte alignment: the type behind unaligned loads/stores */
typedef double pfc_vd_unaligned
    __attribute__((vector_size(sizeof(double) * PFC_VW), aligned(8)));
/* integer lanes of the vector Philox: one 32-bit word per 64-bit lane */
typedef pfc_u64 pfc_vu __attribute__((vector_size(sizeof(pfc_u64) * PFC_VW)));

static inline pfc_vd pfc_vd_set1(double s) {
  const pfc_vd v = {)PFC";
  out += splat;
  out += R"PFC(};
  return v;
}

/* {x0, x0+1, ...} — the per-lane x coordinate of a vector iteration */
static inline pfc_vd pfc_vd_iota(double x0) {
  const pfc_vd lanes = {)PFC";
  out += lanes;
  out += R"PFC(};
  return pfc_vd_set1(x0) + lanes;
}

static inline pfc_vd pfc_vd_loadu(const double* p) {
  return *(const pfc_vd_unaligned*)p;
}

static inline void pfc_vd_storeu(double* p, pfc_vd v) {
  *(pfc_vd_unaligned*)p = v;
}

static inline void pfc_vd_storea(double* p, pfc_vd v) { *(pfc_vd*)p = v; }

/* Non-temporal store: bypasses the cache hierarchy for write-only
   destinations. Requires a full-vector-aligned address (the emitter's
   alignment peel guarantees this for the primary write field). */
static inline void pfc_vd_stream(double* p, pfc_vd v) {
#if defined(__clang__)
  __builtin_nontemporal_store(v, (pfc_vd*)p);
#elif defined(__AVX512F__) && PFC_VW == 8
  __m512d w;
  __builtin_memcpy(&w, &v, sizeof w);
  _mm512_stream_pd(p, w);
#elif defined(__AVX__) && PFC_VW == 4
  __m256d w;
  __builtin_memcpy(&w, &v, sizeof w);
  _mm256_stream_pd(p, w);
#elif defined(__SSE2__) && PFC_VW == 2
  __m128d w;
  __builtin_memcpy(&w, &v, sizeof w);
  _mm_stream_pd(p, w);
#else
  *(pfc_vd*)p = v; /* no non-temporal form on this target */
#endif
}

/* Drain the write-combining buffers of non-temporal stores. The thread
   pool's mutex release orders normal stores but NOT movnt, so every kernel
   that streamed must fence before returning its slab. */
static inline void pfc_vd_stream_fence(void) {
#if defined(__x86_64__) || defined(__i386__)
  _mm_sfence();
#else
  __sync_synchronize();
#endif
}

/* IEEE-exact vector sqrt: packed hardware form when available, else a lane
   loop (identical results either way). */
static inline pfc_vd pfc_vd_sqrt(pfc_vd a) {
#if defined(__AVX512F__) && PFC_VW == 8
  __m512d w;
  __builtin_memcpy(&w, &a, sizeof w);
  w = _mm512_sqrt_pd(w);
  pfc_vd r;
  __builtin_memcpy(&r, &w, sizeof r);
  return r;
#elif defined(__AVX__) && PFC_VW == 4
  __m256d w;
  __builtin_memcpy(&w, &a, sizeof w);
  w = _mm256_sqrt_pd(w);
  pfc_vd r;
  __builtin_memcpy(&r, &w, sizeof r);
  return r;
#elif defined(__SSE2__) && PFC_VW == 2
  __m128d w;
  __builtin_memcpy(&w, &a, sizeof w);
  w = _mm_sqrt_pd(w);
  pfc_vd r;
  __builtin_memcpy(&r, &w, sizeof r);
  return r;
#else
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = sqrt(a[i]);
  return r;
#endif
}

static inline pfc_vd pfc_vd_rsqrt(pfc_vd a) {
  /* matches the scalar dialect's (1.0 / sqrt(x)) bit for bit */
  return pfc_vd_set1(1.0) / pfc_vd_sqrt(a);
}

static inline pfc_vd pfc_vd_sqrt_fast(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = (double)sqrtf((float)a[i]);
  return r;
}

static inline pfc_vd pfc_vd_rsqrt_fast(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = pfc_rsqrt_fast(a[i]);
  return r;
}

/* Lane-wise min/max as the scalar dialect's fmin/fmax: a NaN operand
   yields the other one, and equal operands (+0, -0) yield b. */
static inline pfc_vd pfc_vd_fmin(pfc_vd a, pfc_vd b) {
  return (a < b) | (b != b) ? a : b;
}

static inline pfc_vd pfc_vd_fmax(pfc_vd a, pfc_vd b) {
  return (a > b) | (b != b) ? a : b;
}

static inline pfc_vd pfc_vd_fabs(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = fabs(a[i]);
  return r;
}

/* comparisons as 0.0/1.0 masks, matching the scalar dialect's ternaries */
static inline pfc_vd pfc_vd_lt(pfc_vd a, pfc_vd b) {
  return a < b ? pfc_vd_set1(1.0) : pfc_vd_set1(0.0);
}

static inline pfc_vd pfc_vd_gt(pfc_vd a, pfc_vd b) {
  return a > b ? pfc_vd_set1(1.0) : pfc_vd_set1(0.0);
}

static inline pfc_vd pfc_vd_le(pfc_vd a, pfc_vd b) {
  return a <= b ? pfc_vd_set1(1.0) : pfc_vd_set1(0.0);
}

static inline pfc_vd pfc_vd_ge(pfc_vd a, pfc_vd b) {
  return a >= b ? pfc_vd_set1(1.0) : pfc_vd_set1(0.0);
}

/* Select(c, a, b): per-lane blend, c != 0 picks a */
static inline pfc_vd pfc_vd_sel(pfc_vd c, pfc_vd a, pfc_vd b) {
  return c != pfc_vd_set1(0.0) ? a : b;
}

/* lane-serial libm calls: no packed form, one scalar call per lane */
static inline pfc_vd pfc_vd_exp(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = exp(a[i]);
  return r;
}

static inline pfc_vd pfc_vd_log(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = log(a[i]);
  return r;
}

static inline pfc_vd pfc_vd_sin(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = sin(a[i]);
  return r;
}

static inline pfc_vd pfc_vd_cos(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = cos(a[i]);
  return r;
}

static inline pfc_vd pfc_vd_tanh(pfc_vd a) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = tanh(a[i]);
  return r;
}

static inline pfc_vd pfc_vd_pow(pfc_vd a, pfc_vd b) {
  pfc_vd r;
  for (int i = 0; i < PFC_VW; ++i) r[i] = pow(a[i], b[i]);
  return r;
}

/* Philox on integer vectors: every 32-bit word of pfc_philox_uniform sits
   in the low half of a pfc_u64 lane, so each lane computes exactly what
   the scalar routine computes, with the same casts from double. */
static inline pfc_vd pfc_vd_philox(pfc_vd x, pfc_vd y, pfc_vd z, pfc_vd t,
                                   pfc_vd seed_lo, pfc_vd stream,
                                   pfc_vd seed_hi) {
  const pfc_u64 m = 0xFFFFFFFFull;
  const pfc_vu s = __builtin_convertvector(stream, pfc_vu);
  pfc_vu c0 = __builtin_convertvector(x, pfc_vu) & m;
  pfc_vu c1 = __builtin_convertvector(y, pfc_vu) & m;
  pfc_vu c2 = __builtin_convertvector(z, pfc_vu) & m;
  pfc_vu c3 = __builtin_convertvector(t, pfc_vu) & m;
  pfc_vu k0 = __builtin_convertvector(seed_lo, pfc_vu) ^ (s * 0x9E3779B9ull);
  pfc_vu k1 = __builtin_convertvector(seed_hi, pfc_vu) + s;
  k0 &= m;
  k1 &= m;
  for (int r = 0; r < 10; ++r) {
    const pfc_vu p0 = c0 * 0xD2511F53ull;
    const pfc_vu p1 = c2 * 0xCD9E8D57ull;
    const pfc_vu n0 = (p1 >> 32) ^ c1 ^ k0;
    const pfc_vu n2 = (p0 >> 32) ^ c3 ^ k1;
    c1 = p1 & m;
    c3 = p0 & m;
    c0 = n0;
    c2 = n2;
    k0 = (k0 + 0x9E3779B9ull) & m;
    k1 = (k1 + 0xBB67AE85ull) & m;
  }
  const pfc_vd u = __builtin_convertvector((c0 << 32) | c1, pfc_vd);
  return u * pfc_vd_set1(2.0 / 18446744073709551616.0) - pfc_vd_set1(1.0);
}
)PFC";
  out += "#endif /* PFC_VW */\n";
  return out;
}

}  // namespace pfc::backend
