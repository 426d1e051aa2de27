/* What the vectorised kernels share: per-width clones, forced inlining and
   an exp the compiler vectorises.

   VECTOR_CLONES compiles a kernel once per vector width (AVX-512, AVX2 and
   the baseline) and picks one at load time.  repro.utils.native builds the
   library with -ffp-contract=off and without -ffast-math, so every clone
   rounds alike: the same operations in the same order at every width.

   exp_in_place(v, n) sets v[i] = exp(v[i]) for i < n.  glibc's exp is a
   call the vectoriser cannot widen; this one is plain arithmetic in two
   loops that every clone vectorises (-fopt-info-vec shows both).  The first
   clamps v to [-709, 709]: a clamp in the same loop as the arithmetic
   would leave the vectoriser a branch it may not speculate past without
   -fno-trapping-math.  The second splits x = k ln2 + r with k = round(x /
   ln2) (Cody-Waite: ln2 in two parts, so r is exact to the last bits), sums
   exp(r) - 1 as r + r^2 q(r) with q the Taylor series to r^13 (|r| <=
   ln2 / 2), adds the 1 last and scales by 2^k, built in the exponent bits.
   So exp_in_place

   - lies within 2 ulp of glibc's exp on [-708, 709] (1 ulp measured);
   - returns exactly 0 below about -708.74 (k = -1023), where glibc's exp
     is already subnormal, so a key under MASKED_BIAS (-1e9) weighs nothing;
   - returns exp(709), about 8.2e307, from 709 up: finite, where glibc's exp
     overflows past 709.78;
   - keeps NaN a NaN. */

#ifndef REPRO_VECTOR_H
#define REPRO_VECTOR_H

#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VECTOR_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef VECTOR_CLONES
#define VECTOR_CLONES
#endif

#define INLINE static inline __attribute__((always_inline))

INLINE void exp_in_place(double *restrict v, int64_t n) {
    const double shift = 0x1.8p52, log2e = 0x1.71547652b82fep0;
    const double ln2_hi = 0x1.62e42feep-1, ln2_lo = 0x1.a39ef35793c76p-33; /* k * ln2_hi is exact */
    for (int64_t i = 0; i < n; i++) v[i] = v[i] < -709.0 ? -709.0 : (v[i] > 709.0 ? 709.0 : v[i]);
    for (int64_t i = 0; i < n; i++) {
        const double x = v[i], z = x * log2e + shift, k = z - shift; /* z's low bits hold k */
        const double r = (x - k * ln2_hi) - k * ln2_lo;
        double q = 1.0 / 6227020800.0;
        q = q * r + 1.0 / 479001600.0;
        q = q * r + 1.0 / 39916800.0;
        q = q * r + 1.0 / 3628800.0;
        q = q * r + 1.0 / 362880.0;
        q = q * r + 1.0 / 40320.0;
        q = q * r + 1.0 / 5040.0;
        q = q * r + 1.0 / 720.0;
        q = q * r + 1.0 / 120.0;
        q = q * r + 1.0 / 24.0;
        q = q * r + 1.0 / 6.0;
        q = q * r + 0.5;
        uint64_t bits;
        memcpy(&bits, &z, sizeof bits);
        bits = (bits + 1023) << 52; /* 2^k, or +0 at k = -1023 */
        double scale;
        memcpy(&scale, &bits, sizeof scale);
        v[i] = (1.0 + (r + r * r * q)) * scale;
    }
}

#endif
