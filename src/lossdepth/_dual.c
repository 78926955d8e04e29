/* The maximal-violation loop of solvers._greedy_ascent, compiled.
 *
 * Greedy coordinate ascent on max c'u - 0.5 u'Ku over lo <= u <= hi, with
 * the gradient s = c - Ku held in scores.  Every operation is the numpy
 * loop's (solvers._greedy_loop), in the same order, so each output bit is
 * the same: built at -O3 with -ffp-contract=off and never with fast-math,
 * so that no fused multiply-add or reassociation changes a rounding.
 *
 * The violation of coordinate i is |min(max(s_i, floor_i), ceiling_i)|,
 * with NaN propagating as np.maximum and np.minimum propagate it; floor_i
 * is -inf while u_i > lo_i and 0 otherwise, and ceiling_i is inf while
 * u_i < hi_i and 0 otherwise.  The argmax is np.argmax's: the first index
 * of the maximum, or the first NaN.
 *
 * Each update scans in two passes that the compiler vectorises.  The first
 * updates the scores, writes the violations into the caller's scratch vector
 * and takes the largest of their bit patterns as int64.  A violation is +0,
 * a positive double or a NaN with its sign cleared, and such doubles order
 * as their bits, every NaN above +inf; so that maximum is exact and does not
 * depend on the order in which vector lanes meet it.  The second pass
 * returns the first index whose violation has those bits, or, when they are
 * a NaN's, the first NaN, as the least index whose bits reach them: a
 * minimum, so again exact in any lane order, and np.argmax's index whatever
 * the vector width.
 *
 * On x86-64 with glibc, the scan is compiled once per instruction set
 * (AVX-512F, AVX2 and the baseline) and the loader picks the one the CPU
 * runs, so one cached library serves every CPU of an architecture;
 * elsewhere, or where the compiler has no target_clones, it is the plain
 * loop.  The arithmetic per element is the same in every clone.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define PER_CPU __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef PER_CPU
#define PER_CPU
#endif

static const int64_t INFINITY_BITS = INT64_C(0x7ff0000000000000);

static int64_t bits(double v)
{
    int64_t b;
    memcpy(&b, &v, sizeof b);
    return b;
}

/* scores -= delta * row, unless row is NULL, then the violations and the
 * index of their maximum */
PER_CPU static int64_t update_and_argmax(int64_t n, const double *row, double delta,
                                         double *scores, const double *floor,
                                         const double *ceiling, double *violations)
{
    int64_t top = 0; /* the bits of +0, the least violation */
    for (int64_t i = 0; i < n; i++) {
        double s = scores[i];
        if (row != NULL) {
            double t = delta * row[i];
            s = s - t;
            scores[i] = s;
        }
        double v = s < floor[i] ? floor[i] : s;
        v = fabs(v > ceiling[i] ? ceiling[i] : v);
        violations[i] = v;
        int64_t b = bits(v);
        top = b > top ? b : top;
    }
    if (top > INFINITY_BITS) /* the first NaN, whatever its payload */
        top = INFINITY_BITS + 1;
    int64_t k = n; /* the least index at or above top, as a minimum */
    for (int64_t i = 0; i < n; i++) {
        int64_t candidate = bits(violations[i]) >= top ? i : n;
        k = candidate < k ? candidate : k;
    }
    return k;
}

/* kernel is the symmetric n x n matrix, row-major, whose row k is read as
 * column k.  u, scores, floor and ceiling are updated in place, and
 * violations, n doubles, is scratch, passed in so that nothing here allocates
 * or can fail.  Returns the number of updates made and leaves the last
 * largest violation in *residual. */
int64_t greedy_ascent(int64_t n, const double *kernel, const double *diag,
                      const double *lo, const double *hi, double *u,
                      double *scores, double *floor, double *ceiling,
                      double *violations, int64_t budget, double tolerance,
                      double *residual)
{
    int64_t updates = 0;
    int64_t k = update_and_argmax(n, NULL, 0.0, scores, floor, ceiling, violations);
    while (!(violations[k] <= tolerance) && updates != budget) {
        /* Python's max(t, lo) and min(t, hi): the first argument wins ties and NaN */
        double updated = u[k] + scores[k] / diag[k];
        if (lo[k] > updated)
            updated = lo[k];
        if (hi[k] < updated)
            updated = hi[k];
        double delta = updated - u[k];
        u[k] = updated;
        floor[k] = updated > lo[k] ? -INFINITY : 0.0;
        ceiling[k] = updated < hi[k] ? INFINITY : 0.0;
        updates++;
        k = update_and_argmax(n, kernel + k * n, delta, scores, floor, ceiling, violations);
    }
    *residual = violations[k];
    return updates;
}
