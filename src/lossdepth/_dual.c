/* The compiled half of lossdepth: the maximal-violation loop of
 * solvers._greedy_ascent, and the pass behind kernels.pair_distances that
 * gives gram, median_heuristic and LOF the kernel argument or the squared
 * distance of every pair of rows.  native.py compiles this file on the
 * first kernel evaluation.
 *
 * Every operation is the numpy code's, in the same order, so each output
 * bit is the same: built at -O3 with -ffp-contract=off and never with
 * fast-math, so that no fused multiply-add or reassociation changes a
 * rounding.
 *
 * greedy_ascent: greedy coordinate ascent on max c'u - 0.5 u'Ku over
 * lo <= u <= hi, with the gradient s = c - Ku held in scores, as the numpy
 * loop solvers._greedy_loop does it.
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
 * kernel_arguments: for each pair of rows x, y, the sum over coordinates
 * k = 0 .. d-1, in that order, of (x_k - y_k)^2, or of |x_k - y_k| for the
 * laplacian, which is what scipy's cdist and pdist compute, followed by the
 * scalar step that kernels.gram applies before np.exp or np.power.  One
 * vector lane holds one pair and no sum crosses lanes, so the vector width
 * cannot change a bit.
 *
 * On x86-64 with glibc, the greedy scan and kernel_arguments are compiled
 * once per instruction set (AVX-512F, AVX2 and the baseline) and the loader
 * picks the one the CPU runs, so one cached library serves every CPU of an
 * architecture; elsewhere, or where the compiler has no target_clones,
 * they are the plain loops.  The arithmetic per element is the same in
 * every clone.
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

/* The scalar step of kernel_arguments, by its index in native._STEPS, on a
 * pair's coordinate sum: the sum of squares itself (for pdist's
 * "sqeuclidean"), the gaussian's s * (-gamma), the laplacian's
 * -(s / sigma) and the imq's s + c^2, with parameter the -gamma, sigma or
 * c^2 that kernels.gram passes. */
enum { SQEUCLIDEAN, GAUSSIAN, LAPLACIAN, IMQ };

#define TILE 16 /* pairs summed side by side, packed into vectors */

static inline __attribute__((always_inline)) double finish(int64_t step, double s,
                                                           double parameter)
{
    switch (step) {
    case GAUSSIAN:
        return s * parameter;
    case LAPLACIAN:
        return -(s / parameter);
    case IMQ:
        return s + parameter;
    default:
        return s;
    }
}

/* out[j - first] for j in [first, columns): the step applied to the sum
 * over k of the distance term between x and column j of the d x columns
 * matrix right_t, TILE pairs at a time and then the rest one by one.  The
 * empty asm statement in the loop over k keeps the compiler from
 * vectorising that loop, a sum it would have to add up lane by lane in
 * order; it then packs the TILE independent sums into vectors instead, as
 * wide as each clone's instruction set allows. */
static inline __attribute__((always_inline)) void
argument_row(int64_t d, const double *x, int64_t columns, const double *right_t, int64_t first,
             int64_t step, double parameter, double *out)
{
    int64_t j = first;
    for (; j + TILE <= columns; j += TILE) {
        double sums[TILE] = {0.0};
        for (int64_t k = 0; k < d; k++) {
            const double *y = right_t + k * columns + j;
            __asm__ volatile("");
            for (int l = 0; l < TILE; l++) {
                double t = x[k] - y[l];
                sums[l] = sums[l] + (step == LAPLACIAN ? fabs(t) : t * t);
            }
        }
        for (int l = 0; l < TILE; l++)
            out[j - first + l] = finish(step, sums[l], parameter);
    }
    for (; j < columns; j++) {
        double s = 0.0;
        for (int64_t k = 0; k < d; k++) {
            double t = x[k] - right_t[k * columns + j];
            s = s + (step == LAPLACIAN ? fabs(t) : t * t);
        }
        out[j - first] = finish(step, s, parameter);
    }
}

/* every row of kernel_arguments; inlined twice, for the laplacian's
 * absolute differences and for the squared ones, so that neither's inner
 * loop tests the step */
static inline __attribute__((always_inline)) void
argument_rows(int64_t rows, int64_t columns, int64_t d, const double *left,
              const double *right_t, int64_t step, double parameter, int64_t triangle,
              double *out)
{
    for (int64_t i = 0; i < rows; i++) {
        int64_t first = triangle ? i + 1 : 0;
        argument_row(d, left + i * d, columns, right_t, first, step, parameter, out);
        out += columns - first;
    }
}

/* left is rows x d and right_t is d x columns, both row-major: the rows of
 * the right-hand points as columns.  With triangle 0, out is the rows x
 * columns matrix of every pair, as cdist lays it out; with triangle 1, left
 * and right_t hold the same points (rows == columns), and out is the
 * rows (rows - 1) / 2 pairs i < j in pdist's packed order, row by row.
 * Nothing here allocates or can fail. */
PER_CPU void kernel_arguments(int64_t rows, int64_t columns, int64_t d, const double *left,
                              const double *right_t, int64_t step, double parameter,
                              int64_t triangle, double *out)
{
    if (step == LAPLACIAN)
        argument_rows(rows, columns, d, left, right_t, LAPLACIAN, parameter, triangle, out);
    else
        argument_rows(rows, columns, d, left, right_t, step, parameter, triangle, out);
}
