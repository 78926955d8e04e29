/* The maximal-violation loop of solvers._greedy_ascent, compiled.
 *
 * Greedy coordinate ascent on max c'u - 0.5 u'Ku over lo <= u <= hi, with
 * the gradient s = c - Ku held in scores.  Every operation is the numpy
 * loop's (solvers._greedy_loop), in the same order, so each output bit is
 * the same: built with -ffp-contract=off and never with fast-math, so that
 * no fused multiply-add or reassociation changes a rounding.
 *
 * The violation of coordinate i is |min(max(s_i, floor_i), ceiling_i)|,
 * with NaN propagating as np.maximum and np.minimum propagate it; floor_i
 * is -inf while u_i > lo_i and 0 otherwise, and ceiling_i is inf while
 * u_i < hi_i and 0 otherwise.  The argmax is np.argmax's: the first index
 * of the maximum, or the first NaN.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

static double violation(double s, double floor, double ceiling)
{
    double v = s < floor ? floor : s;
    v = v > ceiling ? ceiling : v;
    return fabs(v);
}

/* scores -= delta * row, unless row is NULL, fused with the scan for the
 * argmax; returns its index and leaves the largest violation in *top. */
static int64_t update_and_argmax(int64_t n, const double *row, double delta,
                                 double *scores, const double *floor,
                                 const double *ceiling, double *top)
{
    int64_t k = 0;
    int nan = 0;
    double best = -1.0; /* a violation is >= 0 or NaN */
    for (int64_t i = 0; i < n; i++) {
        if (row != NULL) {
            double t = delta * row[i];
            scores[i] = scores[i] - t;
        }
        double v = violation(scores[i], floor[i], ceiling[i]);
        nan |= isnan(v);
        if (v > best) {
            best = v;
            k = i;
        }
    }
    if (nan) {
        for (k = 0; !isnan(violation(scores[k], floor[k], ceiling[k])); k++)
            ;
        best = NAN;
    }
    *top = best;
    return k;
}

/* kernel is the symmetric n x n matrix, row-major, whose row k is read as
 * column k.  u, scores, floor and ceiling are updated in place.  Returns the
 * number of updates made and leaves the last largest violation in
 * *residual. */
int64_t greedy_ascent(int64_t n, const double *kernel, const double *diag,
                      const double *lo, const double *hi, double *u,
                      double *scores, double *floor, double *ceiling,
                      int64_t budget, double tolerance, double *residual)
{
    int64_t updates = 0;
    double top;
    int64_t k = update_and_argmax(n, NULL, 0.0, scores, floor, ceiling, &top);
    while (!(top <= tolerance) && updates != budget) {
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
        k = update_and_argmax(n, kernel + k * n, delta, scores, floor, ceiling, &top);
    }
    *residual = top;
    return updates;
}
