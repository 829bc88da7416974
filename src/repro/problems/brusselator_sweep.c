/* One Brusselator waveform-relaxation sweep: the loop of
 * BrusselatorProblem._sweep_scalar (repro/problems/brusselator.py),
 * which is its reference and the path that runs wherever this file
 * cannot be compiled and loaded.
 *
 * Bit identity with the Python floats of the reference rests on three
 * things: every expression below keeps the Python order and grouping
 * (no subexpression is shared that the reference does not share, none
 * is regrouped); the build flags are -O2 -ffp-contract=off, with no
 * fast-math and no -march, so no multiply-add is fused and nothing is
 * reassociated; and both sides compute in IEEE-754 doubles.  The loader
 * still holds the compiled kernel to the reference on a probe batch
 * before its first use.
 *
 * Layout: ext is the padded (n + 2, 2, steps + 1) buffer, C-contiguous,
 * read only; row j + 1 is component j's previous-sweep trajectory, rows
 * j and j + 2 its lagged neighbours.  active lists the m swept
 * components (NULL: all n).  out receives, one after the other, new
 * (n, 2, steps + 1), work (n,), residuals max|new - old| (n,) and
 * (residual max, work sum, failed count at the first failing step); the
 * return value is that step, 0 when every step converged.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

int64_t brusselator_sweep(
    const double *ext, double *out, const ptrdiff_t *active, int64_t n,
    int64_t m, int64_t steps, double dt, double c, double tol,
    int64_t max_iter, double damping)
{
    const int64_t len = steps + 1, row = 2 * len;
    const double neg_tol = -tol, two_c = 2.0 * c;
    double *out_new = out, *work = out + n * row, *residuals = work + n;
    double *reduced = residuals + n;
    double top = 0.0;
    int64_t total = n - m; /* a skipped component's one unit */
    int64_t fail_step = 0, fail_count = 0;

    /* Skipped components keep their trajectories and pay one unit. */
    memcpy(out_new, ext + row, (size_t)(n * row) * sizeof(double));
    for (int64_t j = 0; j < n; j++) {
        work[j] = 1.0;
        residuals[j] = 0.0;
    }

    for (int64_t i = 0; i < m; i++) {
        const int64_t j = active ? (int64_t)active[i] : i;
        const double *ult = ext + j * row, *vlt = ult + len;
        const double *uu = ult + row, *vv = uu + len;
        const double *urt = uu + row, *vrt = urt + len;
        double *nu = out_new + j * row, *nv = nu + len;
        double res = 0.0, up = uu[0], vp = vv[0];
        int64_t w = 0;
        for (int64_t k = 1; k <= steps; k++) {
            const double ul = ult[k], ur = urt[k], vl = vlt[k], vr = vrt[k];
            double u = uu[k], v = vv[k]; /* guess: previous sweep's value */
            int64_t p = 0;
            int converged;
            for (;;) {
                const double u_sq = u * u;
                const double u_sq_v = u_sq * v;
                const double two_u = 2.0 * u;
                const double f1 = u - up - dt * (
                    1.0 + u_sq_v - 4.0 * u + c * (ul - two_u + ur));
                const double f2 = v - vp - dt * (
                    3.0 * u - u_sq_v + c * (vl - 2.0 * v + vr));
                converged = neg_tol <= f1 && f1 <= tol
                            && neg_tol <= f2 && f2 <= tol;
                if (converged || p == max_iter)
                    break;
                const double two_uv = two_u * v;
                const double j11 = 1.0 - dt * (two_uv - 4.0 - two_c);
                const double j12 = -dt * u_sq;
                const double j21 = -dt * (3.0 - two_uv);
                const double j22 = 1.0 + dt * (u_sq + two_c);
                const double det = j11 * j22 - j12 * j21;
                if (-1e-300 < det && det < 1e-300)
                    break; /* singular Jacobian: stop, unconverged */
                u = u - damping * ((j22 * f1 - j12 * f2) / det);
                v = v - damping * ((j11 * f2 - j21 * f1) / det);
                p += 1;
            }
            if (!converged) {
                /* Later steps cannot lower the first failing one. */
                if (fail_count == 0 || k < fail_step) {
                    fail_step = k;
                    fail_count = 1;
                } else if (k == fail_step) {
                    fail_count += 1;
                }
                break;
            }
            w += p ? p : 1;
            up = u;
            vp = v;
            if (p) {
                nu[k] = u;
                nv[k] = v;
                double d = u - uu[k];
                if (d < 0.0)
                    d = -d;
                if (d > res)
                    res = d;
                d = v - vv[k];
                if (d < 0.0)
                    d = -d;
                if (d > res)
                    res = d;
            }
        }
        work[j] = (double)w;
        total += w;
        residuals[j] = res;
        if (res > top)
            top = res;
    }
    reduced[0] = top;
    reduced[1] = (double)total;
    reduced[2] = (double)fail_count;
    return fail_step;
}
