/* The three problems' sweeps and the lockstep replay's round, compiled:
 * one CPython extension module.
 *
 *   brusselator  BrusselatorProblem._sweep as one loop: the NumPy skip
 *                mask, the loop of _sweep_scalar and the kept residuals
 *                of the skipped components (repro/problems/brusselator.py);
 *   heat         the NumPy sweep of HeatProblem._sweep as one loop
 *                (repro/problems/heat.py);
 *   synthetic    the NumPy sweep of SyntheticProblem._sweep as one loop,
 *                with the work sum in NumPy's pairwise order
 *                (repro/problems/synthetic.py);
 *   lockstep_round  one round of the lockstep SISC replay, from the
 *                durations to the next round's scheduling order
 *                (_round in repro/models/lockstep.py).
 *
 * Each Python function named is its loop's reference and the path that
 * runs wherever this file cannot be compiled and loaded
 * (repro/problems/_compiled.py).
 *
 * Bit identity with the references rests on three things: every
 * expression below keeps the Python order and grouping (no
 * subexpression is shared that the reference does not share, none
 * is regrouped); the build flags are -O2 -ffp-contract=off, with no
 * fast-math and no -march, so no multiply-add is fused and nothing is
 * reassociated; and both sides compute in IEEE-754 doubles.  The loader
 * still holds every function to its reference on probe cases before its
 * first use.
 *
 * Arrays pass through the buffer protocol only (no NumPy headers): each
 * must be C-contiguous, of format "d", and as long as n and steps say,
 * else the call raises before it writes anything.  Output buffers are the
 * caller's.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* One Brusselator waveform-relaxation sweep of block, (n, 2, steps + 1),
 * between the halo trajectories left and right, (2, steps + 1) each, all
 * read only: a component's lagged neighbours are the rows either side of
 * it, a halo at the block's edges.
 *
 * Skipping (streak not NULL): component j keeps its trajectory, pays one
 * work unit and reports its kept residual prev_res[j] when its own
 * residual and both its neighbours' (at the block's edges: whether that
 * halo is quiet) were below threshold and its streak is below period.
 *
 * out receives, one after the other, new (n, 2, steps + 1), work (n,),
 * residuals max|new - old| (n,), the next streak (n,: one more where
 * skipped, else 0) and (residual max, work sum, failed count at the first
 * failing step); the return value is that step, 0 when every step
 * converged.
 */
static int64_t brusselator_sweep(
    const double *left, const double *block, const double *right,
    double *out, const double *prev_res, const double *streak,
    int left_quiet, int right_quiet, double threshold, double period,
    int64_t n, int64_t steps, double dt, double c, double tol,
    int64_t max_iter, double damping)
{
    const int64_t len = steps + 1, row = 2 * len;
    const double neg_tol = -tol, two_c = 2.0 * c;
    double *out_new = out, *work = out + n * row, *residuals = work + n;
    double *next = residuals + n, *reduced = next + n;
    double top = 0.0;
    int64_t total = 0;
    int64_t fail_step = 0, fail_count = 0;

    /* Every component starts from its old trajectory: a skipped one
     * keeps it, a swept one changes the steps Newton moves. */
    memcpy(out_new, block, (size_t)(n * row) * sizeof(double));
    for (int64_t j = 0; j < n; j++) {
        const double *uu = block + j * row, *vv = uu + len;
        const double *ult = j ? uu - row : left, *vlt = ult + len;
        const double *urt = j + 1 < n ? uu + row : right, *vrt = urt + len;
        double *nu = out_new + j * row, *nv = nu + len;
        if (streak
            && prev_res[j] < threshold
            && (j ? prev_res[j - 1] < threshold : left_quiet)
            && (j + 1 < n ? prev_res[j + 1] < threshold : right_quiet)
            && streak[j] < period) {
            const double kept = prev_res[j];
            work[j] = 1.0;
            total += 1;
            residuals[j] = kept;
            if (kept > top)
                top = kept;
            next[j] = streak[j] + 1.0;
            continue;
        }
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
        next[j] = 0.0;
    }
    reduced[0] = top;
    reduced[1] = (double)total;
    reduced[2] = (double)fail_count;
    return fail_step;
}

/* One heat waveform-relaxation sweep of the (n, steps + 1) block between
 * the left and right halo trajectories (steps + 1 each).  out receives
 * new (n, steps + 1), residuals max|new - old| (n,) and work (n,); the
 * return value is the residuals' max.  *nan is set when a residual is
 * NaN: the caller then takes them with NumPy, which picks the NaN.
 */
static double heat_sweep(
    const double *left, const double *block, const double *right,
    double *out, Py_ssize_t n, Py_ssize_t steps, double c_dt, double denom,
    int *nan)
{
    const Py_ssize_t len = steps + 1;
    double *residuals = out + n * len, *work = residuals + n;
    double top = 0.0;

    *nan = 0;
    for (Py_ssize_t j = 0; j < n; j++) {
        const double *row = block + j * len;
        const double *lt = j ? row - len : left;
        const double *rt = j + 1 < n ? row + len : right;
        double *nw = out + j * len;
        double x = row[0];
        double res = x - x; /* the step-0 term: 0.0, or NaN from inf / NaN */
        nw[0] = x;
        if (res != res)
            *nan = 1;
        for (Py_ssize_t k = 1; k <= steps; k++) {
            x = (x + c_dt * (lt[k] + rt[k])) / denom;
            nw[k] = x;
            double d = x - row[k];
            if (d < 0.0)
                d = -d;
            if (!(d <= res)) {
                if (d != d)
                    *nan = 1;
                res = d;
            }
        }
        residuals[j] = res;
        work[j] = (double)steps;
        if (res > top)
            top = res;
    }
    return top;
}

/* float(np.array(a[:n]).sum()): NumPy's pairwise_sum, in order below 8
 * values, in eight interleaved partial sums up to 128, and halved at a
 * multiple of 8 above. */
static double pairwise_sum(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        Py_ssize_t i;
        for (i = 8; i < n - n % 8; i += 8) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* One synthetic sweep of the n errors e (rates: theirs) between two halo
 * values.  out receives new (n,), the same values again as residuals
 * (n,) and work (n,); the return value is the max of new.  *redo is set
 * when that max is NaN or a zero, whose payload or sign NumPy's
 * reduction order picks: the caller then takes it with NumPy. */
static double synthetic_sweep(
    const double *rates, const double *e, double left, double right,
    double *out, Py_ssize_t n, double g, double threshold, double base,
    double active, int *redo)
{
    double *residuals = out + n, *work = residuals + n;
    double top = -INFINITY;

    *redo = 0;
    for (Py_ssize_t j = 0; j < n; j++) {
        /* np.maximum(a, b) is a if a > b or a != a else b */
        const double a = j ? e[j - 1] : left;
        const double b = j + 1 < n ? e[j + 1] : right;
        const double x = e[j];
        const double u = rates[j] * x;
        const double w = g * (a > b || a != a ? a : b);
        const double v = u > w || u != u ? u : w;
        out[j] = v;
        residuals[j] = v;
        work[j] = x > threshold ? active : base;
        if (v > top)
            top = v;
        else if (v != v)
            *redo = 1;
    }
    if (top == 0.0)
        *redo = 1;
    return top;
}

/* np.maximum(a, b): a when a > b or a is NaN, else b. */
#define NP_MAX(a, b) ((a) > (b) || (a) != (a) ? (a) : (b))

/* np.lexsort's order of two floats: a before b, NaNs last and equal. */
static int less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* Whether index a sorts before index b on keys[0], then keys[1], ... */
static int sorts_before(
    const double *const *keys, int n_keys, Py_ssize_t a, Py_ssize_t b)
{
    for (int i = 0; i < n_keys; i++) {
        if (less(keys[i][a], keys[i][b]))
            return 1;
        if (less(keys[i][b], keys[i][a]))
            return 0;
    }
    return 0;
}

/* np.lexsort of 0..n-1 with keys[0] as the primary key (the reverse of
 * lexsort's argument order): a stable bottom-up merge sort into idx,
 * through tmp (n each). */
static void lexsort(
    const double *const *keys, int n_keys, Py_ssize_t *idx, Py_ssize_t *tmp,
    Py_ssize_t n)
{
    for (Py_ssize_t i = 0; i < n; i++)
        idx[i] = i;
    for (Py_ssize_t width = 1; width < n; width *= 2) {
        for (Py_ssize_t lo = 0; lo < n; lo += 2 * width) {
            const Py_ssize_t mid = lo + width < n ? lo + width : n;
            const Py_ssize_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            Py_ssize_t i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                tmp[o++] = sorts_before(keys, n_keys, idx[j], idx[i])
                    ? idx[j++] : idx[i++];
            while (i < mid)
                tmp[o++] = idx[i++];
            while (j < hi)
                tmp[o++] = idx[j++];
        }
        memcpy(idx, tmp, (size_t)n * sizeof(Py_ssize_t));
    }
}

/* Whether a halo arriving at t dispatches after its receiver's end event
 * (mid at t_mid, end at t_end), its sender's end being at t_sent: on an
 * exact tie the sender's end key nests below the receiver's mid key. */
static int late(double t, double t_sent, double t_mid, double t_end)
{
    return t > t_end || (t == t_end && t_sent >= t_mid);
}

/* One round of the lockstep SISC replay: _round in
 * repro/models/lockstep.py, whose comments give the event semantics.
 * state rows: pos0, streak, busy, idle, iterations, residual, the two
 * FIFO clamps; platform rows: rates, the two transfer times; out rows:
 * t_mid, t_se, the two arrivals, the end and barrier orders.  aux (5 n)
 * and idx (2 n) are scratch.  Returns 0 when the run ends inside this
 * round (a stop, or a barrier past the horizon; NaN: none), with state
 * untouched and the barrier order not written; else 1, the round booked,
 * the next barrier time in *t_next and the events in *events. */
static int lockstep_round_c(
    double *state, const double *platform, const double *work,
    const double *residual, double *out, double *aux, Py_ssize_t *idx,
    Py_ssize_t n, double T, long long k, double split, double eps,
    double min_sweep, double tol, double persistence, long long max_iter,
    double horizon, double *t_next, long long *events)
{
    double *pos0 = state, *streak = pos0 + n, *busy = streak + n;
    double *idle = busy + n, *iters = idle + n, *res_at = iters + n;
    double *last = res_at + n;
    const double *rates = platform, *t2 = platform + n;
    double *t_mid = out, *t_se = t_mid + n, *arr = t_se + n;
    double *order_end = arr + 2 * n, *order_arr = order_end + n;
    double *pos = aux, *next = pos + n, *key1 = next + n, *key2 = key1 + n;
    double *A = key2 + n;
    Py_ssize_t *order = idx, *tmp = idx + n;
    Py_ssize_t r, i;

    for (r = 0; r < n; r++) {
        const double d = NP_MAX(work[r] / rates[r], min_sweep);
        const double first = d * split;
        t_mid[r] = T + first;
        t_se[r] = t_mid[r] + (d - first);
    }
    const double *by_mid[2] = {t_mid, pos0};
    lexsort(by_mid, 2, order, tmp, n);
    for (i = 0; i < n; i++)
        pos[order[i]] = (double)i;
    const double *by_end[2] = {t_se, pos};
    lexsort(by_end, 2, order, tmp, n);
    for (i = 0; i < n; i++) {
        order_end[i] = (double)order[i];
        pos[order[i]] = (double)i; /* now each end's dispatch position */
    }
    for (i = 0; i < 2 * n; i++)
        arr[i] = NP_MAX(t_se[i % n] + t2[i], last[i] + eps);

    /* Stop scan: a trigger at the first end position whose prefix has
     * the new streaks and whose suffix the old ones; an abort at 0. */
    Py_ssize_t head = 0, tail = n;
    for (r = 0; r < n; r++)
        next[r] = (streak[r] + 1.0) * (double)(residual[r] < tol);
    while (head < n && next[order[head]] >= persistence)
        head++;
    while (tail > 0 && streak[order[tail - 1]] >= persistence)
        tail--;
    const Py_ssize_t trigger = tail ? tail - 1 : 0;
    const Py_ssize_t stop = k + 1 >= max_iter ? 0 : trigger < head ? trigger : -1;
    if (stop >= 0 && (horizon != horizon || t_se[order[stop]] <= horizon))
        return 0;

    /* Late halos, barrier arrivals and the barrier order's keys. */
    double top = 0.0;
    long long n_events = 5 * (long long)n - 3;
    for (r = 0; r < n; r++) {
        const Py_ssize_t sl = r ? r - 1 : 0, sr = r + 1 < n ? r + 1 : n - 1;
        const double in_l = arr[n + (r ? r - 1 : n - 1)];
        const double in_r = arr[r + 1 < n ? r + 1 : 0];
        const int late_l = late(in_l, t_se[sl], t_mid[r], t_se[r]);
        const int late_r = late(in_r, t_se[sr], t_mid[r], t_se[r]);
        const int same = in_l == in_r;
        A[r] = NP_MAX(late_l ? in_l : t_se[r], late_r ? in_r : t_se[r]);
        top = r ? NP_MAX(top, A[r]) : A[r];
        n_events += late_l + late_r - (late_l && late_r && same);
        if (late_l || late_r) {
            const int use_l = late_l && late_r
                ? (same ? pos[sl] < pos[sr] : in_l > in_r) : late_l;
            key1[r] = A[r];
            key2[r] = (use_l ? pos[sl] : pos[sr]) + (double)n;
        } else {
            key1[r] = t_mid[r];
            key2[r] = pos0[r];
        }
    }
    if (top > horizon)
        return 0;

    const double *by_arrival[3] = {A, key1, key2};
    lexsort(by_arrival, 3, order, tmp, n);
    for (i = 0; i < n; i++) {
        order_arr[i] = (double)order[i];
        pos0[order[i]] = (double)((i + 1) % n);
    }
    for (r = 0; r < n; r++) {
        busy[r] = (busy[r] + t_se[r]) - T;
        iters[r] += 1.0;
        res_at[r] = residual[r];
        streak[r] = next[r];
        if (top > t_se[r])
            idle[r] = (idle[r] + top) - t_se[r];
    }
    memcpy(last, arr, (size_t)(2 * n) * sizeof(double));
    *t_next = top;
    *events = n_events;
    return 1;
}

/* ------------------------------------------------------------------ */
/* The module: argument checks, then the loops above                   */
/* ------------------------------------------------------------------ */

/* Fill view with obj's C-contiguous buffer of format "d", writable if
 * asked; its item count in *count. */
static int get_array(
    PyObject *obj, Py_buffer *view, int writable, const char *name,
    Py_ssize_t *count)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    const char *f = view->format ? view->format : "B";
    if (view->itemsize != sizeof(double) || strcmp(f, "d") != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be float64, got format '%s'",
                     name, f);
        PyBuffer_Release(view);
        return -1;
    }
    *count = view->len / view->itemsize;
    return 0;
}

/* A halo value: a float, or a buffer holding one float64. */
static int get_value(PyObject *obj, const char *name, double *value)
{
    if (PyFloat_Check(obj)) {
        *value = PyFloat_AS_DOUBLE(obj);
        return 0;
    }
    if (!PyObject_CheckBuffer(obj)) {
        *value = PyFloat_AsDouble(obj);
        return *value == -1.0 && PyErr_Occurred() ? -1 : 0;
    }
    Py_buffer view = {0};
    Py_ssize_t count;
    if (get_array(obj, &view, 0, name, &count) < 0)
        return -1;
    if (count == 1)
        *value = *(const double *)view.buf;
    PyBuffer_Release(&view);
    if (count != 1) {
        PyErr_Format(PyExc_ValueError, "%s must hold 1 value, got %zd",
                     name, count);
        return -1;
    }
    return 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

static PyObject *length_error(const char *name)
{
    PyErr_Format(PyExc_ValueError,
                 "%s(): buffer lengths do not match n and steps", name);
    return NULL;
}

PyDoc_STRVAR(brusselator_doc,
"brusselator(left, block, right, out, prev_res, streak, left_quiet,\n"
"            right_quiet, steps, dt, c, tol, max_iter, damping, threshold,\n"
"            period)\n"
"\n"
"One Brusselator sweep of block, (n, 2, steps + 1), between the halo\n"
"trajectories left and right, (2, steps + 1) each.  With a streak (None:\n"
"no skipping), a component keeps its trajectory and its prev_res when its\n"
"own and both neighbours' prev_res are below threshold (a block edge's:\n"
"its halo quiet) and its streak is below period.  out, of\n"
"n * 2 * (steps + 1) + 3 * n + 3 float64, receives new, work, residuals,\n"
"the next streak and (residual max, work sum, failed count); returns the\n"
"first failing step, 0 when every step converged.");

static PyObject *brusselator(
    PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer left = {0}, block = {0}, right = {0}, out = {0};
    Py_buffer prev = {0}, streak = {0};
    Py_ssize_t n_left, n_block, n_right, n_out, n_prev = 0, n_streak = 0;
    PyObject *result = NULL;

    if (check_nargs("brusselator", nargs, 16) < 0)
        return NULL;
    const int left_quiet = PyObject_IsTrue(args[6]);
    const int right_quiet = PyObject_IsTrue(args[7]);
    const Py_ssize_t steps = PyNumber_AsSsize_t(args[8], PyExc_OverflowError);
    const double dt = PyFloat_AsDouble(args[9]);
    const double c = PyFloat_AsDouble(args[10]);
    const double tol = PyFloat_AsDouble(args[11]);
    const long long max_iter = PyLong_AsLongLong(args[12]);
    const double damping = PyFloat_AsDouble(args[13]);
    const double threshold = PyFloat_AsDouble(args[14]);
    const double period = PyFloat_AsDouble(args[15]);
    if (PyErr_Occurred())
        return NULL;
    const int skipping = args[5] != Py_None;
    if (get_array(args[0], &left, 0, "left", &n_left) < 0
        || get_array(args[1], &block, 0, "block", &n_block) < 0
        || get_array(args[2], &right, 0, "right", &n_right) < 0
        || get_array(args[3], &out, 1, "out", &n_out) < 0
        || (skipping
            && (get_array(args[4], &prev, 0, "prev_res", &n_prev) < 0
                || get_array(args[5], &streak, 0, "streak", &n_streak) < 0)))
        goto done;
    const Py_ssize_t row = 2 * (steps + 1);
    const Py_ssize_t n = steps < 0 || steps >= n_left ? -1 : n_block / row;
    if (n < 0 || n * row != n_block || n_left != row || n_right != row
        || n_out != n * row + 3 * n + 3
        || (skipping && (n_prev != n || n_streak != n))) {
        length_error("brusselator");
        goto done;
    }
    result = PyLong_FromLongLong(brusselator_sweep(
        left.buf, block.buf, right.buf, out.buf,
        skipping ? prev.buf : NULL, skipping ? streak.buf : NULL,
        left_quiet, right_quiet, threshold, period, n, steps, dt, c, tol,
        max_iter, damping));
done:
    PyBuffer_Release(&left);
    PyBuffer_Release(&block);
    PyBuffer_Release(&right);
    PyBuffer_Release(&out);
    PyBuffer_Release(&prev);
    PyBuffer_Release(&streak);
    return result;
}

PyDoc_STRVAR(heat_doc,
"heat(left, block, right, out, steps, c_dt, denom)\n"
"\n"
"One heat sweep of block, (n, steps + 1), between the halo trajectories\n"
"left and right (steps + 1 each).  out, of n * (steps + 3) float64,\n"
"receives new, residuals and work; returns the residuals' max, or None\n"
"when one is NaN.");

static PyObject *heat(
    PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer left = {0}, block = {0}, right = {0}, out = {0};
    Py_ssize_t n_left, n_block, n_right, n_out;
    PyObject *result = NULL;
    int nan;

    if (check_nargs("heat", nargs, 7) < 0)
        return NULL;
    const Py_ssize_t steps = PyNumber_AsSsize_t(args[4], PyExc_OverflowError);
    const double c_dt = PyFloat_AsDouble(args[5]);
    const double denom = PyFloat_AsDouble(args[6]);
    if (PyErr_Occurred())
        return NULL;
    if (get_array(args[0], &left, 0, "left", &n_left) < 0
        || get_array(args[1], &block, 0, "block", &n_block) < 0
        || get_array(args[2], &right, 0, "right", &n_right) < 0
        || get_array(args[3], &out, 1, "out", &n_out) < 0)
        goto done;
    const Py_ssize_t len = n_left;
    const Py_ssize_t n = steps < 0 || steps != len - 1 ? -1 : n_block / len;
    if (n < 0 || n * len != n_block || n_right != len
        || n_out != n * (len + 2)) {
        length_error("heat");
        goto done;
    }
    const double top = heat_sweep(
        left.buf, block.buf, right.buf, out.buf, n, steps, c_dt, denom,
        &nan);
    if (nan) {
        Py_INCREF(Py_None);
        result = Py_None;
    } else {
        result = PyFloat_FromDouble(top);
    }
done:
    PyBuffer_Release(&left);
    PyBuffer_Release(&block);
    PyBuffer_Release(&right);
    PyBuffer_Release(&out);
    return result;
}

PyDoc_STRVAR(synthetic_doc,
"synthetic(rates, lo, errors, left, right, out, coupling, threshold,\n"
"          base, active)\n"
"\n"
"One synthetic sweep of the n errors, whose rates are rates[lo:lo + n],\n"
"between two halo values (floats or one-value buffers).  out, of 3 * n\n"
"float64, receives new, residuals (new again) and work; returns (the\n"
"max of new, or None when it is NaN or a zero; the work's sum).");

static PyObject *synthetic(
    PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer rates = {0}, errors = {0}, out = {0};
    Py_ssize_t n_rates, n, n_out;
    PyObject *result = NULL, *top_obj = NULL, *total_obj = NULL;
    double left, right;
    int redo;

    if (check_nargs("synthetic", nargs, 10) < 0)
        return NULL;
    const Py_ssize_t lo = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    const double g = PyFloat_AsDouble(args[6]);
    const double threshold = PyFloat_AsDouble(args[7]);
    const double base = PyFloat_AsDouble(args[8]);
    const double active = PyFloat_AsDouble(args[9]);
    if (PyErr_Occurred() || get_value(args[3], "left", &left) < 0
        || get_value(args[4], "right", &right) < 0)
        return NULL;
    if (get_array(args[0], &rates, 0, "rates", &n_rates) < 0
        || get_array(args[2], &errors, 0, "errors", &n) < 0
        || get_array(args[5], &out, 1, "out", &n_out) < 0)
        goto done;
    if (lo < 0 || lo > n_rates - n || n_out != 3 * n) {
        length_error("synthetic");
        goto done;
    }
    const double top = synthetic_sweep(
        (const double *)rates.buf + lo, errors.buf, left, right, out.buf, n,
        g, threshold, base, active, &redo);
    const double total = pairwise_sum((const double *)out.buf + 2 * n, n);
    if (redo) {
        Py_INCREF(Py_None);
        top_obj = Py_None;
    } else {
        top_obj = PyFloat_FromDouble(top);
    }
    total_obj = PyFloat_FromDouble(total);
    if (top_obj && total_obj)
        result = PyTuple_Pack(2, top_obj, total_obj);
    Py_XDECREF(top_obj);
    Py_XDECREF(total_obj);
done:
    PyBuffer_Release(&rates);
    PyBuffer_Release(&errors);
    PyBuffer_Release(&out);
    return result;
}

PyDoc_STRVAR(lockstep_round_doc,
"lockstep_round(state, platform, work, residual, out, T, k, split, eps,\n"
"               min_sweep, tol, persistence, max_iterations, horizon)\n"
"\n"
"One round of the lockstep SISC replay over n ranks (n = len(work)),\n"
"opening at T after k rounds: state (8 n float64) is pos0, streak, busy,\n"
"idle, iterations, residual and the two FIFO clamps; platform (3 n) the\n"
"rates and the two transfer times; out (6 n) receives t_mid, t_se, the\n"
"two arrivals, the end order and the barrier order.  Returns (the next\n"
"barrier time, the events dispatched) with the round booked in state,\n"
"or None, state untouched, when the run ends inside this round.");

static PyObject *lockstep_round(
    PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *names[5] = {"state", "platform", "work", "residual",
                                   "out"};
    static const Py_ssize_t rows[5] = {8, 3, 1, 1, 6};
    Py_buffer views[5] = {{0}};
    Py_ssize_t counts[5];
    PyObject *result = NULL;
    int i;

    if (check_nargs("lockstep_round", nargs, 14) < 0)
        return NULL;
    const double T = PyFloat_AsDouble(args[5]);
    const long long k = PyLong_AsLongLong(args[6]);
    const double split = PyFloat_AsDouble(args[7]);
    const double eps = PyFloat_AsDouble(args[8]);
    const double min_sweep = PyFloat_AsDouble(args[9]);
    const double tol = PyFloat_AsDouble(args[10]);
    const double persistence = PyFloat_AsDouble(args[11]);
    const long long max_iter = PyLong_AsLongLong(args[12]);
    const double horizon = PyFloat_AsDouble(args[13]);
    if (PyErr_Occurred())
        return NULL;
    for (i = 0; i < 5; i++)
        if (get_array(args[i], &views[i], i == 0 || i == 4, names[i],
                      &counts[i]) < 0)
            goto done;
    const Py_ssize_t n = counts[2];
    for (i = 0; i < 5; i++)
        if (n < 1 || counts[i] != rows[i] * n) {
            PyErr_SetString(PyExc_ValueError,
                            "lockstep_round(): buffer lengths do not match "
                            "the rank count");
            goto done;
        }
    char *scratch = PyMem_Malloc(
        (size_t)n * (5 * sizeof(double) + 2 * sizeof(Py_ssize_t)));
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double t_next;
    long long events;
    const int booked = lockstep_round_c(
        views[0].buf, views[1].buf, views[2].buf, views[3].buf, views[4].buf,
        (double *)scratch, (Py_ssize_t *)(scratch + 5 * n * sizeof(double)),
        n, T, k, split, eps, min_sweep, tol, persistence, max_iter, horizon,
        &t_next, &events);
    PyMem_Free(scratch);
    if (booked) {
        result = Py_BuildValue("(dL)", t_next, events);
    } else {
        Py_INCREF(Py_None);
        result = Py_None;
    }
done:
    for (i = 0; i < 5; i++)
        PyBuffer_Release(&views[i]);
    return result;
}

static PyMethodDef sweeps_methods[] = {
    {"brusselator", (PyCFunction)(void (*)(void))brusselator, METH_FASTCALL,
     brusselator_doc},
    {"heat", (PyCFunction)(void (*)(void))heat, METH_FASTCALL, heat_doc},
    {"synthetic", (PyCFunction)(void (*)(void))synthetic, METH_FASTCALL,
     synthetic_doc},
    {"lockstep_round", (PyCFunction)(void (*)(void))lockstep_round,
     METH_FASTCALL, lockstep_round_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sweeps_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sweeps",
    .m_doc = "The three problems' sweeps and the lockstep round, compiled.",
    .m_size = 0,
    .m_methods = sweeps_methods,
};

PyMODINIT_FUNC PyInit__sweeps(void)
{
    return PyModuleDef_Init(&sweeps_module);
}
